"""Circuit intermediate representation, staircase synthesis, resources, I/O.

The gate alphabet is deliberately small: X, H, BasisY, Rz(angle), CNOT,
SWAP, CSWAP, T, Tdg.  BasisY is the Hermitian, self-inverse single-qubit
basis change V = (Y + Z)/sqrt(2) = S H S^dagger, which conjugates Z into Y
the same way H conjugates Z into X; it exports to OpenQASM as the triple
sdg, h, s.  S and Sdg themselves are accepted on re-import so that an
exported circuit round-trips through a simulator.

exp(-i theta c P) for a single Pauli string P with real coefficient c is
synthesized as the usual CNOT staircase: basis changes onto Z, an ascending
CNOT ladder onto the highest active qubit, Rz(2 theta c) there, then the
mirror.  Our Rz convention is Rz(phi) = exp(-i phi Z / 2), so a weight-p
string costs 2(p-1) CNOTs and identity strings contribute only a global
phase.  A first-order Trotter step is the concatenation of term circuits
in a deterministic term order.

One numpy layout, _staircase, synthesizes every step.  It takes the sum
packed (paulis.PackedSum, a padded row of codes per string), checks that
it is Hermitian by the one realness rule (paulis._real), and computes, for
all strings at once, each gate's (kind, qubits) key and its position:
basis changes, ladder, Rz, mirrored ladder, basis changes.  It numbers the
keys in sorted order (an id is only a label to every consumer) and returns
those gate ids, the Rz positions and angles, and the identity string's
phase.  Its register and finite-angle checks run on whole arrays, but
raise for the first offending string in term order, with the text each
string's own Gate would give.  Gate is immutable, so trotter_step and
trotter_term put one validated Gate per id (_staircase_gate) at each of
its positions and build per term only the Rz, which carries its angle.
Pricing needs no Gate per gate: _trotter_ids hands the optimizer's core
the ids and the Rz angles.  Every angle and phase is a Python float.

Resource counting takes one histogram of gate kinds.  It can count SWAP
as 3 CNOTs and CSWAP as the textbook Clifford+T network (8 CNOTs, 2 H,
4 T, 3 Tdg via a Toffoli conjugated by CNOTs), each as its template's
histogram with no expanded gate built, to give fault-tolerant-flavoured
totals.
"""

from __future__ import annotations

import functools
import json
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from .paulis import (_END, PackedSum, PauliString, PauliSum, _check_index, _int_error,
                     _is_finite_real, _is_nonneg_int)

GATE_ARITY = {
    "X": 1, "H": 1, "BasisY": 1, "Rz": 1, "T": 1, "Tdg": 1,
    "S": 1, "Sdg": 1,
    "CNOT": 2, "SWAP": 2, "CSWAP": 3,
}
ENTANGLING_KINDS = ("CNOT", "SWAP", "CSWAP")


@dataclass(frozen=True)
class Gate:
    """kind, qubit tuple (control(s) first), and an angle for Rz only.

    For CNOT the tuple is (control, target); for CSWAP it is
    (control, a, b) with a and b the swapped pair.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, "
                             f"got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind}{self.qubits}")
        for q in self.qubits:
            if not _is_nonneg_int(q):
                raise _int_error(q, f"negative qubit index in {self.qubits}")
        if (self.kind == "Rz") != (self.angle is not None):
            raise ValueError("angle is required for Rz and forbidden otherwise")
        if self.angle is not None:
            _check_angle(self.angle)

    def support(self) -> frozenset[int]:
        return frozenset(self.qubits)


def _check_angle(angle) -> None:
    if not _is_finite_real(angle):
        raise ValueError(f"Rz angle must be a finite real number, got {angle!r}")


@dataclass
class Circuit:
    """Gate list applied left to right, plus an accumulated global phase
    (the circuit's unitary is exp(i * global_phase) times the gate product)."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0

    def __post_init__(self):
        if not _is_nonneg_int(self.n_qubits):
            raise _int_error(self.n_qubits, "n_qubits must be non-negative", "n_qubits")

    def add(self, kind: str, *qubits: int, angle: float | None = None) -> "Circuit":
        g = Gate(kind, tuple(qubits), angle)
        if any(q >= self.n_qubits for q in qubits):
            raise ValueError(f"qubit index out of range for {self.n_qubits}-qubit circuit")
        self.gates.append(g)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            if any(q >= self.n_qubits for q in g.qubits):
                raise ValueError("qubit index out of range")
            self.gates.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


# ---------------------------------------------------------------------------
# staircase synthesis

@functools.lru_cache(maxsize=1 << 14)
def _staircase_gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """The one validated Gate shared by every staircase position of (kind,
    qubits); an Rz's angle in it is a placeholder 0.0."""
    return Gate(kind, qubits, 0.0 if kind == "Rz" else None)


_KINDS = ("H", "BasisY", "CNOT", "Rz")  # a layout gate's kind is _KINDS[key & 3]
# Up to this register width _staircase numbers its keys, all below 4 n^2,
# by a mask of the keys present and its running count; above it by
# np.unique's sort, as the mask grows with n^2 and a string's gates with n.
# On random sums of weight-4 strings, the mask took 0.55 ms against the
# sort's 0.65 ms for 500 strings on 64 qubits (0.16 against 0.12 ms for
# 20), and lost at 128 qubits for both sizes.
_DENSE_KEYS_MAX = 64


def _staircase(h: PackedSum, theta: float) -> tuple[np.ndarray, dict, np.ndarray, list, float]:
    """The one staircase layout, every string of h at once, in h's order.

    Returns gid (gate i's number for its (kind, qubits) in ids, numbered
    in sorted key order), ids, the positions of the Rz gates and their
    angles as floats, and the global phase of the identity string.  A sum
    that is not Hermitian raises first; then the first string in h that
    acts outside the register, or whose Rz angle is not finite, raises the
    ValueError that its staircase did when it was built one string at a
    time."""
    if not h.is_hermitian():
        raise ValueError("trotter_step needs a Hermitian Pauli sum: a coefficient is non-real")
    n, rows = h.n_qubits, h.rows
    live = rows != _END
    lens, codes = live.sum(axis=1), rows[live]
    q, letter = (codes >> 2).astype(np.int64), codes & 3
    on = np.flatnonzero(lens)  # the strings other than the identity
    p = lens[on]
    first = np.cumsum(p) - p  # each string's first entry
    last = first + p - 1
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats overflow
        angles = 2.0 * theta * h.re[on]
        identity = h.re[lens == 0]  # at most one string
        phase = 0.0 + float(-theta * identity[0]) if len(identity) else 0.0
    outside = (live & ((rows < 0) | (rows >= 4 * n))).any(axis=1)[on]
    bad = np.flatnonzero(outside | ~np.isfinite(angles))
    if len(bad):
        if outside[bad[0]]:
            raise ValueError("Pauli string acts outside the register")
        _check_angle(angles[bad[0]].item())
    # A string of p entries, nb of them X or Y, takes 2 nb + 2 p - 1 gates
    # from at: basis changes, ladder from at + nb, Rz, mirror, basis changes.
    basis = letter != 3
    rank = np.cumsum(basis) - basis  # basis changes before each entry
    nb = rank[last] + basis[last] - rank[first]
    size = 2 * nb + 2 * p - 1
    at = np.cumsum(size) - size
    string = np.repeat(np.arange(len(on)), p)
    ladder, twice = (at + nb)[string], (2 * p)[string]  # of each entry's string
    # A gate's key is (a * n + b) * 4 + its index in _KINDS, with b = a on
    # one qubit.
    key = np.empty(int(size.sum()), np.int64)
    single = q * (4 * n + 4)  # an entry's one-qubit key, less the kind
    e = np.flatnonzero(basis)
    r = rank[e] - rank[first][string[e]]
    key[at[string[e]] + r] = key[ladder[e] + twice[e] - 1 + r] = single[e] + letter[e] - 1
    e = np.flatnonzero(np.arange(len(q)) < last[string])  # a CNOT onto the next entry
    j = e - first[string[e]]
    key[ladder[e] + j] = key[ladder[e] + twice[e] - 2 - j] = (q[e] * n + q[e + 1]) * 4 + 2
    rz = at + nb + p - 1
    key[rz] = single[last] + 3
    del live, codes, q, letter, basis, rank, string, ladder, twice, single, e, r, j
    if n <= _DENSE_KEYS_MAX:
        seen = np.zeros(4 * n * n, bool)
        seen[key] = True
        gid = np.cumsum(seen, dtype=np.intc).take(key) - 1
        uniq = np.flatnonzero(seen)
    else:
        uniq, gid = np.unique(key, return_inverse=True)
    del key
    ids = {}
    for k in uniq.tolist():
        a, b = divmod(k >> 2, n)
        ids[_KINDS[k & 3], (a, b) if k & 3 == 2 else (a,)] = len(ids)
    return gid.astype(np.intc), ids, rz, angles.tolist(), phase


def _circuit(h: PackedSum, theta: float) -> Circuit:
    """The staircase circuit of h: the one Gate of each id at every gate of
    that id, and a validated Gate per Rz."""
    gid, ids, rz, angles, phase = _staircase(h, theta)
    shared = np.empty(len(ids), object)
    shared[:] = [_staircase_gate(kind, qubits) for kind, qubits in ids]
    gates = shared[gid].tolist()
    del gid, shared
    for i, angle in zip(rz.tolist(), angles):
        gates[i] = Gate("Rz", gates[i].qubits, angle)
    return Circuit(h.n_qubits, gates, phase)


def trotter_term(p: PauliString, coeff: complex, theta: float, n_qubits: int) -> Circuit:
    """Circuit for exp(-i theta coeff P); coeff must be real (Hermitian term)."""
    for q, _ in p:
        _check_index(q)
    return _circuit(PackedSum.pack([(p, coeff)], n_qubits), theta)


def trotter_step(h: PauliSum, theta: float) -> Circuit:
    """First-order product formula: one term circuit per Pauli string, in
    the pseudo-alphabetical string order (deterministic)."""
    packed = PackedSum.pack(sorted(h.terms.items(), key=itemgetter(0)), h.n_qubits)
    return _circuit(packed, theta)


def _trotter_ids(h: PackedSum, theta: float) -> tuple[array, dict, list[float]]:
    """trotter_step of h, whose strings are in Trotter order, packed, with
    the same checks: gid[i] numbers gate i's (kind, qubits) in ids, in
    sorted key order, and angles[i] is its Rz angle (0.0 off the Rz
    gates).  The global phase is dropped."""
    gid, ids, rz, angles, _ = _staircase(h, theta)
    at = [0.0] * len(gid)
    for i, angle in zip(rz.tolist(), angles):
        at[i] = angle
    return array("i", gid.tobytes()), ids, at


# ---------------------------------------------------------------------------
# fixed decomposition templates

def toffoli_gates(c1: int, c2: int, t: int) -> list[Gate]:
    """Textbook Clifford+T Toffoli: 6 CNOT, 2 H, 4 T, 3 Tdg."""
    return [
        Gate("H", (t,)),
        Gate("CNOT", (c2, t)),
        Gate("Tdg", (t,)),
        Gate("CNOT", (c1, t)),
        Gate("T", (t,)),
        Gate("CNOT", (c2, t)),
        Gate("Tdg", (t,)),
        Gate("CNOT", (c1, t)),
        Gate("T", (c2,)),
        Gate("T", (t,)),
        Gate("H", (t,)),
        Gate("CNOT", (c1, c2)),
        Gate("T", (c1,)),
        Gate("Tdg", (c2,)),
        Gate("CNOT", (c1, c2)),
    ]


def cswap_clifford_t(c: int, a: int, b: int) -> list[Gate]:
    """CSWAP as CNOT-conjugated Toffoli: 8 CNOT, 2 H, 4 T, 3 Tdg."""
    return [Gate("CNOT", (b, a))] + toffoli_gates(c, a, b) + [Gate("CNOT", (b, a))]


def toffoli_via_cswap(c1: int, c2: int, t: int) -> list[Gate]:
    """Toffoli written in the native alphabet (CSWAP conjugated by CNOTs)."""
    return [Gate("CNOT", (t, c2)), Gate("CSWAP", (c1, c2, t)), Gate("CNOT", (t, c2))]


def swap_as_cnots(a: int, b: int) -> list[Gate]:
    return [Gate("CNOT", (a, b)), Gate("CNOT", (b, a)), Gate("CNOT", (a, b))]


# ---------------------------------------------------------------------------
# resource accounting

@dataclass(frozen=True)
class ResourceReport:
    n_qubits: int
    counts: dict
    entangling_total: int
    total_gates: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# Each kind's Clifford+T count, from its template.
_CLIFFORD_T = {"SWAP": Counter(g.kind for g in swap_as_cnots(0, 1)),
               "CSWAP": Counter(g.kind for g in cswap_clifford_t(0, 1, 2))}


def count_resources(c: Circuit, decompose: str = "none") -> ResourceReport:
    """Gate-kind histogram, in GATE_ARITY order, and entangling total.

    decompose="clifford_t" counts each SWAP as 3 CNOTs and each CSWAP as
    its Clifford+T template, so the entangling total is a plain CNOT count.
    """
    if decompose not in ("none", "clifford_t"):
        raise ValueError(f"unknown decompose mode {decompose!r}")
    kinds = Counter(g.kind for g in c.gates)
    if decompose == "clifford_t":
        for kind, template in _CLIFFORD_T.items():
            n = kinds.pop(kind, 0)
            kinds.update({k: n * m for k, m in template.items()})
    counts = {k: kinds[k] for k in GATE_ARITY if kinds[k]}
    entangling = sum(counts.get(k, 0) for k in ENTANGLING_KINDS)
    return ResourceReport(c.n_qubits, counts, entangling, sum(counts.values()))


# ---------------------------------------------------------------------------
# export / import

def _circuit_to_dict(c: Circuit) -> dict:
    gates = []
    for g in c.gates:
        item = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.angle is not None:
            item["angle"] = g.angle
        gates.append(item)
    return {"n_qubits": c.n_qubits, "global_phase": c.global_phase, "gates": gates}


def _circuit_from_dict(d: dict) -> Circuit:
    if not (_is_nonneg_int(d.get("n_qubits")) and isinstance(d.get("gates"), list)):
        raise ValueError("circuit JSON needs an integer 'n_qubits' >= 0 and a 'gates' list")
    phase = d.get("global_phase", 0.0)
    if not _is_finite_real(phase):
        raise ValueError(f"circuit JSON 'global_phase' must be a finite number, got {phase!r}")
    c = Circuit(d["n_qubits"], [], float(phase))
    for pos, item in enumerate(d["gates"]):
        if not (isinstance(item, dict) and "kind" in item
                and isinstance(item.get("qubits"), list)
                and all(map(_is_nonneg_int, item["qubits"]))):
            raise ValueError(f"gate {pos} of circuit JSON needs a 'kind' and a "
                             "'qubits' list of integers >= 0")
        c.add(item["kind"], *item["qubits"], angle=item.get("angle"))
    return c


_QASM_FIXED = {
    "X": "x", "H": "h", "T": "t", "Tdg": "tdg", "S": "s", "Sdg": "sdg",
    "CNOT": "cx", "SWAP": "swap",
}


def export_circuit(c: Circuit, fmt: str = "json") -> str:
    """Serialize to "json" (lossless) or "qasm2" (OpenQASM 2 subset).

    QASM has no global-phase statement, so the phase is recorded as a
    comment; BasisY becomes sdg,h,s and CSWAP is expanded to Clifford+T.
    """
    if fmt == "json":
        return json.dumps(_circuit_to_dict(c), indent=2)
    if fmt != "qasm2":
        raise ValueError(f"unknown format {fmt!r}")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    if c.global_phase:
        lines.insert(2, f"// global phase: {c.global_phase!r}")

    def emit(g: Gate):
        if g.kind == "Rz":
            lines.append(f"rz({g.angle!r}) q[{g.qubits[0]}];")
        elif g.kind == "BasisY":
            q = g.qubits[0]
            lines.append(f"sdg q[{q}];")
            lines.append(f"h q[{q}];")
            lines.append(f"s q[{q}];")
        elif g.kind == "CSWAP":
            for sub in cswap_clifford_t(*g.qubits):
                emit(sub)
        else:
            args = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{_QASM_FIXED[g.kind]} {args};")

    for g in c.gates:
        emit(g)
    return "\n".join(lines) + "\n"


_QASM_KINDS = {**{v: k for k, v in _QASM_FIXED.items()}, "rz": "Rz"}
_QASM_LINE = re.compile(r"^(\w+)\s*(?:\(([^)]*)\))?\s*(.*);$")
_QASM_QUBIT = re.compile(r"(\w+)\[(\d+)\]")
_QASM_DECIMAL = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*")


def _qasm_decimal(text: str, what: str, line: str) -> float:
    if not _QASM_DECIMAL.fullmatch(text):
        raise ValueError(f"{what} must be a decimal number such as 0.785398, "
                         f"not an expression like pi/4: {line!r}")
    return float(text)


def import_qasm(text: str) -> Circuit:
    """Parse the OpenQASM 2 subset emitted by export_circuit: one qreg of any name,
    gate arguments ``<name>[<int>]`` and a decimal ``// global phase:``.  The
    result is the dict that circuit JSON holds, checked by the same rule."""
    reg, n_qubits, phase, gates = None, None, 0.0, []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("// global phase:"):
            phase = _qasm_decimal(line.split(":", 1)[1], "global phase", line)
        if not line or line.startswith("//"):
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
            continue
        m = _QASM_LINE.match(line)
        if not m:
            raise ValueError(f"cannot parse QASM line {line!r}")
        name, param, args = m.groups()
        if name == "qreg":
            if reg is not None:
                raise ValueError(f"QASM input takes one qreg; a second one is {line!r}")
            m = _QASM_QUBIT.fullmatch(args)
            if not m:
                raise ValueError(f"cannot parse QASM qreg declaration {line!r}")
            reg, n_qubits = m.group(1), int(m.group(2))
            continue
        if reg is None:
            raise ValueError("gate before qreg declaration")
        if name not in _QASM_KINDS:
            raise ValueError(f"unsupported QASM gate {name!r}")
        qubits = [_QASM_QUBIT.fullmatch(arg.strip()) for arg in args.split(",")]
        if not all(q and q.group(1) == reg for q in qubits):
            raise ValueError(f"QASM gate arguments must be {reg}[<int>] on qreg {reg}: {line!r}")
        item = {"kind": _QASM_KINDS[name], "qubits": [int(q.group(2)) for q in qubits]}
        if name == "rz" or param is not None:  # the gate rule rejects an angle off Rz
            item["angle"] = _qasm_decimal(param or "", f"{name} angle", line)
        gates.append(item)
    if reg is None:
        raise ValueError("no qreg declaration found")
    return _circuit_from_dict({"n_qubits": n_qubits, "global_phase": phase, "gates": gates})


def import_circuit(text: str) -> Circuit:
    """Inverse of export_circuit for both formats (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _circuit_from_dict(json.loads(text))
    return import_qasm(text)
