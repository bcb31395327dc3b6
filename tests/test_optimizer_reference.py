"""Differential tests: the per-wire optimizer against the whole-list reference.

reference_optimizer.py keeps the earlier optimizer, which scans the whole
gate list from every candidate.  The per-wire chains must change only how
fast the scans run, never what they find: gates and global phase have to
come out exactly equal, float for float.
"""

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_optimizer as ref
from qudenc import models
from qudenc.circuits import Circuit, Gate, trotter_step
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY
from qudenc.optimizer import MAX_SWEEPS, _wire_chains, commutes, optimize
from qudenc.qudit_ops import BOSONIC

_KINDS_1Q = ("X", "H", "BasisY", "S", "Sdg", "T", "Tdg")
_INVERSE_1Q = {"T": "Tdg", "Tdg": "T", "S": "Sdg", "Sdg": "S"}
# Angles at the edges of the merge rule: Rz(pi) + Rz(pi) = -I, Rz(2pi),
# and 4pi +- 1e-13, which lands within eps of the period from either side.
_EDGE_ANGLES = (math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                4 * math.pi + 1e-13, 4 * math.pi - 1e-13)
# Sweep caps: the default, and caps that stop short of many fixed points.
_CAPS = (MAX_SWEEPS, 1, 2, 3)
_PASSES = ("_pass_cancel", "_pass_merge", "_pass_cnot_triple")
# A qubit index far above any C int: the chains must rank wires, not store them.
_WIDE = 8_589_934_593


def _examples(n: int) -> settings:
    """n examples, or more when the active hypothesis profile asks for more
    (the ci profile in conftest.py)."""
    return settings(max_examples=max(n, settings().max_examples), deadline=None)


def _assert_same(c: Circuit, max_sweeps: int = MAX_SWEEPS) -> Circuit:
    got, want = optimize(c, max_sweeps), ref.optimize(c, max_sweeps)
    assert got.gates == want.gates
    assert got.global_phase == want.global_phase
    assert got.n_qubits == want.n_qubits
    return got


def _angle(rng: random.Random) -> float:
    return rng.choice(_EDGE_ANGLES) if rng.random() < 0.5 else rng.uniform(-7, 7)


def _random_circuit(rng: random.Random) -> Circuit:
    """Random gates plus the shapes the passes look for: SWAP / CSWAP chains,
    CNOT triples with separators, and mirrored runs that cancel."""
    n = rng.randint(2, 7)
    c = Circuit(n)

    def wires(k):
        return tuple(rng.sample(range(n), k))

    size = rng.randint(4, 40)
    while len(c.gates) < size:
        shape = rng.random()
        if shape < 0.45:
            kind = rng.choice(_KINDS_1Q + ("Rz", "Rz", "CNOT", "CNOT", "SWAP")
                              + (("CSWAP",) if n >= 3 else ()))
            if kind == "Rz":
                c.gates.append(Gate("Rz", wires(1), _angle(rng)))
            else:
                arity = {"CNOT": 2, "SWAP": 2, "CSWAP": 3}.get(kind, 1)
                c.gates.append(Gate(kind, wires(arity)))
        elif shape < 0.6:
            pair = list(wires(2))
            for _ in range(rng.randint(2, 4)):
                rng.shuffle(pair)
                if n >= 3 and rng.random() < 0.5:
                    ctrl = rng.choice([q for q in range(n) if q not in pair])
                    c.gates.append(Gate("CSWAP", (ctrl, *pair)))
                else:
                    c.gates.append(Gate("SWAP", tuple(pair)))
        elif shape < 0.75 and n >= 3:
            a, b, cc = wires(3)
            c.gates.append(Gate("CNOT", (a, b)))
            if rng.random() < 0.5:
                c.gates.append(Gate("Rz", (rng.choice((a, cc)),), _angle(rng)))
            c.gates.append(Gate("CNOT", (b, cc)))
            c.gates.append(Gate("CNOT", (a, b)))
        elif c.gates:
            for g in reversed(c.gates[-rng.randint(1, 5):]):
                if g.kind == "Rz":
                    g = Gate("Rz", g.qubits, -g.angle)
                c.gates.append(Gate(_INVERSE_1Q.get(g.kind, g.kind), g.qubits, g.angle))
    return c


def _note_passes(monkeypatch) -> list:
    """Wrap the reference's passes so that each run appends (pass, whether
    it changed the circuit) to the returned list.  The passes run in a fixed
    order, so each sweep adds one entry per pass."""
    runs = []

    def noted(name, run):
        def wrapper(*args):
            out = run(*args)
            runs.append((name, bool(out[0] if isinstance(out, tuple) else out)))
            return out
        return wrapper

    for name in _PASSES:
        monkeypatch.setattr(ref, name, noted(name, getattr(ref, name)))
    return runs


def test_random_circuits_match_reference(monkeypatch):
    runs = _note_passes(monkeypatch)
    for seed in range(600):
        c = _random_circuit(random.Random(seed))
        for cap in _CAPS:
            _assert_same(c, cap)
    # every pass fired somewhere, so the comparison is not vacuous
    assert {name for name, fired in runs if fired} == set(_PASSES)


_LADDER_KINDS = ("X", "H", "BasisY", "S", "T", "CNOT")


def _nested_circuit(rng: random.Random) -> Circuit:
    """Rz pairs and CNOT triples with a mirrored ladder of blocking gates in
    a gap.  The cancel pass peels one rung of a ladder per sweep, so merge,
    the triple and the outer rungs fire sweeps after the first.  Some
    triples are followed by CNOT(a, c), which cancels only against the gate
    the rewrite made."""
    n = rng.randint(3, 6)
    gates: list[Gate] = []

    def ladder(w: int) -> list[Gate]:
        rungs = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_LADDER_KINDS)
            if kind == "CNOT":
                other = rng.choice([q for q in range(n) if q != w])
                rungs.append(Gate(kind, rng.choice(((w, other), (other, w)))))
            else:
                rungs.append(Gate(kind, (w,)))
        undo = [Gate(_INVERSE_1Q.get(g.kind, g.kind), g.qubits) for g in reversed(rungs)]
        return rungs + undo

    for _ in range(rng.randint(1, 4)):
        a, b, c = rng.sample(range(n), 3)
        if rng.random() < 0.6:
            gap = rng.randrange(2)
            steps = [Gate("CNOT", (a, b)), Gate("CNOT", (b, c)), Gate("CNOT", (a, b))]
            gates += steps[:gap + 1] + ladder(rng.choice((a, b, c))) + steps[gap + 1:]
            if rng.random() < 0.5:
                gates.append(Gate("CNOT", (a, c)))
        else:
            gates += [Gate("Rz", (a,), _angle(rng)), *ladder(a), Gate("Rz", (a,), _angle(rng))]
        if rng.random() < 0.3:
            gates.append(Gate(rng.choice(_KINDS_1Q), (rng.randrange(n),)))
    return Circuit(n, gates)


def test_late_sweep_rewrites_match_reference(monkeypatch):
    # Note each pass of the reference that changes the circuit in a sweep
    # after the first, so the comparison is known to cover late rewrites.
    runs, late = _note_passes(monkeypatch), {cap: set() for cap in _CAPS}
    for seed in range(400):
        c = _nested_circuit(random.Random(seed))
        for cap in _CAPS:
            runs.clear()
            _assert_same(c, cap)
            late[cap] |= {name for name, fired in runs[len(_PASSES):] if fired}
    for cap in _CAPS:
        assert late[cap] == (set(_PASSES) if cap > 1 else set()), cap


@_examples(100)
@given(st.randoms(use_true_random=False))
def test_property_late_sweep_rewrites_match_reference(rng):
    c = _nested_circuit(rng)
    for cap in _CAPS:
        _assert_same(c, cap)


def test_commutes_matches_reference_on_every_gate_pair():
    # Five wires cover every way two gates of up to three qubits can overlap.
    n = 5
    gates = [Gate(k, (q,)) for k in _KINDS_1Q for q in range(n)]
    gates += [Gate("Rz", (q,), angle) for q in range(n) for angle in (0.3, -0.3)]
    gates += [Gate(k, p) for k in ("CNOT", "SWAP")
              for p in itertools.permutations(range(n), 2)]
    gates += [Gate("CSWAP", p) for p in itertools.permutations(range(n), 3)]
    for a in gates:
        for b in gates:
            assert commutes(a, b) == ref.commutes(a, b), (a, b)


_PRICED_MODELS = (
    [models.ModelSpec(models.BOSE_HUBBARD, N=2, d=d) for d in (6, 8, 12)]
    + [models.ModelSpec(models.HEISENBERG, N=2, s=s) for s in (1.5, 3.5)]
    + [models.ModelSpec(models.SHIFTED_QHO, d=16)])


def _pricing_circuits(spec: models.ModelSpec):
    """The Trotter circuit pricing builds for each distinct term, under all
    four codes, plus the augmented cutoff that pricing tries for SB / Gray."""
    d = spec.site_dim
    seen = set()
    for term in models.build_model(spec):
        if abs(term.coefficient) < models.COEFF_ZERO_TOL:
            continue  # priced at 0 without building a circuit
        for kind in (SB, GRAY, UNARY, BLOCK_UNARY):
            augments = (False, True) if (kind in (SB, GRAY) and spec.family == BOSONIC
                                         and d & (d - 1)) else (False,)
            for augment in augments:
                key = models._term_cache_key(term, kind, augment)
                if key not in seen:
                    seen.add(key)
                    h = models.encode_term(term, kind, augment=augment)
                    yield trotter_step(h, models.PRICING_THETA)


def _spec_id(spec: models.ModelSpec) -> str:
    return f"{spec.model}-{spec.site_dim}"


# The reference optimizer takes about 12 s on the Bose-Hubbard d=12 pricing
# circuits, so its output there was recorded once, as digests (re-record
# with `PYTHONPATH=src python tests/test_optimizer_reference.py`).
_RECORDED = Path(__file__).resolve().parent / "reference_optimizer_recorded.json"
_RECORDED_IDS = ("bose_hubbard-12",)


def _digest(c: Circuit) -> str:
    """Exact: every gate tuple, the repr of every angle and of the phase."""
    text = "".join(f"{g.kind} {g.qubits} {g.angle!r}\n" for g in c.gates)
    return hashlib.sha256(f"{c.n_qubits}\n{text}{c.global_phase!r}".encode()).hexdigest()


@pytest.mark.parametrize("spec", _PRICED_MODELS, ids=_spec_id)
def test_pricing_circuits_match_reference(spec):
    circuits = list(_pricing_circuits(spec))
    assert circuits
    if _spec_id(spec) not in _RECORDED_IDS:
        for c in circuits:
            _assert_same(c)
        return
    recorded = json.loads(_RECORDED.read_text())[_spec_id(spec)]
    assert [_digest(c) for c in circuits] == [r["input"] for r in recorded]
    assert [_digest(optimize(c)) for c in circuits] == [r["output"] for r in recorded]


def _assert_same_chains(gates: list[Gate]) -> None:
    got, want = _wire_chains(gates), ref.wire_chains(gates)
    assert got[:3] == want[:3]  # nxt, prv, gid
    assert list(got[3].items()) == list(want[3].items())


def test_wire_chains_match_reference_on_random_circuits():
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        gates = _random_circuit(rng).gates
        kinds |= {g.kind for g in gates}
        _assert_same_chains(gates)
        # The same circuit on sparse, wide qubit indices links the same slots.
        wide = {q: rng.randrange(2**40) * 7 + q for q in range(7)}
        _assert_same_chains([Gate(g.kind, tuple(wide[q] for q in g.qubits), g.angle)
                             for g in gates])
    assert kinds == set(_KINDS_1Q) | {"Rz", "CNOT", "SWAP", "CSWAP"}


@pytest.mark.parametrize("gates", [
    [], [Gate("H", (0,))], [Gate("CSWAP", (2, 0, 1))], [Gate("Rz", (_WIDE,), 0.5)]],
    ids=["empty", "one-gate", "one-cswap", "one-wide"])
def test_wire_chains_match_reference_on_edge_circuits(gates):
    _assert_same_chains(gates)


@pytest.mark.parametrize("spec", _PRICED_MODELS, ids=_spec_id)
def test_wire_chains_match_reference_on_pricing_circuits(spec):
    for c in _pricing_circuits(spec):
        _assert_same_chains(c.gates)


@pytest.mark.parametrize("gates", [
    # no Rz: the merge list is empty
    [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (0, 1)),
     Gate("X", (2,)), Gate("CNOT", (0, 1)), Gate("H", (0,)), Gate("X", (2,))],
    # no CNOT: the triple list is empty
    [Gate("Rz", (0,), 0.4), Gate("H", (1,)), Gate("SWAP", (0, 1)), Gate("SWAP", (1, 0)),
     Gate("Rz", (0,), -0.4), Gate("H", (1,)), Gate("T", (0,))],
    # nothing but Rz: the cancel and triple lists are empty
    [Gate("Rz", (0,), math.pi), Gate("Rz", (1,), 0.3), Gate("Rz", (0,), math.pi),
     Gate("Rz", (1,), -0.3), Gate("Rz", (2,), 1.0)],
], ids=["no-rz", "no-cnot", "only-rz"])
def test_optimize_with_an_empty_kind_list(gates):
    for cap in _CAPS:
        _assert_same(Circuit(3, gates), cap)


def test_optimize_on_qubit_indices_beyond_c_int():
    q = _WIDE
    c = Circuit(q + 1, [Gate("H", (q,)), Gate("CNOT", (q, 3)),
                        Gate("CNOT", (q, 3)), Gate("H", (q,))])
    assert _assert_same(c).gates == []


_qubit_lists = st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True)
_gates = st.one_of(
    st.builds(lambda k, q: Gate(k, tuple(q[:1])), st.sampled_from(_KINDS_1Q), _qubit_lists),
    st.builds(lambda a, q: Gate("Rz", tuple(q[:1]), a),
              st.one_of(st.sampled_from(_EDGE_ANGLES),
                        st.floats(-20, 20, allow_nan=False)), _qubit_lists),
    st.builds(lambda k, q: Gate(k, tuple(q[:2])), st.sampled_from(("CNOT", "SWAP")),
              _qubit_lists),
    st.builds(lambda q: Gate("CSWAP", tuple(q)), _qubit_lists))


@_examples(200)
@given(st.lists(_gates, max_size=30))
def test_property_optimize_matches_reference(gates):
    _assert_same(Circuit(6, gates))


def record() -> None:
    recorded = {}
    for spec in _PRICED_MODELS:
        if _spec_id(spec) in _RECORDED_IDS:
            recorded[_spec_id(spec)] = [
                {"input": _digest(c), "output": _digest(ref.optimize(c))}
                for c in _pricing_circuits(spec)]
    _RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    record()
