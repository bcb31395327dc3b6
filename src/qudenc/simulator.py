"""Dense reference simulation and verification oracles.

Everything here is a cross-check, so its bits must not depend on how a gate
is applied.  X, CNOT, SWAP and CSWAP only permute basis states, so their
values keep their bits, down to the sign of a zero.  Every other gate is one
np.dot of gate_matrix with the rows over the gate's axes, as np.tensordot
makes it, to the last bit.  Elementwise slice kernels, a strided matmul and
np.dot(x.T, m.T) changed last bits (by up to 1e-15; the last was also 1.4
times slower).

_plan builds a circuit's steps once and _run runs them.  A dot leaves the
tensor in the axis order it made, the gate's axes in front and the rest in
their physical order; one transpose at the end restores the qubit order.
A one-qubit gate on the first two physical axes needs no relayout copy: it
is np.dot on contiguous halves (deeper in-place dots were no faster).  A
fixed gate's step and next layout are memoized; each Rz gets its own, as
Rz(0.0) == Rz(-0.0) while their matrices differ in the sign of a zero.  A
run of two or more permutation gates is one row gather, with mode="clip":
its sources permute the rows, so nothing clips, and numpy buffers the
default mode="raise" (1.7x slower at 2^16 rows).  A unitary's panels share
their plan's sources.  Statevector plans, made per call, keep theirs across
calls in _KEPT, least recently used first, in mmap pages outside the malloc
heap, and a plan that opens with a gather reads the caller's state, not a
copy: with that copy, verify's peak RSS read 12 MiB higher (glibc's heap,
pinned between 16 MiB unitaries), and heap-kept sources cost 1 MiB more
than pages.  The floor is the dot: 36 us for (2,2) by (2,8192), where a
copy of its 256 KiB takes 7 us.  Dense unitaries are capped at 14 qubits;
statevectors go past it (unary conversion circuits on 16 wires and more).

A dense unitary is built one panel of columns at a time, straight into
its columns.  Column j of U is the circuit applied to basis state j and no
gate mixes columns, so each column gets the same np.dot arithmetic as in
one run over the whole identity, and the same bytes (tests/test_simulator.py
holds them, signed zeros included, to the unpanelled run).  A panel holds
at most _PANEL_BYTES = 256 KiB, so it and its second buffer stay in a
2 MiB-per-core L2 cache; 64 KiB and 512 KiB-1 MiB panels were slower.  Up
to 7 qubits a unitary is one panel.  At the 14-qubit cap it needs about
4 GiB, the only array of its size; a run over the whole identity needed 12.

Conventions, fixed once and used everywhere:
  * qubit 0 is the least significant bit of a basis-state index,
  * a Gate's qubit tuple lists controls first, and the first listed qubit
    is the most significant bit of the gate's own small matrix,
  * Rz(phi) = exp(-i phi Z / 2),
  * BasisY = (Y + Z)/sqrt(2), Hermitian and self-inverse, with
    BasisY . Z . BasisY = Y.

Encodings are verified matrix-free, without ever forming a 2^n dimensional
object.  A Pauli string sends |x> to i^y (-1)^|x & phase| |x ^ flip>, where
flip holds its X and Y qubits, phase its Z and Y qubits and y counts its
Y factors; the masks are read off the strings themselves, not through the
packed form that pricing uses.  Blocks of strings act on all d codewords
at once as rows of 64-bit words, each block's arrays kept under
_VERIFY_BLOCK_BYTES = 1 MiB so that unary codes at large d still run.  An
image is a codeword when searchsorted over the codewords' sorted bytes
lands on its own bytes.  np.bincount adds the hits into a d x d
reconstruction string after string, the order of a loop over the sum's
terms per column, so the error is that loop's float (the loop is kept in
tests/reference_simulator.py).  The work is O(d * terms * n / 64) word
operations plus a binary search per string and codeword.
"""

from __future__ import annotations

import functools
import itertools
import mmap

import numpy as np

from . import encoder
from .circuits import Circuit, Gate
from .encoding import EncodingSpec, codeword, num_qubits
from .paulis import PauliSum, string_to_text
from .qudit_ops import as_matrix

MAX_DENSE_QUBITS = 14
_PANEL_BYTES = 256 * 1024
# Bytes of the pages that hold the gather sources kept in _KEPT.
_SOURCE_BYTES = 4 * 1024 * 1024
_KEPT: dict = {}
# verify_encoding applies strings to codewords a block at a time; each
# strings x codewords x 64-bit-words array of a block holds at most this,
# or one string's worth where that is more.
_VERIFY_BLOCK_BYTES = 1024 * 1024

_SQ = 1.0 / np.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_PAULI = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_FIXED_1Q = {
    "X": _PAULI["X"],
    "H": _SQ * np.array([[1, 1], [1, -1]], dtype=complex),
    "BasisY": _SQ * np.array([[1, -1j], [1j, -1]], dtype=complex),
    "T": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
    "Tdg": np.diag([1, np.exp(-1j * np.pi / 4)]).astype(complex),
    "S": np.diag([1, 1j]).astype(complex),
    "Sdg": np.diag([1, -1j]).astype(complex),
}

_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CSWAP = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 6, 5, 7]]


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of a single gate; first listed qubit = most significant bit."""
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    if g.kind == "Rz":
        half = 0.5 * g.angle
        return np.diag([np.exp(-1j * half), np.exp(1j * half)]).astype(complex)
    if g.kind == "CNOT":
        return _CNOT
    if g.kind == "SWAP":
        return _SWAP
    if g.kind == "CSWAP":
        return _CSWAP
    raise ValueError(f"no matrix for gate kind {g.kind!r}")


# Gates that only permute basis states: kind -> (control values, the two
# bit patterns of the remaining qubits whose slices trade places).
_PERMUTATIONS = {
    "X": ((), ((0,), (1,))),
    "CNOT": ((1,), ((0,), (1,))),
    "SWAP": ((), ((0, 1), (1, 0))),
    "CSWAP": ((1,), ((0, 1), (1, 0))),
}


@functools.lru_cache(maxsize=1 << 14)
def _place(kind: str, qubits: tuple[int, ...], n: int, layout: tuple[int, ...]) -> tuple:
    """A fixed gate's step on a tensor whose physical axis p holds qubit
    axis layout[p] (axis n-1-q holds qubit q), and the layout after it; an
    Rz gets None for its matrix.  Steps: ("swap", a, b), the index tuples of
    two slices that trade places; ("dot", matrix, p), dots on the halves of
    physical axis p; ("move", matrix, order), the transpose that brings the
    gate's axes to the front, which the tensor then keeps."""
    if max(qubits) >= n:
        raise ValueError(f"{kind}{qubits} acts outside the {n}-qubit register")
    at = [layout.index(n - 1 - q) for q in qubits]
    if kind in _PERMUTATIONS:
        controls, (a, b) = _PERMUTATIONS[kind]
        ia, ib = [slice(None)] * n + [...], [slice(None)] * n + [...]
        for p, bit_a, bit_b in zip(at, controls + a, controls + b):
            ia[p], ib[p] = bit_a, bit_b
        return ("swap", tuple(ia), tuple(ib)), layout
    mat = None if kind == "Rz" else gate_matrix(Gate(kind, qubits))
    # A (2, m) half can round unlike the whole where m < 4 (gemv at m = 1,
    # a gemm edge kernel at 2); five qubits give halves of 8 columns or more.
    if len(at) == 1 and (at[0] == 0 or at[0] == 1 and n > 4):
        return ("dot", mat, at[0]), layout
    order = tuple(at + [p for p in range(n) if p not in at])
    return ("move", mat, order), tuple(layout[p] for p in order)


def _sources(key: tuple, n: int) -> np.ndarray:
    """The rows a run's gather takes: its swaps applied to row numbers in its layout."""
    swaps = [_place(kind, qubits, n, key[1])[0] for kind, qubits in key[0]]
    return _run((swaps, tuple(range(n))), np.arange(2 ** n).reshape((2,) * n)).reshape(-1)


def _kept(key: tuple, n: int) -> np.ndarray:
    """A run's sources from _KEPT; made on a miss, and kept if they fit at all."""
    if key not in _KEPT:
        src = _sources(key, n)
        size = -(-src.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        if size > _SOURCE_BYTES:
            return src
        held = sum(kept.base.nbytes for kept in _KEPT.values()) + size
        while held > _SOURCE_BYTES:
            held -= _KEPT.pop(next(iter(_KEPT))).base.nbytes
        _KEPT[key] = np.frombuffer(mmap.mmap(-1, size), np.intp, src.size)
        _KEPT[key][:] = src
        _KEPT[key].flags.writeable = False
    _KEPT[key] = _KEPT.pop(key)
    return _KEPT[key]


def _plan(c: Circuit, ndim: int) -> tuple[list, tuple[int, ...]]:
    """The steps of c for tensors of ndim axes whose first n are qubit
    axes (trailing axes ride along, last), and the layout they leave.  A
    run's gather shares its sources with the same run in the same layout:
    within a panel plan (ndim > n), and across statevector plans in _KEPT."""
    n, layout, steps, gathers = c.n_qubits, tuple(range(c.n_qubits)), [], {}
    for moves, run in itertools.groupby(c.gates, lambda g: g.kind in _PERMUTATIONS):
        run = list(run)
        if moves and len(run) > 1:
            key = tuple((g.kind, g.qubits) for g in run), layout
            if ndim > n and key not in gathers:
                gathers[key] = ("take", _sources(key, n), None)
            steps.append(gathers[key] if ndim > n else ("take", _kept(key, n), None))
            continue
        for g in run:
            step, layout = _place(g.kind, g.qubits, n, layout)
            steps.append(step if g.kind != "Rz" else (step[0], gate_matrix(g), step[2]))
    return steps, layout


def _run(plan: tuple, x: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    """Run a plan from _plan on the C-contiguous x, overwriting x and spare
    (made when first needed), and return a view of the result in qubit order."""
    steps, layout = plan
    tail = tuple(range(len(layout), x.ndim))
    for op, a, b in steps:
        if op == "swap":
            x[a], x[b] = x[b], x[a].copy()
            continue
        spare = np.empty_like(x) if spare is None else spare
        if op == "take":
            np.take(x.reshape(len(a), -1), a, axis=0, out=spare.reshape(len(a), -1),
                    mode="clip")
            x, spare = spare, x
        elif op == "dot":
            rows, into = x.reshape(2 ** b, 2, -1), spare.reshape(2 ** b, 2, -1)
            for i in range(2 ** b):
                np.dot(a, rows[i], out=into[i])
            x, spare = spare, x
        else:
            np.copyto(spare, x.transpose(b + tail))
            np.dot(a, spare.reshape(len(a), -1), out=x.reshape(len(a), -1))
    return x.transpose(tuple(layout.index(ax) for ax in range(len(layout))) + tail)


def apply_circuit(c: Circuit, state) -> np.ndarray:
    """Apply the circuit (including its global phase) to a statevector;
    the input is left unchanged."""
    n, state = c.n_qubits, np.asarray(state)
    if state.shape != (2 ** n,):
        raise ValueError(f"state has shape {state.shape}, expected ({2**n},)")
    steps, layout = _plan(c, n)
    if steps and steps[0][0] == "take":  # the gather reads the state, not a copy
        x, steps = np.take(state.astype(complex, copy=False), steps[0][1], mode="clip"), steps[1:]
    else:
        x = np.array(state, dtype=complex)
    out = _run((steps, layout), x.reshape((2,) * n))
    return (np.exp(1j * c.global_phase) * out if c.global_phase else out).reshape(2 ** n)


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary; column j is the circuit applied to basis state j,
    built in place one panel of at most _PANEL_BYTES of columns at a time."""
    n = c.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    dim = 2 ** n
    cols = max(1, min(dim, _PANEL_BYTES // (16 * dim)))
    plan, shape = _plan(c, n + 1), (2,) * n + (cols,)
    u = np.empty((dim, dim), dtype=complex)
    x, spare = np.empty((2, dim, cols), dtype=complex)
    for j in range(0, dim, cols):
        x.fill(0)
        np.fill_diagonal(x[j:j + cols], 1)
        out = _run(plan, x.reshape(shape), spare.reshape(shape))
        into = u.reshape((2,) * n + (dim,))[..., j:j + cols]
        if c.global_phase:
            np.multiply(np.exp(1j * c.global_phase), out, out=into)
        else:
            np.copyto(into, out)
    return u


def pauli_to_matrix(s: PauliSum) -> np.ndarray:
    """Dense matrix of a Pauli sum (qubit 0 least significant)."""
    n = s.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for pstring, coeff in s.terms.items():
        letters = {q: letter for q, letter in pstring}
        term = np.array([[coeff]], dtype=complex)
        for q in range(n - 1, -1, -1):
            term = np.kron(term, _PAULI[letters.get(q, "I")])
        out += term
    return out


# ---------------------------------------------------------------------------
# verification oracles

def _rows(masks, words: int) -> np.ndarray:
    """Integer bit masks (bit q = qubit q) as rows of 64-bit words."""
    return np.frombuffer(b"".join(x.to_bytes(8 * words, "little") for x in masks),
                         "<u8").reshape(-1, words)


_I_POWERS = np.array([1, 1j, -1, -1j])


def verify_encoding(spec: EncodingSpec, A, s: PauliSum | None = None) -> float:
    """Max abs error of <R(l)|M|R(l')> against A[l, l'], over all l, l'.

    Runs matrix-free, so it works for unary codes far past the dense cap.
    A string on a qubit outside the code's register raises ValueError.
    """
    m = as_matrix(A)
    if s is None:
        s = encoder.encode_matrix(spec, m).sum
    d, n = spec.d, num_qubits(spec)
    # Each string as its flip mask (X and Y qubits), its phase mask (Z and
    # Y qubits) and its Y count: it sends |x> to i^y (-1)^|x & phase| |x ^ flip>.
    flips, phases, ys = [], [], []
    for pstring in s.terms:
        flip = phase = y = 0
        for q, p in pstring:
            if not 0 <= q < n:
                raise ValueError(f"string {string_to_text(pstring)!r} acts on qubit {q}, "
                                 f"outside the {n} qubits of {spec.describe()}")
            flip |= (p != "Z") << q
            phase |= (p != "X") << q
            y += p == "Y"
        flips.append(flip)
        phases.append(phase)
        ys.append(y)
    words = -(-n // 64)
    flips, phases, ys = _rows(flips, words), _rows(phases, words), np.array(ys, np.intp)
    coeffs = np.array(list(s.terms.values()), complex)
    codewords = _rows((codeword(spec, l) for l in range(d)), words)
    # A row's key is its bytes; an image is a codeword when the sorted key
    # that searchsorted finds for it is its own.
    key = np.dtype((np.void, 8 * words))
    order = np.argsort(codewords.view(key).ravel())
    keys = codewords[order].view(key).ravel()
    bins, values = [np.empty(0, np.intp)], [np.empty(0, complex)]
    step = max(1, _VERIFY_BLOCK_BYTES // (8 * d * words))
    for b in range(0, len(flips), step):
        images = (codewords ^ flips[b:b + step, None]).view(key)[..., 0]
        odd = np.bitwise_count(np.bitwise_xor.reduce(
            codewords & phases[b:b + step, None], axis=2)) & 1
        pos = np.minimum(np.searchsorted(keys, images), d - 1)
        hit = keys[pos] == images
        string_at, ket = hit.nonzero()
        string_at += b
        # String after string, as the loop over s.terms adds them.
        bins.append(order[pos[hit]] * d + ket)
        values.append(coeffs[string_at] * _I_POWERS[(ys[string_at] + 2 * odd[hit]) & 3])
    bins, values = np.concatenate(bins), np.concatenate(values)
    err = np.hypot(np.bincount(bins, values.real, d * d).reshape(d, d) - m.real,
                   np.bincount(bins, values.imag, d * d).reshape(d, d) - m.imag)
    # fmax skips NaN as max(err, x) does, entry after entry.
    return float(np.fmax.reduce(err, axis=None, initial=0.0))


def align_phase(u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Scale v by a unit phase to match u at u's largest entry, or None if
    that entry of v vanishes (then no global phase can align them)."""
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    if abs(v[idx]) < 1e-12:
        return None
    lam = u[idx] / v[idx]
    lam /= abs(lam)
    return lam * v


def verify_circuit_equivalence(c1: Circuit, c2: Circuit,
                               up_to_phase: bool = False,
                               tol: float = 1e-9) -> bool:
    if c1.n_qubits != c2.n_qubits:
        return False
    return unitary_distance(circuit_to_unitary(c1), circuit_to_unitary(c2),
                            up_to_phase) <= tol


def unitary_distance(u1: np.ndarray, u2: np.ndarray, up_to_phase: bool = False) -> float:
    """Max entry-wise distance (inf when no phase aligns them); works on
    states as well as unitaries.  The difference is taken _PANEL_BYTES at
    a time, so no temporary the size of a unitary is made."""
    if up_to_phase:
        aligned = align_phase(u1, u2)
        if aligned is None:
            return float("inf")
        u2 = aligned
    a, b = (x.reshape(-1) for x in np.broadcast_arrays(u1, u2))
    step = _PANEL_BYTES // 16
    return float(np.max([np.abs(a[i:i + step] - b[i:i + step]).max()
                         for i in range(0, a.size, step)]))
