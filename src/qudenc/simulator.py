"""Dense reference simulation and verification oracles.

Everything here is a cross-check, so its bits must not depend on how a gate
is applied.  X, CNOT, SWAP and CSWAP only permute basis states: they swap two
slices of the tensor in place, so every value keeps its bits, down to the
sign of a zero.  Every other gate takes np.tensordot's own steps (axes to
the front, one np.dot with gate_matrix, axes back), so the results are
tensordot's to the last bit.  Elementwise slice kernels for the other gates
were tried and dropped: they changed last bits by up to 1e-15.  A circuit's
steps are made once per distinct fixed gate and shared by its repeats;
each Rz gets its own, since Rz(0.0) == Rz(-0.0) as Gates while their
matrices differ in the sign of a zero.
Dense unitaries are capped at 14 qubits; statevector application works
beyond that (it is used for unary conversion circuits on up to 16 + ancilla
wires, where the state has 2^n amplitudes but a dense unitary would not fit).

A dense unitary is built one panel of columns at a time.  Column j of U is
the circuit applied to basis state j, and no gate mixes columns, so each
panel of the identity runs through the same per-gate steps and each column
gets the same np.dot arithmetic as in one run over the whole identity: the
bytes do not change (tests/test_simulator.py holds them, signed zeros
included, to the unpanelled run).  A panel holds at most _PANEL_BYTES =
256 KiB, so it and a dot gate's temporaries stay in a 2 MiB-per-core L2
cache, where the whole 16 MiB tensor of a 10-qubit unitary streamed
through memory twice per dot gate.  That size was the fastest on the verify bench's circuits; 64 KiB and
512 KiB-1 MiB panels were slower.  Up to 7 qubits a unitary is one panel.
The result is the only array of its size: at the 14-qubit cap a unitary
needs about 4 GiB, where a run over the whole identity needed about 12 GiB.

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

import numpy as np

from . import encoder
from .circuits import Circuit, Gate
from .encoding import EncodingSpec, codeword, num_qubits
from .paulis import PauliSum, string_to_text
from .qudit_ops import as_matrix

MAX_DENSE_QUBITS = 14
_PANEL_BYTES = 256 * 1024
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


def _step(g: Gate, n: int, ndim: int) -> tuple:
    """g prepared for tensors of ndim axes whose first n are qubit axes
    (axis n-1-q holds qubit q); any trailing axes ride along.  A permutation
    gate gives (None, a, b): the index tuples of the two slices that trade
    places.  Every other gate gives (gate_matrix(g), order, inverse): the
    transpose that brings the gate's axes to the front, and its undoing."""
    axes = [n - 1 - q for q in g.qubits]
    if g.kind in _PERMUTATIONS:
        controls, (a, b) = _PERMUTATIONS[g.kind]
        ia, ib = [slice(None)] * ndim, [slice(None)] * ndim
        for ax, bit_a, bit_b in zip(axes, controls + a, controls + b):
            ia[ax], ib[ax] = bit_a, bit_b
        return None, tuple(ia), tuple(ib)
    order = axes + [ax for ax in range(ndim) if ax not in axes]
    return gate_matrix(g), order, np.argsort(order)


def _run(tensor: np.ndarray, steps: list, global_phase: float = 0.0) -> np.ndarray:
    """Apply steps made by _step, then the global phase; the tensor is
    overwritten, so pass one the caller owns."""
    for mat, a, b in steps:
        if mat is None:
            held = tensor[a].copy()
            tensor[a] = tensor[b]
            tensor[b] = held
        else:
            moved = tensor.transpose(a)
            out = np.dot(mat, moved.reshape(len(mat), -1))
            tensor = out.reshape(moved.shape).transpose(b)
    return np.exp(1j * global_phase) * tensor if global_phase else tensor


def _steps(c: Circuit, ndim: int) -> list:
    """The _step of every gate of c, made once per fixed gate kind and
    qubit tuple and shared by its repeats.  Each Rz gets its own: Rz(0.0)
    == Rz(-0.0) as Gates, but their matrices differ in the sign of a zero."""
    n, made, steps = c.n_qubits, {}, []
    for g in c.gates:
        if g.kind == "Rz":
            steps.append(_step(g, n, ndim))
            continue
        key = g.kind, g.qubits
        if key not in made:
            made[key] = _step(g, n, ndim)
        steps.append(made[key])
    return steps


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit (including its global phase) to a statevector;
    the input is left unchanged."""
    n = c.n_qubits
    if state.shape != (2 ** n,):
        raise ValueError(f"state has shape {state.shape}, expected ({2**n},)")
    return _run(np.array(state, dtype=complex).reshape((2,) * n), _steps(c, n),
                c.global_phase).reshape(2 ** n)


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary; column j is the circuit applied to basis state j,
    built one panel of at most _PANEL_BYTES of columns at a time."""
    n = c.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    dim = 2 ** n
    cols = max(1, min(dim, _PANEL_BYTES // (16 * dim)))
    steps = _steps(c, n + 1)
    u = np.empty((dim, dim), dtype=complex)
    for j in range(0, dim, cols):
        panel = np.eye(dim, cols, -j, dtype=complex).reshape((2,) * n + (cols,))
        u[:, j:j + cols] = _run(panel, steps, c.global_phase).reshape(dim, cols)
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
