"""Dense reference simulation and verification oracles.

Everything here is a cross-check, so its bits must not depend on how a gate
is applied.  X, CNOT, SWAP and CSWAP only permute basis states: they swap two
slices of the tensor in place.  Every other gate takes np.tensordot's own
steps (axes to the front, one np.dot with gate_matrix, axes back), so the
results are tensordot's to the last bit.  Elementwise slice kernels for the
other gates were tried and dropped: they changed last bits by up to 1e-15.
Dense unitaries are capped at 14 qubits; statevector application works
beyond that (it is used for unary conversion circuits on up to 16 + ancilla
wires, where the state has 2^n amplitudes but a dense unitary would not fit).

A dense unitary is built one panel of columns at a time.  Column j of U is
the circuit applied to basis state j, and no gate mixes columns, so each
panel of the identity runs through the same per-gate steps and each column
gets the same np.dot arithmetic as in one run over the whole identity: the
bits do not change (tests/test_simulator.py holds them to the unpanelled
tensordot run).  A panel holds at most _PANEL_BYTES = 256 KiB, so it and a
dot gate's temporaries stay in a 2 MiB-per-core L2 cache, where the whole
16 MiB tensor of a 10-qubit unitary streamed through memory twice per dot
gate.  That size was the fastest on the verify bench's circuits; 64 KiB and
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

Encodings are verified matrix-free: each Pauli string is applied to each
codeword as a bit-flip-plus-phase action, so the check runs in
O(d^2 * terms) without ever forming a 2^n dimensional object.
"""

from __future__ import annotations

import numpy as np

from . import encoder
from .circuits import Circuit, Gate
from .encoding import EncodingSpec, encode
from .paulis import PauliSum, act_on_bits
from .qudit_ops import as_matrix

MAX_DENSE_QUBITS = 14
_PANEL_BYTES = 256 * 1024

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


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit (including its global phase) to a statevector;
    the input is left unchanged."""
    n = c.n_qubits
    if state.shape != (2 ** n,):
        raise ValueError(f"state has shape {state.shape}, expected ({2**n},)")
    steps = [_step(g, n, n) for g in c.gates]
    return _run(np.array(state, dtype=complex).reshape((2,) * n), steps,
                c.global_phase).reshape(2 ** n)


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary; column j is the circuit applied to basis state j,
    built one panel of at most _PANEL_BYTES of columns at a time."""
    n = c.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"{n} qubits exceeds the dense cap of {MAX_DENSE_QUBITS}")
    dim = 2 ** n
    cols = max(1, min(dim, _PANEL_BYTES // (16 * dim)))
    steps = [_step(g, n, n + 1) for g in c.gates]
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

def verify_encoding(spec: EncodingSpec, A, s: PauliSum | None = None) -> float:
    """Max abs error of <R(l)|M|R(l')> against A[l, l'], over all l, l'.

    Runs matrix-free, so it works for unary codes far past the dense cap.
    """
    m = as_matrix(A)
    if s is None:
        s = encoder.encode_matrix(spec, m).sum
    d = spec.d
    codewords = [encode(spec, l) for l in range(d)]
    # Group the reconstruction by ket: apply every term once per column.
    index = {bits: l for l, bits in enumerate(codewords)}
    err = 0.0
    for lp in range(d):
        column = {}
        for pstring, coeff in s.terms.items():
            phase, out_bits = act_on_bits(pstring, codewords[lp])
            l = index.get(out_bits)
            if l is not None:
                column[l] = column.get(l, 0.0 + 0.0j) + coeff * phase
        for l in range(d):
            err = max(err, abs(column.get(l, 0.0) - m[l, lp]))
    return float(err)


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
    states as well as unitaries."""
    if up_to_phase:
        aligned = align_phase(u1, u2)
        if aligned is None:
            return float("inf")
        u2 = aligned
    return float(np.max(np.abs(u1 - u2)))
