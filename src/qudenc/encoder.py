"""Mapping d-level matrix operators to Pauli sums.

An operator element c * |l><l'| is mapped by writing both levels in the
chosen code and substituting, qubit by qubit over the union of the two
bitmask subsets C(l) | C(l'),

    |0><1| -> (X + iY)/2        |0><0| -> (I + Z)/2
    |1><0| -> (X - iY)/2        |1><1| -> (I - Z)/2

then expanding the product.  Qubits outside the union are untouched, which
is what makes sparse codes (unary, block unary) cheap: a transition only
ever involves the few qubits that distinguish its two codewords.

A whole matrix is encoded element by element and simplified; Hermitian
input yields real coefficients.  Squares and products should be formed at
the matrix level *before* encoding — encoding first and multiplying the
Pauli sums afterwards is algebraically equal on the code subspace but can
leave superfluous terms that act only outside it.

Also here: detection of diagonal binary-decomposable (DBD) operators,
whose diagonal is an affine function of the standard-binary bits of the
level index, diag(l) = offset + sum_i k_i * bit_i(l).  Under standard
binary such operators need only single-qubit Z rotations (no entangling
gates) once the level count fills the register.  Truncation augmentation
rounds a bosonic operator's cutoff up to the next power of two to exploit
exactly that; spins have a physical level count, so augmenting them is
refused (it would cause leakage to unphysical states).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .encoding import EncodingSpec, bitmask_subset, ceil_log2, encode
from .paulis import PauliSum
from .qudit_ops import BOSONIC, BOSONIC_NAMES, SPIN, QuditMatrix, as_matrix, bosonic
from . import encoding as enc_mod

ZERO_ENTRY_TOL = 1e-14
DBD_FIT_TOL = 1e-10

# Per-qubit substitution rules keyed by (bit of l, bit of l'):
# list of (letter or None, coefficient) factors.
_RULES = {
    (0, 0): ((None, 0.5), ("Z", 0.5)),
    (1, 1): ((None, 0.5), ("Z", -0.5)),
    (0, 1): (("X", 0.5), ("Y", 0.5j)),
    (1, 0): (("X", 0.5), ("Y", -0.5j)),
}


@dataclass(frozen=True)
class EncodedOperator:
    """A Pauli sum together with the code that produced it and a digest of
    the source matrix (so downstream reports can say what they priced)."""

    sum: PauliSum
    spec: EncodingSpec
    source_digest: str


def encode_element(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'|."""
    bits_l = encode(spec, l)
    bits_lp = encode(spec, lp)
    union = sorted(bitmask_subset(spec, l) | bitmask_subset(spec, lp))
    n = enc_mod.num_qubits(spec)
    expansion: list[tuple[tuple[tuple[int, str], ...], complex]] = [((), complex(coeff))]
    for q in union:
        rule = _RULES[(bits_l[q], bits_lp[q])]
        expansion = [
            (ops if letter is None else ops + ((q, letter),), c * rc)
            for ops, c in expansion
            for letter, rc in rule
        ]
    out = PauliSum(n)
    for ops, c in expansion:
        out._accumulate(ops, c)
    return out.simplify()


def encode_hermitian_pair(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'| + h.c."""
    s = encode_element(spec, l, lp, coeff) + encode_element(spec, lp, l, np.conj(coeff))
    return s.simplify()


def matrix_digest(A) -> str:
    m = np.ascontiguousarray(as_matrix(A))
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()[:16]


def encode_matrix(spec: EncodingSpec, A) -> EncodedOperator:
    """Encode a whole d x d matrix: sum of element encodings, simplified.

    Entries below ``ZERO_ENTRY_TOL`` are treated as structural zeros so
    that analytically sparse operators keep their sparsity pattern.
    """
    m = as_matrix(A)
    if m.shape[0] != spec.d:
        raise ValueError(f"matrix dimension {m.shape[0]} != spec.d {spec.d}")
    n = enc_mod.num_qubits(spec)
    total = PauliSum(n)
    for l in range(spec.d):
        for lp in range(spec.d):
            c = m[l, lp]
            if abs(c) < ZERO_ENTRY_TOL:
                continue
            total = total + encode_element(spec, l, lp, c)
    return EncodedOperator(total.simplify(), spec, matrix_digest(m))


@dataclass(frozen=True)
class DBDFit:
    """diag(l) = offset + sum_i k[i] * bit_i(l) over the d realized levels."""

    offset: float
    k: tuple[float, ...]


def detect_dbd(A, tol: float = DBD_FIT_TOL) -> DBDFit | None:
    """Fit the diagonal to an affine function of the standard-binary bits.

    The fit runs over the d realized bit patterns only (a truncation like
    d=3 uses 3 of the 4 two-bit patterns, and a fit on those is accepted).
    Returns None for non-diagonal matrices or imperfect fits.
    """
    m = as_matrix(A)
    d = m.shape[0]
    off_diag = m - np.diag(np.diag(m))
    if np.max(np.abs(off_diag)) > ZERO_ENTRY_TOL:
        return None
    diag = np.diag(m)
    if np.max(np.abs(diag.imag)) > ZERO_ENTRY_TOL:
        return None
    diag = diag.real
    K = ceil_log2(d)
    design = np.array([[1.0] + [(l >> i) & 1 for i in range(K)] for l in range(d)])
    coeffs, *_ = np.linalg.lstsq(design, diag, rcond=None)
    residual = design @ coeffs - diag
    if np.max(np.abs(residual)) > tol:
        return None
    return DBDFit(offset=float(coeffs[0]), k=tuple(float(c) for c in coeffs[1:]))


def can_augment(A) -> bool:
    """Whether augment_truncation can rebuild A: a QuditMatrix of the bosonic
    family whose name is one of the named bosonic operators."""
    return (isinstance(A, QuditMatrix) and A.family == BOSONIC
            and A.name in BOSONIC_NAMES)


def augment_truncation(A: QuditMatrix) -> QuditMatrix:
    """Rebuild a named bosonic operator at the next power-of-two cutoff.

    Spin operators are refused because their level count is physical, not
    a truncation choice.
    """
    if not isinstance(A, QuditMatrix):
        raise TypeError("augment_truncation needs a QuditMatrix with provenance")
    if A.family == SPIN:
        raise ValueError("cannot augment a spin operator: d = 2s+1 is physical "
                         "and extra levels would leak")
    if A.family != BOSONIC:
        raise ValueError(f"cannot rebuild operator of family {A.family!r} at a new cutoff")
    d_aug = 1 << ceil_log2(A.d)
    if d_aug == A.d:
        return A
    return bosonic(d_aug, A.name)
