"""Mapping d-level matrix operators to Pauli sums.

An operator element c * |l><l'| is mapped by writing both levels in the
chosen code and substituting, qubit by qubit over the union of the two
bitmask subsets C(l) | C(l'),

    |0><1| -> (X + iY)/2        |0><0| -> (I + Z)/2
    |1><0| -> (X - iY)/2        |1><1| -> (I - Z)/2

then expanding the product.  Qubits outside the union are untouched, which
is what makes sparse codes (unary, block unary) cheap: a transition only
ever involves the few qubits that distinguish its two codewords.

A whole matrix is the sum of its element expansions, accumulated into one
coefficient dict; Hermitian input yields real coefficients.  Every
coefficient is summed in row-major element order, as if each element were
encoded on its own and added in turn.

One numpy kernel serves every code, in the block-unary geometry that
``encoding.block_shape`` gives it: standard binary and Gray are one block of
K qubits whose local code is the codeword, and unary is blocks of one qubit
with local code 1.  An element touches the u = w or 2w qubits of the one or
two blocks holding its levels.  With its codes x, x' over those qubits, xor
mask f = x ^ x' and Z mask s, it adds c * 2^-u * (-1)^|s & x| * i^|s & f| to
the string whose qubit q is I, Z, X or Y for (f_q, s_q) = (0,0), (0,1),
(1,0), (1,1).  An element within one block shares its strings with the
elements of that block with the same f, an element across two blocks only
with its transpose, and every diagonal element adds to the identity.  Each
group adds its elements' signed values rank by rank, row after row, then
multiplies by i^|s & f|, which is exact.  The kept strings come out in
canonical order by a numeric key, with no sort of the strings themselves.  A
fast Walsh-Hadamard (butterfly) transform would add the same terms in
another order and change last bits.

Products across sites are exact tensor products of the sites' sums, on
disjoint qubits.  Squares and other same-site products must be formed at
the matrix level *before* encoding: multiplying the encoded sums is equal
on the code subspace but can leave terms that act only outside it.

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

from dataclasses import dataclass
from functools import lru_cache
from operator import add

import numpy as np

from .encoding import EncodingSpec, block_shape, ceil_log2, codeword, num_qubits
from .paulis import PauliString, PauliSum, _kept, _pairs
from .qudit_ops import BOSONIC, BOSONIC_NAMES, SPIN, QuditMatrix, as_matrix, bosonic

ZERO_ENTRY_TOL = 1e-14
DBD_FIT_TOL = 1e-10

@dataclass(frozen=True)
class EncodedOperator:
    """The Pauli sum of an encoded matrix."""

    sum: PauliSum


def encode_element(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'|."""
    for level in (l, lp):
        if not 0 <= level < spec.d:
            raise ValueError(f"level {level} out of range [0, {spec.d})")
    value = np.array([complex(coeff)])
    if not np.isfinite(value).all():
        raise ValueError(f"non-finite coefficient {coeff}")
    out = PauliSum(num_qubits(spec))
    out.terms = _terms(spec, value, np.array([l]), np.array([lp]))
    return out


def encode_hermitian_pair(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'| + h.c."""
    s = encode_element(spec, l, lp, coeff) + encode_element(spec, lp, l, np.conj(coeff))
    return s.simplify()


def encode_matrix(spec: EncodingSpec, A) -> EncodedOperator:
    """Encode a whole d x d matrix: the sum of its element encodings,
    pruned and in canonical order.

    Entries below ``ZERO_ENTRY_TOL`` are treated as structural zeros so
    that analytically sparse operators keep their sparsity pattern.  Each
    element's own terms below ``PRUNE_EPS`` are dropped before the sum, and
    the sum's terms below it after.
    """
    m = as_matrix(A)
    if m.shape != (spec.d, spec.d):
        raise ValueError(f"matrix shape {m.shape} != ({spec.d}, {spec.d})")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    # np.hypot is the C library's hypot, which abs(complex) also calls; np.abs
    # of a complex array may round the last bit differently.  A finite entry
    # whose modulus overflows is not a zero.
    with np.errstate(over="ignore"):
        rows, cols = np.nonzero(np.hypot(m.real, m.imag) >= ZERO_ENTRY_TOL)
    out = PauliSum(num_qubits(spec))
    out.terms = _terms(spec, m[rows, cols], rows, cols)
    return EncodedOperator(out)


_EDGE = np.array([-1])
_CHUNK = 1 << 16  # contributions added at once, which bounds the kernel's memory


def _terms(spec: EncodingSpec, values: np.ndarray, rows, cols) -> dict:
    """The kernel: the pruned terms of the entries with these values at
    (rows, cols), in canonical order.  An element within block b adds to
    the 2^w strings of that block with xor mask f = x ^ x', an element
    across blocks to the 4^w strings over both, which only it and its
    transpose share."""
    g, w, _, _ = block_shape(spec)
    sums, lo, hi, f, u = _group_sums(*_elements(spec, values, rows, cols, g, w))
    if u > w:
        sums[lo == hi, 1 << w:] = 0.0  # past a one-block group's union
    k, s = _kept(sums.real, sums.imag).nonzero()
    # A string is built from two parts, each made once: split in the middle
    # of a block that spans the register, else at the end of the lower block.
    lower, upper, values = _ordered(sums[k, s], lo[k] * w, hi[k] * w, f[k], s, w, u,
                                    w // 2 if g == spec.d else w, num_qubits(spec))
    return dict(zip(map(add, lower, upper), values))


def _elements(spec: EncodingSpec, v: np.ndarray, rows, cols, g: int, w: int):
    """The elements in row-major order: their values, halved once per qubit
    of their union and zero where that drops them, their groups' keys, and
    their codes and xor masks over the union (the lower block's w qubits,
    then the upper's); their lower and upper blocks, and the union's width."""
    codes = _local_codes(spec)
    x, f, lo, hi, u = codes[rows], codes[cols], rows // g, cols // g, w
    for _ in range(w):  # one halving per qubit, so subnormal parts round as in the expansion
        v = v * 0.5
    two = lo != hi
    if two.any():
        u = 2 * w
        for _ in range(w):
            v = np.where(two, v * 0.5, v)
        x, f = x << w * (lo > hi), f << w * (hi > lo)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    f = x ^ f
    v = np.where(_kept(v.real, v.imag), v, 0.0)  # a dropped element adds zeros
    return v, ((lo * -(-spec.d // g) + hi) << 2 * w) | f, x, f, lo, hi, u


def _ordered(values, lower, upper, f, s, w: int, u: int, k: int, n: int):
    """The strings with union masks (f, s), as lower and upper parts, and
    their values, in canonical order.  The union's first w qubits start at
    qubit ``lower``, the rest at qubit ``upper``.  The lower part holds the
    union's first k qubits.  A part's id is its first qubit, then the
    base-5 digits of its qubits: X, Y, Z are 1, 2, 3 and I is 4 if a letter
    follows it in the union, else 0.  Strings sort by their parts' ids."""
    _, _, _, head, b5 = _masks(u)
    digits = head[f | s] + b5[f & s] - 2 * b5[f]
    left, right = np.divmod(digits, 5 ** (u - k))
    down = lower * 5 ** k + left
    up = (lower + k if k < w else upper) * 5 ** (u - k) + right
    # The identity (digits 0) has no block; it comes first.
    order = np.lexsort((up, down * (digits != 0)))
    return (_parts(down[order].tolist(), k, n), _parts(up[order].tolist(), u - k, n),
            values[order].tolist())


def _parts(ids: list, width: int, n: int):
    """The parts with these ids, each made once."""
    parts = {i: _part(i, width, n) for i in set(ids)}
    return map(parts.__getitem__, ids)


@lru_cache(maxsize=1 << 14)
def _part(i: int, width: int, n: int) -> PauliString:
    """The part with id i: the letters of the base-5 digits i % 5^width (the
    first digit the most significant) on the qubits from i // 5^width on.
    A digit 1, 2 or 3 is its letter's code in paulis._pairs: X, Y or Z."""
    first, digits = divmod(i, 5 ** width)
    pairs, part = _pairs(n), []
    for q in range(first + width - 1, first - 1, -1):
        digits, letter = divmod(digits, 5)
        if 0 < letter < 4:
            part.append(pairs[4 * q + letter])
    return tuple(reversed(part))


@lru_cache(maxsize=64)
def _local_codes(spec: EncodingSpec) -> np.ndarray:
    """Each level's code within its own block: the codeword for SB and Gray,
    1 in a one-qubit block for unary."""
    g, w, _, _ = block_shape(spec)
    codes = np.array([codeword(spec, l) >> (l // g * w) for l in range(spec.d)], dtype=np.int64)
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=16)
def _masks(u: int):
    """Tables over the 2^u masks t of a u-qubit union: the masks, whether
    popcount(t) is odd, i^popcount(t), 5^u - 5^(u-1-top) - b(t) with top
    the highest set bit (the first term 0 for t = 0), and b(t), the sum over
    set bits q of 5^(u-1-q)."""
    t = np.arange(1 << u)
    pop, b5, top = np.zeros((3, 1 << u), dtype=np.int64)
    for q in range(u):
        pop[1 << q: 2 << q] = pop[: 1 << q] + 1
        b5[1 << q: 2 << q] = b5[: 1 << q] + 5 ** (u - 1 - q)
        top[1 << q: 2 << q] = 5 ** u - 5 ** (u - 1 - q)
    tables = (t, pop % 2 == 1, np.array([1, 1j, -1, -1j])[pop % 4], top - b5, b5)
    for a in tables:
        a.setflags(write=False)
    return tables


def _group_sums(h, keys, x, f, lo, hi, u: int):
    """Sum each group of equal keys, over its elements in row-major order:
    element h adds h * (-1)^|s & x| to each of the 2^u strings s, and the
    group's sum of string s is then multiplied by i^|s & f|, which is exact.
    The groups' r-th elements are added at once, along axis 0 of a block of
    ranks, row after row onto the sums so far; padding adds zeros.  Returns
    the sums and each group's lower and upper block and xor mask, and u."""
    s, odd, phase = _masks(u)[:3]
    order = keys.argsort(kind="stable")
    k = np.concatenate((_EDGE, keys[order], _EDGE))  # keys are >= 0
    bounds = (k[1:] != k[:-1]).nonzero()[0]
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    big = (-sizes).argsort(kind="stable")  # so that the groups of each rank come first
    starts, sizes = starts[big], sizes[big]
    sums = np.zeros((len(starts), 1 << u), dtype=complex)
    r, top = 0, sizes[0] if len(sizes) else 0
    while r < top:
        a = int(np.count_nonzero(sizes > r)) if r else len(sizes)
        ranks = np.arange(r, min(top, r + max(1, _CHUNK // (a << u))))[:, None]
        valid = ranks < sizes[:a]
        e = order[np.where(valid, starts[:a] + ranks, 0)]
        c = np.where(valid, h[e], 0.0)[..., None]
        c = np.where(odd[s & x[e][..., None]], -c, c)
        c[0] += sums[:a]
        sums[:a] = np.add.reduce(c, axis=0)
        r += len(ranks)
    first = order[starts]
    fg = f[first]
    # + 0.0 turns a negative zero into the +0.0 that a sum started from 0 gives.
    sums = sums * phase[fg[:, None] & s] + 0.0
    # Each diagonal group summed only its own block's share of the identity
    # (s = 0); the first one takes the sum over every diagonal element.
    diagonal = (fg == 0).nonzero()[0]
    if len(diagonal) > 1:
        sums[diagonal, 0] = 0.0
        with np.errstate(over="ignore"):
            sums[diagonal[0], 0] = np.add.accumulate(h[f == 0])[-1] + 0.0
    return sums, lo[first], hi[first], fg, u


@dataclass(frozen=True)
class DBDFit:
    """diag(l) = offset + sum_i k[i] * bit_i(l) over the d realized levels."""

    offset: float
    k: tuple[float, ...]


def detect_dbd(A) -> DBDFit | None:
    """Fit the diagonal to an affine function of the standard-binary bits.

    The fit runs over the d realized bit patterns only (a truncation like
    d=3 uses 3 of the 4 two-bit patterns, and a fit on those is accepted).
    Returns None for non-diagonal matrices or fits worse than DBD_FIT_TOL.
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
    if np.max(np.abs(residual)) > DBD_FIT_TOL:
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
