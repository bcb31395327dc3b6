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
coefficient dict and simplified once; Hermitian input yields real
coefficients.  Every coefficient is summed in row-major element order, as
if each element were encoded on its own and added in turn, so the result
does not depend on which of the two paths below computed it:

* standard binary and Gray, where C(l) is the whole register, use a numpy
  kernel.  With K qubits, xor mask f = x(l) ^ x(l') and Z mask s, element
  c * |l><l'| adds c * 2^-K * (-1)^|s & x(l)| * i^|s & f| to the string
  whose qubit q is I, Z, X or Y for (f_q, s_q) = (0,0), (0,1), (1,0), (1,1).
  Elements are grouped by f and each group is summed over its rows in
  row-major order.  A fast Walsh-Hadamard (butterfly) transform would
  add the same terms in another order and change last bits.
* unary and block unary use the same rule over C(l) | C(l'): the one or
  two blocks of w qubits holding the local codes of l and l' (unary is
  block unary with w = 1 and local code 1), so u = w or 2w replaces K.
  An element within one block shares its strings with the other elements
  of that block with the same f; an element across two blocks shares them
  only with its transpose; the identity is shared by every diagonal
  element.  Each group is summed in row-major order, one rank at a time,
  and the kept strings come out in canonical order.

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

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import add

import numpy as np

from .encoding import BLOCK_UNARY, GRAY, SB, EncodingSpec, bitmask_subset, ceil_log2, codeword
from .paulis import PRUNE_EPS, PauliString, PauliSum
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


def _expand(x_l: int, x_lp: int, union, coeff) -> list[tuple[PauliString, complex]]:
    """Product of the per-qubit rules over the sorted union, for codewords
    x_l and x_lp: (string, coefficient) pairs, all strings distinct."""
    expansion: list[tuple[PauliString, complex]] = [((), complex(coeff))]
    for q in union:
        rule = _RULES[((x_l >> q) & 1, (x_lp >> q) & 1)]
        expansion = [
            (ops if letter is None else ops + ((q, letter),), c * rc)
            for ops, c in expansion
            for letter, rc in rule
        ]
    return expansion


def encode_element(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'|."""
    union = sorted(bitmask_subset(spec, l) | bitmask_subset(spec, lp))
    out = PauliSum(enc_mod.num_qubits(spec))
    for ops, c in _expand(codeword(spec, l), codeword(spec, lp), union, coeff):
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
    # of a complex array may round the last bit differently.
    rows, cols = np.nonzero(np.hypot(m.real, m.imag) >= ZERO_ENTRY_TOL)
    if spec.kind in (SB, GRAY):
        terms = _compact_terms(spec, m, rows, cols)
    else:
        terms = _local_terms(spec, m, rows, cols)
    out = PauliSum(enc_mod.num_qubits(spec))
    out.terms = terms
    return EncodedOperator(out.simplify(), spec, matrix_digest(m))


_LETTERS = (None, "Z", "X", "Y")  # indexed by 2 * f_q + s_q
_PHASE = np.array([1, 1j, -1, -1j])  # i^k
_TRUE = np.ones(1, dtype=bool)


def _local_terms(spec: EncodingSpec, m: np.ndarray, rows, cols) -> dict:
    """The unary / block-unary kernel; unary is block unary with blocks of
    one qubit and local code 1.  An element within block b adds to the 2^w
    strings of that block with xor mask f = x ^ x', an element across
    blocks to the 4^w strings over both, which only it and its transpose
    share.  The kept strings are emitted in canonical order, so the sort in
    ``simplify`` is linear."""
    g, w = _block_shape(spec)
    codes, bits = _local_codes(spec)
    pairs = _pairs(enc_mod.num_qubits(spec))
    v, same = m[rows, cols], rows // g == cols // g
    one, two = same.nonzero()[0], (~same).nonzero()[0]
    singles, one_sums = _one_block(v[one], rows[one], cols[one], codes, g, w, bits, pairs)
    table, ends, lo, hi, two_sums = _two_blocks(v[two], rows[two], cols[two], codes, g, w, bits,
                                                pairs)
    # Each string is a lower part and an upper part, () within one block.
    # As the lower part of a longer string, a part sorts as if it ended in
    # a qubit past its block.
    n1, nt = len(singles), len(table)
    parts = [(), *singles, *table, *table]
    keys = [(), *singles, *[p + (e,) for p, e in zip(table, ends)], *table]
    rank = np.empty(len(keys), dtype=np.int64)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    lo = np.concatenate([np.arange(1, n1 + 1), lo + n1 + 1])
    hi = np.concatenate([np.zeros(n1, dtype=np.int64), hi + n1 + nt + 1])
    order = (rank[lo] * len(keys) + rank[hi]).argsort()
    return dict(zip(map(add, map(parts.__getitem__, lo[order].tolist()),
                        map(parts.__getitem__, hi[order].tolist())),
                    np.concatenate([one_sums, two_sums])[order].tolist()))


def _block_shape(spec: EncodingSpec) -> tuple[int, int]:
    """Levels per block (at most d) and qubits per block."""
    return (min(spec.g, spec.d), spec.block_width) if spec.kind == BLOCK_UNARY else (1, 1)


@lru_cache(maxsize=64)
def _local_codes(spec: EncodingSpec) -> tuple[np.ndarray, int]:
    """Each level's code within its own block (unary: 1 in a one-qubit
    block), and the bit length of the largest."""
    g, w = _block_shape(spec)
    codes = np.array([codeword(spec, l) >> (l // g * w) for l in range(spec.d)], dtype=np.int64)
    codes.setflags(write=False)
    return codes, int(codes.max()).bit_length()


def _one_block(h, rows, cols, codes, g: int, w: int, bits: int, pairs):
    """Elements within one block, grouped by block and xor mask f: the kept
    strings, in no particular order, and their sums.  The identity, which
    every diagonal element adds to, is summed apart over all of them."""
    h, rows, cols = _halved(h, rows, cols, w)
    if not len(h):
        return [], h
    b, x, s = rows // g, codes[rows], np.arange(1 << w)
    f = x ^ codes[cols]
    first, sums = _rank_sums((b << w) | f, h[:, None] * _PHASE[
        (2 * _popcount(s & x[:, None], bits) + _popcount(s & f[:, None], bits)) & 3])
    # Each diagonal group summed only its own block's share of the identity
    # (s = 0); the first one takes the sum over every diagonal element.
    diagonal = (f[first] == 0).nonzero()[0]
    sums[diagonal, 0] = 0.0
    sums[diagonal[:1], 0] = np.add.accumulate(h[f == 0])[-1:] + 0.0
    k, s = _kept(sums).nonzero()
    return _strings(b[first][k], f[first][k], s, w, pairs), sums[k, s]


def _two_blocks(h, rows, cols, codes, g: int, w: int, bits: int, pairs):
    """Elements across blocks, grouped with their transposes: the strings of
    each level that they use, with the position just past its block, and the
    kept strings as (lower, upper) indices into that table, with their sums."""
    h, rows, cols = _halved(h, rows, cols, 2 * w)
    if not len(h):
        return [], [], rows, rows, h
    lo, hi, s = np.minimum(rows, cols), np.maximum(rows, cols), np.arange(1 << w)
    # i^(|s_hi & x_hi| - |s_lo & x_lo|), negated when the row is the upper level.
    p = (_popcount(s & codes[hi][:, None], bits)[:, None, :]
         - _popcount(s & codes[lo][:, None], bits)[:, :, None])
    p[rows > cols] *= -1
    first, sums = _rank_sums(lo * len(codes) + hi, h[:, None, None] * _PHASE[p & 3])
    k, s_lo, s_hi = _kept(sums).nonzero()
    used = np.zeros(len(codes), dtype=bool)
    used[lo[first]] = used[hi[first]] = True
    levels, index = used.nonzero()[0].repeat(1 << w), used.cumsum() - 1
    table = _strings(levels // g, codes[levels], np.resize(s, len(levels)), w, pairs)
    ends = [((b + 1) * w,) for b in (levels // g).tolist()]
    return (table, ends, (index[lo[first]][k] << w) | s_lo, (index[hi[first]][k] << w) | s_hi,
            sums[k, s_lo, s_hi])


def _kept(v: np.ndarray) -> np.ndarray:
    """Which coefficients are not below PRUNE_EPS, by abs(complex)'s hypot."""
    return np.hypot(v.real, v.imag) >= PRUNE_EPS


def _halved(v, rows, cols, u: int):
    """The elements' values halved once per qubit of their u-qubit union, as
    in the element expansion, and the elements whose terms are then not
    below PRUNE_EPS."""
    for _ in range(u):
        v = v * 0.5
    kept = _kept(v)
    return v[kept], rows[kept], cols[kept]


def _popcount(a: np.ndarray, bits: int) -> np.ndarray:
    """Set bits of a, each value below 2^bits, folded one bit at a time."""
    count = a & 1
    for q in range(1, bits):
        count += (a >> q) & 1
    return count


def _rank_sums(keys: np.ndarray, contributions: np.ndarray):
    """Sum the contributions (one row per element, elements in row-major
    order) over each group of equal keys.  Rank r of every group is added at
    once, so each sum is (c_0 + c_1) + c_2 ..., as adding the elements one
    by one gives.  Returns each group's first element and its sums."""
    order = keys.argsort(kind="stable")
    k = keys[order]
    bounds = np.concatenate((_TRUE, k[1:] != k[:-1], _TRUE)).nonzero()[0]
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    sums = contributions[order[starts]]
    for r in range(1, np.maximum.reduce(sizes)):
        grow = (sizes > r).nonzero()[0]
        sums[grow] += contributions[order[starts[grow] + r]]
    # + 0.0 turns a negative zero into the +0.0 that a sum started from 0 gives.
    return order[starts], sums + 0.0


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple:
    """The (qubit, letter) pairs of an n-qubit register at 4 * qubit + 2 * f + s,
    for letters I (None), Z, X and Y, shared by the strings built from them."""
    return tuple(letter and (q, letter) for q in range(n) for letter in _LETTERS)


def _strings(blocks, f, s, w: int, pairs) -> list[PauliString]:
    """The string of each block b whose qubit q carries letter (f_q, s_q):
    I, Z, X or Y for (0,0), (0,1), (1,0), (1,1)."""
    q = np.arange(w)
    letters = 2 * ((f[:, None] >> q) & 1) + ((s[:, None] >> q) & 1)
    i, q = letters.nonzero()
    it = iter(map(pairs.__getitem__, (4 * (blocks[i] * w + q) + letters[i, q]).tolist()))
    return [tuple(islice(it, k)) for k in np.bincount(i, minlength=len(blocks)).tolist()]


@lru_cache(maxsize=64)
def _compact_codes(spec: EncodingSpec) -> np.ndarray:
    """Codeword of every level of an SB or Gray code."""
    codes = np.array([codeword(spec, l) for l in range(spec.d)], dtype=np.int64)
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=16)
def _register(K: int):
    """Tables over the 2^K masks t of a K-qubit register: the masks, whether
    popcount(t) is odd, i^popcount(t), and the Pauli strings of the low
    k_lo = K // 2 qubits and of the rest, so that string (f, s) is
    low[(f_lo << k_lo) | s_lo] + high[(f_hi << (K - k_lo)) | s_hi]."""
    pop = np.zeros(1 << K, dtype=np.int64)
    for q in range(K):
        pop[1 << q: 2 << q] = pop[: 1 << q] + 1
    k_lo = K // 2

    def half(lo: int, width: int) -> tuple[PauliString, ...]:
        return tuple(tuple((lo + q, _LETTERS[2 * ((f >> q) & 1) + ((s >> q) & 1)])
                           for q in range(width) if ((f | s) >> q) & 1)
                     for f in range(1 << width) for s in range(1 << width))

    tables = (np.arange(1 << K), pop % 2 == 1, _PHASE[pop % 4])
    for t in tables:
        t.setflags(write=False)
    return (*tables, k_lo, half(0, k_lo), half(k_lo, K - k_lo))


def _compact_terms(spec: EncodingSpec, m: np.ndarray, rows, cols) -> dict:
    """The SB / Gray kernel: elements grouped by xor mask f, each group
    summed over its rows in row-major order.  Memory per group is
    O(rows * 2^K); no 4^K array is formed."""
    K = enc_mod.num_qubits(spec)
    masks, odd, phase, k_lo, low, high = _register(K)
    codes = _compact_codes(spec)
    v = m[rows, cols]
    for _ in range(K):  # one halving per qubit, as in the element expansion
        v = v * 0.5
    kept = _kept(v)
    x = codes[rows[kept]]
    f = x ^ codes[cols[kept]]
    if not len(f):
        return {}
    order = np.argsort(f, kind="stable")  # row-major within each f
    x, f, v = x[order], f[order], v[kept][order]
    bounds = (np.flatnonzero(f[1:] != f[:-1]) + 1).tolist()
    starts, stops = [0] + bounds, bounds + [len(f)]
    sums = np.empty((len(starts), 1 << K), dtype=complex)
    for g, (a, b) in enumerate(zip(starts, stops)):
        col = v[a:b, None]
        # Axis 0 of a C-contiguous array is added row after row; numpy's
        # pairwise summation applies only along the contiguous axis.
        sums[g] = np.add.reduce(np.where(odd[x[a:b, None] & masks], -col, col),
                                axis=0)
    fg = f[starts]
    # The phase is exact (a sign and a swap of parts); + 0.0 turns a
    # negative zero into the +0.0 that a sum started from 0 gives.
    sums = sums * phase[fg[:, None] & masks] + 0.0
    g, s = np.nonzero(_kept(sums))
    f_sel, k_hi = fg[g], K - k_lo
    lo_mask = (1 << k_lo) - 1
    lo_idx = (((f_sel & lo_mask) << k_lo) | (s & lo_mask)).tolist()
    hi_idx = (((f_sel >> k_lo) << k_hi) | (s >> k_lo)).tolist()
    keys = [low[a] + high[b] for a, b in zip(lo_idx, hi_idx)]
    return dict(zip(keys, sums[g, s].tolist()))


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
