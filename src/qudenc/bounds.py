"""Counting bounds for encoded transition operators.

For a compact K-qubit code, an element |l><l'| whose codewords differ on
d_H qubits expands into Pauli strings whose length distribution is known
exactly: each of the d_H differing qubits contributes X or Y (always
present), and each of the K - d_H agreeing qubits contributes I or Z.
Keeping the Hermitian combination |l><l'| + h.c. halves the X/Y sign
choices, leaving

    f(p; d_H, K) = 2^(d_H - 1) * C(K - d_H, p - d_H),   d_H <= p <= K

strings of length p (sum 2^(K-1)).  A diagonal element |l><l| has d_H = 0
and distribution C(K, p) over p = 0..K (sum 2^K, no halving).  Every
length-p string costs at most 2(p-1) CNOTs in a staircase, so

    cnot_upper_bound = sum_p f(p) * (2p - 2).

Closed forms implemented (and brute-force checked in the tests):

    d_H = 0 (diagonal) : K 2^K - 2^(K+1) + 2
    d_H = 1            : (K - 1) 2^(K - 1)
    d_H = 2            : K 2^(K - 1)

A dense Hermitian operator on d = 2^K levels touches each of the 4^K
Pauli strings at most once, so its staircase cost is bounded by the whole
string population, not by a per-element sum:

    dense_cnot_upper_bound = sum_{p>=2} C(K, p) 3^p (2p - 2)
                           = 4^K (3K - 4) / 2 + 2.

Asymptotic per-operator classes (pair = one |l><l'| + h.c., tridiagonal =
O(d) such pairs on neighbouring levels, dense = all pairs):

    code          pair          tridiagonal      dense
    unary         O(1)          O(d)             O(d^2)
    block unary   O(g log g)    O(d g log g)     O(d^2 g log g)
    compact       O(d log d)    O(d^2 log d)     O(d^2 log d)

(the compact dense entry matches tridiagonal because the string
population argument caps the total).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .encoding import BLOCK_UNARY, GRAY, MAX_D, SB, UNARY, EncodingSpec, ceil_log2
from .paulis import PauliSum, weight

SPARSITY_PATTERNS = ("pair", "tridiagonal", "dense")
MAX_CLOSED_FORM_DH = 2  # closed forms exist for d_H = 0 (diagonal), 1 and 2
MAX_K = ceil_log2(MAX_D)  # the widest compact register a level count allows


@dataclass(frozen=True)
class BoundQuery:
    """Hamming distance d_H between the two codewords, register size K,
    and whether the element is diagonal (then d_H must be 0)."""

    d_H: int
    K: int
    diagonal: bool = False

    def __post_init__(self):
        if not 1 <= self.K <= MAX_K:
            raise ValueError(f"K must be in [1, {MAX_K}], got {self.K}")
        if self.diagonal:
            if self.d_H != 0:
                raise ValueError("a diagonal element has d_H = 0")
        else:
            if not 1 <= self.d_H <= self.K:
                raise ValueError("an off-diagonal element needs 1 <= d_H <= K")


def pauli_length_distribution(q: BoundQuery) -> dict[int, int]:
    """Number of Pauli strings of each length p in the element's expansion."""
    if q.diagonal:
        return {p: comb(q.K, p) for p in range(q.K + 1)}
    return {p: (1 << (q.d_H - 1)) * comb(q.K - q.d_H, p - q.d_H)
            for p in range(q.d_H, q.K + 1)}


def cnot_upper_bound(q: BoundQuery) -> int:
    dist = pauli_length_distribution(q)
    return sum(f * (2 * p - 2) for p, f in dist.items() if p >= 2)


def closed_form_cnot_upper_bound(q: BoundQuery) -> int:
    """Closed forms for d_H in {0 (diagonal), 1, 2}."""
    K = q.K
    if q.d_H > MAX_CLOSED_FORM_DH:
        raise ValueError(f"no closed form implemented for d_H = {q.d_H}")
    if q.diagonal:
        return K * (1 << K) - (1 << (K + 1)) + 2
    if q.d_H == 1:
        return (K - 1) * (1 << (K - 1))
    return K * (1 << (K - 1))


def dense_cnot_upper_bound(d: int) -> int:
    """String-population bound for a dense Hermitian operator, d = 2^K."""
    if d < 2 or d & (d - 1):
        raise ValueError("the dense bound assumes d is a power of two")
    K = ceil_log2(d)
    return ((1 << (2 * K)) * (3 * K - 4)) // 2 + 2


def staircase_cnots(s: PauliSum) -> int:
    """Exact pre-optimization CNOT count of a staircase for this sum."""
    total = 0
    for pstring in s.terms:
        p = weight(pstring)
        if p >= 2:
            total += 2 * p - 2
    return total


def operator_upper_bound(spec: EncodingSpec, A) -> int:
    """Staircase CNOT count of the encoded operator (an upper bound on the
    optimized circuit; brute-force partner of the analytic formulas)."""
    from .encoder import encode_matrix
    return staircase_cnots(encode_matrix(spec, A).sum)


_CLASS_TABLE = {
    UNARY: {"pair": "O(1)", "tridiagonal": "O(d)", "dense": "O(d^2)"},
    BLOCK_UNARY: {"pair": "O(g log g)", "tridiagonal": "O(d g log g)",
                  "dense": "O(d^2 g log g)"},
    SB: {"pair": "O(d log d)", "tridiagonal": "O(d^2 log d)",
         "dense": "O(d^2 log d)"},
}
_CLASS_TABLE[GRAY] = _CLASS_TABLE[SB]


def asymptotic_class(kind: str, sparsity: str) -> str:
    """Scaling of the total CNOT bound for one encoded operator."""
    if kind not in _CLASS_TABLE:
        raise ValueError(f"unknown encoding kind {kind!r}")
    if sparsity not in SPARSITY_PATTERNS:
        raise ValueError(f"unknown sparsity pattern {sparsity!r}; "
                         f"choose from {SPARSITY_PATTERNS}")
    return _CLASS_TABLE[kind][sparsity]
