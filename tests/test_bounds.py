"""Analytic CNOT bounds cross-checked against brute-force enumeration."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudenc.bounds import (MAX_K, SPARSITY_PATTERNS, BoundQuery, asymptotic_class,
                           closed_form_cnot_upper_bound, cnot_upper_bound,
                           dense_cnot_upper_bound, operator_upper_bound,
                           pauli_length_distribution, staircase_cnots)
from qudenc.encoder import encode_element, encode_matrix
from qudenc.encoding import GRAY, SB, UNARY, EncodingSpec, encode, hamming_distance
from qudenc.paulis import PauliSum, weight
from qudenc.qudit_ops import bosonic, dense_hermitian_test_matrix


def _brute_distribution(d_H, K, diagonal):
    """Enumerate strings directly: X/Y on the d_H differing qubits (signs
    halved by hermiticity unless diagonal), I/Z on the rest."""
    dist = {}
    free = K - d_H
    base = 1 if diagonal else 1 << max(0, d_H - 1)
    for z_count in range(free + 1):
        p = d_H + z_count
        dist[p] = dist.get(p, 0) + base * comb(free, z_count)
    return {p: f for p, f in dist.items() if f}


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_length_distribution_matches_enumeration(K):
    for d_H in range(0, K + 1):
        diagonal = d_H == 0
        q = BoundQuery(d_H, K, diagonal=diagonal)
        assert pauli_length_distribution(q) == _brute_distribution(d_H, K, diagonal)


def test_distribution_total_counts():
    q = BoundQuery(3, 5)
    assert sum(pauli_length_distribution(q).values()) == 2 ** (5 - 1)
    qd = BoundQuery(0, 5, diagonal=True)
    assert sum(pauli_length_distribution(qd).values()) == 2 ** 5


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_closed_forms_match_sum(K):
    for q in (BoundQuery(0, K, diagonal=True), BoundQuery(1, K), BoundQuery(2, K)):
        assert closed_form_cnot_upper_bound(q) == cnot_upper_bound(q)


def test_closed_form_examples():
    assert closed_form_cnot_upper_bound(BoundQuery(0, 2, diagonal=True)) == 2
    assert closed_form_cnot_upper_bound(BoundQuery(1, 3)) == 8
    assert closed_form_cnot_upper_bound(BoundQuery(2, 4)) == 32
    with pytest.raises(ValueError):
        closed_form_cnot_upper_bound(BoundQuery(3, 4))


def test_bound_matches_actual_encoded_element():
    # the bound formula with d_H taken from the real codewords is attained
    # exactly by the unoptimized expansion of |l><l'| + h.c.
    for kind in (SB, GRAY):
        spec = EncodingSpec(kind, 8)
        for l, lp in [(3, 4), (0, 7), (2, 6)]:
            d_H = hamming_distance(encode(spec, l), encode(spec, lp))
            s = encode_element(spec, l, lp) + encode_element(spec, lp, l)
            assert staircase_cnots(s.simplify()) == cnot_upper_bound(
                BoundQuery(d_H, 3))


def test_diagonal_bound_caps_actual_diagonal():
    spec = EncodingSpec(SB, 8)
    s = encode_element(spec, 5, 5).simplify()
    assert staircase_cnots(s) <= cnot_upper_bound(BoundQuery(0, 3, diagonal=True))


def test_dense_bound_formula_and_attainment():
    # formula equals the sum over the whole string population
    for K in (1, 2, 3, 4):
        total = sum(comb(K, p) * 3 ** p * (2 * p - 2)
                    for p in range(2, K + 1))
        assert dense_cnot_upper_bound(1 << K) == total
    # a generic dense Hermitian operator on d = 2^K levels cannot exceed it
    for K in (2, 3):
        d = 1 << K
        A = dense_hermitian_test_matrix(d, seed=3)
        assert operator_upper_bound(EncodingSpec(SB, d), A) <= dense_cnot_upper_bound(d)
    with pytest.raises(ValueError):
        dense_cnot_upper_bound(12)


def test_unary_pair_is_constant_cost():
    # one transition pair in unary is always X.X + Y.Y on two wires:
    # two weight-2 strings, 4 CNOTs, independent of d
    for d in (4, 9, 16):
        spec = EncodingSpec(UNARY, d)
        s = (encode_element(spec, 1, 2) + encode_element(spec, 2, 1)).simplify()
        assert staircase_cnots(s) == 4


# A Pauli string as its sorted set of (qubit, letter) factors: the identity
# string (), weight-1 strings and wider ones on up to six qubits.
_STRINGS = st.dictionaries(st.integers(0, 5), st.sampled_from("XYZ"), max_size=6).map(
    lambda letters: tuple(sorted(letters.items())))


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(st.lists(_STRINGS, max_size=12))
def test_property_staircase_cnots_is_the_per_string_sum(strings):
    s = PauliSum(6)
    s.terms = dict.fromkeys(strings, 1.0)  # the empty sum when strings is empty
    assert staircase_cnots(s) == sum(2 * weight(p) - 2 for p in s.terms if weight(p) >= 2)


@pytest.mark.parametrize("strings, cnots", [
    ([], 0), ([()], 0), ([((0, "X"),)], 0), ([(), ((2, "Z"),)], 0),
    ([(), ((0, "X"), (1, "Y"))], 2), ([((0, "X"), (1, "Y"), (5, "Z")), ((3, "Z"),)], 4),
], ids=["empty", "identity", "weight-1", "identity-and-weight-1", "identity-and-weight-2",
        "weight-3-and-weight-1"])
def test_staircase_cnots_edge_sums(strings, cnots):
    s = PauliSum(6)
    s.terms = dict.fromkeys(strings, 1.0)
    assert staircase_cnots(s) == cnots


def test_operator_upper_bound_number_operator():
    # n on d=4 in SB encodes to weight <= 1 strings: no CNOTs at all
    assert operator_upper_bound(EncodingSpec(SB, 4), bosonic(4, "n")) == 0


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0, 3)          # off-diagonal needs d_H >= 1
    with pytest.raises(ValueError):
        BoundQuery(4, 3)
    with pytest.raises(ValueError):
        BoundQuery(1, 3, diagonal=True)
    with pytest.raises(ValueError):
        BoundQuery(1, 0)
    with pytest.raises(ValueError):
        BoundQuery(1, MAX_K + 1)  # wider than any compact register
    assert BoundQuery(1, MAX_K).K == MAX_K


def test_asymptotic_classes():
    assert asymptotic_class(UNARY, "pair") == "O(1)"
    assert asymptotic_class(UNARY, "tridiagonal") == "O(d)"
    assert asymptotic_class(UNARY, "dense") == "O(d^2)"
    assert asymptotic_class("block_unary", "pair") == "O(g log g)"
    assert asymptotic_class(SB, "pair") == "O(d log d)"
    assert asymptotic_class(GRAY, "dense") == "O(d^2 log d)"
    assert asymptotic_class(SB, "tridiagonal") == asymptotic_class(SB, "dense")
    with pytest.raises(ValueError):
        asymptotic_class("sb", "banded")
    with pytest.raises(ValueError):
        asymptotic_class("nope", "pair")
    assert SPARSITY_PATTERNS == ("pair", "tridiagonal", "dense")
