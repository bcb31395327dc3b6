"""Pauli string algebra: products, phases, collection, serialization."""

import numpy as np
import pytest

from qudenc.paulis import (PauliSum, act_on_bits, multiply_strings, string,
                           string_to_text, text_to_string, weight)
from qudenc.simulator import pauli_to_matrix


def test_single_qubit_products():
    X = text_to_string("X0")
    Y = text_to_string("Y0")
    Z = text_to_string("Z0")
    assert multiply_strings(X, Y) == (1j, Z)
    assert multiply_strings(Y, X) == (-1j, Z)
    assert multiply_strings(Y, Z) == (1j, X)
    assert multiply_strings(Z, X) == (1j, Y)
    assert multiply_strings(X, X) == (1, ())
    assert multiply_strings((), Z) == (1, Z)


def test_multiply_disjoint_supports():
    a = text_to_string("X0")
    b = text_to_string("Z2")
    phase, s = multiply_strings(a, b)
    assert phase == 1 and s == text_to_string("X0 Z2")


def test_string_helpers():
    s = string((2, "Z"), (0, "X"))
    assert s == ((0, "X"), (2, "Z"))
    assert weight(s) == 2
    assert string_to_text(s) == "X0 Z2"
    assert text_to_string("I") == ()
    assert text_to_string("") == ()
    with pytest.raises(ValueError):
        string((0, "X"), (0, "Y"))


def test_canonical_ordering_is_pseudo_alphabetical():
    strings = [text_to_string(t) for t in ("Z0", "X0", "Y1", "X0 Z1", "")]
    ordered = sorted(strings)
    assert [string_to_text(s) for s in ordered] == ["", "X0", "X0 Z1", "Z0", "Y1"]


def test_sum_collects_and_prunes():
    s = PauliSum(2)
    s._accumulate(text_to_string("X0"), 0.5)
    s._accumulate(text_to_string("X0"), 0.5)
    s._accumulate(text_to_string("Z1"), 1e-15)
    s = s.simplify()
    assert len(s.terms) == 1
    assert s.coeff(text_to_string("X0")) == 1.0


def test_sum_arithmetic_matches_matrices():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = PauliSum(2)
        b = PauliSum(2)
        for t in ("", "X0", "Y0 Z1", "Z0", "X1"):
            a._accumulate(text_to_string(t), complex(*rng.uniform(-1, 1, 2)))
            b._accumulate(text_to_string(t), complex(*rng.uniform(-1, 1, 2)))
        a, b = a.simplify(), b.simplify()
        np.testing.assert_allclose(pauli_to_matrix(a + b),
                                   pauli_to_matrix(a) + pauli_to_matrix(b),
                                   atol=1e-12)
        np.testing.assert_allclose(pauli_to_matrix(a - b),
                                   pauli_to_matrix(a) - pauli_to_matrix(b),
                                   atol=1e-12)
        np.testing.assert_allclose(pauli_to_matrix(a.multiply(b)),
                                   pauli_to_matrix(a) @ pauli_to_matrix(b),
                                   atol=1e-12)
        np.testing.assert_allclose(pauli_to_matrix(0.5j * a),
                                   0.5j * pauli_to_matrix(a), atol=1e-12)


def test_tensor_shift():
    s = PauliSum(2)
    s._accumulate(text_to_string("X0 Z1"), 2.0)
    shifted = s.simplify().tensor_shift(3, 6)
    assert shifted.n_qubits == 6
    assert list(shifted.terms) == [text_to_string("X3 Z4")]


def test_is_hermitian():
    s = PauliSum(1)
    s._accumulate(text_to_string("X0"), 1.0)
    assert s.simplify().is_hermitian()
    t = PauliSum(1)
    t._accumulate(text_to_string("X0"), 1j)
    assert not t.simplify().is_hermitian()


def test_act_on_bits_phases():
    # X flips, Z signs, Y flips with a phase
    assert act_on_bits(text_to_string("X0"), (0,)) == (1, (1,))
    assert act_on_bits(text_to_string("Z0"), (1,)) == (-1, (1,))
    assert act_on_bits(text_to_string("Z0"), (0,)) == (1, (0,))
    assert act_on_bits(text_to_string("Y0"), (0,)) == (1j, (1,))
    assert act_on_bits(text_to_string("Y0"), (1,)) == (-1j, (0,))


def test_act_on_bits_matches_matrix():
    rng = np.random.default_rng(5)
    n = 3
    for text in ("X0 Y1 Z2", "Y0 Y2", "Z0 X1", ""):
        s = text_to_string(text)
        p = PauliSum(n)
        p._accumulate(s, 1.0)
        m = pauli_to_matrix(p.simplify())
        for _ in range(4):
            bits = tuple(int(b) for b in rng.integers(0, 2, n))
            idx = sum(b << i for i, b in enumerate(bits))
            phase, out = act_on_bits(s, bits)
            out_idx = sum(b << i for i, b in enumerate(out))
            col = m[:, idx]
            assert abs(col[out_idx] - phase) < 1e-12
            assert np.sum(np.abs(col) > 1e-12) == 1


def test_json_round_trip():
    s = PauliSum(3)
    s._accumulate(text_to_string("X0 Z2"), 1.5 - 0.25j)
    s._accumulate(text_to_string(""), 2.0)
    s = s.simplify()
    back = PauliSum.from_json_dict(s.to_json_dict())
    assert back.allclose(s)


def test_accumulate_range_check():
    s = PauliSum(2)
    with pytest.raises(ValueError):
        s._accumulate(text_to_string("X5"), 1.0)
