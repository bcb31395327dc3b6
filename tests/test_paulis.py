"""Pauli string algebra: products, phases, collection, serialization, and
the packed form that pricing holds its sums in."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_paulis import act_on_bits, allclose, multiply, multiply_strings, tensor_shift
from qudenc.paulis import (PRUNE_EPS, PackedSum, PauliSum, string, string_to_text,
                           text_to_string, weight)
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
        np.testing.assert_allclose(pauli_to_matrix(multiply(a, b)),
                                   pauli_to_matrix(a) @ pauli_to_matrix(b),
                                   atol=1e-12)
        np.testing.assert_allclose(pauli_to_matrix(0.5j * a),
                                   0.5j * pauli_to_matrix(a), atol=1e-12)


def test_tensor_shift():
    s = PauliSum(2)
    s._accumulate(text_to_string("X0 Z1"), 2.0)
    shifted = tensor_shift(s.simplify(), 3, 6)
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
    assert allclose(back, s)


def test_accumulate_range_check():
    s = PauliSum(2)
    with pytest.raises(ValueError):
        s._accumulate(text_to_string("X5"), 1.0)


def test_negative_qubit_index_is_rejected():
    # Such a sum would write the token "X-1", which from_json_dict rejects.
    with pytest.raises(ValueError, match="negative qubit index -1"):
        PauliSum(2, {((-1, "X"),): 1.0})
    bad = PauliSum(2)
    bad.terms[((0, "Z"), (-1, "X"))] = 1.0  # past the constructor's check
    with pytest.raises(ValueError, match="negative qubit index -1"):
        PauliSum(2) + bad
    with pytest.raises(ValueError, match="outside register of 2"):
        PauliSum(2, {((2, "X"),): 1.0})


def test_qubit_indices_and_widths_must_be_integers():
    # 4 * 0.5 + 1 once packed as Z0's code, so a Trotter step of this sum
    # was one Rz on qubit 0; a width of 2.5 synthesized gates on qubit 0.0.
    with pytest.raises(ValueError, match="qubit index must be an integer, got 0.5"):
        PauliSum(2, {((0.5, "X"),): 1.0})
    with pytest.raises(ValueError, match="qubit index must be an integer, got True"):
        PauliSum(2, {((True, "X"),): 1.0})
    with pytest.raises(ValueError, match="qubit index must be an integer, got 1.0"):
        string((1.0, "Z"))
    with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.5"):
        PauliSum(2.5)
    with pytest.raises(ValueError, match="n_qubits must be an integer, got False"):
        PauliSum(False)
    with pytest.raises(ValueError, match="n_qubits must be non-negative"):
        PauliSum(-1)
    # numpy integers are integers.
    s = PauliSum(np.int64(3), {string((np.intp(2), "X"), (np.int32(0), "Z")): 1.0})
    assert s.terms == {((0, "Z"), (2, "X")): 1.0}


# Parts of a coefficient: the prune edge, values below it, signed zeros and
# the smallest subnormal, then any finite double.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, PRUNE_EPS, -PRUNE_EPS, PRUNE_EPS / 2,
                                    -PRUNE_EPS / 3, 5e-324, 1.0, -0.5]),
                   st.floats(allow_nan=False, allow_infinity=False))


def test_pruning_keeps_a_finite_coefficient_whose_modulus_overflows():
    # abs() of this coefficient raises OverflowError, and np.hypot warns.
    big = complex(1.5e308, 1.5e308)
    s = PauliSum(2)
    s.terms = {((1, "X"),): big, (): 1e-13, ((0, "Z"),): -big}
    assert s.simplify().terms == {((0, "Z"),): -big, ((1, "X"),): big}
    pruned = PackedSum.pack(list(s.terms.items()), 2).pruned().unpack()
    assert pruned.terms == {((1, "X"),): big, ((0, "Z"),): -big}


@st.composite
def _items(draw) -> tuple[list, int]:
    """Distinct strings on a register of 0 to 12 qubits, the identity among
    them at times, in drawn order, each with a drawn complex coefficient;
    and the register's width."""
    n = draw(st.integers(0, 12))
    letters = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ")) if n else st.just({})
    strings = draw(st.lists(letters.map(lambda d: tuple(sorted(d.items()))), unique=True,
                            max_size=20))
    return [(s, complex(draw(_PARTS), draw(_PARTS))) for s in strings], n


@pytest.mark.ci
@given(_items())
def test_property_the_packed_layout_round_trips(drawn):
    # Packing and unpacking keeps every string, its order and its
    # coefficient's bits (signed zeros included); pruning keeps the strings
    # that simplify keeps, and the packed hermiticity check is PauliSum's.
    items, n = drawn
    h = PackedSum.pack(items, n)
    back = h.unpack()
    assert back.n_qubits == n
    assert list(back.terms) == [s for s, _ in items]
    assert list(map(repr, back.terms.values())) == [repr(c) for _, c in items]
    whole = PauliSum(n)
    whole.terms = dict(items)  # as given, where accumulating would add them to 0
    kept = whole.simplify().terms
    pruned = h.pruned().unpack()
    assert list(pruned.terms) == [s for s, _ in items if s in kept]
    assert [repr(c) for c in pruned.terms.values()] == [repr(kept[s]) for s in pruned.terms]
    assert h.is_hermitian() == whole.is_hermitian()
