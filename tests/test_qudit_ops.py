"""Matrix definitions for truncated bosonic modes and spins."""

import numpy as np
import pytest

from qudenc.encoding import MAX_D
from qudenc.qudit_ops import (BOSONIC_NAMES, QuditMatrix, as_matrix, bosonic,
                              dense_hermitian_test_matrix, first_quantized_x,
                              matrix_digest, spin, tridiag_test_matrix)


def test_ladder_matrix_elements():
    a = np.asarray(bosonic(4, "a"))
    for l in range(3):
        assert abs(a[l, l + 1] - np.sqrt(l + 1)) < 1e-12
    assert np.count_nonzero(a) == 3
    adag = np.asarray(bosonic(4, "adag"))
    np.testing.assert_allclose(adag, a.conj().T)


def test_number_operators():
    n = np.asarray(bosonic(5, "n"))
    np.testing.assert_allclose(n, np.diag([0, 1, 2, 3, 4]))
    n2 = np.asarray(bosonic(5, "n2"))
    np.testing.assert_allclose(n2, np.diag([0, 1, 4, 9, 16]))
    nn1 = np.asarray(bosonic(5, "n_nminus1"))
    np.testing.assert_allclose(nn1, np.diag([0, 0, 2, 6, 12]))


def test_quadratures():
    d = 6
    a = np.asarray(bosonic(d, "a"))
    q = np.asarray(bosonic(d, "q"))
    p = np.asarray(bosonic(d, "p"))
    np.testing.assert_allclose(q, (a + a.conj().T) / np.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(p, 1j * (a.conj().T - a) / np.sqrt(2), atol=1e-12)
    # q2/p2 are squares of the truncated quadratures
    np.testing.assert_allclose(np.asarray(bosonic(d, "q2")), q @ q, atol=1e-12)
    np.testing.assert_allclose(np.asarray(bosonic(d, "p2")), p @ p, atol=1e-12)
    assert bosonic(d, "q2").is_hermitian()


def test_spin_matrices_s_half():
    sx = np.asarray(spin(0.5, "x"))
    sy = np.asarray(spin(0.5, "y"))
    sz = np.asarray(spin(0.5, "z"))
    np.testing.assert_allclose(sx, [[0, 0.5], [0.5, 0]])
    np.testing.assert_allclose(sy, [[0, -0.5j], [0.5j, 0]])
    np.testing.assert_allclose(sz, [[0.5, 0], [0, -0.5]])


def test_spin_commutator_convention():
    for s in (0.5, 1.0, 1.5, 3.5):
        sx, sy, sz = (np.asarray(spin(s, ax)) for ax in "xyz")
        np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
        # Casimir: S^2 = s(s+1) I
        s2 = sx @ sx + sy @ sy + sz @ sz
        np.testing.assert_allclose(s2, s * (s + 1) * np.eye(sx.shape[0]),
                                   atol=1e-12)


def test_spin_z_diagonal_descends_from_s():
    sz = np.asarray(spin(1.5, "z"))
    np.testing.assert_allclose(np.diag(sz), [1.5, 0.5, -0.5, -1.5])


def test_spin_validation():
    with pytest.raises(ValueError):
        spin(0.7, "z")
    with pytest.raises(ValueError):
        spin(1.0, "w")


@pytest.mark.parametrize("build", [
    lambda: bosonic(MAX_D + 1, "a"),
    lambda: spin(MAX_D / 2, "z"),
    lambda: first_quantized_x(MAX_D + 1, 0.1),
    lambda: dense_hermitian_test_matrix(MAX_D + 1, 0),
    lambda: tridiag_test_matrix(MAX_D + 1, 0),
], ids=["bosonic", "spin", "position-grid", "dense", "tridiag"])
def test_builders_reject_more_than_max_d_levels(build):
    """Each builder checks the level count before allocating its d x d matrix."""
    with pytest.raises(ValueError, match=f"must be in \\[2, {MAX_D}\\], got {MAX_D + 1}"):
        build()


def test_first_quantized_x():
    x = np.asarray(first_quantized_x(4, 0.5))
    np.testing.assert_allclose(np.diag(x), [-1.0, -0.5, 0.0, 0.5])


def test_test_matrices_are_seeded_and_shaped():
    b1 = tridiag_test_matrix(5, 11)
    b2 = tridiag_test_matrix(5, 11)
    np.testing.assert_array_equal(np.asarray(b1), np.asarray(b2))
    m = np.asarray(b1)
    assert np.allclose(m, m.conj().T)
    assert np.count_nonzero(np.triu(m, 2)) == 0  # strictly tridiagonal
    assert np.count_nonzero(np.diag(m)) == 0
    dense = np.asarray(dense_hermitian_test_matrix(4, 3))
    assert np.allclose(dense, dense.conj().T)
    assert dense.dtype == complex


def test_qudit_matrix_validation():
    with pytest.raises(ValueError):
        QuditMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        QuditMatrix(np.zeros((1, 1)))
    m = QuditMatrix(np.eye(3))
    assert m.d == 3
    assert as_matrix(m).shape == (3, 3)
    assert as_matrix(np.eye(2)).shape == (2, 2)


def test_qudit_matrix_keeps_a_read_only_copy():
    src = np.eye(3)
    m = QuditMatrix(src)
    digest = matrix_digest(m)
    with pytest.raises(ValueError):
        m.mat[0, 0] = 2.0
    with pytest.raises(ValueError):
        np.asarray(m)[0, 0] = 2.0
    src[0, 0] = 2.0  # the caller's array is not the matrix's
    assert m.mat[0, 0] == 1.0
    assert matrix_digest(m) == digest == matrix_digest(np.eye(3)) != matrix_digest(src)
    # a complex array is copied too, not taken over
    c = np.eye(2, dtype=complex)
    assert not np.shares_memory(QuditMatrix(c).mat, c)


def _bosonic_from_ladders(d: int, name: str) -> np.ndarray:
    """bosonic(d, name).mat as it was built from the ladder matrices for
    every name, the diagonal ones included."""
    a = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        a[l, l + 1] = np.sqrt(l + 1)
    adag = a.conj().T
    ns = np.arange(d, dtype=complex)
    return {"a": lambda: a, "adag": lambda: adag,
            "q": lambda: (adag + a) / np.sqrt(2),
            "p": lambda: 1j * (adag - a) / np.sqrt(2),
            "q2": lambda: ((adag + a) / np.sqrt(2)) @ ((adag + a) / np.sqrt(2)),
            "p2": lambda: (1j * (adag - a) / np.sqrt(2)) @ (1j * (adag - a) / np.sqrt(2)),
            "n": lambda: np.diag(ns), "n2": lambda: np.diag(ns ** 2),
            "n_nminus1": lambda: np.diag(ns * ns - ns)}[name]()


@pytest.mark.parametrize("name", BOSONIC_NAMES)
def test_bosonic_matches_the_ladder_construction_bit_for_bit(name):
    with pytest.raises(ValueError, match=r"d must be in \[2, "):
        bosonic(1, name)
    for d in range(2, 41):
        got, want = bosonic(d, name).mat, _bosonic_from_ladders(d, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), d
