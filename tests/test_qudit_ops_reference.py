"""The named operators against the one-level-at-a-time builders.

reference_qudit_ops.py keeps the builders that filled each band one level
at a time in Python.  qudenc.qudit_ops must give the same mat, byte for
byte (signed zeros included), and so the same matrix_digest.  The digests
are compared below d = 2048 only: there each one hashes 64 MiB, about 0.15 s,
and equal shapes and bytes give equal digests.
"""

import pytest

import reference_qudit_ops as ref
from qudenc.qudit_ops import (BOSONIC_NAMES, QuditMatrix, bosonic, first_quantized_x,
                              matrix_digest, spin, tridiag_test_matrix)

DIMS = (2, 3, 5, 8, 17, 64, 100, 2048)
SEEDS = (0, 1, 7, 12345)


def _same(got: QuditMatrix, want) -> None:
    want = QuditMatrix(want, name=got.name, family=got.family)
    assert got.mat.tobytes() == want.mat.tobytes()
    if got.d < 2048:
        assert matrix_digest(got) == matrix_digest(want)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("name", BOSONIC_NAMES)
def test_bosonic(d, name):
    _same(bosonic(d, name), ref.bosonic(d, name))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("axis", "xyz")
def test_spin(d, axis):
    _same(spin((d - 1) / 2, axis), ref.spin(d, axis))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("delta", (0.1, 0.5, 1 / 3))
def test_first_quantized_x(d, delta):
    _same(first_quantized_x(d, delta), ref.first_quantized_x(d, delta))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_tridiag_test_matrix(d, seed):
    _same(tridiag_test_matrix(d, seed), ref.tridiag_test_matrix(d, seed))
