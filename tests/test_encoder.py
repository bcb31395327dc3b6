"""Operator encoding: substitution rules, sparsity, DBD detection, augmentation."""

import numpy as np
import pytest

from qudenc.encoder import (augment_truncation, detect_dbd, encode_element,
                            encode_hermitian_pair, encode_matrix)
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec
from qudenc.paulis import string_to_text, text_to_string, weight
from qudenc.qudit_ops import bosonic, matrix_digest, spin
from qudenc.simulator import verify_encoding


def as_text_dict(s):
    return {string_to_text(p) or "I": c for p, c in s.terms.items()}


def test_single_qubit_substitution_rules():
    spec = EncodingSpec(SB, 2)
    assert as_text_dict(encode_element(spec, 0, 1)) == {"X0": 0.5, "Y0": 0.5j}
    assert as_text_dict(encode_element(spec, 1, 0)) == {"X0": 0.5, "Y0": -0.5j}
    assert as_text_dict(encode_element(spec, 0, 0)) == {"I": 0.5, "Z0": 0.5}
    assert as_text_dict(encode_element(spec, 1, 1)) == {"I": 0.5, "Z0": -0.5}
    # a level outside [0, d) is refused, not wrapped around to another level
    for l, lp in ((-1, 0), (0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            encode_element(spec, l, lp)


def test_element_reconstruction_every_encoding():
    for kind, kwargs in ((SB, {}), (GRAY, {}), (UNARY, {}),
                         (BLOCK_UNARY, {"g": 3})):
        spec = EncodingSpec(kind, 6, **kwargs)
        A = np.zeros((6, 6), dtype=complex)
        A[2, 4] = 1.3 - 0.4j
        s = encode_element(spec, 2, 4, A[2, 4])
        assert verify_encoding(spec, A, s) < 1e-12


def test_hermitian_pair_is_hermitian():
    spec = EncodingSpec(GRAY, 8)
    s = encode_hermitian_pair(spec, 3, 4, 0.5 + 0.25j)
    assert s.is_hermitian()


def test_unary_transition_touches_two_qubits_only():
    spec = EncodingSpec(UNARY, 10)
    s = encode_hermitian_pair(spec, 3, 4)
    assert len(s.terms) == 2
    assert all(weight(p) == 2 for p in s.terms)
    assert as_text_dict(s) == {"X3 X4": 0.5, "Y3 Y4": 0.5}


def test_block_unary_transition_stays_inside_blocks():
    spec = EncodingSpec(BLOCK_UNARY, 12, g=3)
    # levels 3,4 share block 1 -> only wires 2,3 involved
    s = encode_hermitian_pair(spec, 3, 4)
    touched = {q for p in s.terms for q, _ in p}
    assert touched <= {2, 3}
    # levels 2,3 cross the block boundary -> wires of blocks 0 and 1
    s2 = encode_hermitian_pair(spec, 2, 3)
    touched2 = {q for p in s2.terms for q, _ in p}
    assert touched2 <= {0, 1, 2, 3}


def test_encode_matrix_dimension_check():
    with pytest.raises(ValueError):
        encode_matrix(EncodingSpec(SB, 4), np.eye(5))
    with pytest.raises(ValueError):
        encode_matrix(EncodingSpec(SB, 4), np.ones((4, 5)))


@pytest.mark.parametrize("kind", [SB, UNARY])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_encode_matrix_rejects_non_finite_entries(kind, bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        encode_matrix(EncodingSpec(kind, 4), m)
    with pytest.raises(ValueError, match="non-finite"):
        encode_element(EncodingSpec(kind, 4), 1, 2, bad)


def test_encode_matrix_skips_structural_zeros():
    spec = EncodingSpec(UNARY, 4)
    A = np.diag([0.0, 1.0, 0.0, 2.0])
    s = encode_matrix(spec, A).sum
    touched = {q for p in s.terms for q, _ in p}
    assert touched <= {1, 3}


def test_encoded_operator_digest_tracks_source():
    e1, e2, e3 = (matrix_digest(bosonic(4, name)) for name in ("n", "n", "q"))
    assert e1 == e2 != e3


def test_detect_dbd_affine_diagonals():
    fit = detect_dbd(bosonic(8, "n"))
    assert fit is not None
    assert abs(fit.offset) < 1e-9
    np.testing.assert_allclose(fit.k, [1.0, 2.0, 4.0], atol=1e-9)

    fit_sz = detect_dbd(spin(1.5, "z"))
    assert fit_sz is not None
    assert abs(fit_sz.offset - 1.5) < 1e-9
    np.testing.assert_allclose(fit_sz.k, [-1.0, -2.0], atol=1e-9)


def test_detect_dbd_rejections():
    assert detect_dbd(bosonic(8, "n2")) is None        # quadratic in the bits
    assert detect_dbd(bosonic(8, "q")) is None         # off-diagonal
    # truncation breaks the fit only when the pattern is not affine on the
    # realized levels: n at d=3 is still affine on levels 0..2
    assert detect_dbd(bosonic(3, "n")) is not None


def test_augment_truncation():
    n5 = bosonic(5, "n")
    n8 = augment_truncation(n5)
    assert n8.d == 8
    np.testing.assert_allclose(np.diag(np.asarray(n8)), np.arange(8))
    # power-of-two input keeps its cutoff
    assert augment_truncation(bosonic(8, "q")).d == 8


def test_augment_refuses_spins():
    with pytest.raises(ValueError):
        augment_truncation(spin(1.0, "z"))


def test_two_site_encoding_equals_joint_encoding():
    # tensor of per-site encodings == encoding of the joint matrix under the
    # concatenated compact code (SB of d^2 levels splits into per-site bits)
    d = 4
    spec = EncodingSpec(SB, d)
    a = encode_matrix(spec, bosonic(d, "adag")).sum.tensor_shift(0, 4)
    b = encode_matrix(spec, bosonic(d, "a")).sum.tensor_shift(2, 4)
    product = a.multiply(b)
    joint = np.kron(np.asarray(bosonic(d, "a")), np.asarray(bosonic(d, "adag")))
    big = encode_matrix(EncodingSpec(SB, d * d), joint).sum
    assert product.allclose(big, tol=1e-12)
