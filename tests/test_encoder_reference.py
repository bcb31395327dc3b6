"""Differential tests: the encoder's one kernel, for all four codes,
against the element-by-element reference.

reference_encoder.py keeps the earlier encoder, which builds one simplified
PauliSum per matrix element and adds it to a running total.  The new code
must only be faster: the same strings in the same order, and coefficients
whose ``repr`` is equal, signed zeros included.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encoder as ref
from qudenc import models
from qudenc.encoder import (ZERO_ENTRY_TOL, _terms, can_augment, encode_element,
                            encode_matrix)
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec, num_qubits
from qudenc.paulis import PRUNE_EPS
from qudenc.qudit_ops import (BOSONIC_NAMES, QuditMatrix, bosonic, dense_hermitian_test_matrix,
                              spin, tridiag_test_matrix)
from qudenc.simulator import verify_encoding

_SPECS_AT = (
    lambda d: EncodingSpec(SB, d),
    lambda d: EncodingSpec(GRAY, d),
    lambda d: EncodingSpec(UNARY, d),
    *(lambda d, g=g, local=local: EncodingSpec(BLOCK_UNARY, d, local_kind=local, g=g)
      for g in (1, 2, 3, 4) for local in (SB, GRAY)),
)


def _parent_order(s):
    """The parent's sort key: (qubit, letter rank) pairs."""
    return tuple((q, "XYZ".index(p)) for q, p in s)


def _assert_same(got, want):
    assert got.n_qubits == want.n_qubits
    assert list(got.terms) == list(want.terms)
    assert list(got.terms) == sorted(got.terms, key=_parent_order)
    assert [repr(c) for c in got.terms.values()] == [repr(c) for c in want.terms.values()]


def _check(spec, m):
    got, want = encode_matrix(spec, m), ref.encode_matrix(spec, m)
    _assert_same(got.sum, want.sum)


def _random(d, seed, hermitian, complex_):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (d, d))
    if complex_:
        m = m + 1j * rng.uniform(-1, 1, (d, d))
    return (m + m.conj().T) / 2 if hermitian else m


@pytest.mark.parametrize("d", range(2, 18))
def test_dense_compact_codes_small_d(d):
    for spec in (EncodingSpec(SB, d), EncodingSpec(GRAY, d)):
        _check(spec, _random(d, d, hermitian=False, complex_=True))
        _check(spec, _random(d, d + 1, hermitian=True, complex_=False))


@pytest.mark.parametrize("spec, matrix", [
    (EncodingSpec(SB, 64), dense_hermitian_test_matrix(64, 3)),
    (EncodingSpec(GRAY, 48), _random(48, 4, hermitian=False, complex_=True)),
], ids=["sb-64", "gray-48"])
def test_dense_compact_codes_large_d(spec, matrix):
    _check(spec, matrix)


_LOCAL_64 = (EncodingSpec(UNARY, 64), EncodingSpec(BLOCK_UNARY, 64, local_kind=SB, g=3),
             EncodingSpec(BLOCK_UNARY, 64, local_kind=GRAY, g=3))


# The reference takes about 14 s at d=128 and far longer at d=256, so these
# digests of repr(list(terms.items())) were recorded once from the earlier
# SB/Gray kernel, which matched the reference at every size tested here.
_RECORDED = {
    ("sb", 128): "23d46e398f0cf299c54fff636303e956280b429f026231a09a09cabef4a55132",
    ("sb", 256): "fa41e92a242b6099b8daf669c8335e48a28dc2a4a164ed2b1f349722e93f5669",
    ("gray", 128): "50c2912efe708daf61de3a25fbac8796160e43075f342dff27749fc5f27f10f7",
    ("gray", 256): "870979af1c6b1cf995e11282a36c1346266e3a579b7dc9df6c1ac7d2eeec035a",
}


@pytest.mark.parametrize("kind, d", sorted(_RECORDED), ids=lambda v: str(v))
def test_dense_compact_codes_recorded_digests(kind, d):
    s = encode_matrix(EncodingSpec(kind, d), dense_hermitian_test_matrix(d, 3)).sum
    assert len(s) == d * d
    assert hashlib.sha256(repr(list(s.terms.items())).encode()).hexdigest() == _RECORDED[kind, d]


@pytest.mark.parametrize("spec", _LOCAL_64, ids=["unary-64", "bu-sb-64", "bu-gray-64"])
def test_dense_local_codes_large_d(spec):
    _check(spec, dense_hermitian_test_matrix(64, 3))


@pytest.mark.parametrize("spec", [*_LOCAL_64, EncodingSpec(BLOCK_UNARY, 64, g=1),
                                  EncodingSpec(BLOCK_UNARY, 64, local_kind=GRAY, g=4)],
                         ids=["unary", "bu-sb-3", "bu-gray-3", "bu-sb-1", "bu-gray-4"])
def test_identity_summed_in_row_order(spec):
    # The identity adds every diagonal entry.  Added in turn, 1, 1e16, -1e16,
    # 1, ... give other bits than a pairwise or compensated sum does.
    _check(spec, np.diag(np.resize([1.0, 1e16, -1e16], 64)))


@pytest.mark.parametrize("d, g", [(12, 100), (2, 4096)])
def test_blocks_wider_than_the_levels(d, g):
    for local in (SB, GRAY):
        spec = EncodingSpec(BLOCK_UNARY, d, local_kind=local, g=g)
        _check(spec, dense_hermitian_test_matrix(d, 5))
        _check(spec, _random(d, 6, hermitian=False, complex_=True))


def test_identity_whose_sum_overflows_warns_nothing():
    # Eight diagonal entries of 1.7e308 sum to inf on the identity, while
    # each Z_l takes -8.5e307; the sum overflows, and says nothing.
    spec, m = EncodingSpec(UNARY, 8), np.diag([1.7e308] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = encode_matrix(spec, m).sum, ref.encode_matrix(spec, m).sum
    _assert_same(got, want)
    assert got.terms == {(): complex(np.inf, 0.0),
                         **{((l, "Z"),): -8.5e307 + 0j for l in range(8)}}


def test_contributions_all_below_the_prune_edge():
    # Each element's terms are 0.9 * PRUNE_EPS and drop before the sum, so
    # the sum is empty, though the identity's would reach 3.6 * PRUNE_EPS.
    for spec in (EncodingSpec(UNARY, 4), EncodingSpec(BLOCK_UNARY, 4, g=2),
                 EncodingSpec(BLOCK_UNARY, 4, local_kind=GRAY, g=1)):
        g, w = (1, 1) if spec.kind == UNARY else (spec.g, spec.block_width)
        block = np.arange(4) // g
        qubits = np.where(np.equal.outer(block, block), w, 2 * w)  # of each element
        m = 0.9 * PRUNE_EPS * 2.0 ** qubits + 0j
        assert len(encode_matrix(spec, m).sum) == 0
        _check(spec, m)


@pytest.mark.parametrize("spec", [*_LOCAL_64[:2], EncodingSpec(SB, 64), EncodingSpec(GRAY, 64),
                                  EncodingSpec(BLOCK_UNARY, 64, local_kind=GRAY, g=100)],
                         ids=["unary", "bu", "sb", "gray", "bu-wide"])
def test_kernel_emits_canonical_order(spec):
    # encode_matrix keeps the kernel's dict as it is, with no re-sort.
    for m in (dense_hermitian_test_matrix(64, 4), tridiag_test_matrix(64, 5)):
        rows, cols = np.nonzero(np.asarray(m))
        terms = list(_terms(spec, np.asarray(m)[rows, cols], rows, cols))
        assert terms == sorted(terms, key=_parent_order)


@pytest.mark.parametrize("make", _SPECS_AT)
def test_every_code_on_real_complex_and_non_hermitian(make):
    for d in (3, 5, 11):
        spec = make(d)
        _check(spec, dense_hermitian_test_matrix(d, 7))
        _check(spec, tridiag_test_matrix(d, 8))
        _check(spec, _random(d, 9, hermitian=False, complex_=True))
        _check(spec, _random(d, 10, hermitian=False, complex_=False))


@pytest.mark.parametrize("make", _SPECS_AT)
def test_named_bosonic_and_spin_operators(make):
    for d in (2, 3, 4, 6, 9, 16):
        for name in BOSONIC_NAMES:
            _check(make(d), bosonic(d, name))
    for s in (0.5, 1, 1.5, 2.5, 3.5, 7.5):
        for axis in "xyz":
            op = spin(s, axis)
            _check(make(op.d), op)


def _threshold_matrix(d, K, seed):
    """Entries one ulp either side of ZERO_ENTRY_TOL and of the element prune
    PRUNE_EPS * 2^K, real, imaginary and at angles, with signed zeros."""
    rng = np.random.default_rng(seed)
    values = []
    for t in (ZERO_ENTRY_TOL, PRUNE_EPS * 2.0 ** K):
        for v in (t, np.nextafter(t, 0), np.nextafter(t, 1), 2 * t):
            values += [v, -v, complex(-0.0, v), complex(0.0, -v)]
        # Magnitudes within an ulp or so of t: a magnitude rounded otherwise
        # than by the C library's hypot (as abs(complex) does) flips some.
        values += [t * complex(np.cos(a), np.sin(a)) for a in rng.uniform(0, 2 * np.pi, 12)]
    # 5 subnormal ulps: three halvings (the expansion) give 0, one multiply
    # by 1/8 gives 1 ulp.
    values += [complex(1.0, 5 * 5e-324), complex(-5 * 5e-324, 0.5),
               complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0), -0.0]
    m = np.zeros((d, d), dtype=complex)
    flat = m.reshape(-1)
    picks = rng.choice(d * d, size=min(d * d, len(values)), replace=False)
    flat[picks] = rng.permutation(np.array(values, dtype=complex))[: len(picks)]
    return m


@pytest.mark.parametrize("make", _SPECS_AT)
def test_entries_at_the_zero_and_prune_thresholds(make):
    for d in (2, 5, 8, 12):
        spec = make(d)
        K = num_qubits(spec) if spec.kind in (SB, GRAY) else 2 * spec.block_width
        for seed in range(3):
            _check(spec, _threshold_matrix(d, K, seed))


@pytest.mark.parametrize("kind", [SB, GRAY])
def test_element_magnitudes_within_an_ulp_of_the_prune_edge(kind):
    # Every entry has magnitude PRUNE_EPS * 2^K up to rounding, so each
    # element's terms sit within an ulp of PRUNE_EPS.  Some of these are
    # decided otherwise by np.abs on a complex array than by abs(complex).
    spec = EncodingSpec(kind, 16)
    t = PRUNE_EPS * 2.0 ** num_qubits(spec)
    angles = np.random.default_rng(11).uniform(0, 2 * np.pi, (16, 16))
    _check(spec, t * np.exp(1j * angles))
    _check(spec, t * np.exp(1j * angles) + np.eye(16))


def test_sums_that_cancel_near_the_prune_threshold():
    # diag(1, 1 - e) under SB d=2 gives Z0 with coefficient e / 2.
    for e in (2e-12, np.nextafter(2e-12, 0), np.nextafter(2e-12, 1), 1e-12, 4e-12):
        for spec in (EncodingSpec(SB, 2), EncodingSpec(GRAY, 4), EncodingSpec(UNARY, 2)):
            m = np.eye(spec.d, dtype=complex)
            m[1, 1] = 1 - e
            m[0, 1] = 1e-3 * (1 + 1j)
            m[1, 0] = -1e-3 * (1 + 1j) + e * 1j
            _check(spec, m)


def test_encode_element_matches():
    for make in _SPECS_AT:
        spec = make(7)
        for l, lp, c in ((0, 6, 1.0), (3, 3, -0.5j), (5, 2, 0.3 - 0.1j), (1, 4, -0.0)):
            _assert_same(encode_element(spec, l, lp, c), ref.encode_element(spec, l, lp, c))


_MODELS = (
    models.ModelSpec("bose_hubbard", N=2, d=5),
    models.ModelSpec("shifted_qho", d=6),
    models.ModelSpec("franck_condon", N=2, d=3, seed=3),
    models.ModelSpec("heisenberg", N=2, s=1.5),
    models.ModelSpec("boson_sampling", N=2, d=3,
                     params={"gates": [{"kind": "beamsplitter", "modes": [1, 0],
                                        "theta": 0.4},
                                       {"kind": "phase_shifter", "modes": [0],
                                        "theta": 1.1}]}),
)


def _check_term(term):
    for kind in (SB, GRAY, UNARY, BLOCK_UNARY):
        for g in ((2, 3) if kind == BLOCK_UNARY else (3,)):
            augment = (kind in (SB, GRAY) and all(
                can_augment(m) for product in term.factors for m in product))
            for aug in {False, augment}:
                _assert_same(models.encode_term(term, kind, g=g, augment=aug),
                             ref.encode_term(term, kind, g=g, augment=aug))


@pytest.mark.parametrize("spec", _MODELS, ids=lambda s: s.model)
def test_encode_term_matches(spec):
    for term in models.build_model(spec):
        _check_term(term)


@pytest.mark.parametrize("d", [3, 5])
def test_encode_term_matches_on_three_sites(d):
    a, adag, n = bosonic(d, "a"), bosonic(d, "adag"), bosonic(d, "n")
    _check_term(models.LocalTerm((0, 1, 2), ((adag, n, a), (a, n, adag)), -0.7, "hop"))
    sz, sx = spin((d - 1) / 2, "z"), spin((d - 1) / 2, "x")
    _check_term(models.LocalTerm((2, 0, 1), ((sz, sx, sz), (sx, sz, sx)), 0.3, "spins"))


def test_encode_term_prunes_between_factors():
    # The first two factors' terms multiply to ~1e-14 < PRUNE_EPS, so every
    # product is dropped before the 1e6 factor could lift it back above.
    for d in (2, 3, 4):
        small = QuditMatrix(1e-7 * np.asarray(bosonic(d, "q")))
        big = QuditMatrix(1e6 * np.asarray(bosonic(d, "p")))
        term = models.LocalTerm((0, 1, 2), ((small, small, big),), 1.0, "tiny")
        for kind in (SB, GRAY, UNARY):
            assert len(models.encode_term(term, kind)) == 0
        _check_term(term)


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, ZERO_ENTRY_TOL,
                     np.nextafter(ZERO_ENTRY_TOL, 0), PRUNE_EPS, 4 * PRUNE_EPS,
                     np.nextafter(8 * PRUNE_EPS, 0), 1e-300, 5e-324]),
    st.floats(-2, 2, allow_nan=False),
)


@st.composite
def _sparse_cases(draw):
    """A code (block unary with g from 1 to past d, either local code) and a
    sparse matrix, Hermitian or not, whose entries are drawn from _VALUES or
    sit near ZERO_ENTRY_TOL or PRUNE_EPS * 2^u for a union of u qubits."""
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from((SB, GRAY, UNARY, BLOCK_UNARY)))
    if kind == BLOCK_UNARY:
        spec = EncodingSpec(kind, d, local_kind=draw(st.sampled_from((SB, GRAY))),
                            g=draw(st.integers(1, d + 3)))
        unions = (spec.block_width, 2 * spec.block_width)
    else:
        spec = EncodingSpec(kind, d)
        unions = (1, 2) if kind == UNARY else (num_qubits(spec),)
    edges = [ZERO_ENTRY_TOL, *(PRUNE_EPS * 2.0 ** u for u in unions)]
    value = st.one_of(
        st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
        st.builds(complex, _VALUES, _VALUES),
        st.builds(lambda t, ulps, a: t * (1 + ulps * 2.0 ** -52) * complex(np.cos(a), np.sin(a)),
                  st.sampled_from(edges), st.integers(-2, 2),
                  st.sampled_from((0.0, np.pi / 2, np.pi, -np.pi / 2, 0.3, 2.0))))
    hermitian = draw(st.booleans())
    m = np.zeros((d, d), dtype=complex)
    # The diagonal is drawn on its own, so that several blocks share the identity.
    m[np.diag_indices(d)] = draw(st.lists(value, min_size=d, max_size=d))
    if hermitian:
        m = m.real + 0j
    for l, lp, c in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), value),
                                  max_size=30)):
        m[l, lp] = c.real if hermitian and l == lp else c
        if hermitian and l != lp:
            m[lp, l] = c.conjugate()
    return spec, m, max(unions)


@settings(max_examples=200, deadline=None)
@given(_sparse_cases())
def test_random_sparse_matrices(case):
    spec, m, u = case
    _check(spec, m)
    # Each entry loses at most what falls below the two prune edges.
    bound = ZERO_ENTRY_TOL + 2 * spec.d ** 2 * PRUNE_EPS * 2.0 ** u
    assert verify_encoding(spec, m) <= bound
