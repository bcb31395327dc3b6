"""The packed site product against the tuple product it replaced.

qudenc.models builds a term's Pauli sum as a numpy outer product over its
sites (models._site_product); tests/reference_models.py keeps the earlier
product, one Python tuple at a time.  Both must give the same strings in
the same order, with coefficients equal down to the sign of a zero.
"""

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_models as ref
from qudenc import models
from qudenc.encoder import can_augment
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec, num_qubits
from qudenc.paulis import PRUNE_EPS, PauliSum
from qudenc.qudit_ops import bosonic

pytestmark = pytest.mark.ci

KINDS = (SB, GRAY, UNARY, BLOCK_UNARY)


def _bits(h: PauliSum):
    """h's strings in order, each with the exact bits of its coefficient."""
    return h.n_qubits, [(s, float(c.real).hex(), float(c.imag).hex())
                        for s, c in h.terms.items()]


def _sorted(h: PauliSum) -> PauliSum:
    out = PauliSum(h.n_qubits)
    out.terms = dict(sorted(h.terms.items()))
    return out


# The models that tests/test_acceptance.py builds, plus the two whose terms
# carry numpy or identity coefficients.
_HOPPING_ONLY = {"t": 1.0, "U": 0.0, "mu": 0.0}
_MODELS = (
    [models.ModelSpec(models.HEISENBERG, N=N, s=1.5) for N in (2, 3, 4)]
    + [models.ModelSpec(models.BOSE_HUBBARD, N=2, d=d, params=_HOPPING_ONLY) for d in (8, 16)]
    + [models.ModelSpec(models.BOSE_HUBBARD, N=N, d=4) for N in (2, 3, 4)]
    + [models.ModelSpec(models.BOSON_SAMPLING, N=2, d=2, params={"gates": [
        {"kind": "beamsplitter", "modes": [0, 1], "theta": 0.3},
        {"kind": "phase_shifter", "modes": [1], "theta": 0.7}]})]
    + [models.ModelSpec(models.FRANCK_CONDON, N=3, d=3),
       models.ModelSpec(models.SHIFTED_QHO, d=5)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", _MODELS,
                         ids=lambda s: f"{s.model}-N{s.N}-{s.site_dim}-{len(s.params)}")
def test_encode_term_matches_the_tuple_product(spec, kind):
    for term in models.build_model(spec):
        assert _bits(models.encode_term(term, kind)) == _bits(ref.encode_term(term, kind))
        if all(can_augment(m) for product in term.factors for m in product):
            assert (_bits(models.encode_term(term, kind, augment=True))
                    == _bits(ref.encode_term(term, kind, augment=True)))


@pytest.mark.parametrize("kind", (SB, GRAY))
def test_an_augmented_term_encodes_each_matrix_once(kind):
    # Bose-Hubbard hopping at d = 6 is adag a + a adag.  Augmented, each of
    # its two matrices is rebuilt at d = 8 once, so the site product encodes
    # each once, as it does the plain term's at d = 6.
    spec = models.ModelSpec(models.BOSE_HUBBARD, N=2, d=6, params=_HOPPING_ONLY)
    term = models.build_model(spec)[0]
    encode, calls = models.encode_matrix, []

    def counted(enc, m):
        calls.append((m.name, m.d, enc.d))
        return encode(enc, m)

    with mock.patch.object(models, "encode_matrix", counted):
        for augment, d in ((False, 6), (True, 8)):
            calls.clear()
            got = models.encode_term(term, kind, augment=augment)
            assert sorted(calls) == [("a", d, d), ("adag", d, d)]
            assert _bits(got) == _bits(ref.encode_term(term, kind, augment=augment))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("modes", [(1, 0), (2, 0), (0, 2), (2, 1, 0)])
def test_site_product_on_descending_sites(kind, modes):
    # Boson sampling passes a beamsplitter's modes in the order given, so
    # a string's sites may come in descending qubit order.
    d = 3
    enc = EncodingSpec(kind, d)
    nq = num_qubits(enc)
    a, adag, n = bosonic(d, "a"), bosonic(d, "adag"), bosonic(d, "n")
    products = [(adag, a, n), (a, adag, n)]
    products = [p[:len(modes)] for p in products]
    args = (products, [enc] * len(modes), [m * nq for m in modes], 3 * nq)
    got, want = models._site_product(*args), ref._site_product(*args)
    assert _bits(got.unpack()) == _bits(_sorted(want))
    assert _bits(got.pruned().unpack()) == _bits(want.simplify())


# Site coefficients near sqrt(PRUNE_EPS): their products fall just below,
# on and just above PRUNE_EPS.  1e-7 and 1e4 make partial products that
# drop although the full product would not.
_ROOT = math.sqrt(PRUNE_EPS)
_VALUES = (1.0, -1.0, 0.5j, -2.0, 1e4, 1e-7, 1e-13, -0.0,
           _ROOT, -_ROOT, 1j * _ROOT, math.nextafter(_ROOT, 0.0), math.nextafter(_ROOT, 1.0),
           complex(_ROOT, -_ROOT))
_COEFFS = (1.0, -0.37, 2.5, 3, np.float64(-1.1), 1e-12)


@st.composite
def _site_sums(draw, width: int):
    """A pool of one to three sums on width qubits, the second one possibly
    the first negated, so that products cancel exactly."""
    words = [tuple((q, p) for q, p in enumerate(w) if p != "I")
             for w in itertools.product("IXYZ", repeat=width)]
    coeffs = st.one_of(st.sampled_from(_VALUES),
                       st.complex_numbers(max_magnitude=4.0, allow_nan=False))
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        if pool and draw(st.booleans()):
            pool.append({s: -c for s, c in pool[0].items()})
            continue
        strings = draw(st.lists(st.sampled_from(words), min_size=1, max_size=6, unique=True))
        pool.append({s: complex(draw(coeffs)) for s in strings})
    return pool


@st.composite
def _products(draw):
    widths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    pools = [draw(_site_sums(w)) for w in widths]
    products = draw(st.lists(st.tuples(*(st.integers(0, len(p) - 1) for p in pools)),
                             min_size=1, max_size=4))
    order = draw(st.permutations(range(len(widths))))
    coefficient = draw(st.sampled_from(_COEFFS))
    return widths, pools, products, order, coefficient


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_products())
def test_property_site_product_matches_the_tuple_product(case):
    widths, pools, picks, order, coefficient = case
    # Each site sum stands in for an encoded matrix: encode_matrix is
    # patched to return it, so that the sums can be anything.
    matrices = [[SimpleNamespace(d=1 << w) for _ in pool] for w, pool in zip(widths, pools)]
    sums = {id(m): PauliSum(w, s) for w, ms, pool in zip(widths, matrices, pools)
            for m, s in zip(ms, pool)}

    def encode_matrix(spec, m):
        return SimpleNamespace(sum=sums[id(m)])

    products = [tuple(ms[k] for ms, k in zip(matrices, pick)) for pick in picks]
    specs = [EncodingSpec(SB, 1 << w) for w in widths]
    with mock.patch.object(models, "encode_matrix", encode_matrix), \
            mock.patch.object(ref, "encode_matrix", encode_matrix):
        term = models.LocalTerm(tuple(range(len(widths))), tuple(products), coefficient, "t")
        assert _bits(models.encode_term(term, SB)) == _bits(ref.encode_term(term, SB))
        # The sites in any qubit order: each string still lists its qubits
        # in ascending order.
        offsets = [sum(widths[j] for j in order[:order.index(i)]) for i in range(len(widths))]
        args = (products, specs, offsets, sum(widths))
        got, want = models._site_product(*args), ref._site_product(*args)
        assert _bits(got.unpack()) == _bits(_sorted(want))
        assert _bits(got.pruned().unpack()) == _bits(want.simplify())
