"""Model builders, per-term pricing, scheme comparison, scenario labels."""

import numpy as np
import pytest

from qudenc import models
from qudenc.bounds import BoundQuery, cnot_upper_bound, staircase_cnots
from qudenc.circuits import count_resources, trotter_step
from qudenc.encoder import can_augment
from qudenc.encoding import (BLOCK_UNARY, GRAY, MAX_D, SB, UNARY, EncodingSpec,
                             codeword, encode, num_qubits)
from qudenc.models import (BOSE_HUBBARD, BOSON_SAMPLING, FRANCK_CONDON,
                           HEISENBERG, MODEL_NAMES, SHIFTED_QHO, LocalTerm, ModelSpec,
                           SCHEME_NAMES, boson_sampling_circuit, build_model,
                           classify_scenario, clear_price_cache,
                           compute_scheme_report, duschinsky_matrix,
                           encode_term, term_entangling_cost, term_matrix)
from qudenc.qudit_ops import bosonic, spin
from qudenc.optimizer import optimize
from qudenc.simulator import pauli_to_matrix, verify_circuit_equivalence


def _bits_index(spec, l):
    return sum(b << i for i, b in enumerate(encode(spec, l)))


def _check_reconstruction(term, kind, g=3):
    """Encoded matrix elements between codeword states equal the joint
    qudit matrix elements."""
    s = encode_term(term, kind, g=g)
    dims = term.site_dims()
    specs = [EncodingSpec(kind, dj, g=g) for dj in dims]
    widths = [num_qubits(sp) for sp in specs]
    m = pauli_to_matrix(s)
    ref = term_matrix(term)

    def joint_index(levels):
        idx, shift = 0, 0
        for sp, w, l in zip(specs, widths, levels):
            idx |= _bits_index(sp, l) << shift
            shift += w
        return idx

    from itertools import product as iproduct
    levels = list(iproduct(*[range(dj) for dj in dims]))
    worst = 0.0
    for row in levels:
        for col in levels:
            got = m[joint_index(row), joint_index(col)]
            want = ref[sum(l * int(np.prod(dims[:j])) for j, l in enumerate(row)),
                       sum(l * int(np.prod(dims[:j])) for j, l in enumerate(col))]
            worst = max(worst, abs(got - want))
    assert worst < 1e-12, (term.label, kind, worst)


# ---------------------------------------------------------------------------
# term containers and builders

def test_local_term_validation():
    n = bosonic(3, "n")
    with pytest.raises(ValueError):
        LocalTerm((0, 0), ((n, n),), 1.0, "dup")
    with pytest.raises(ValueError):
        LocalTerm((0, 1), ((n,),), 1.0, "short product")
    with pytest.raises(ValueError):
        LocalTerm((0, 1), ((n, n), (n, bosonic(4, "n"))), 1.0, "mixed dims")


def test_term_matrix_two_site_order():
    a = bosonic(2, "a")
    adag = bosonic(2, "adag")
    t = LocalTerm((0, 1), ((adag, a), (a, adag)), -0.5, "hopping")
    # first site least significant: site 1's matrix is the left kron factor
    want = -0.5 * (np.kron(np.asarray(a), np.asarray(adag))
                   + np.kron(np.asarray(adag), np.asarray(a)))
    np.testing.assert_allclose(term_matrix(t), want, atol=1e-15)
    np.testing.assert_allclose(term_matrix(t), term_matrix(t).conj().T, atol=1e-15)


def test_bose_hubbard_structure():
    spec = ModelSpec(BOSE_HUBBARD, N=3, d=4, params={"t": 1.0, "U": 0.5, "mu": 0.1})
    terms = build_model(spec)
    labels = [t.label for t in terms]
    assert labels.count("hopping") == 3  # periodic ring of 3
    assert labels.count("onsite") == 3
    assert labels.count("chemical") == 3
    hop = next(t for t in terms if t.label == "hopping")
    assert hop.coefficient == -1.0
    on = next(t for t in terms if t.label == "onsite")
    assert on.coefficient == 0.25
    open_terms = build_model(ModelSpec(BOSE_HUBBARD, N=3, d=4,
                                       params={"periodic": False}))
    assert [t.label for t in open_terms].count("hopping") == 2
    # single site: no hopping at all
    single = build_model(ModelSpec(BOSE_HUBBARD, N=1, d=4))
    assert all(t.label != "hopping" for t in single)


def test_shifted_qho_structure():
    terms = build_model(ModelSpec(SHIFTED_QHO, N=1, d=8,
                                  params={"omega": 2.0, "delta": 0.3}))
    by_label = {t.label: t for t in terms}
    assert set(by_label) == {"q2", "p2", "linear", "constant"}
    assert by_label["q2"].coefficient == 1.0
    assert abs(by_label["linear"].coefficient - (-0.6)) < 1e-12
    with pytest.raises(ValueError):
        build_model(ModelSpec(SHIFTED_QHO, N=2, d=8))


def test_heisenberg_structure():
    terms = build_model(ModelSpec(HEISENBERG, N=2, s=1.5))
    labels = [t.label for t in terms]
    assert labels.count("zz") == 1 and labels.count("field") == 2
    zz = next(t for t in terms if t.label == "zz")
    np.testing.assert_allclose(
        term_matrix(zz),
        -1.0 * np.kron(np.asarray(spin(1.5, "z")), np.asarray(spin(1.5, "z"))),
        atol=1e-15)


def test_franck_condon_structure_and_determinism():
    spec = ModelSpec(FRANCK_CONDON, N=3, d=4, seed=7)
    terms = build_model(spec)
    labels = {t.label for t in terms}
    assert "q2" in labels and "p2" in labels
    again = build_model(ModelSpec(FRANCK_CONDON, N=3, d=4, seed=7))
    assert [(t.label, t.coefficient) for t in terms] == \
        [(t.label, t.coefficient) for t in again]
    other = build_model(ModelSpec(FRANCK_CONDON, N=3, d=4, seed=8))
    assert [(t.label, t.coefficient) for t in terms] != \
        [(t.label, t.coefficient) for t in other]
    for t in terms:  # every kept coefficient is genuinely nonzero
        assert abs(t.coefficient) > 1e-12


def test_duschinsky_matrix_shape():
    S = duschinsky_matrix(5, 2, seed=1)
    assert S.shape == (5, 5)
    assert all(np.count_nonzero(S[j]) == 2 for j in range(5))
    np.testing.assert_allclose(np.linalg.norm(S, axis=1), np.ones(5), atol=1e-12)
    with pytest.raises(ValueError):
        duschinsky_matrix(3, 4, seed=0)


def test_boson_sampling_terms():
    gates = [{"kind": "phase_shifter", "modes": [1], "theta": 0.3},
             {"kind": "beamsplitter", "modes": [0, 2], "theta": 0.8}]
    terms = build_model(ModelSpec(BOSON_SAMPLING, N=3, d=2,
                                  params={"gates": gates}))
    assert [t.label for t in terms] == ["phase_shifter_0", "beamsplitter_1"]
    assert terms[1].sites == (0, 2)
    with pytest.raises(ValueError):
        build_model(ModelSpec(BOSON_SAMPLING, N=2, d=2, params={"gates": [
            {"kind": "beamsplitter", "modes": [0, 5], "theta": 0.1}]}))
    with pytest.raises(ValueError):
        build_model(ModelSpec(BOSON_SAMPLING, N=2, d=2, params={"gates": [
            {"kind": "squeezer", "modes": [0], "theta": 0.1}]}))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("no_such_model", d=4)
    with pytest.raises(ValueError):
        ModelSpec(HEISENBERG, N=2)  # needs s
    with pytest.raises(ValueError):
        ModelSpec(HEISENBERG, N=2, s=0.7)
    with pytest.raises(ValueError):
        ModelSpec(BOSE_HUBBARD, N=2)  # needs d
    with pytest.raises(ValueError):
        ModelSpec(BOSE_HUBBARD, N=0, d=4)
    assert ModelSpec(HEISENBERG, N=2, s=1.5).site_dim == 4
    assert ModelSpec(BOSE_HUBBARD, N=2, d=5).site_dim == 5
    # The level cap applies when the spec is made, before any matrix exists.
    with pytest.raises(ValueError, match=rf"\[2, {MAX_D}\], got 100000"):
        ModelSpec(BOSE_HUBBARD, N=1, d=100000)
    with pytest.raises(ValueError, match=r"s = 1000000000\.0 must be in"):
        ModelSpec(HEISENBERG, N=1, s=1e9)
    assert ModelSpec(BOSE_HUBBARD, N=1, d=MAX_D).site_dim == MAX_D
    assert ModelSpec(HEISENBERG, N=1, s=(MAX_D - 1) / 2).site_dim == MAX_D


# ---------------------------------------------------------------------------
# encoding whole terms

@pytest.mark.parametrize("kind", [SB, GRAY, UNARY])
def test_encode_term_reconstructs_single_site(kind):
    t = LocalTerm((0,), ((bosonic(3, "n"),),), 1.7, "n")
    _check_reconstruction(t, kind)


@pytest.mark.parametrize("kind", [SB, GRAY, UNARY])
def test_encode_term_reconstructs_two_site(kind):
    a, adag = bosonic(3, "a"), bosonic(3, "adag")
    t = LocalTerm((0, 1), ((adag, a), (a, adag)), -0.8, "hopping")
    _check_reconstruction(t, kind)


def test_encode_term_reconstructs_block_unary():
    t = LocalTerm((0,), ((bosonic(4, "n"),),), 1.0, "n")
    _check_reconstruction(t, BLOCK_UNARY, g=3)


def test_encode_term_augmented_diagonal_loses_entangling():
    t = LocalTerm((0,), ((bosonic(3, "n"),),), 1.0, "n")
    assert term_entangling_cost(t, SB) > 0          # Z0 Z1 survives at d=3
    assert term_entangling_cost(t, SB, augment=True) == 0


# ---------------------------------------------------------------------------
# pricing and caching

def test_zero_coefficient_terms_are_free():
    t = LocalTerm((0,), ((bosonic(4, "n"),),), 0.0, "chemical")
    assert term_entangling_cost(t, SB) == 0
    assert term_entangling_cost(t, UNARY) == 0


def test_price_cache_is_digest_keyed():
    clear_price_cache()
    t1 = LocalTerm((0,), ((bosonic(4, "n"),),), 0.5, "n")
    t2 = LocalTerm((3,), ((bosonic(4, "n"),),), 2.5, "other sites, same shape")
    c1 = term_entangling_cost(t1, SB)
    from qudenc.models import _PRICE_CACHE
    size_after_first = len(_PRICE_CACHE)
    c2 = term_entangling_cost(t2, SB)
    assert c1 == c2
    assert len(_PRICE_CACHE) == size_after_first  # digest hit, no new entry
    clear_price_cache()
    assert len(_PRICE_CACHE) == 0


def test_costs_do_not_depend_on_system_size():
    # hopping-only chain: total = per-bond cost times bond count
    base = {"t": 1.0, "U": 0.0, "mu": 0.0}
    r2 = compute_scheme_report(ModelSpec(BOSE_HUBBARD, N=2, d=4, params=base))
    r3 = compute_scheme_report(ModelSpec(BOSE_HUBBARD, N=3, d=4, params=base))
    for name in ("sb_only", "gray_only", "unary_only"):
        assert r2.counts[name] * 3 == r3.counts[name] * 2


# ---------------------------------------------------------------------------
# scheme comparison and scenario labels

def test_classify_scenario_rules():
    def c(sb, gray, unary, both, allw):
        return {"sb_only": sb, "gray_only": gray, "unary_only": unary,
                "sb_and_gray": both, "all_with_compacting": allw}

    assert classify_scenario(c(5, 6, 9, 5, 5)) == "A"
    assert classify_scenario(c(6, 5, 9, 5, 5)) == "A"   # Gray alone is still A
    assert classify_scenario(c(6, 6, 9, 5, 5)) == "B"
    assert classify_scenario(c(7, 7, 5, 6, 6)) == "C"   # compacting beats compact
    assert classify_scenario(c(6, 7, 5, 6, 17)) == "D"  # conversions too dear
    assert classify_scenario(c(6, 7, 9, 6, 5)) == "C"   # mixing all three wins
    # ties break toward the lower-qubit scheme: B before C/D
    assert classify_scenario(c(7, 7, 5, 5, 5)) == "B"


def test_heisenberg_report_desk_numbers():
    clear_price_cache()
    rep = compute_scheme_report(ModelSpec(HEISENBERG, N=2, s=1.5))
    assert set(rep.counts) == set(SCHEME_NAMES)
    assert rep.counts["sb_only"] == 16
    assert rep.counts["gray_only"] == 18
    assert rep.counts["unary_only"] == 56
    assert rep.counts["sb_and_gray"] == 16  # 12 best-of + 4 conversion CNOTs
    assert rep.conversions["sb_and_gray"] == 4
    assert rep.scenario == "A"
    assert rep.qubits_per_particle["sb_only"] == 2
    assert rep.qubits_per_particle["unary_only"] == 4
    assert abs(rep.ratios["sb_only"] - 1.0) < 1e-12
    assert rep.d_or_s == 1.5
    j = rep.to_json_dict()
    assert j["scenario"] == "A" and j["counts"]["sb_only"] == 16


def test_gray_wins_hopping_at_power_of_two():
    base = {"t": 1.0, "U": 0.0, "mu": 0.0}
    rep = compute_scheme_report(ModelSpec(BOSE_HUBBARD, N=2, d=8, params=base))
    assert rep.counts["gray_only"] < rep.counts["sb_only"]


def test_unary_wins_hopping_at_non_power_of_two():
    base = {"t": 1.0, "U": 0.0, "mu": 0.0}
    rep = compute_scheme_report(ModelSpec(BOSE_HUBBARD, N=2, d=5, params=base))
    assert rep.counts["unary_only"] < min(rep.counts["sb_only"],
                                          rep.counts["gray_only"])


def test_report_improvement_flags_are_consistent():
    rep = compute_scheme_report(ModelSpec(HEISENBERG, N=2, s=1.5))
    assert rep.improvements["sb_and_gray"] == (
        rep.counts["sb_and_gray"] < min(rep.counts["sb_only"],
                                        rep.counts["gray_only"]))
    assert rep.improvements["all_with_compacting"] == (
        rep.counts["all_with_compacting"] < min(rep.counts["sb_only"],
                                                rep.counts["gray_only"],
                                                rep.counts["unary_only"]))


# ---------------------------------------------------------------------------
# boson-sampling circuits

def test_boson_sampling_circuit_layout():
    gates = [{"kind": "phase_shifter", "modes": [1], "theta": 0.4}]
    spec = ModelSpec(BOSON_SAMPLING, N=3, d=4, params={"gates": gates})
    circ = boson_sampling_circuit(spec, SB)
    assert circ.n_qubits == 6  # 3 modes x 2 qubits
    touched = set()
    for g in circ.gates:
        touched |= g.support()
    assert touched <= {2, 3}  # only mode 1's wires


def test_boson_sampling_circuit_empty_program():
    spec = ModelSpec(BOSON_SAMPLING, N=2, d=2, params={"gates": []})
    circ = boson_sampling_circuit(spec, SB)
    assert len(circ.gates) == 0 and circ.n_qubits == 2
    with pytest.raises(ValueError):
        boson_sampling_circuit(ModelSpec(BOSE_HUBBARD, N=2, d=2), SB)


# Every model at sizes whose priced circuits stay within 8 qubits: two-site
# unary terms at d = 4 are the widest.  Cutoffs 3, 5 and 6 also price the
# augmented term under SB and Gray.
_BEAM = [{"kind": "beamsplitter", "modes": [0, 1], "theta": 0.7},
         {"kind": "phase_shifter", "modes": [1], "theta": 0.4}]
_SMALL_MODELS = (
    [ModelSpec(BOSE_HUBBARD, N=2, d=d) for d in (3, 4)]
    + [ModelSpec(SHIFTED_QHO, d=d) for d in (3, 5, 6)]
    + [ModelSpec(FRANCK_CONDON, N=2, d=3)]
    + [ModelSpec(HEISENBERG, N=2, s=s) for s in (0.5, 1.0)]
    + [ModelSpec(BOSON_SAMPLING, N=2, d=3, params={"gates": _BEAM})])


def test_small_models_cover_every_model():
    assert {spec.model for spec in _SMALL_MODELS} == set(MODEL_NAMES)


@pytest.mark.parametrize("spec", _SMALL_MODELS,
                         ids=lambda spec: f"{spec.model}-{spec.site_dim}")
def test_priced_circuits_keep_their_unitary(spec):
    """Every circuit that pricing optimizes equals its unoptimized Trotter
    step, up to global phase: each nonzero term under SB, Gray and unary,
    and the augmented term wherever _priced prices it."""
    d = spec.site_dim
    seen = set()
    for term in build_model(spec):
        if abs(term.coefficient) < models.COEFF_ZERO_TOL:
            continue  # priced at 0 without building a circuit
        augmentable = all(can_augment(m) for product in term.factors for m in product)
        for kind in (SB, GRAY, UNARY):
            augments = (False, True) if kind != UNARY and d & (d - 1) and augmentable \
                else (False,)
            for augment in augments:
                key = models._term_cache_key(term, kind, augment)
                if key in seen:
                    continue
                seen.add(key)
                step = trotter_step(encode_term(term, kind, augment=augment),
                                    models.PRICING_THETA)
                assert step.n_qubits <= 8
                assert verify_circuit_equivalence(optimize(step), step, up_to_phase=True), \
                    (term.label, kind, augment)
    assert seen


@pytest.mark.parametrize("spec", _SMALL_MODELS + [
    ModelSpec(BOSE_HUBBARD, N=2, d=8), ModelSpec(SHIFTED_QHO, d=8),
    ModelSpec(FRANCK_CONDON, N=2, d=4), ModelSpec(HEISENBERG, N=2, s=3.5)],
    ids=lambda spec: f"{spec.model}-{spec.site_dim}")
def test_single_site_costs_within_bounds(spec):
    """Optimized CNOTs <= staircase CNOTs <= the per-element bounds summed
    over the term's nonzero elements, for every single-site term under SB
    and Gray.  Each element l <= l' of the Hermitian term is counted once,
    with d_H the Hamming distance of its two codewords."""
    terms = [term for term in build_model(spec) if len(term.sites) == 1]
    assert terms
    for term in terms:
        matrix = term_matrix(term)
        for kind in (SB, GRAY):
            enc = EncodingSpec(kind, spec.site_dim)
            bound = sum(cnot_upper_bound(BoundQuery(
                            (codeword(enc, l) ^ codeword(enc, lp)).bit_count(),
                            num_qubits(enc), diagonal=l == lp))
                        for l, lp in np.argwhere(matrix).tolist() if l <= lp)
            h = encode_term(term, kind)
            optimized = count_resources(
                optimize(trotter_step(h, models.PRICING_THETA))).entangling_total
            assert optimized <= staircase_cnots(h) <= bound, (term.label, kind)
