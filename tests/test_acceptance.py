"""End-to-end acceptance checks.

Golden operator sums, the staircase and bound laws, conversion-circuit
correctness on every codeword, optimizer soundness on random circuits,
diagonal shortcuts, scheme-level trends, and the boson-sampling layer.
Each test pins the tolerance it relies on; counting checks are exact."""

from collections import Counter

import numpy as np
import pytest

from reference_exponential import matrix_exponential
from states import basis_state
from qudenc.bounds import (BoundQuery, closed_form_cnot_upper_bound,
                           cnot_upper_bound, pauli_length_distribution,
                           staircase_cnots)
from qudenc.circuits import (Circuit, Gate, count_resources, trotter_step,
                             trotter_term)
from qudenc.converters import (SB_TO_UNARY, conversion_cost,
                               sb_to_bu_circuit, sb_to_gray_circuit,
                               sb_to_unary_circuit)
from qudenc.encoder import (detect_dbd, encode_hermitian_pair, encode_element,
                            encode_matrix)
from qudenc.encoding import (BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec,
                             encode, num_qubits)
from qudenc.models import (BOSE_HUBBARD, BOSON_SAMPLING, HEISENBERG, ModelSpec,
                           boson_sampling_circuit, build_model,
                           compute_scheme_report, term_matrix)
from qudenc.optimizer import optimize
from qudenc.paulis import PauliSum, string_to_text, weight
from qudenc.qudit_ops import (bosonic, dense_hermitian_test_matrix, spin,
                              tridiag_test_matrix)
from qudenc.simulator import (apply_circuit, circuit_to_unitary,
                              pauli_to_matrix, unitary_distance,
                              verify_circuit_equivalence, verify_encoding)


def _terms(s: PauliSum) -> dict:
    return {string_to_text(p): c for p, c in s.terms.items()}


def _bits_index(spec, l):
    return sum(b << i for i, b in enumerate(encode(spec, l)))


# ---------------------------------------------------------------------------
# 1. golden compact-code transition sums

def test_compact_transition_pair_golden_sums():
    A = np.zeros((8, 8), dtype=complex)
    A[3, 4] = A[4, 3] = 1.0

    sb = EncodingSpec(SB, 8)
    s_sb = encode_hermitian_pair(sb, 3, 4)
    assert _terms(s_sb) == {"X0 X1 X2": 0.25, "X0 Y1 Y2": 0.25,
                            "Y0 X1 Y2": 0.25, "Y0 Y1 X2": -0.25}
    assert verify_encoding(sb, A, s_sb) < 1e-10

    gray = EncodingSpec(GRAY, 8)
    s_gray = encode_hermitian_pair(gray, 3, 4)
    assert _terms(s_gray) == {"X2": 0.25, "Z0 X2": 0.25,
                              "Z1 X2": -0.25, "Z0 Z1 X2": -0.25}
    assert verify_encoding(gray, A, s_gray) < 1e-10


# ---------------------------------------------------------------------------
# 2. golden one-hot number-operator sums

def test_one_hot_number_operator_golden_sums():
    u3 = EncodingSpec(UNARY, 3)
    s_n = encode_matrix(u3, bosonic(3, "n")).sum
    assert _terms(s_n) == {"": 1.5, "Z1": -0.5, "Z2": -1.0}
    s_n2 = encode_matrix(u3, bosonic(3, "n2")).sum
    assert _terms(s_n2) == {"": 2.5, "Z1": -0.5, "Z2": -2.0}


# ---------------------------------------------------------------------------
# 3. squaring after encoding carries superfluous terms

def test_square_after_encoding_vs_encode_after_squaring():
    u3 = EncodingSpec(UNARY, 3)
    s_n = encode_matrix(u3, bosonic(3, "n")).sum
    squared = s_n.multiply(s_n).simplify()
    assert _terms(squared) == {"": 3.5, "Z1": -1.5, "Z1 Z2": 1.0, "Z2": -3.0}
    direct = encode_matrix(u3, bosonic(3, "n2")).sum
    assert len(squared.terms) == 4 and len(direct.terms) == 3
    # both represent n^2 faithfully on the codeword subspace
    n2 = bosonic(3, "n2")
    assert verify_encoding(u3, n2, squared) < 1e-10
    assert verify_encoding(u3, n2, direct) < 1e-10


# ---------------------------------------------------------------------------
# 4. reconstruction sweep over every code family

def test_reconstruction_sweep():
    worst = 0.0
    for d in range(2, 17):
        s = (d - 1) / 2.0
        ops = [bosonic(d, name) for name in ("q", "p", "q2", "p2", "n", "n2")]
        ops += [spin(s, ax) for ax in ("x", "y", "z")]
        ops += [tridiag_test_matrix(d, seed=1),
                dense_hermitian_test_matrix(d, seed=1)]
        specs = [EncodingSpec(SB, d), EncodingSpec(GRAY, d),
                 EncodingSpec(BLOCK_UNARY, d, g=3)]
        if d <= 14:  # one-hot registers stay within the qubit budget
            specs.append(EncodingSpec(UNARY, d))
        for spec in specs:
            for op in ops:
                worst = max(worst, verify_encoding(spec, op))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 5. staircase CNOT law and Trotter-step factorization

def test_staircase_law_and_step_factorization():
    for p in range(1, 9):
        pstring = tuple((q, "XYZ"[q % 3]) for q in range(p))
        circ = trotter_term(pstring, 1.0, 0.3, p)
        assert count_resources(circ).counts.get("CNOT", 0) == 2 * (p - 1)

    # the step unitary is exactly the ordered product of term exponentials
    for spec, op in [(EncodingSpec(SB, 8), tridiag_test_matrix(8, seed=2)),
                     (EncodingSpec(UNARY, 6), tridiag_test_matrix(6, seed=2))]:
        h = encode_matrix(spec, op).sum
        theta = 0.21
        u = circuit_to_unitary(trotter_step(h, theta))
        ref = np.eye(2 ** h.n_qubits, dtype=complex)
        for pstring in sorted(h.terms):
            single = PauliSum(h.n_qubits)
            single._accumulate(pstring, 1.0)
            pm = pauli_to_matrix(single)
            ref = matrix_exponential(h.terms[pstring].real * pm, theta) @ ref
        assert unitary_distance(u, ref) < 1e-9


# ---------------------------------------------------------------------------
# 6. length-distribution and CNOT-bound oracle

def test_bounds_match_brute_force_expansion():
    for K in range(1, 7):
        spec = EncodingSpec(SB, 2 ** K)
        # diagonal element: all I/Z strings appear
        s = encode_element(spec, 0, 0)
        q0 = BoundQuery(0, K, diagonal=True)
        assert Counter(weight(p) for p in s.terms) == \
            {p: f for p, f in pauli_length_distribution(q0).items() if f}
        assert staircase_cnots(s) == cnot_upper_bound(q0)
        # off-diagonal elements at every Hamming distance
        for d_H in range(1, K + 1):
            pair = encode_hermitian_pair(spec, 0, (1 << d_H) - 1)
            q = BoundQuery(d_H, K)
            assert Counter(weight(p) for p in pair.terms) == \
                {p: f for p, f in pauli_length_distribution(q).items() if f}
            assert staircase_cnots(pair) == cnot_upper_bound(q)

    # corrected diagonal constant and the quoted closed-form examples
    assert cnot_upper_bound(BoundQuery(0, 2, diagonal=True)) == 2
    assert closed_form_cnot_upper_bound(BoundQuery(1, 3)) == 8
    for K in range(1, 7):
        assert closed_form_cnot_upper_bound(BoundQuery(1, K)) == \
            cnot_upper_bound(BoundQuery(1, K))
        if K >= 2:
            assert closed_form_cnot_upper_bound(BoundQuery(2, K)) == \
                cnot_upper_bound(BoundQuery(2, K))


# ---------------------------------------------------------------------------
# 7. conversion circuits on every codeword

def _maps_to(circ, idx_in, idx_out):
    out = apply_circuit(circ, basis_state(circ.n_qubits, idx_in))
    return abs(out[idx_out] - 1.0) < 1e-9


def test_conversion_circuits_full_codeword_coverage():
    # binary -> Gray with exactly K-1 CNOTs
    for K in range(1, 5):
        d = 2 ** K
        circ = sb_to_gray_circuit(d)
        assert len(circ.gates) == K - 1
        assert all(g.kind == "CNOT" for g in circ.gates)
        gray = EncodingSpec(GRAY, d)
        for l in range(d):
            assert _maps_to(circ, l, _bits_index(gray, l))

    # binary -> one-hot: every level, exact body tallies, Clifford+T total
    for d in range(2, 17):
        K = (d - 1).bit_length()
        circ = sb_to_unary_circuit(d)
        for l in range(d):
            assert _maps_to(circ, l, 1 << l), (d, l)
        body = count_resources(sb_to_unary_circuit(d, include_layout=False))
        assert body.counts.get("CNOT", 0) == d - 1
        assert body.counts.get("CSWAP", 0) == d - K - 1
        assert body.counts.get("X", 0) == 1
        ct = count_resources(sb_to_unary_circuit(d, include_layout=False),
                             decompose="clifford_t")
        assert ct.counts.get("CNOT", 0) == 9 * d - 8 * K - 9
    assert conversion_cost(SB_TO_UNARY, 16, "clifford_t").counts["CNOT"] == 103

    # binary -> block unary showcase: all 12 codewords, ancilla cleared
    circ = sb_to_bu_circuit()
    bu = EncodingSpec(BLOCK_UNARY, 12, g=3)
    for l in range(12):
        assert _maps_to(circ, l, _bits_index(bu, l)), l


# ---------------------------------------------------------------------------
# 8. optimizer: soundness and who benefits

def _random_gate(rng, n):
    kinds = ["X", "H", "BasisY", "S", "Sdg", "T", "Tdg", "Rz",
             "CNOT", "CNOT", "CNOT", "SWAP"]
    if n >= 3:
        kinds.append("CSWAP")
    kind = rng.choice(kinds)
    arity = {"CNOT": 2, "SWAP": 2, "CSWAP": 3}.get(kind, 1)
    qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
    angle = float(rng.uniform(-np.pi, np.pi)) if kind == "Rz" else None
    return Gate(kind, qubits, angle=angle)


def test_optimizer_preserves_unitaries_and_never_grows():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        c = Circuit(n)
        for _ in range(int(rng.integers(1, 12))):
            c.gates.append(_random_gate(rng, n))
        out = optimize(c)
        assert len(out.gates) <= len(c.gates)
        assert verify_circuit_equivalence(c, out, tol=1e-9)


def test_optimizer_textbook_rewrites():
    c = Circuit(2)
    c.add("CNOT", 0, 1)
    c.add("CNOT", 0, 1)
    c.add("H", 0)
    c.add("H", 0)
    assert len(optimize(c).gates) == 0
    c = Circuit(3)
    c.add("CNOT", 0, 1)
    c.add("CNOT", 1, 2)
    c.add("CNOT", 0, 1)
    out = optimize(c)
    assert len(out.gates) == 2
    assert verify_circuit_equivalence(c, out, tol=1e-12)


def test_optimizer_reduction_favors_compact_quadrature():
    def relative_reduction(kind):
        h = encode_matrix(EncodingSpec(kind, 16), bosonic(16, "q")).sum
        circ = trotter_step(h, 0.37)
        before = count_resources(circ).entangling_total
        after = count_resources(optimize(circ)).entangling_total
        return (before - after) / before

    assert relative_reduction(SB) > relative_reduction(UNARY)


# ---------------------------------------------------------------------------
# 9. diagonal shortcuts cost zero entangling gates

def _entangling_per_step(spec, op):
    h = encode_matrix(spec, op).sum
    return count_resources(optimize(trotter_step(h, 0.5))).entangling_total


def test_binary_decomposable_diagonals_are_free():
    for d in (4, 8, 16):
        assert detect_dbd(bosonic(d, "n")) is not None
        assert _entangling_per_step(EncodingSpec(SB, d), bosonic(d, "n")) == 0
    for s in (1.5, 3.5):
        d = int(round(2 * s)) + 1
        assert _entangling_per_step(EncodingSpec(SB, d), spin(s, "z")) == 0
    for two_s in range(1, 8):  # every spin up to 7/2
        s = two_s / 2.0
        assert _entangling_per_step(EncodingSpec(UNARY, two_s + 1),
                                    spin(s, "z")) == 0


# ---------------------------------------------------------------------------
# 10. scheme-comparison trends

def test_spin_three_half_chain_prefers_compact_codes():
    rep = compute_scheme_report(ModelSpec(HEISENBERG, N=3, s=1.5))
    assert rep.scenario in ("A", "B")


def test_gray_matches_or_beats_binary_on_hopping_chains():
    hopping_only = {"t": 1.0, "U": 0.0, "mu": 0.0}
    for d in (8, 16):
        rep = compute_scheme_report(
            ModelSpec(BOSE_HUBBARD, N=2, d=d, params=hopping_only))
        assert rep.counts["gray_only"] <= rep.counts["sb_only"]


def test_scenario_label_is_deterministic_and_size_stable():
    labels = [compute_scheme_report(ModelSpec(HEISENBERG, N=N, s=1.5)).scenario
              for N in (2, 3, 4)]
    assert len(set(labels)) == 1
    a = compute_scheme_report(ModelSpec(HEISENBERG, N=3, s=1.5))
    b = compute_scheme_report(ModelSpec(HEISENBERG, N=3, s=1.5))
    assert a.to_json_dict() == b.to_json_dict()


def test_relative_counts_are_size_invariant_on_uniform_chains():
    reps = [compute_scheme_report(ModelSpec(BOSE_HUBBARD, N=N, d=4))
            for N in (2, 3, 4)]
    for name in reps[0].ratios:
        vals = [r.ratios[name] for r in reps]
        assert max(vals) - min(vals) < 1e-9, name


# ---------------------------------------------------------------------------
# 11. boson-sampling layer

@pytest.mark.parametrize("theta", [0.0, np.pi / 7, np.pi / 2])
def test_beamsplitter_circuit_matches_exponential(theta):
    gates = [{"kind": "beamsplitter", "modes": [0, 1], "theta": theta}]
    mspec = ModelSpec(BOSON_SAMPLING, N=2, d=2, params={"gates": gates})
    a = np.asarray(bosonic(2, "a"))
    adag = a.conj().T
    h_joint = np.kron(a, adag) + np.kron(adag, a)  # mode 0 least significant
    ref = matrix_exponential(h_joint, theta)
    assert np.allclose(term_matrix(build_model(mspec)[0]), theta * h_joint)

    for kind in (SB, GRAY, UNARY, BLOCK_UNARY):
        enc = EncodingSpec(kind, 2, g=3)
        nq = num_qubits(enc)
        u = circuit_to_unitary(boson_sampling_circuit(mspec, kind, g=3))

        def eidx(l0, l1):
            return _bits_index(enc, l0) | (_bits_index(enc, l1) << nq)

        worst = 0.0
        for l0 in range(2):
            for l1 in range(2):
                for m0 in range(2):
                    for m1 in range(2):
                        got = u[eidx(m0, m1), eidx(l0, l1)]
                        want = ref[m0 + 2 * m1, l0 + 2 * l1]
                        worst = max(worst, abs(got - want))
        assert worst < 1e-9, kind
