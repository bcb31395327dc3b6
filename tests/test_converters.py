"""Encoding-conversion circuits checked level-by-level on basis states."""

import numpy as np
import pytest

from states import basis_state
from qudenc.circuits import Circuit, count_resources
from qudenc.converters import (BU_SHOWCASE_D, BU_SHOWCASE_G, CONVERSION_KINDS,
                               GRAY_TO_SB, SB_TO_BU, SB_TO_GRAY, SB_TO_UNARY,
                               UNARY_TO_SB, conversion_circuit, conversion_cost,
                               gray_to_sb_circuit, mcx_gates, sb_to_bu_circuit,
                               sb_to_gray_circuit, sb_to_unary_circuit,
                               synthesize_permutation, unary_to_sb_circuit)
from qudenc.encoding import (BLOCK_UNARY, GRAY, MAX_D, SB, EncodingSpec, encode,
                             num_qubits)
from qudenc.simulator import apply_circuit, circuit_to_unitary


def _as_index(bits):
    return sum(b << i for i, b in enumerate(bits))


def _maps_basis_state(circ, index_in, index_out):
    out = apply_circuit(circ, basis_state(circ.n_qubits, index_in))
    return abs(out[index_out] - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# SB <-> Gray

@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 13, 16])
def test_sb_to_gray_on_every_level(d):
    circ = sb_to_gray_circuit(d)
    gray = EncodingSpec(GRAY, d)
    for l in range(d):
        assert _maps_basis_state(circ, l, _as_index(encode(gray, l)))


@pytest.mark.parametrize("d", [2, 5, 8, 16])
def test_gray_to_sb_inverts(d):
    both = Circuit(sb_to_gray_circuit(d).n_qubits)
    both.gates = sb_to_gray_circuit(d).gates + gray_to_sb_circuit(d).gates
    np.testing.assert_allclose(circuit_to_unitary(both),
                               np.eye(2 ** both.n_qubits), atol=1e-12)


def test_gray_conversion_cnot_count():
    for d in (4, 8, 16):
        K = (d - 1).bit_length()
        assert len(sb_to_gray_circuit(d).gates) == K - 1
        assert len(gray_to_sb_circuit(d).gates) == K - 1


# ---------------------------------------------------------------------------
# SB -> unary

@pytest.mark.parametrize("d", list(range(2, 17)))
def test_sb_to_unary_on_every_level(d):
    circ = sb_to_unary_circuit(d)
    for l in range(d):
        assert _maps_basis_state(circ, l, 1 << l), (d, l)


@pytest.mark.parametrize("d", [2, 5, 8, 12])
def test_unary_to_sb_inverts(d):
    circ = unary_to_sb_circuit(d)
    for l in range(d):
        assert _maps_basis_state(circ, 1 << l, l), (d, l)


def test_unary_gate_tallies():
    for d in (4, 7, 8, 16, 8192):
        K = (d - 1).bit_length()
        body = count_resources(sb_to_unary_circuit(d, include_layout=False))
        assert body.counts.get("CNOT", 0) == d - 1
        assert body.counts.get("CSWAP", 0) == d - K - 1
        assert body.counts.get("X", 0) == 1
        assert "SWAP" not in body.counts
        ct = count_resources(sb_to_unary_circuit(d, include_layout=False),
                             decompose="clifford_t")
        assert ct.counts.get("CNOT", 0) == 9 * d - 8 * K - 9


def test_unary_clifford_t_headline_number():
    ct = conversion_cost(SB_TO_UNARY, 16, decompose="clifford_t")
    assert ct.counts["CNOT"] == 103


# ---------------------------------------------------------------------------
# permutation synthesis and multi-controlled X

@pytest.mark.parametrize("n_bits", [2, 3, 4])
def test_synthesize_permutation_random(n_bits):
    rng = np.random.default_rng(5 + n_bits)
    size = 1 << n_bits
    for _ in range(10):
        perm = list(rng.permutation(size))
        gates = synthesize_permutation(perm, n_bits)
        # replay the multi-controlled-X list classically, in circuit order
        state = list(range(size))
        for controls, target in gates:
            mask = sum(1 << i for i in controls)
            state = [v ^ (1 << target) if v & mask == mask else v
                     for v in state]
        assert state == perm


def test_synthesize_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        synthesize_permutation([0, 0, 1, 2], 2)


def test_synthesized_circuit_matches_on_basis_states():
    rng = np.random.default_rng(9)
    perm = list(rng.permutation(16))
    c = Circuit(5)
    for controls, target in synthesize_permutation(perm, 4):
        c.extend(mcx_gates(controls, target, borrow=(4,)))
    for x in range(16):
        assert _maps_basis_state(c, x, perm[x]), x
        # dirty borrow: also correct with the borrow wire initially set
        assert _maps_basis_state(c, x | 16, perm[x] | 16), x


def test_mcx_gates_arities():
    u = circuit_to_unitary(Circuit(5, mcx_gates((0, 1, 2), 3, borrow=(4,))))
    for x in range(32):
        y = x ^ 8 if (x & 7) == 7 else x
        assert abs(u[y, x] - 1) < 1e-9
    u2 = circuit_to_unitary(Circuit(3, mcx_gates((0, 1), 2, borrow=())))
    for x in range(8):
        y = x ^ 4 if (x & 3) == 3 else x
        assert abs(u2[y, x] - 1) < 1e-9
    assert [g.kind for g in mcx_gates((), 0, borrow=())] == ["X"]
    assert [g.kind for g in mcx_gates((1,), 0, borrow=())] == ["CNOT"]
    with pytest.raises(ValueError):
        mcx_gates((0, 1, 2), 3, borrow=())  # no free wire to borrow
    with pytest.raises(ValueError):
        mcx_gates((0, 1, 2, 3), 4, borrow=(5,))


# ---------------------------------------------------------------------------
# SB -> block unary showcase (d = 12, g = 3)

def test_sb_to_bu_all_codewords():
    circ = sb_to_bu_circuit()
    spec = EncodingSpec(BLOCK_UNARY, BU_SHOWCASE_D, SB, BU_SHOWCASE_G)
    assert num_qubits(spec) == 8
    assert circ.n_qubits == 9  # one ancilla, returned to |0>
    for l in range(BU_SHOWCASE_D):
        assert _maps_basis_state(circ, l, _as_index(encode(spec, l))), l


def test_sb_to_bu_uses_native_alphabet():
    allowed = {"X", "CNOT", "SWAP", "CSWAP", "H", "T", "Tdg", "S", "Sdg"}
    assert {g.kind for g in sb_to_bu_circuit().gates} <= allowed


# ---------------------------------------------------------------------------
# cost and dispatch

def test_conversion_cost_and_circuit_dispatch():
    for kind in CONVERSION_KINDS:
        d = BU_SHOWCASE_D if kind == SB_TO_BU else 8
        rep = conversion_cost(kind, d)
        circ = conversion_circuit(kind, d)
        assert rep.total_gates >= 0 and circ.n_qubits >= 1
    assert conversion_cost(SB_TO_GRAY, 8).counts["CNOT"] == 2
    assert conversion_cost(GRAY_TO_SB, 8).counts["CNOT"] == 2
    with pytest.raises(ValueError):
        conversion_cost("nope", 4)
    with pytest.raises(ValueError):
        conversion_circuit(SB_TO_BU, 10)
    with pytest.raises(ValueError):
        sb_to_unary_circuit(1)


@pytest.mark.parametrize("build", [sb_to_gray_circuit, gray_to_sb_circuit,
                                   sb_to_unary_circuit, unary_to_sb_circuit],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("d", [-5, 1, MAX_D + 1])
def test_builders_apply_the_level_count_rule(build, d):
    # The check comes before any wire is allocated, so MAX_D + 1 is cheap.
    with pytest.raises(ValueError, match=rf"d must be in \[2, {MAX_D}\], got {d}$"):
        build(d)
