"""Reference simulator oracles: gate matrices, state application, exponentials."""

import itertools

import numpy as np
import pytest

from reference_exponential import matrix_exponential
from states import basis_state
from qudenc.circuits import (GATE_ARITY, Circuit, Gate, export_circuit,
                             import_circuit)
from qudenc.encoding import SB, EncodingSpec
from qudenc.paulis import PauliSum, text_to_string
from qudenc.qudit_ops import bosonic
from qudenc.simulator import (MAX_DENSE_QUBITS, _apply_gate, apply_circuit,
                              circuit_to_unitary, gate_matrix,
                              pauli_to_matrix, unitary_distance, verify_circuit_equivalence,
                              verify_encoding)


def test_basis_y_identity():
    v = gate_matrix(Gate("BasisY", (0,)))
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1, -1]).astype(complex)
    np.testing.assert_allclose(v, (Y + Z) / np.sqrt(2), atol=1e-15)
    # Hermitian, self-inverse, conjugates Z into Y
    np.testing.assert_allclose(v, v.conj().T, atol=1e-15)
    np.testing.assert_allclose(v @ v, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(v @ Z @ v, Y, atol=1e-15)
    # equals S H S^dagger
    S = np.diag([1, 1j])
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(v, S @ H @ S.conj().T, atol=1e-15)


def test_qubit_zero_is_least_significant():
    c = Circuit(2)
    c.add("X", 0)
    out = apply_circuit(c, basis_state(2, 0))
    assert abs(out[1] - 1) < 1e-15  # |01> in (q1 q0) display = index 1
    c2 = Circuit(2)
    c2.add("X", 1)
    out2 = apply_circuit(c2, basis_state(2, 0))
    assert abs(out2[2] - 1) < 1e-15


def test_cnot_control_is_first_listed_qubit():
    c = Circuit(2)
    c.add("CNOT", 1, 0)  # control qubit 1
    u = circuit_to_unitary(c)
    # |10> (index 2) -> |11> (index 3)
    assert abs(u[3, 2] - 1) < 1e-15
    assert abs(u[1, 1] - 1) < 1e-15


def test_cswap_swaps_when_control_set():
    c = Circuit(3)
    c.add("CSWAP", 0, 1, 2)
    u = circuit_to_unitary(c)
    # control = qubit 0 set: |q2 q1 q0> = |011> (3) <-> |101> (5)
    assert abs(u[5, 3] - 1) < 1e-15
    assert abs(u[2, 2] - 1) < 1e-15  # control clear: untouched


def test_rz_convention():
    g = Gate("Rz", (0,), angle=0.8)
    expect = np.diag([np.exp(-0.4j), np.exp(0.4j)])
    np.testing.assert_allclose(gate_matrix(g), expect, atol=1e-15)


def test_concatenation_is_matrix_product():
    rng = np.random.default_rng(2)
    c1 = Circuit(2)
    c1.add("H", 0)
    c1.add("CNOT", 0, 1)
    c2 = Circuit(2)
    c2.add("Rz", 1, angle=0.4)
    c2.add("SWAP", 0, 1)
    both = Circuit(2, c1.gates + c2.gates)
    np.testing.assert_allclose(
        circuit_to_unitary(both),
        circuit_to_unitary(c2) @ circuit_to_unitary(c1), atol=1e-12)


def test_every_gate_kind_agrees_with_qasm_reimport():
    # exhaustive 2-qubit states for each gate kind, simulated two ways
    kinds = [Gate("X", (0,)), Gate("H", (1,)), Gate("BasisY", (0,)),
             Gate("Rz", (1,), angle=0.77), Gate("T", (0,)), Gate("Tdg", (1,)),
             Gate("CNOT", (1, 0)), Gate("SWAP", (0, 1))]
    for g in kinds:
        c = Circuit(2, [g])
        back = import_circuit(export_circuit(c, "qasm2"))
        u1 = circuit_to_unitary(c)
        u2 = circuit_to_unitary(back)
        assert unitary_distance(u1, u2) < 1e-12, g
    # CSWAP needs 3 qubits
    c = Circuit(3, [Gate("CSWAP", (2, 0, 1))])
    back = import_circuit(export_circuit(c, "qasm2"))
    assert unitary_distance(circuit_to_unitary(c),
                            circuit_to_unitary(back)) < 1e-12


def test_pauli_to_matrix_is_linear():
    a = PauliSum(2)
    a._accumulate(text_to_string("X0 Z1"), 1.0)
    b = PauliSum(2)
    b._accumulate(text_to_string("Y1"), 1.0)
    a, b = a.simplify(), b.simplify()
    np.testing.assert_allclose(pauli_to_matrix((2.0 * a) + (0.5j * b)),
                               2.0 * pauli_to_matrix(a) + 0.5j * pauli_to_matrix(b),
                               atol=1e-12)


def test_matrix_exponential_basics():
    np.testing.assert_allclose(matrix_exponential(np.zeros((4, 4)), 1.7),
                               np.eye(4), atol=1e-12)
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(matrix_exponential(z, np.pi),
                               -np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[0, 1], [0, 0]]), 1.0)


def test_matrix_exponential_is_unitary():
    m = pauli_to_matrix(
        __import__("qudenc").encoder.encode_matrix(
            EncodingSpec(SB, 4), bosonic(4, "q")).sum)
    u = matrix_exponential(m, 0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)


def test_verify_encoding_catches_wrong_sums():
    spec = EncodingSpec(SB, 4)
    n = bosonic(4, "n")
    good = __import__("qudenc").encoder.encode_matrix(spec, n).sum
    assert verify_encoding(spec, n, good) < 1e-12
    bad = good + (0.25 * PauliSum.identity(2))
    assert verify_encoding(spec, n, bad.simplify()) > 0.2


def test_verify_circuit_equivalence_phase_flag():
    c1 = Circuit(1)
    c1.add("Rz", 0, angle=0.6)
    c2 = Circuit(1, list(c1.gates), global_phase=0.3)
    assert not verify_circuit_equivalence(c1, c2)
    assert verify_circuit_equivalence(c1, c2, up_to_phase=True)


def test_states_equal():
    a = basis_state(2, 1)
    # Equal up to a global phase, entry by entry.
    assert unitary_distance(a, np.exp(0.4j) * a, up_to_phase=True) <= 1e-9
    assert unitary_distance(a, basis_state(2, 2), up_to_phase=True) == float("inf")


def test_dense_caps():
    with pytest.raises(ValueError):
        circuit_to_unitary(Circuit(MAX_DENSE_QUBITS + 1))
    with pytest.raises(ValueError):
        pauli_to_matrix(PauliSum(MAX_DENSE_QUBITS + 1))


def test_statevector_works_past_dense_cap():
    c = Circuit(16)
    c.add("X", 15)
    out = apply_circuit(c, basis_state(16, 0))
    assert abs(out[1 << 15] - 1) < 1e-15


def _tensordot_reference(tensor, g, n):
    """g applied as one tensordot of gate_matrix(g) over the gate's axes."""
    k = len(g.qubits)
    mat = gate_matrix(g).reshape((2,) * (2 * k))
    axes = [n - 1 - q for q in g.qubits]
    return np.moveaxis(np.tensordot(mat, tensor, axes=(range(k, 2 * k), axes)),
                       range(k), axes)


def _every_gate(n):
    """Every gate kind, on every ordered qubit tuple of n qubits."""
    for kind, arity in GATE_ARITY.items():
        for qs in itertools.permutations(range(n), arity):
            yield Gate(kind, qs, angle=0.83 if kind == "Rz" else None)


def test_gate_step_is_bitwise_tensordot_of_gate_matrix():
    n = 4
    rng = np.random.default_rng(11)
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    tensor = (rng.normal(size=(2,) * n + (3,))
              + 1j * rng.normal(size=(2,) * n + (3,)))
    for g in _every_gate(n):
        expect = _tensordot_reference(state.reshape((2,) * n), g, n).reshape(2 ** n)
        assert np.array_equal(apply_circuit(Circuit(n, [g]), state), expect), g
        expect = _tensordot_reference(tensor, g, n)
        assert np.array_equal(_apply_gate(tensor.copy(), g, n), expect), g


def test_apply_circuit_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    kept = state.copy()
    c = Circuit(3)
    c.add("X", 0)
    c.add("CSWAP", 2, 0, 1)
    c.add("H", 1)
    for circuit in (c, Circuit(3), Circuit(3, global_phase=0.4)):
        out = apply_circuit(circuit, state)
        assert not np.shares_memory(out, state)
        assert np.array_equal(state, kept)
    assert np.array_equal(apply_circuit(Circuit(3), state), kept)
