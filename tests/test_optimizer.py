"""Peephole optimizer: soundness of the commutation oracle and the passes."""

from array import array

import numpy as np
import pytest

from qudenc import optimizer
from qudenc.circuits import Circuit, Gate, count_resources
from qudenc.optimizer import commutes, optimize
from qudenc.simulator import circuit_to_unitary, verify_circuit_equivalence

_KINDS_1Q = ["X", "H", "BasisY", "S", "Sdg", "T", "Tdg", "Rz"]


def _u(g, n):
    return circuit_to_unitary(Circuit(n, [g]))


def _really_commute(a, b, n):
    ua, ub = _u(a, n), _u(b, n)
    return np.allclose(ua @ ub, ub @ ua, atol=1e-12)


def _random_gate(rng, n):
    kinds = _KINDS_1Q + ["CNOT", "SWAP", "CNOT", "CNOT"]
    if n >= 3:
        kinds = kinds + ["CSWAP"]
    kind = rng.choice(kinds)
    arity = {"CNOT": 2, "SWAP": 2, "CSWAP": 3}.get(kind, 1)
    qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
    angle = float(rng.uniform(-np.pi, np.pi)) if kind == "Rz" else None
    return Gate(kind, qubits, angle=angle)


def test_commutes_is_never_wrong():
    # The oracle may say False for commuting pairs (it is conservative) but
    # must never say True for a non-commuting pair.
    rng = np.random.default_rng(7)
    n = 4
    checked_true = 0
    for _ in range(2000):
        a, b = _random_gate(rng, n), _random_gate(rng, n)
        if commutes(a, b):
            checked_true += 1
            assert _really_commute(a, b, n), (a, b)
    assert checked_true > 200  # the oracle is not vacuously conservative


def test_commutes_specific_rules():
    # diagonal past CNOT control
    assert commutes(Gate("Rz", (0,), angle=0.3), Gate("CNOT", (0, 1)))
    assert not commutes(Gate("Rz", (1,), angle=0.3), Gate("CNOT", (0, 1)))
    # X past CNOT target
    assert commutes(Gate("X", (1,)), Gate("CNOT", (0, 1)))
    assert not commutes(Gate("X", (0,)), Gate("CNOT", (0, 1)))
    # CNOTs sharing a control
    assert commutes(Gate("CNOT", (0, 1)), Gate("CNOT", (0, 2)))
    # CNOTs sharing a target
    assert commutes(Gate("CNOT", (0, 2)), Gate("CNOT", (1, 2)))
    # overlapping in control/target roles: not commuting
    assert not commutes(Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)))
    # identical two-qubit gates commute with themselves
    assert commutes(Gate("SWAP", (0, 1)), Gate("SWAP", (1, 0)))
    assert commutes(Gate("CSWAP", (2, 0, 1)), Gate("CSWAP", (2, 1, 0)))
    # diagonal on the control of a CSWAP
    assert commutes(Gate("Rz", (2,), angle=0.4), Gate("CSWAP", (2, 0, 1)))
    assert not commutes(Gate("Rz", (0,), angle=0.4), Gate("CSWAP", (2, 0, 1)))


def test_cancel_inverse_pairs():
    c = Circuit(2)
    c.add("H", 0)
    c.add("H", 0)
    c.add("CNOT", 0, 1)
    c.add("CNOT", 0, 1)
    c.add("T", 1)
    c.add("Tdg", 1)
    out = optimize(c)
    assert len(out.gates) == 0
    assert verify_circuit_equivalence(c, out, tol=1e-12)


def test_cancel_across_commuting_separator():
    c = Circuit(2)
    c.add("CNOT", 0, 1)
    c.add("Rz", 0, angle=0.9)  # diagonal on control: commutes through
    c.add("CNOT", 0, 1)
    out = optimize(c)
    assert [g.kind for g in out.gates] == ["Rz"]
    assert verify_circuit_equivalence(c, out, tol=1e-12)


def test_merge_rotations():
    c = Circuit(1)
    c.add("Rz", 0, angle=0.3)
    c.add("Rz", 0, angle=0.5)
    out = optimize(c)
    assert len(out.gates) == 1
    assert abs(out.gates[0].angle - 0.8) < 1e-12
    assert verify_circuit_equivalence(c, out, tol=1e-12)


def test_merge_to_zero_drops_gate():
    c = Circuit(1)
    c.add("Rz", 0, angle=0.4)
    c.add("Rz", 0, angle=-0.4)
    assert len(optimize(c).gates) == 0


def test_merge_to_two_pi_becomes_global_phase():
    c = Circuit(1)
    c.add("Rz", 0, angle=np.pi)
    c.add("Rz", 0, angle=np.pi)
    out = optimize(c)
    assert len(out.gates) == 0
    # Rz(2*pi) = -I: recorded as a global phase of pi
    assert verify_circuit_equivalence(c, out, tol=1e-12)
    assert abs((out.global_phase - np.pi) % (2 * np.pi)) < 1e-12


def test_merge_past_the_float_range_raises_like_gate():
    c = Circuit(1, [Gate("Rz", (0,), 1e308), Gate("Rz", (0,), 1e308)])
    with pytest.raises(ValueError) as err:
        optimize(c)
    assert str(err.value) == "Rz angle must be a finite real number, got inf"
    # Pricing runs the core on ids and angles and builds no Gate from the
    # merged angle, so the merge itself must raise.
    gid, ids, rz = array("i", [0, 0]), {("Rz", (0,)): 0}, Gate("Rz", (0,), 0.0)
    with pytest.raises(ValueError) as err:
        optimizer._optimize_ids([rz, rz], *optimizer._link(gid, ids), gid, ids,
                                [1e308, 1e308], 0.0, 1)
    assert str(err.value) == "Rz angle must be a finite real number, got inf"


def test_drop_pairs_raises_instead_of_cycling():
    # Four H on one wire and the pair (0, 1).  owned also marks gate 2, which
    # is in no pair, so the pointer doubling reads jump at slots 6 and 9,
    # which no round writes; prefilled to point at each other, they cycle.
    gates = [Gate("H", (0,))] * 4
    nxt, prv, _, _ = optimizer._wire_chains(gates)
    owned = np.zeros(5, bool)
    owned[[0, 1, 2]] = True
    jump = np.zeros(12, np.intc)
    jump[6], jump[9] = 9, 6
    pair = np.array([0], np.intc), np.array([1], np.intc)
    with pytest.raises(RuntimeError, match="owned marks a gate outside the pairs"):
        optimizer._drop_pairs(*pair, list(gates), np.frombuffer(nxt, np.intc),
                              np.frombuffer(prv, np.intc), np.zeros(5, bool), owned, jump)


def test_cnot_triple_rewrite():
    c = Circuit(3)
    c.add("CNOT", 0, 1)
    c.add("CNOT", 1, 2)
    c.add("CNOT", 0, 1)
    out = optimize(c)
    assert len(out.gates) == 2
    assert verify_circuit_equivalence(c, out, tol=1e-12)


def test_optimize_never_grows(n_trials=300):
    rng = np.random.default_rng(11)
    for _ in range(n_trials):
        n = int(rng.integers(2, 6))
        c = Circuit(n)
        for _ in range(int(rng.integers(0, 14))):
            c.gates.append(_random_gate(rng, n))
        out = optimize(c)
        assert len(out.gates) <= len(c.gates)
        assert verify_circuit_equivalence(c, out, tol=1e-9)


def test_optimize_reaches_fixed_point():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        c = Circuit(n)
        for _ in range(10):
            c.gates.append(_random_gate(rng, n))
        once = optimize(c)
        twice = optimize(once)
        assert [g for g in twice.gates] == [g for g in once.gates]


def test_pass_config_validation():
    c = Circuit(1)
    c.add("Rz", 0, angle=0.2)
    c.add("Rz", 0, angle=0.2)
    for max_sweeps in (0, -1):
        with pytest.raises(ValueError, match="max_sweeps must be >= 1"):
            optimize(c, max_sweeps)
    assert len(optimize(c, 1).gates) == 1


def test_optimizer_reduces_entangling_on_structured_input():
    # mirrored CNOT ladders around a cancelled rotation collapse entirely
    c = Circuit(4)
    for i in range(3):
        c.add("CNOT", i, i + 1)
    c.add("Rz", 3, angle=0.5)
    c.add("Rz", 3, angle=-0.5)
    for i in reversed(range(3)):
        c.add("CNOT", i, i + 1)
    out = optimize(c)
    assert count_resources(out).entangling_total == 0
    assert verify_circuit_equivalence(c, out, tol=1e-12)
