"""The premises behind sharing answers and gates across a pricing circuit.

optimize() asks _is_inverse_pair and commutes once per pair of gate ids,
where an id numbers a gate's (kind, qubits), and reuses that answer for
every later meeting of the pair.  trotter_term puts one shared Gate at
every position that repeats a basis change or CNOT.  These tests pin what
makes both exact: the predicates never read an Rz angle, gates that act
alike under different ids still cancel, a rewritten gate takes the id of
its new qubits, capped sweeps stop where the reference stops, and the
shared staircase is the one Circuit.add builds.
"""

import itertools
import math
import random

import pytest

from qudenc import models
from qudenc.circuits import Circuit, Gate, trotter_step, trotter_term
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY
from qudenc.optimizer import _is_inverse_pair, commutes, optimize
from qudenc.paulis import string
from test_optimizer_reference import (_KINDS_1Q, _assert_same, _pricing_circuits,
                                      _random_circuit)

_ANGLES = (0.3, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
           4 * math.pi + 1e-13, 4 * math.pi - 1e-13)


def _at(g: Gate, angle: float) -> Gate:
    return Gate("Rz", g.qubits, angle) if g.kind == "Rz" else g


def test_predicates_ignore_rz_angles_on_every_gate_pair():
    n = 5
    gates = [Gate(k, (q,)) for k in _KINDS_1Q for q in range(n)]
    gates += [Gate("Rz", (q,), 0.3) for q in range(n)]
    gates += [Gate(k, (a, b)) for k in ("CNOT", "SWAP")
              for a in range(n) for b in range(n) if a != b]
    gates += [Gate("CSWAP", (c, a, b)) for c in range(n) for a in range(n)
              for b in range(n) if len({a, b, c}) == 3]
    pairs = 0
    for a in gates:
        for b in gates:
            if "Rz" not in (a.kind, b.kind):
                continue
            pairs += 1
            want = (commutes(a, b), _is_inverse_pair(a, b))
            for x in _ANGLES:
                for y in _ANGLES:
                    a2, b2 = _at(a, x), _at(b, y)
                    assert (commutes(a2, b2), _is_inverse_pair(a2, b2)) == want, (a2, b2)
    assert pairs == 2 * 5 * len(gates) - 5 * 5  # a or b is one of the five Rz


def test_commutes_is_symmetric_and_alike_for_inverse_partners():
    # A cancel run drops only a walker and the inverse partner it slid to.
    # Every gate the walker passed on the way commutes with it, so, by these
    # two premises, with the partner too: no drop of the run removes the gate
    # a later walk of the same run last stopped at.
    n = 4
    gates = [Gate(k, (q,)) for k in _KINDS_1Q for q in range(n)]
    gates += [Gate("Rz", (q,), angle) for q in range(n) for angle in (0.5, -0.5)]
    gates += [Gate(k, p) for k in ("CNOT", "SWAP") for p in itertools.permutations(range(n), 2)]
    gates += [Gate("CSWAP", p) for p in itertools.permutations(range(n), 3)]
    assert len(gates) == 84
    for a in gates:
        for b in gates:
            assert commutes(a, b) == commutes(b, a), (a, b)
    partners = [(a, b) for a in gates for b in gates if _is_inverse_pair(a, b)]
    assert len(partners) == 112
    for a, b in partners:
        for h in gates:
            assert commutes(a, h) == commutes(b, h), (a, b, h)


@pytest.mark.parametrize("gates, left", [
    ([Gate("CSWAP", (0, 1, 2)), Gate("CSWAP", (0, 2, 1))], []),
    ([Gate("SWAP", (0, 1)), Gate("SWAP", (1, 0))], []),
    # The triple rewrites to CNOT(0,2) CNOT(1,2), and the new CNOT(0,2)
    # slides past CNOT(1,2) (shared target) to cancel the last gate.
    ([Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (0, 1)),
      Gate("CNOT", (0, 2))], [Gate("CNOT", (1, 2))]),
], ids=["cswap-pair-reversed", "swap-pair-reversed", "rewritten-cnot-cancels"])
def test_gates_that_act_alike_under_other_ids(gates, left):
    assert _assert_same(Circuit(3, gates)).gates == left


@pytest.mark.parametrize("max_sweeps", [2, 3, 4])
def test_capped_sweeps_match_reference(max_sweeps):
    for seed in range(200):
        _assert_same(_random_circuit(random.Random(seed)), max_sweeps)
    capped = 0
    for c in _pricing_circuits(models.ModelSpec(models.BOSE_HUBBARD, N=2, d=6)):
        capped += _assert_same(c, max_sweeps).gates != optimize(c).gates
    assert capped  # the cap stopped some circuit short of its fixed point


def _staircase_via_add(h, theta: float) -> Circuit:
    """trotter_step as it was written before the gates were shared."""
    out = Circuit(h.n_qubits)
    for p, coeff in sorted(h.terms.items()):
        c_r = complex(coeff).real
        active = [q for q, _ in p]
        if not active:
            out.global_phase += -theta * c_r
            continue
        basis = [("H" if letter == "X" else "BasisY", q) for q, letter in p if letter != "Z"]
        for kind, q in basis:
            out.add(kind, q)
        for a, b in zip(active, active[1:]):
            out.add("CNOT", a, b)
        out.add("Rz", active[-1], angle=2.0 * theta * c_r)
        for a, b in reversed(list(zip(active, active[1:]))):
            out.add("CNOT", a, b)
        for kind, q in basis:
            out.add(kind, q)
    return out


@pytest.mark.parametrize("kind", [SB, GRAY, UNARY, BLOCK_UNARY])
def test_trotter_step_equals_the_staircase_built_through_add(kind):
    for spec in (models.ModelSpec(models.BOSE_HUBBARD, N=2, d=6),
                 models.ModelSpec(models.HEISENBERG, N=2, s=1.5)):
        for term in models.build_model(spec):
            h = models.encode_term(term, kind)
            got, want = trotter_step(h, 0.37), _staircase_via_add(h, 0.37)
            assert got.gates == want.gates
            assert got.global_phase == want.global_phase


def test_trotter_term_still_validates_what_it_does_not_share():
    p = string((0, "X"), (1, "Y"))
    with pytest.raises(ValueError, match="finite real"):
        trotter_term(p, 1.0, math.inf, 2)
    with pytest.raises(ValueError, match="outside the register"):
        trotter_term(p, 1.0, 0.1, 1)
    with pytest.raises(ValueError, match="non-real"):
        trotter_term(p, 1j, 0.1, 2)
