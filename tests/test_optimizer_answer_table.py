"""The optimizer's answer table against the rule it tabulates.

Each step of a cancel or merge walk asks one question of a gate pair: walk
past it, stop, or cancel (optimizer._answer, from commutes and
_is_inverse_pair).  The core reads that answer from a table indexed by the
two kinds and an overlap code, which says which of b's wires are which of
a's.  The per-gate loops index it one pair at a time (_at), and the cancel
scan gathers it for many pairs at once in numpy, from each id's kind and
wire ranks (_answers).  Both must give _answer for every ordered pair of
gates over six wires, and again when the wires are relabelled onto indices
far beyond a C int.  A hypothesis property then holds optimize, on circuits
of every gate kind on such wires, to the per-gate loops and the whole-list
scan of tests/reference_optimizer.py.
"""

import itertools
import random
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudenc import optimizer
from qudenc.circuits import GATE_ARITY, Circuit, Gate
from qudenc.optimizer import _answer, _answers, _at, _id_tables, _link
from test_optimizer_reference import (_CAPS, _WIDE, _assert_same, _cancel_runs_checked,
                                      _examples, _random_circuit, _triple_circuit,
                                      _triple_runs_checked)


def _gate(kind: str, qubits: tuple) -> Gate:
    return Gate(kind, qubits, 0.3 if kind == "Rz" else None)


# Every gate of every kind over six wires: enough for two gates of up to
# three wires each to overlap in every way, or not at all.
_GATES = [_gate(kind, qubits) for kind, arity in GATE_ARITY.items()
          for qubits in itertools.permutations(range(6), arity)]


def _relabelled(gates: list[Gate], wire: dict) -> list[Gate]:
    return [Gate(g.kind, tuple(wire[q] for q in g.qubits), g.angle) for g in gates]


def _assert_table_answers(gates: list[Gate]) -> None:
    """The table's answer for every ordered pair of gates, one pair at a time
    and gathered for all pairs at once, equals _answer."""
    want = np.array([_answer(a, b) for a in gates for b in gates], np.int8)
    keys = [(g.kind, g.qubits) for g in gates]
    table = optimizer._answer_table()[1]
    one_by_one = [table[_at(a, b)] for a in keys for b in keys]
    assert one_by_one == want.tolist()
    ids = dict(zip(keys, range(len(keys))))
    gid = array("i", range(len(keys)))
    *_, wires = _link(gid, ids)
    a, b = np.divmod(np.arange(len(keys) ** 2), len(keys))
    assert np.array_equal(_answers(a, b, *_id_tables(keys, wires)), want)


def test_table_answers_every_gate_pair_over_six_wires():
    assert len(_GATES) == 8 * 6 + 2 * 30 + 120
    _assert_table_answers(_GATES)
    # Those pairs reach every filled entry, and only filled ones: 402 of
    # them, for the ways two gates of the 11 kinds can share wires.
    keys = [(g.kind, g.qubits) for g in _GATES]
    reached = {_at(a, b) for a in keys for b in keys}
    table = optimizer._answer_table()[0]
    assert reached == set(np.flatnonzero(table >= 0).tolist())
    assert len(reached) == 402


def test_table_answers_on_wide_relabelled_wires():
    # Injective maps of the six wires onto indices up to 2**70, in random
    # order, so that ranks, not indices, must carry the overlap.
    for seed in range(4):
        rng, wire = random.Random(seed), {}
        while len(wire) < 6:
            w = rng.randrange(2**70)
            if w not in wire.values():
                wire[len(wire)] = w
        _assert_table_answers(_relabelled(_GATES, wire))


def test_triple_rewrite_through_optimize_builds_the_validated_cnot():
    # CNOT(a, b) CNOT(b, c) CNOT(a, b) -> CNOT(a, c) CNOT(b, c) on wide
    # wires: optimize builds the new CNOT(a, c) from its id, through Gate.
    a, b, c = _WIDE, 3, 2**40 + 1
    gates = [Gate("CNOT", (a, b)), Gate("CNOT", (b, c)), Gate("CNOT", (a, b))]
    for cap in (1, 2, 50):
        out = _assert_same(Circuit(_WIDE + 1, gates), cap)
        assert out.gates == [Gate("CNOT", (a, c)), Gate("CNOT", (b, c))]
        assert type(out.gates[0]) is Gate and out.gates[1] is gates[1]


# Sparse wire indices: small ones and ones far beyond a C int.
_WIRES = st.lists(st.one_of(st.integers(0, 64), st.integers(2**31, 2**70)),
                  min_size=7, max_size=7, unique=True)


@pytest.mark.ci
@_examples(100)
@given(st.randoms(use_true_random=False), _WIRES)
def test_property_optimize_on_wide_wires_matches_the_per_gate_loops(rng, wires):
    # Random circuits of every gate kind, or circuits full of CNOT triples,
    # relabelled onto the drawn wires.  Every cancel and triple run is held
    # to the reference's per-gate loop, through the numpy scans in blocks of
    # four, and the output to the whole-list scan.
    c = (_triple_circuit if rng.random() < 0.5 else _random_circuit)(rng)
    wide = Circuit(max(wires) + 1, _relabelled(c.gates, dict(enumerate(wires))))
    with _cancel_runs_checked(), _triple_runs_checked():
        for cap in _CAPS:
            _assert_same(wide, cap)
