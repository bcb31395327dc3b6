"""Pricing's memo of Trotter-step structures (models._step_cost).

The optimizer core runs once per (register, packed rows) until
clear_price_cache(); a later sum with the same rows is served the stored
count when its loose gates are the stored ones and the stored merge log
replays on its angles to the same outcomes (optimizer._replay).  Whenever
a replay is accepted, a cold full run must drop the same gates and leave
the same count; and whatever the memo holds, the served count must be the
public path's, count_resources(optimize(...)).

Distinct strings in a Trotter step seldom bring two Rz gates together (no
merge in 1,000 seeded random sums of up to 12 distinct strings on up to 4
qubits), so the sums here repeat strings: the core takes packed rows in
any order, repeats included, and the memo must be exact on all of them.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudenc import models, optimizer
from qudenc.circuits import _circuit, _trotter_ids, count_resources
from qudenc.paulis import PackedSum
from test_optimizer_reference import _examples

_THETA = models.PRICING_THETA
# Coefficients whose angle 2 theta c is 2pi, 4pi or -2pi, so that a gate
# drops alone, and others in opposite pairs, so that merged sums drop.
_LOOSE = (math.pi / _THETA, 2 * math.pi / _THETA, -math.pi / _THETA)
_KEPT = (0.25, -0.25, 0.5, -0.5, 1.3)


def _two_sums(rng: random.Random) -> tuple[PackedSum, PackedSum]:
    """Two sums on one to four qubits with the same rows: up to 12 strings
    drawn from a pool of up to four.  The second sum's coefficient on a
    string is mostly one of the same kind as the first's (loose or kept),
    so that the loose gates often agree and the replay decides."""
    n = rng.randint(1, 4)
    pool = [tuple((q, rng.choice("XYZ")) for q in range(n) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 4))]
    strings = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    first = [rng.choice(rng.choice((_LOOSE, _KEPT))) for _ in strings]
    second = [rng.choice(_LOOSE if c in _LOOSE else _KEPT) if rng.random() < 0.8
              else rng.choice(_LOOSE + _KEPT) for c in first]
    return tuple(PackedSum.pack(list(zip(strings, c)), n) for c in (first, second))


def _full_run(h: PackedSum) -> tuple:
    """A cold run of the core on h's step: its angles as synthesized, its
    loose gates, merge log and dead mask, and the public path's count."""
    gid, ids, angles = _trotter_ids(h, _THETA)
    loose = optimizer._loose(angles, np.flatnonzero(optimizer._of_kind(gid, ids, ("Rz",))))
    log = []
    dead, _ = optimizer._optimize_ids(*optimizer._link(gid, ids), gid, ids, list(angles),
                                      0.0, optimizer.MAX_SWEEPS, log)
    cost = count_resources(optimizer.optimize(_circuit(h, _THETA))).entangling_total
    return angles, loose, log, dead, cost


def _served(first: PackedSum, second: PackedSum) -> int:
    """The count that pricing gives second after pricing first."""
    models.clear_price_cache()
    try:
        models._step_cost(first)
        return models._step_cost(second)
    finally:
        models.clear_price_cache()


@pytest.mark.ci
@_examples(200)
@given(st.randoms(use_true_random=False))
def test_property_an_accepted_replay_gives_the_full_runs_dead_mask(rng):
    first, second = _two_sums(rng)
    _, loose, log, dead, cost = _full_run(first)
    angles, s_loose, _, s_dead, s_cost = _full_run(second)
    if np.array_equal(loose, s_loose) and optimizer._replay(log, angles):
        assert s_dead == dead
        assert s_cost == cost
    assert _served(first, second) == s_cost


def test_the_sums_meet_merges_accepted_replays_and_refusals():
    # The property above sees every case: logged merges, replays of them
    # accepted, and replays refused.
    merged = accepted = refused = 0
    for seed in range(300):
        first, second = _two_sums(random.Random(seed))
        _, loose, log, _, _ = _full_run(first)
        angles, s_loose, *_ = _full_run(second)
        merges = sum(j >= 0 for _, j in log)
        merged += merges
        if np.array_equal(loose, s_loose):
            if optimizer._replay(log, angles):
                accepted += merges > 0
            else:
                refused += 1
    assert merged > 300 and accepted > 20 and refused > 20, (merged, accepted, refused)


def _z0z1_twice(a: float, b: float) -> PackedSum:
    # CNOT01 Rz1(a) CNOT01 CNOT01 Rz1(b) CNOT01: the middle CNOTs cancel and
    # the Rz gates merge; the outer CNOTs cancel too when a + b drops.
    z0z1 = ((0, "Z"), (1, "Z"))
    return PackedSum.pack([(z0z1, a), (z0z1, b)], 2)


def test_a_replay_whose_merged_sum_drops_is_refused():
    first, second = _z0z1_twice(0.3, 0.5), _z0z1_twice(0.3, -0.3)
    _, _, log, _, cost = _full_run(first)
    angles, *_, s_cost = _full_run(second)
    assert (cost, s_cost) == (2, 0)
    assert log == [(1, 4), (1, ~optimizer._KEEP)]
    assert not optimizer._replay(log, angles)
    assert _served(first, second) == 0


def test_a_sum_with_other_loose_gates_is_priced_afresh():
    # The same single string, its Rz kept and then dropped alone at 2pi: the
    # kept run logs nothing, so only the loose gates tell the two apart.
    z0z1 = ((0, "Z"), (1, "Z"))
    first = PackedSum.pack([(z0z1, 0.3)], 2)
    second = PackedSum.pack([(z0z1, math.pi / _THETA)], 2)
    assert _full_run(first)[2] == []
    assert _served(first, second) == _full_run(second)[4] == 0


def test_rows_with_the_same_bytes_and_another_shape_are_another_structure():
    # X0 X1 X2 X3 as one row of four codes, and X0 X1 and X2 X3 as two rows of
    # two: the same bytes, 6 CNOTs against 4.
    one = PackedSum(4, np.array([[1, 5, 9, 13]], np.intc), np.ones(1), np.zeros(1))
    two = PackedSum(4, np.array([[1, 5], [9, 13]], np.intc), np.ones(2), np.zeros(2))
    assert one.rows.tobytes() == two.rows.tobytes()
    assert _served(one, two) == _full_run(two)[4] == 4
    assert _served(two, one) == _full_run(one)[4] == 6


def test_a_hit_skips_the_core_and_the_public_paths_never_read_the_memo(monkeypatch):
    runs = []
    core = optimizer._optimize_ids

    def counted(*args):
        runs.append(len(args[3]))
        return core(*args)

    monkeypatch.setattr(models, "_optimize_ids", counted)
    first, second = _z0z1_twice(0.3, 0.5), _z0z1_twice(0.7, 1.1)
    models.clear_price_cache()
    try:
        assert models._step_cost(first) == models._step_cost(second) == 2
        assert runs == [6]  # the second sum replayed its log
        models._optimized_step(second, _THETA)
        assert runs == [6, 6]
    finally:
        models.clear_price_cache()


def test_clear_price_cache_empties_the_memo():
    models.clear_price_cache()
    models._step_cost(_z0z1_twice(0.3, 0.5))
    assert len(models._STEP_MEMO) == 1
    models.clear_price_cache()
    assert not models._STEP_MEMO


def test_replay_redoes_each_addition_with_the_walks_check():
    # A logged sum that overflows raises where the walk raised.
    with pytest.raises(ValueError, match="finite real"):
        optimizer._replay([(0, 1), (0, ~optimizer._KEEP)], [1.7e308, 1.7e308])
    # Each walk's end is tested on its own sum, merges in order.
    log = [(0, 1), (0, ~optimizer._AT_2PI), (2, ~optimizer._AT_0)]
    assert optimizer._replay(log, [math.pi, math.pi, 4 * math.pi])
    assert not optimizer._replay(log, [math.pi, math.pi, 2 * math.pi])
    assert not optimizer._replay(log, [math.pi, 0.5, 4 * math.pi])
