"""Pricing's memo of Trotter-step structures (models._step_cost).

The optimizer core runs once per (register, packed rows) until
clear_price_cache().  A run's count is stored only when the run dropped no
Rz gate, and it is served only to a later sum with the same rows and no
loose gate (one whose own angle drops it, optimizer._loose).  Whenever the
memo would serve, a cold full run must drop the same gates and leave the
same count; and whatever the memo holds, the served count must be the
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
    so that a stored first run often meets a second sum with no loose gate."""
    n = rng.randint(1, 4)
    pool = [tuple((q, rng.choice("XYZ")) for q in range(n) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 4))]
    strings = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    first = [rng.choice(rng.choice((_LOOSE, _KEPT))) for _ in strings]
    second = [rng.choice(_LOOSE if c in _LOOSE else _KEPT) if rng.random() < 0.8
              else rng.choice(_LOOSE + _KEPT) for c in first]
    return tuple(PackedSum.pack(list(zip(strings, c)), n) for c in (first, second))


def _full_run(h: PackedSum) -> tuple:
    """A cold run of the core on h's step: its loose gates, its dead mask,
    whether it dropped an Rz gate, and the public path's count."""
    gid, ids, angles = _trotter_ids(h, _THETA)
    rz = np.flatnonzero(optimizer._of_kind(gid, ids, ("Rz",)))
    loose = optimizer._loose(angles, rz)
    dead, _ = optimizer._optimize_ids(*optimizer._link(gid, ids), gid, ids, list(angles),
                                      0.0, optimizer.MAX_SWEEPS)
    dropped_rz = bool(np.frombuffer(dead, bool)[rz].any())
    cost = count_resources(optimizer.optimize(_circuit(h, _THETA))).entangling_total
    return loose, dead, dropped_rz, cost


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
def test_property_a_served_count_is_a_cold_runs(rng):
    first, second = _two_sums(rng)
    _, dead, dropped_rz, cost = _full_run(first)
    s_loose, s_dead, _, s_cost = _full_run(second)
    if not dropped_rz and not len(s_loose):
        assert s_dead == dead
        assert s_cost == cost
    assert _served(first, second) == s_cost


def test_the_sums_meet_stored_structures_hits_and_runs_that_drop_an_rz():
    # The property above sees every case: first runs stored, hits on them
    # (which need a second sum with no loose gate), and first runs that drop
    # an Rz gate and so are not stored.
    stored = hits = dropped = 0
    for seed in range(300):
        first, second = _two_sums(random.Random(seed))
        _, _, dropped_rz, _ = _full_run(first)
        s_loose, *_ = _full_run(second)
        dropped += dropped_rz
        stored += not dropped_rz
        hits += not dropped_rz and not len(s_loose)
    assert stored > 30 and hits > 30 and dropped > 100, (stored, hits, dropped)


def _z0z1_twice(a: float, b: float) -> PackedSum:
    # CNOT01 Rz1(a) CNOT01 CNOT01 Rz1(b) CNOT01: the middle CNOTs cancel and
    # the Rz gates merge; the outer CNOTs cancel too when a + b drops.
    z0z1 = ((0, "Z"), (1, "Z"))
    return PackedSum.pack([(z0z1, a), (z0z1, b)], 2)


def _z0z1_x0x1(a: float, b: float) -> PackedSum:
    # CNOT01 Rz1(a) CNOT01 H0 H1 CNOT01 Rz1(b) CNOT01 H0 H1: the Hadamards
    # keep the CNOTs and the Rz gates apart, so nothing merges or cancels.
    return PackedSum.pack([(((0, "Z"), (1, "Z")), a), (((0, "X"), (1, "X")), b)], 2)


def test_a_run_that_merges_is_not_stored():
    first, second = _z0z1_twice(0.3, 0.5), _z0z1_twice(0.3, -0.3)
    *_, cost = _full_run(first)
    s_loose, *_, s_cost = _full_run(second)
    assert (cost, s_cost) == (2, 0)
    assert not len(s_loose)  # only the merged sum drops
    models.clear_price_cache()
    try:
        assert models._step_cost(first) == 2
        assert not models._STEP_MEMO
    finally:
        models.clear_price_cache()
    assert _served(first, second) == 0


def test_a_sum_with_other_loose_gates_is_priced_afresh():
    # The same single string, its Rz kept and then dropped alone at 2pi: the
    # kept run is stored, and only the loose gate tells the two apart.
    z0z1 = ((0, "Z"), (1, "Z"))
    first = PackedSum.pack([(z0z1, 0.3)], 2)
    second = PackedSum.pack([(z0z1, math.pi / _THETA)], 2)
    assert not _full_run(first)[2]
    assert _served(first, second) == _full_run(second)[3] == 0


def test_rows_with_the_same_bytes_and_another_shape_are_another_structure():
    # X0 X1 X2 X3 as one row of four codes, and X0 X1 and X2 X3 as two rows of
    # two: the same bytes, 6 CNOTs against 4.
    one = PackedSum(4, np.array([[1, 5, 9, 13]], np.intc), np.ones(1), np.zeros(1))
    two = PackedSum(4, np.array([[1, 5], [9, 13]], np.intc), np.ones(2), np.zeros(2))
    assert one.rows.tobytes() == two.rows.tobytes()
    assert _served(one, two) == _full_run(two)[3] == 4
    assert _served(two, one) == _full_run(one)[3] == 6


def test_a_hit_skips_the_core_and_the_public_paths_never_read_the_memo(monkeypatch):
    runs = []
    core = optimizer._optimize_ids

    def counted(*args):
        runs.append(len(args[3]))
        return core(*args)

    monkeypatch.setattr(models, "_optimize_ids", counted)
    first, second = _z0z1_x0x1(0.3, 0.5), _z0z1_x0x1(0.7, 1.1)
    models.clear_price_cache()
    try:
        assert models._step_cost(first) == models._step_cost(second) == 4
        assert runs == [10]  # the second sum was served the stored count
        models._optimized_step(second, _THETA)
        assert runs == [10, 10]
    finally:
        models.clear_price_cache()


@pytest.mark.parametrize("spec, priced, core_runs", [
    (models.ModelSpec(models.BOSE_HUBBARD, N=2, d=6), 10, 7),
    (models.ModelSpec(models.SHIFTED_QHO, N=1, d=5), 18, 8),
], ids=["bose_hubbard-N2-d6", "shifted_qho-d5"])
def test_a_cold_report_runs_the_core_once_per_structure(monkeypatch, spec, priced, core_runs):
    steps, runs = [], []
    step_cost, core = models._step_cost, optimizer._optimize_ids

    def priced_step(h):
        steps.append(h)
        return step_cost(h)

    def counted(*args):
        runs.append(len(args[3]))
        return core(*args)

    monkeypatch.setattr(models, "_step_cost", priced_step)
    monkeypatch.setattr(models, "_optimize_ids", counted)
    models.clear_price_cache()
    try:
        models.compute_scheme_report(spec)
    finally:
        models.clear_price_cache()
    assert (len(steps), len(runs)) == (priced, core_runs)


def test_clear_price_cache_empties_the_memo():
    models.clear_price_cache()
    models._step_cost(_z0z1_x0x1(0.3, 0.5))
    assert len(models._STEP_MEMO) == 1
    models.clear_price_cache()
    assert not models._STEP_MEMO


def _near_drops() -> list[float]:
    """Angles within a few ANGLE_EPS of 0, +-2pi, +-4pi and 6pi, with the
    floats a few ulps either side of each, so that some land on the test's
    boundary exactly; -0.0; and large multiples of 2pi, where the remainder
    mod 4pi carries rounding error."""
    eps = optimizer.ANGLE_EPS
    centres = [k * optimizer.TWO_PI for k in (0, 1, -1, 2, -2, 3)]
    centres += [k * optimizer.TWO_PI for k in (10 ** 3, -10 ** 3, 10 ** 6, 2 ** 40, -(2 ** 40))]
    angles = [-0.0]
    for centre in centres:
        for off in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3):
            lo = hi = centre + off * eps
            angles.append(lo)
            for _ in range(4):
                lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
                angles += [float(lo), float(hi)]
    return angles


def test_loose_agrees_with_the_walks_drop_rule():
    # The merge scan leaves exactly the loose gates' walks to the per-gate
    # loop, and the memo serves only sums without one: both rest on _loose
    # (the vector form) agreeing with _dropped (the walk's end).
    angles = _near_drops()
    merge = np.arange(len(angles))
    want = [i for i, a in enumerate(angles) if optimizer._dropped(a) != optimizer._KEEP]
    assert optimizer._loose(angles, merge).tolist() == want
    assert 0 < len(want) < len(angles)
    # and in another order, on a subset
    picked = merge[::-3]
    assert optimizer._loose(angles, picked).tolist() == [i for i in picked.tolist() if i in want]
