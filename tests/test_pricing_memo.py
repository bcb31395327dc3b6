"""Pricing counts a Trotter step's structure (models._step_cost).

A price is the count that optimize(trotter_step(h, theta)) leaves at a
generic theta.  On a pruned sum in canonical order whose strings are
distinct, as _term_sum returns it, no merge walk merges (README, section
Optimizer).  So pricing runs the optimizer core with no merge pass, once
per (register, packed rows) until clear_price_cache(), and serves that
count to every later sum with those rows.  A count does not move when
theta times a coefficient puts one string's angle at 0 or 2pi mod 4pi,
where optimize() drops that Rz gate.

The memo's sums repeat strings: the core takes packed rows in any order,
repeats included, and a served count must be a cold run's on all of them.
Where the public path, count_resources(optimize(...)), drops no Rz gate,
the served count must also be the public path's.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qudenc import models, optimizer
from qudenc.circuits import _circuit, count_resources, trotter_step
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
    so that the public path drops an Rz gate on some sums and on others
    none."""
    n = rng.randint(1, 4)
    pool = [tuple((q, rng.choice("XYZ")) for q in range(n) if rng.random() < 0.6)
            for _ in range(rng.randint(1, 4))]
    strings = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
    first = [rng.choice(rng.choice((_LOOSE, _KEPT))) for _ in strings]
    second = [rng.choice(_LOOSE if c in _LOOSE else _KEPT) if rng.random() < 0.8
              else rng.choice(_LOOSE + _KEPT) for c in first]
    return tuple(PackedSum.pack(list(zip(strings, c)), n) for c in (first, second))


def _rz_gates(c) -> int:
    return sum(g.kind == "Rz" for g in c.gates)


def _full_run(h: PackedSum) -> tuple[bool, int]:
    """The public path on h's step at PRICING_THETA: whether it dropped an
    Rz gate, and its count."""
    step = _circuit(h, _THETA)
    out = optimizer.optimize(step)
    return _rz_gates(out) < _rz_gates(step), count_resources(out).entangling_total


def _served(first: PackedSum, second: PackedSum) -> int:
    """The count that pricing gives second after pricing first."""
    models.clear_price_cache()
    try:
        models._step_cost(first)
        return models._step_cost(second)
    finally:
        models.clear_price_cache()


def _cold(h: PackedSum) -> int:
    """The count that pricing gives h under an empty memo."""
    models.clear_price_cache()
    try:
        return models._step_cost(h)
    finally:
        models.clear_price_cache()


@pytest.mark.ci
@_examples(200)
@given(st.randoms(use_true_random=False))
def test_property_a_served_count_is_a_cold_runs(rng):
    first, second = _two_sums(rng)
    cost = _cold(first)
    assert _served(first, second) == _cold(second) == cost
    for h in (first, second):
        dropped_rz, public = _full_run(h)
        if not dropped_rz:
            assert public == cost


def test_the_sums_meet_runs_that_drop_an_rz_and_runs_that_keep_them():
    # The property above sees both: sums whose public run drops no Rz gate,
    # where the served count must be the public one, and sums whose public
    # run drops one, often to a count below the structure's.
    kept = dropped = below = 0
    for seed in range(300):
        for h in _two_sums(random.Random(seed)):
            dropped_rz, public = _full_run(h)
            kept += not dropped_rz
            dropped += dropped_rz
            below += public < _cold(h)
    assert kept > 50 and dropped > 250 and below > 100, (kept, dropped, below)


def _z0z1_twice(a: float, b: float) -> PackedSum:
    # CNOT01 Rz1(a) CNOT01 CNOT01 Rz1(b) CNOT01: the middle CNOTs cancel and
    # the Rz gates merge; the outer CNOTs cancel too when a + b drops.
    z0z1 = ((0, "Z"), (1, "Z"))
    return PackedSum.pack([(z0z1, a), (z0z1, b)], 2)


def _z0z1_x0x1(a: float, b: float) -> PackedSum:
    # CNOT01 Rz1(a) CNOT01 H0 H1 CNOT01 Rz1(b) CNOT01 H0 H1: the Hadamards
    # keep the CNOTs and the Rz gates apart, so nothing merges or cancels.
    return PackedSum.pack([(((0, "Z"), (1, "Z")), a), (((0, "X"), (1, "X")), b)], 2)


def test_a_sum_that_repeats_a_string_is_priced_unmerged():
    # Outside _step_cost's precondition: the public path merges the two Rz
    # gates, and cancels the outer CNOTs too when their sum drops.  Pricing
    # counts the structure, the two outer CNOTs, either way.
    first, second = _z0z1_twice(0.3, 0.5), _z0z1_twice(0.3, -0.3)
    assert (_full_run(first), _full_run(second)) == ((True, 2), (True, 0))
    assert _cold(first) == _cold(second) == _served(first, second) == 2


def test_a_loose_gate_leaves_the_count():
    # The same single string, its Rz kept and then dropped alone at 2pi by
    # the public path: pricing gives both the count of the kept one.
    z0z1 = ((0, "Z"), (1, "Z"))
    first = PackedSum.pack([(z0z1, 0.3)], 2)
    second = PackedSum.pack([(z0z1, math.pi / _THETA)], 2)
    assert (_full_run(first), _full_run(second)) == ((False, 2), (True, 0))
    assert _cold(second) == _served(first, second) == _served(second, first) == 2


def _distinct_sum(rng: random.Random) -> PackedSum:
    """A pruned sum in canonical order with distinct strings, as _term_sum
    returns it: up to 12 strings on one to five qubits, the identity among
    them at times, with real coefficients whose angles at PRICING_THETA,
    2 theta |c| <= 2.22, drop no gate."""
    n = rng.randint(1, 5)
    strings = {tuple((q, rng.choice("XYZ")) for q in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(1, 12))}
    coeffs = [rng.choice((-1, 1)) * rng.uniform(0.1, 3.0) for _ in strings]
    return PackedSum.pack(sorted(zip(strings, coeffs)), n).pruned()


@pytest.mark.ci
@_examples(100)
@given(st.randoms(use_true_random=False))
def test_property_distinct_strings_never_merge(rng):
    h = _distinct_sum(rng)
    step = trotter_step(h.unpack(), _THETA)
    out = optimizer.optimize(step)
    assert _rz_gates(out) == _rz_gates(step)  # no merge, no drop
    cost = _cold(h)
    assert count_resources(out).entangling_total == cost
    # One string's angle at 0 or 2pi mod 4pi, which optimize() drops alone.
    k = rng.randrange(len(h.re))
    re = h.re.copy()
    re[k] = rng.choice(_LOOSE)
    assert _cold(h._replace(re=re)) == cost


_HEISENBERG = models.ModelSpec(models.HEISENBERG, N=3, s=0.5)
_BOSE_HUBBARD = models.ModelSpec(models.BOSE_HUBBARD, N=2, d=2)


def _report(spec: models.ModelSpec, **params) -> models.SchemeReport:
    models.clear_price_cache()
    try:
        return models.compute_scheme_report(dataclasses.replace(spec, params=params))
    finally:
        models.clear_price_cache()


@pytest.mark.parametrize("spec, name, value", [
    (_HEISENBERG, "J", -4 * math.pi / _THETA),
    (_HEISENBERG, "J", -8 * math.pi / _THETA),
    (_BOSE_HUBBARD, "t", 2 * math.pi / _THETA),
    (_BOSE_HUBBARD, "t", 4 * math.pi / _THETA),
], ids=["heisenberg-J-4pi", "heisenberg-J-8pi", "bose_hubbard-t-2pi", "bose_hubbard-t-4pi"])
def test_an_energy_scale_that_puts_an_angle_at_a_drop_leaves_the_report(spec, name, value):
    # theta c lands a string's angle on 0 or 2pi mod 4pi, where optimize()
    # drops its Rz gate; the price is still the count at a generic theta.
    want, got = _report(spec, **{name: 1.0}), _report(spec, **{name: value})
    assert got.counts == want.counts
    assert got.scenario == want.scenario


def test_rows_with_the_same_bytes_and_another_shape_are_another_structure():
    # X0 X1 X2 X3 as one row of four codes, and X0 X1 and X2 X3 as two rows of
    # two: the same bytes, 6 CNOTs against 4.
    one = PackedSum(4, np.array([[1, 5, 9, 13]], np.intc), np.ones(1), np.zeros(1))
    two = PackedSum(4, np.array([[1, 5], [9, 13]], np.intc), np.ones(2), np.zeros(2))
    assert one.rows.tobytes() == two.rows.tobytes()
    assert _served(one, two) == _full_run(two)[1] == 4
    assert _served(two, one) == _full_run(one)[1] == 6


def test_a_hit_skips_the_core_and_the_public_paths_never_read_the_memo(monkeypatch):
    runs = []
    core = optimizer._optimize_ids

    def counted(*args):
        runs.append((len(args[3]), args[5] is None))  # gates, and a structure-only run
        return core(*args)

    monkeypatch.setattr(models, "_optimize_ids", counted)
    monkeypatch.setattr(optimizer, "_optimize_ids", counted)
    first, second = _z0z1_x0x1(0.3, 0.5), _z0z1_x0x1(0.7, 1.1)
    models.clear_price_cache()
    try:
        assert models._step_cost(first) == models._step_cost(second) == 4
        assert runs == [(10, True)]  # the second sum was served the stored count
        assert count_resources(optimizer.optimize(_circuit(second, _THETA))).entangling_total == 4
        assert runs == [(10, True), (10, False)]
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
    # loop: it rests on _loose (the vector form) agreeing with _dropped (the
    # walk's end).
    angles = _near_drops()
    merge = np.arange(len(angles))
    want = [i for i, a in enumerate(angles) if optimizer._dropped(a) != optimizer._KEEP]
    assert optimizer._loose(angles, merge).tolist() == want
    assert 0 < len(want) < len(angles)
    # and in another order, on a subset
    picked = merge[::-3]
    assert optimizer._loose(angles, picked).tolist() == [i for i in picked.tolist() if i in want]
