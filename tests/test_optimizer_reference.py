"""Differential tests: the per-wire optimizer against the whole-list reference.

reference_optimizer.py keeps the earlier optimizer, which scans the whole
gate list from every candidate.  The per-wire chains must change only how
fast the scans run, never what they find: gates and global phase have to
come out exactly equal, float for float.
"""

import hashlib
import itertools
import json
import math
import random
from array import array
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_optimizer as ref
from qudenc import models, optimizer
from qudenc.circuits import Circuit, Gate, count_resources, trotter_step
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY
from qudenc.optimizer import MAX_SWEEPS, _wire_chains, commutes, optimize
from qudenc.qudit_ops import BOSONIC

_KINDS_1Q = ("X", "H", "BasisY", "S", "Sdg", "T", "Tdg")
_INVERSE_1Q = {"T": "Tdg", "Tdg": "T", "S": "Sdg", "Sdg": "S"}
# Angles at the edges of the merge rule: Rz(pi) + Rz(pi) = -I, Rz(2pi),
# and 4pi +- 1e-13, which lands within eps of the period from either side.
_EDGE_ANGLES = (math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                4 * math.pi + 1e-13, 4 * math.pi - 1e-13)
# Sweep caps: the default, and caps that stop short of many fixed points.
_CAPS = (MAX_SWEEPS, 1, 2, 3)
_PASSES = ("_pass_cancel", "_pass_merge", "_pass_cnot_triple")
# A qubit index far above any C int: the chains must rank wires, not store them.
_WIDE = 8_589_934_593


def _examples(n: int) -> settings:
    """n examples, or more when the active hypothesis profile asks for more
    (the ci profile in conftest.py)."""
    return settings(max_examples=max(n, settings().max_examples), deadline=None)


def _assert_same(c: Circuit, max_sweeps: int = MAX_SWEEPS) -> Circuit:
    got, want = optimize(c, max_sweeps), ref.optimize(c, max_sweeps)
    assert got.gates == want.gates
    assert got.global_phase == want.global_phase
    assert got.n_qubits == want.n_qubits
    return got


def _angle(rng: random.Random) -> float:
    return rng.choice(_EDGE_ANGLES) if rng.random() < 0.5 else rng.uniform(-7, 7)


def _random_circuit(rng: random.Random) -> Circuit:
    """Random gates plus the shapes the passes look for: SWAP / CSWAP chains,
    CNOT triples with separators, and mirrored runs that cancel."""
    n = rng.randint(2, 7)
    c = Circuit(n)

    def wires(k):
        return tuple(rng.sample(range(n), k))

    size = rng.randint(4, 40)
    while len(c.gates) < size:
        shape = rng.random()
        if shape < 0.45:
            kind = rng.choice(_KINDS_1Q + ("Rz", "Rz", "CNOT", "CNOT", "SWAP")
                              + (("CSWAP",) if n >= 3 else ()))
            if kind == "Rz":
                c.gates.append(Gate("Rz", wires(1), _angle(rng)))
            else:
                arity = {"CNOT": 2, "SWAP": 2, "CSWAP": 3}.get(kind, 1)
                c.gates.append(Gate(kind, wires(arity)))
        elif shape < 0.6:
            pair = list(wires(2))
            for _ in range(rng.randint(2, 4)):
                rng.shuffle(pair)
                if n >= 3 and rng.random() < 0.5:
                    ctrl = rng.choice([q for q in range(n) if q not in pair])
                    c.gates.append(Gate("CSWAP", (ctrl, *pair)))
                else:
                    c.gates.append(Gate("SWAP", tuple(pair)))
        elif shape < 0.75 and n >= 3:
            a, b, cc = wires(3)
            c.gates.append(Gate("CNOT", (a, b)))
            if rng.random() < 0.5:
                c.gates.append(Gate("Rz", (rng.choice((a, cc)),), _angle(rng)))
            c.gates.append(Gate("CNOT", (b, cc)))
            c.gates.append(Gate("CNOT", (a, b)))
        elif c.gates:
            for g in reversed(c.gates[-rng.randint(1, 5):]):
                if g.kind == "Rz":
                    g = Gate("Rz", g.qubits, -g.angle)
                c.gates.append(Gate(_INVERSE_1Q.get(g.kind, g.kind), g.qubits, g.angle))
    return c


def _note_passes(monkeypatch) -> list:
    """Wrap the reference's passes so that each run appends (pass, whether
    it changed the circuit) to the returned list.  The passes run in a fixed
    order, so each sweep adds one entry per pass."""
    runs = []

    def noted(name, run):
        def wrapper(*args):
            out = run(*args)
            runs.append((name, bool(out[0] if isinstance(out, tuple) else out)))
            return out
        return wrapper

    for name in _PASSES:
        monkeypatch.setattr(ref, name, noted(name, getattr(ref, name)))
    return runs


def test_random_circuits_match_reference(monkeypatch):
    runs = _note_passes(monkeypatch)
    for seed in range(600):
        c = _random_circuit(random.Random(seed))
        for cap in _CAPS:
            _assert_same(c, cap)
    # every pass fired somewhere, so the comparison is not vacuous
    assert {name for name, fired in runs if fired} == set(_PASSES)


_LADDER_KINDS = ("X", "H", "BasisY", "S", "T", "CNOT")


def _nested_circuit(rng: random.Random, blocks: int | None = None) -> Circuit:
    """Rz pairs and CNOT triples with a mirrored ladder of blocking gates in
    a gap.  The cancel pass peels one rung of a ladder per sweep, so merge,
    the triple and the outer rungs fire sweeps after the first.  Some
    triples are followed by CNOT(a, c), which cancels only against the gate
    the rewrite made."""
    n = rng.randint(3, 6)
    gates: list[Gate] = []

    def ladder(w: int) -> list[Gate]:
        rungs = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_LADDER_KINDS)
            if kind == "CNOT":
                other = rng.choice([q for q in range(n) if q != w])
                rungs.append(Gate(kind, rng.choice(((w, other), (other, w)))))
            else:
                rungs.append(Gate(kind, (w,)))
        undo = [Gate(_INVERSE_1Q.get(g.kind, g.kind), g.qubits) for g in reversed(rungs)]
        return rungs + undo

    for _ in range(rng.randint(1, 4) if blocks is None else blocks):
        a, b, c = rng.sample(range(n), 3)
        if rng.random() < 0.6:
            gap = rng.randrange(2)
            steps = [Gate("CNOT", (a, b)), Gate("CNOT", (b, c)), Gate("CNOT", (a, b))]
            gates += steps[:gap + 1] + ladder(rng.choice((a, b, c))) + steps[gap + 1:]
            if rng.random() < 0.5:
                gates.append(Gate("CNOT", (a, c)))
        else:
            gates += [Gate("Rz", (a,), _angle(rng)), *ladder(a), Gate("Rz", (a,), _angle(rng))]
        if rng.random() < 0.3:
            gates.append(Gate(rng.choice(_KINDS_1Q), (rng.randrange(n),)))
    return Circuit(n, gates)


def test_late_sweep_rewrites_match_reference(monkeypatch):
    # Note each pass of the reference that changes the circuit in a sweep
    # after the first, so the comparison is known to cover late rewrites.
    runs, late = _note_passes(monkeypatch), {cap: set() for cap in _CAPS}
    for seed in range(400):
        c = _nested_circuit(random.Random(seed))
        for cap in _CAPS:
            runs.clear()
            _assert_same(c, cap)
            late[cap] |= {name for name, fired in runs[len(_PASSES):] if fired}
    for cap in _CAPS:
        assert late[cap] == (set(_PASSES) if cap > 1 else set()), cap


@_examples(100)
@given(st.randoms(use_true_random=False))
def test_property_late_sweep_rewrites_match_reference(rng):
    c = _nested_circuit(rng)
    for cap in _CAPS:
        _assert_same(c, cap)


def test_commutes_matches_reference_on_every_gate_pair():
    # Five wires cover every way two gates of up to three qubits can overlap.
    n = 5
    gates = [Gate(k, (q,)) for k in _KINDS_1Q for q in range(n)]
    gates += [Gate("Rz", (q,), angle) for q in range(n) for angle in (0.3, -0.3)]
    gates += [Gate(k, p) for k in ("CNOT", "SWAP")
              for p in itertools.permutations(range(n), 2)]
    gates += [Gate("CSWAP", p) for p in itertools.permutations(range(n), 3)]
    for a in gates:
        for b in gates:
            assert commutes(a, b) == ref.commutes(a, b), (a, b)


_PRICED_MODELS = (
    [models.ModelSpec(models.BOSE_HUBBARD, N=2, d=d) for d in (6, 8, 12)]
    + [models.ModelSpec(models.HEISENBERG, N=2, s=s) for s in (1.5, 3.5)]
    + [models.ModelSpec(models.SHIFTED_QHO, d=16)])


def _pricing_terms(spec: models.ModelSpec):
    """(term, code, augment) for each distinct price that pricing computes
    with a circuit, under all four codes, plus the augmented cutoff that
    pricing tries for SB / Gray."""
    d = spec.site_dim
    seen = set()
    for term in models.build_model(spec):
        if abs(term.coefficient) < models.COEFF_ZERO_TOL:
            continue  # priced at 0 without building a circuit
        for kind in (SB, GRAY, UNARY, BLOCK_UNARY):
            augments = (False, True) if (kind in (SB, GRAY) and spec.family == BOSONIC
                                         and d & (d - 1)) else (False,)
            for augment in augments:
                key = models._term_cache_key(term, kind, augment)
                if key not in seen:
                    seen.add(key)
                    yield term, kind, augment


def _pricing_circuits(spec: models.ModelSpec):
    """The Trotter circuit that the public path builds for each price."""
    for term, kind, augment in _pricing_terms(spec):
        h = models.encode_term(term, kind, augment=augment)
        yield trotter_step(h, models.PRICING_THETA)


def _spec_id(spec: models.ModelSpec) -> str:
    return f"{spec.model}-{spec.site_dim}"


@pytest.mark.parametrize("spec", _PRICED_MODELS, ids=_spec_id)
def test_packed_pricing_count_matches_the_public_path(spec):
    models.clear_price_cache()
    for (term, kind, augment), c in zip(_pricing_terms(spec), _pricing_circuits(spec)):
        want = count_resources(optimize(c)).entangling_total
        assert models.term_entangling_cost(term, kind, augment) == want, (term.label, kind)
    models.clear_price_cache()


# The reference optimizer takes about 12 s on the Bose-Hubbard d=12 pricing
# circuits, so its output there was recorded once, as digests (re-record
# with `PYTHONPATH=src python tests/test_optimizer_reference.py`).
_RECORDED = Path(__file__).resolve().parent / "reference_optimizer_recorded.json"
_RECORDED_IDS = ("bose_hubbard-12",)


def _digest(c: Circuit) -> str:
    """Exact: every gate tuple, the repr of every angle and of the phase."""
    text = "".join(f"{g.kind} {g.qubits} {g.angle!r}\n" for g in c.gates)
    return hashlib.sha256(f"{c.n_qubits}\n{text}{c.global_phase!r}".encode()).hexdigest()


@pytest.mark.parametrize("spec", _PRICED_MODELS, ids=_spec_id)
def test_pricing_circuits_match_reference(spec):
    circuits = list(_pricing_circuits(spec))
    assert circuits
    if _spec_id(spec) not in _RECORDED_IDS:
        for c in circuits:
            _assert_same(c)
        return
    recorded = json.loads(_RECORDED.read_text())[_spec_id(spec)]
    assert [_digest(c) for c in circuits] == [r["input"] for r in recorded]
    assert [_digest(optimize(c)) for c in circuits] == [r["output"] for r in recorded]


def _assert_same_chains(gates: list[Gate]) -> None:
    got, want = _wire_chains(gates), ref.wire_chains(gates)
    assert got[:3] == want[:3]  # nxt, prv, gid
    assert list(got[3].items()) == list(want[3].items())


def test_wire_chains_match_reference_on_random_circuits():
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        gates = _random_circuit(rng).gates
        kinds |= {g.kind for g in gates}
        _assert_same_chains(gates)
        # The same circuit on sparse, wide qubit indices links the same slots.
        wide = {q: rng.randrange(2**40) * 7 + q for q in range(7)}
        _assert_same_chains([Gate(g.kind, tuple(wide[q] for q in g.qubits), g.angle)
                             for g in gates])
    assert kinds == set(_KINDS_1Q) | {"Rz", "CNOT", "SWAP", "CSWAP"}


@pytest.mark.parametrize("gates", [
    [], [Gate("H", (0,))], [Gate("CSWAP", (2, 0, 1))], [Gate("Rz", (_WIDE,), 0.5)]],
    ids=["empty", "one-gate", "one-cswap", "one-wide"])
def test_wire_chains_match_reference_on_edge_circuits(gates):
    _assert_same_chains(gates)


@pytest.mark.parametrize("spec", _PRICED_MODELS, ids=_spec_id)
def test_wire_chains_match_reference_on_pricing_circuits(spec):
    for c in _pricing_circuits(spec):
        _assert_same_chains(c.gates)


@pytest.mark.parametrize("gates", [
    # no Rz: the merge list is empty
    [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (0, 1)),
     Gate("X", (2,)), Gate("CNOT", (0, 1)), Gate("H", (0,)), Gate("X", (2,))],
    # no CNOT: the triple list is empty
    [Gate("Rz", (0,), 0.4), Gate("H", (1,)), Gate("SWAP", (0, 1)), Gate("SWAP", (1, 0)),
     Gate("Rz", (0,), -0.4), Gate("H", (1,)), Gate("T", (0,))],
    # nothing but Rz: the cancel and triple lists are empty
    [Gate("Rz", (0,), math.pi), Gate("Rz", (1,), 0.3), Gate("Rz", (0,), math.pi),
     Gate("Rz", (1,), -0.3), Gate("Rz", (2,), 1.0)],
], ids=["no-rz", "no-cnot", "only-rz"])
def test_optimize_with_an_empty_kind_list(gates):
    for cap in _CAPS:
        _assert_same(Circuit(3, gates), cap)


def test_lazy_triple_run_walks_a_gate_that_its_rewrite_makes_due():
    # At cap 2 the second sweep's triple run is lazy.  Its first rewrite
    # drops the third CNOT of a triple, which is the witness of a later CNOT
    # that was not due when the run began; skipping it leaves 24 gates.
    half = [Gate("CNOT", (3, 0)), Gate("CNOT", (3, 1)), Gate("CNOT", (3, 1)),
            Gate("CNOT", (2, 0)), Gate("H", (0,)), Gate("CNOT", (2, 1)), Gate("CNOT", (2, 3)),
            Gate("Rz", (0,), 0.5), Gate("CNOT", (1, 0)), Gate("CNOT", (0, 3)),
            Gate("CNOT", (1, 2)), Gate("CNOT", (1, 0)), Gate("CNOT", (3, 2)),
            Gate("CNOT", (0, 3)), Gate("Rz", (0,), 0.5), Gate("H", (0,)), Gate("X", (1,)),
            Gate("CNOT", (3, 0)), Gate("X", (3,))]
    c = Circuit(4, half + half[::-1])
    for cap in _CAPS:
        _assert_same(c, cap)
    assert len(_assert_same(c, 2).gates) == 23


@contextmanager
def _triple_runs_checked(scan_min: int = 0, block: int = 4):
    """Hold every CNOT-triple run of optimize() to ref.triple_run, the
    per-gate loop, run on a copy of the run's state: the same answer, gates,
    chains, gate ids, witnesses and dead mask, and the gate where the numpy
    scan found the first rewrite is rewritten.  scan_min 0 sends every run
    through the scan, and a small block splits it into several scans.
    Yields a list that gets, for each run, whether it was lazy, how many of
    its due CNOTs were dropped ones, and the position among its live due
    CNOTs of the scan's first rewrite (None when it found none or did not
    run)."""
    run, scan, runs = optimizer._pass_cnot_triple, optimizer._triple_scan, []

    def scanned(due, *views):
        live, first = scan(due, *views)
        if first < len(live):
            runs[-1].update(first=runs[-1]["scanned"] + first, at=int(live[first]))
        runs[-1]["scanned"] += len(live)
        return live, first

    def checked(gates, due, lazy, cnots, nxt, prv, gid, ids, w1, w2, dead, views):
        state = (list(gates), array("i", due.tobytes()), cnots, array("i", nxt),
                 array("i", prv), array("i", gid), dict(ids), array("i", w1),
                 array("i", w2), bytearray(dead))
        want = ref.triple_run(*state)
        runs.append({"lazy": lazy, "dropped": sum(gates[i] is None for i in due),
                     "first": None, "scanned": 0})
        before = list(gates)
        got = run(gates, due, lazy, cnots, nxt, prv, gid, ids, w1, w2, dead, views)
        assert got == want
        assert (gates, nxt, prv, gid, w1, w2, dead) == tuple(state[i] for i in (0, 3, 4, 5, 7, 8, 9))
        assert list(ids.items()) == list(state[6].items())
        del runs[-1]["scanned"]
        if runs[-1]["first"] is not None:
            at = runs[-1].pop("at")
            assert gates[at] != before[at]
        return got

    with mock.patch.object(optimizer, "_pass_cnot_triple", checked), \
            mock.patch.object(optimizer, "_triple_scan", scanned), \
            mock.patch.object(optimizer, "_SCAN_MIN", scan_min), \
            mock.patch.object(optimizer, "_SCAN_BLOCK", block):
        yield runs


def _triple_circuit(rng: random.Random) -> Circuit:
    """Many CNOT triples (the nested circuits' blocks) among stray CNOTs and
    CNOT pairs that cancel, which leave dropped gates in the CNOT list."""
    c = _nested_circuit(rng, blocks=rng.randint(3, 8))
    gates = list(c.gates)
    for _ in range(rng.randint(0, 6)):
        at = rng.randint(0, len(gates))
        gates[at:at] = [Gate("CNOT", tuple(rng.sample(range(c.n_qubits), 2)))] * rng.randint(1, 2)
    return Circuit(c.n_qubits, gates)


def test_triple_scan_matches_the_per_gate_loop():
    with _triple_runs_checked() as runs:
        for seed in range(300):
            c = _triple_circuit(random.Random(seed))
            for cap in _CAPS:
                _assert_same(c, cap)
    # The scan found rewrites mid-run, beyond its first block, first in
    # lazy runs, and after dropped CNOTs in full runs, so the comparison
    # covers each case.
    assert any(r["first"] and not r["lazy"] for r in runs)
    assert any(r["first"] is not None and r["first"] >= 4 for r in runs)
    assert any(r["first"] == 0 and r["lazy"] for r in runs)
    assert any(r["first"] is not None and r["dropped"] and not r["lazy"] for r in runs)


@_examples(100)
@given(st.randoms(use_true_random=False))
def test_property_triple_scan_matches_the_per_gate_loop(rng):
    c = _triple_circuit(rng)
    with _triple_runs_checked():
        for cap in _CAPS:
            _assert_same(c, cap)


_TRIPLE = [Gate("CNOT", (0, 1)), Gate("CNOT", (1, 2)), Gate("CNOT", (0, 1))]


def test_triple_scan_rewrite_in_the_middle_of_a_full_run():
    # The first sweep's run: CNOT(0, 3) meets H, then the triple rewrites.
    c = Circuit(4, [Gate("CNOT", (0, 3)), Gate("H", (0,)), *_TRIPLE])
    with _triple_runs_checked() as runs:
        assert _assert_same(c, 1).gates == [Gate("CNOT", (0, 3)), Gate("H", (0,)),
                                            Gate("CNOT", (0, 2)), Gate("CNOT", (1, 2))]
    assert runs[0] == {"lazy": False, "dropped": 0, "first": 1}


def test_triple_scan_lazy_run_whose_first_due_cnot_rewrites():
    # H S Sdg H on wire c separates the triple in the first sweep.  The
    # second sweep's cancel drops the H pair, the triple's witness, so the
    # lazy run walks that CNOT first and rewrites it.
    ladder = [Gate("H", (2,)), Gate("S", (2,)), Gate("Sdg", (2,)), Gate("H", (2,))]
    c = Circuit(3, [_TRIPLE[0], *ladder, *_TRIPLE[1:]])
    with _triple_runs_checked() as runs:
        assert _assert_same(c, 2).gates == [Gate("CNOT", (0, 2)), Gate("CNOT", (1, 2))]
    assert [(r["lazy"], r["first"]) for r in runs] == [(False, None), (True, 0)]


def test_triple_scan_full_run_with_dropped_cnots_then_a_rewrite():
    # The cancelled CNOT(3, 4) pair leaves two dropped gates in the CNOT
    # list, so the full run's live CNOTs are fewer than the list.  It is
    # still a full run after its first rewrite: the second triple, whose
    # witnesses were never noted, is walked in the same sweep.
    c = Circuit(6, [Gate("CNOT", (3, 4)), Gate("CNOT", (3, 4)), *_TRIPLE,
                    Gate("CNOT", (3, 4)), Gate("CNOT", (4, 5)), Gate("CNOT", (3, 4))])
    for scan_min, block in ((0, 4), (0, 2), (optimizer._SCAN_MIN, 4)):
        with _triple_runs_checked(scan_min, block) as runs:
            got = _assert_same(c, 1)
        assert [g.qubits for g in got.gates] == [(0, 2), (1, 2), (3, 5), (4, 5)]
        assert runs[0]["dropped"] == 2 and not runs[0]["lazy"]


@contextmanager
def _cancel_runs_checked(scan_min: int = 0, block: int = 4):
    """Hold every cancel run of optimize() to ref.cancel_run, the per-gate
    loop, run on a copy of the run's state: the same answer, gates and dead
    mask, the same chains on every live gate's slots, the same stop for
    every gate left live (a gate dropped as a partner keeps whatever stop
    it had), and no gate left owned.  Then every dead gate's slots in the
    library's chains are overwritten with a value out of range
    (len(nxt) + 5), so that a later read of one fails or changes the
    output: a dead slot's old pointers depend on the order of the unlinks
    and are never read.  scan_min 0 sends every run through the numpy
    scan, and a small block splits it into several scans.

    Yields a list that gets, for each run: whether it was lazy, how many
    of its due gates were dropped ones, how many scans it made, the gates
    the scans settled at a blocking gate and at the end of their wires,
    the gates they left past the first step (walked), the pending pairs
    (walker, partner) of its scans, the pairs each _drop_pairs call that
    had any dropped (applied, one list per call), and the longest run of
    pending slots on one wire at each such call (longest)."""
    run, scan, pending, drop_pairs = (optimizer._pass_cancel, optimizer._cancel_scan,
                                      optimizer._pending, optimizer._drop_pairs)
    due_of, runs, full = optimizer._due, [], []

    def noted(todo, gone, is_full, *witnesses):
        full[:] = [is_full]  # the cancel run follows its _due call
        return due_of(todo, gone, is_full, *witnesses)

    def scanned(due, gates, memo, nxt, gid, gone, stop):
        live = due[~gone[due]]
        go, first, answer = scan(due, gates, memo, nxt, gid, gone, stop)
        assert np.array_equal(first, stop[go])
        settled = np.setdiff1d(live, go)
        off = stop[settled] == len(gone) - 1
        r = runs[-1]
        r["scans"] += 1
        r["blocked"] += settled[~off].tolist()
        r["ran_off"] += settled[off].tolist()
        r["walked"] += go.tolist()
        return go, first, answer

    def pended(go, first, answer, owned):
        walkers, partners = pending(go, first, answer, owned)
        runs[-1]["pending"] += zip(walkers.tolist(), partners.tolist())
        return walkers, partners

    def dropped(walkers, partners, gates, nxt, prv, gone, owned, jump):
        if not len(walkers):
            return drop_pairs(walkers, partners, gates, nxt, prv, gone, owned, jump)
        runs[-1]["applied"].append(list(zip(walkers.tolist(), partners.tolist())))
        longest = 0
        for s in np.flatnonzero(np.repeat(owned[:-1], 3)).tolist():
            if prv[s] < 0 or not owned[prv[s] // 3]:  # the head of a run
                length = 1
                while nxt[s] < len(nxt) and owned[nxt[s] // 3]:
                    s, length = nxt[s], length + 1
                longest = max(longest, length)
        runs[-1]["longest"].append(longest)
        return drop_pairs(walkers, partners, gates, nxt, prv, gone, owned, jump)

    def checked(gates, due, nxt, prv, gid, memo, stop, dead, owned, views):
        state = (list(gates), array("i", due.tobytes()), array("i", nxt), array("i", prv),
                 array("i", gid), dict(memo), array("i", stop), bytearray(dead))
        want = ref.cancel_run(*state)
        runs.append({"lazy": not full[0], "dropped": sum(gates[i] is None for i in due), "scans": 0,
                     "blocked": [], "ran_off": [], "walked": [], "pending": [],
                     "applied": [], "longest": []})
        got = run(gates, due, nxt, prv, gid, memo, stop, dead, owned, views)
        assert got == want
        assert (gates, dead) == (state[0], state[7])
        live = [i for i, g in enumerate(gates) if g is not None]
        slots = [3 * i + s for i in live for s in range(3)]
        assert [nxt[s] for s in slots] == [state[2][s] for s in slots]
        assert [prv[s] for s in slots] == [state[3][s] for s in slots]
        assert [stop[i] for i in live] == [state[6][i] for i in live]
        assert not any(owned)
        poison = len(nxt) + 5
        for i in set(range(len(gates))).difference(live):
            nxt[3 * i:3 * i + 3] = prv[3 * i:3 * i + 3] = array("i", [poison] * 3)
        return got

    with mock.patch.object(optimizer, "_pass_cancel", checked), \
            mock.patch.object(optimizer, "_cancel_scan", scanned), \
            mock.patch.object(optimizer, "_pending", pended), \
            mock.patch.object(optimizer, "_drop_pairs", dropped), \
            mock.patch.object(optimizer, "_due", noted), \
            mock.patch.object(optimizer, "_SCAN_MIN", scan_min), \
            mock.patch.object(optimizer, "_SCAN_BLOCK", block):
        yield runs


def _cancel_circuit(rng: random.Random) -> Circuit:
    """A random circuit with runs of T, Tdg, S and Sdg on one wire added,
    half of them relabelled onto qubit indices far beyond a C int."""
    c = _random_circuit(rng)
    gates = list(c.gates)
    for _ in range(rng.randint(1, 4)):
        q, at = rng.randrange(c.n_qubits), rng.randint(0, len(gates))
        gates[at:at] = [Gate(rng.choice(("T", "Tdg", "S", "Sdg")), (q,))
                        for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.5:
        wide = {q: rng.randrange(2**40) * 7 + q for q in range(c.n_qubits)}
        gates = [Gate(g.kind, tuple(wide[q] for q in g.qubits), g.angle) for g in gates]
        return Circuit(max(wide.values()) + 1, gates)
    return Circuit(c.n_qubits, gates)


def test_cancel_scan_matches_the_per_gate_loop():
    kinds = set()
    with _cancel_runs_checked() as runs:
        for seed in range(300):
            c = _cancel_circuit(random.Random(seed))
            kinds |= {g.kind for g in c.gates}
            for cap in _CAPS:
                _assert_same(c, cap)
    assert kinds == set(_KINDS_1Q) | {"Rz", "CNOT", "SWAP", "CSWAP"}
    # The scans settled walks at a blocking gate and at the end of their
    # wires and left others to the loop, in full and lazy runs, in runs of
    # several blocks, and in full runs whose list holds dropped gates.
    for key in ("blocked", "ran_off", "walked"):
        assert any(r[key] and r["lazy"] for r in runs), key
        assert any(r[key] and not r["lazy"] for r in runs), key
    assert any(r["scans"] > 1 for r in runs)
    assert any(r["dropped"] and not r["lazy"] and r["blocked"] for r in runs)
    # Pending pairs were dropped, and conflicts released some, in both.
    for lazy in (False, True):
        assert any(r["applied"] and r["lazy"] == lazy for r in runs), lazy
        assert any(_released(r) and r["lazy"] == lazy for r in runs), lazy


def _released(run: dict) -> list:
    """The pending pairs of a cancel run that a conflict released."""
    applied = {pair for call in run["applied"] for pair in call}
    return [pair for pair in run["pending"] if pair not in applied]


@_examples(100)
@given(st.randoms(use_true_random=False))
def test_property_cancel_scan_matches_the_per_gate_loop(rng):
    c = _cancel_circuit(rng)
    with _cancel_runs_checked():
        for cap in _CAPS:
            _assert_same(c, cap)


def test_cancel_scan_leaves_a_walk_whose_partner_an_earlier_walker_takes():
    # The second T's first neighbour is the Tdg, so the scan leaves it to
    # the loop; there the first T takes the Tdg, and the second T walks on
    # to the H and stops there.
    c = Circuit(1, [Gate("T", (0,)), Gate("T", (0,)), Gate("Tdg", (0,)), Gate("H", (0,))])
    with _cancel_runs_checked() as runs:
        assert _assert_same(c, 1).gates == [Gate("T", (0,)), Gate("H", (0,))]
    assert runs[0]["walked"] == [0, 1] and runs[0]["blocked"] == [2]


def test_cancel_scan_settles_a_walk_that_an_earlier_walker_then_drops():
    # The scan settles the second H, blocked by the CNOT; the first H then
    # cancels it, and the pass goes on as if it had never been settled.
    c = Circuit(2, [Gate("H", (0,)), Gate("H", (0,)), Gate("CNOT", (0, 1))])
    with _cancel_runs_checked() as runs:
        for cap in _CAPS:
            assert _assert_same(c, cap).gates == [Gate("CNOT", (0, 1))]
    assert runs[0]["walked"] == [0] and 1 in runs[0]["blocked"]


def test_cancel_scan_walk_that_blocks_on_the_first_gate_of_the_next_block():
    # In blocks of four, the H on wire 0 closes the first block and is
    # blocked by the S that opens the second.  S and Sdg cancel in the
    # second block, so the next sweep walks that H again and it cancels
    # with the last H.
    c = Circuit(4, [Gate("X", (1,)), Gate("H", (2,)), Gate("S", (3,)), Gate("H", (0,)),
                    Gate("S", (0,)), Gate("Sdg", (0,)), Gate("H", (0,))])
    with _cancel_runs_checked() as runs:
        assert _assert_same(c, 1).gates == [*c.gates[:4], c.gates[6]]
        assert _assert_same(c).gates == c.gates[:3]
    first = runs[0]
    assert first["scans"] == 2 and 3 in first["blocked"] and 4 in first["walked"]


def test_cancel_pending_pair_then_an_owned_partner_then_a_loop_cancel():
    # H, H, H, H on one wire: every walk cancels with its first neighbour.
    # The first H is pending with the second, the second is skipped as
    # owned, and the third, the partner of the second's walk, is walked by
    # the loop and cancels the fourth.
    c = Circuit(1, [Gate("H", (0,))] * 4)
    with _cancel_runs_checked() as runs:
        assert _assert_same(c, 1).gates == []
    assert runs[0]["pending"] == [(0, 1)] and runs[0]["applied"] == [[(0, 1)]]
    assert runs[0]["walked"] == [0, 1, 2]


def test_cancel_conflict_drops_the_early_pairs_and_releases_the_later_ones():
    # T, T, Tdg on wire 0, between H pairs on wires 1 and 2, all in one
    # block.  The scan makes (0, 1), (3, 4) and (5, 6) pending; the loop's
    # walk from the first T passes the second and takes the Tdg, a gate of
    # the pending pair (3, 4).  So the pair before that walk is dropped,
    # the two after it are released, and the rest of the block is walked
    # gate by gate: the first T takes the Tdg and the last H pair cancels.
    c = Circuit(3, [Gate("H", (1,)), Gate("H", (1,)), Gate("T", (0,)), Gate("T", (0,)),
                    Gate("Tdg", (0,)), Gate("H", (2,)), Gate("H", (2,))])
    with _cancel_runs_checked(block=8) as runs:
        assert _assert_same(c, 1).gates == [Gate("T", (0,))]
    first = runs[0]
    assert first["scans"] == 1 and first["pending"] == [(0, 1), (3, 4), (5, 6)]
    assert first["applied"] == [[(0, 1)]] and _released(first) == [(3, 4), (5, 6)]


def test_cancel_pending_pairs_relinked_by_pointer_doubling():
    # Sixteen pending pairs side by side on wire 0, H pairs and BasisY
    # pairs in turn (neither cancels nor passes the other), among stray
    # gates on wire 1: one run of 32 pending slots, whose tail the head
    # reaches in five doubling steps.
    pairs = [Gate(("H", "BasisY")[t % 2], (0,)) for t in range(16) for _ in range(2)]
    c = Circuit(2, [Gate("X", (1,)), *pairs[:7], Gate("T", (1,)), *pairs[7:], Gate("S", (0,))])
    with _cancel_runs_checked(block=64) as runs:
        assert _assert_same(c, 1).gates == [Gate("X", (1,)), Gate("T", (1,)), Gate("S", (0,))]
    first = runs[0]
    assert first["scans"] == 1 and len(first["pending"]) == 16
    assert first["longest"] == [32]


def test_cancel_pending_partner_in_the_next_block():
    # In blocks of four, the H on wire 0 that closes the first block is
    # pending with the H that opens the second.  The pair is dropped at the
    # end of the first block, so the second block's scan leaves the partner
    # out, and the third H stays.
    c = Circuit(4, [Gate("X", (1,)), Gate("X", (2,)), Gate("X", (3,)), Gate("H", (0,)),
                    Gate("H", (0,)), Gate("H", (0,)), Gate("S", (1,))])
    with _cancel_runs_checked() as runs:
        assert _assert_same(c, 1).gates == [*c.gates[:3], Gate("H", (0,)), Gate("S", (1,))]
    first = runs[0]
    assert first["scans"] == 2 and first["applied"] == [[(3, 4)]]
    assert 4 not in first["walked"] + first["blocked"] + first["ran_off"]


def test_optimize_on_qubit_indices_beyond_c_int():
    q = _WIDE
    c = Circuit(q + 1, [Gate("H", (q,)), Gate("CNOT", (q, 3)),
                        Gate("CNOT", (q, 3)), Gate("H", (q,))])
    assert _assert_same(c).gates == []


_qubit_lists = st.lists(st.integers(0, 5), min_size=3, max_size=3, unique=True)
_gates = st.one_of(
    st.builds(lambda k, q: Gate(k, tuple(q[:1])), st.sampled_from(_KINDS_1Q), _qubit_lists),
    st.builds(lambda a, q: Gate("Rz", tuple(q[:1]), a),
              st.one_of(st.sampled_from(_EDGE_ANGLES),
                        st.floats(-20, 20, allow_nan=False)), _qubit_lists),
    st.builds(lambda k, q: Gate(k, tuple(q[:2])), st.sampled_from(("CNOT", "SWAP")),
              _qubit_lists),
    st.builds(lambda q: Gate("CSWAP", tuple(q)), _qubit_lists))


@_examples(200)
@given(st.lists(_gates, max_size=30))
def test_property_optimize_matches_reference(gates):
    _assert_same(Circuit(6, gates))


def record() -> None:
    recorded = {}
    for spec in _PRICED_MODELS:
        if _spec_id(spec) in _RECORDED_IDS:
            recorded[_spec_id(spec)] = [
                {"input": _digest(c), "output": _digest(ref.optimize(c))}
                for c in _pricing_circuits(spec)]
    _RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    record()
