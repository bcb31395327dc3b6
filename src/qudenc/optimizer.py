"""Peephole circuit optimization with commutation-aware gate motion.

Staircase circuits for consecutive Pauli terms share structure: basis
changes undo each other, CNOT ladders overlap, and Rz rotations on the
same wire merge.  Three passes exploit this:

  cancel_inverse_pairs   remove g, g^-1 separated only by gates that
                         provably commute with g
  merge_rotations        fuse Rz angles on a wire (again across commuting
                         separators); a fused angle of 0 mod 2pi drops the
                         gate, with Rz(2pi) = -I feeding the global phase
  cnot_triple_rewrite    CNOT(a,b) CNOT(b,c) CNOT(a,b) -> CNOT(a,c) CNOT(b,c)

The commutation predicate is deliberately conservative: it answers True
only for cases it can prove (disjoint supports, diagonal-diagonal,
diagonal on a control, X on a target, CNOTs sharing a control or sharing a
target, and so on) and False otherwise.  A False merely blocks a
rewrite; it never produces a wrong one.  The passes run in this order,
sweep after sweep, until a sweep changes nothing or max_sweeps sweeps
have run, so the result never has more gates than the input.

Gates on disjoint wires always commute and never cancel or merge, so the
forward scan from a candidate only needs the gates that share one of its
wires (the per-wire view of Nam, Ross, Su, Childs & Maslov, npj Quantum
Inf. 4, 23 (2018)).  optimize() links every gate to its neighbours on
each wire once, keeps those chains up to date as gates are removed or
rewired, and scans along them: a one-wire gate walks its wire, a wider
gate walks its wires merged by position, and the CNOT-triple rewrite
finds its partners in a few lookups.  Candidates and the gates each scan
meets come in the same order as in a scan over the whole list, so the
output is the same; the cost is set by the gates that share wires, not by
the length of the circuit.

A walk's answer for a gate pair (pass, stop or cancel) reads only kinds
and qubits, so optimize() asks the predicates once per pair of distinct
(kind, qubits): a narrow register meets a few hundred pairs a million times.

Nested ladders unwind one layer per sweep, and most walks of a later sweep
repeat their last answer.  So each walk notes the gate where it stopped,
and from a pass's second run on a gate is walked again only if that gate
has since been dropped: cancel and merge note the blocking gate, the
CNOT-triple check the next gate on {a, b} and then the gate before g2 on
wire c or the third gate.  That is exact: between two runs of a pass the
only changes are drops, and a drop among the gates a walk passed over
leaves the gate it stops at, and the answer there, as they were.  The
triple rewrite is the one change that moves a slot onto another wire or
gives a gate new qubits, so every pass walks every gate in the next
sweep after a rewrite.

Each pass loops over its own index list: cancel over the non-Rz gates,
merge over the Rz gates, the CNOT-triple check over the CNOTs.  The lists
are built once and, from sweep 2 on, filtered to live gates before each
pass.  No list ever needs a new entry, because no rewrite changes a kind:
the triple rewrite keeps a CNOT a CNOT and a merge keeps an Rz an Rz.  A
pass still skips a gate that an earlier gate of the same run dropped.

The chains come from a table of each distinct (kind, qubits)'s wires,
held as dense ranks so that a qubit index may be any non-negative int:
numpy gathers the table by gate id, sorts the slots by wire and links
neighbours, and numbering the gates is the one Python loop over them.
That adds a fixed cost of some tens of microseconds per call.  On the
report benchmark (BENCH_16.json, shared 2-vCPU host) the lists and the
chain build cut the traced self time of optimize() from 1.26 s to 0.95 s
(0.75x) and pass_s to 0.86x, with the same output.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .circuits import Circuit, Gate

_DIAGONAL_1Q = frozenset(("Rz", "T", "Tdg", "S", "Sdg"))
# kind -> kind of its inverse; Rz has none (rotations merge instead)
_INVERSE_KIND = {"X": "X", "H": "H", "BasisY": "BasisY", "CNOT": "CNOT",
                 "SWAP": "SWAP", "CSWAP": "CSWAP",
                 "T": "Tdg", "Tdg": "T", "S": "Sdg", "Sdg": "S"}
ANGLE_EPS = 1e-12
TWO_PI = 2.0 * math.pi
MAX_SWEEPS = 50
_PAD = (-1, -1, -1)


def commutes(a: Gate, b: Gate) -> bool:
    """Conservative: True only when commutation is provable."""
    ka, kb, qa, qb = a.kind, b.kind, a.qubits, b.qubits
    if set(qa).isdisjoint(qb):
        return True
    if ka == kb and a.angle == b.angle and _same_action(a, b):
        return True
    if ka in _DIAGONAL_1Q:
        if kb in _DIAGONAL_1Q:
            return True
        # diagonal on a control wire; on a CNOT target it anticommutes
        return (kb == "CNOT" or kb == "CSWAP") and qa[0] == qb[0]
    if kb in _DIAGONAL_1Q:
        return (ka == "CNOT" or ka == "CSWAP") and qb[0] == qa[0]
    if ka == "X":
        return kb == "CNOT" and qa[0] == qb[1]  # X slides over a target
    if kb == "X":
        return ka == "CNOT" and qb[0] == qa[1]
    if ka == "CNOT" and kb == "CNOT":
        shared_control = qa[0] == qb[0]
        shared_target = qa[1] == qb[1]
        if shared_control and not shared_target:
            return qa[1] != qb[0] and qb[1] != qa[0]
        if shared_target and not shared_control:
            return True
        return shared_control and shared_target
    if ka == "CSWAP" and kb == "CSWAP":
        if qa[0] == qb[0]:
            return not (set(qa[1:]) & set(qb[1:]))
        return False
    if {ka, kb} == {"CNOT", "CSWAP"}:
        cn, cs = (qa, qb) if ka == "CNOT" else (qb, qa)
        # CNOT controlled by the CSWAP's control, acting off its swap pair.
        return cn[0] == cs[0] and cn[1] not in cs[1:]
    return False


def _same_action(a: Gate, b: Gate) -> bool:
    """Same gate up to argument-order symmetry (SWAP pair, CSWAP pair)."""
    if a.kind != b.kind:
        return False
    if a.kind == "SWAP":
        return set(a.qubits) == set(b.qubits)
    if a.kind == "CSWAP":
        return a.qubits[0] == b.qubits[0] and set(a.qubits[1:]) == set(b.qubits[1:])
    return a.qubits == b.qubits


def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    if _INVERSE_KIND.get(a.kind) != b.kind:
        return False
    return _same_action(a, b) if a.kind == b.kind else a.qubits == b.qubits


def _wire_chains(gates: list[Gate]) -> tuple[array, array, array, dict]:
    """Doubly linked per-wire chains over fixed gate positions, and gate ids.

    Gate i owns slot 3*i + s for its s-th qubit.  nxt[slot] is the slot of
    the next live gate on that wire (len(nxt) when there is none) and
    prv[slot] the previous one (-1 when there is none).  Slots are C ints:
    a list of 700 million gates would not fit in memory long before 3*i
    overflows them.  gid[i] numbers gate i's (kind, qubits) in ids, the
    only fields the walks' answers read.

    Numbering the gates is the one Python loop over them.  A table gives
    each id's wires, and numpy gathers it by gid, sorts the slots by wire
    (stable, so each wire keeps gate order) and links equal neighbours.
    """
    ids: dict[tuple, int] = {}
    gid = array("i", [ids.setdefault((g.kind, g.qubits), len(ids)) for g in gates])
    # Row r holds the wires of id r as dense ranks, padded with -1: a qubit
    # index may be any non-negative int, but a rank always fits a C int.
    rank: dict[int, int] = {}
    table = array("i")
    for _, qubits in ids:
        table.extend([rank.setdefault(q, len(rank)) for q in qubits])
        table.extend(_PAD[len(qubits):])
    # Cell s of row i in the n x 3 grid is slot 3*i + s.
    wire = np.frombuffer(table, np.intc).reshape(-1, 3)[np.frombuffer(gid, np.intc)].ravel()
    slots = np.flatnonzero(wire >= 0).astype(np.intc)
    wire = wire[slots]
    slots = slots[np.argsort(wire, kind="stable")]  # by wire, in gate order
    wire.sort()
    same = wire[1:] == wire[:-1]
    before, after = slots[:-1][same], slots[1:][same]
    del wire, slots, same  # before nxt and prv exist, to keep the peak low
    end = 3 * len(gates)
    nxt = array("i", [end]) * end
    prv = array("i", [-1]) * end
    np.frombuffer(nxt, np.intc)[before] = after
    np.frombuffer(prv, np.intc)[after] = before
    return nxt, prv, gid, ids


def _kind_lists(gid: array, ids: dict) -> tuple[array, array, array]:
    """The indices of the non-Rz, the Rz and the CNOT gates, in gate order:
    the gates that cancel, merge and the CNOT-triple check walk."""
    g = np.frombuffer(gid, np.intc)
    rz = np.array([kind == "Rz" for kind, _ in ids], bool)[g]
    cnot = np.array([kind == "CNOT" for kind, _ in ids], bool)[g]
    return tuple(array("i", np.flatnonzero(m).astype(np.intc).tobytes())
                 for m in (~rz, rz, cnot))


def _live(gates: list[Gate | None], todo: array) -> array:
    """The indices in todo whose gates are still in the circuit."""
    # A generator, not a list: a list of the ints raised peak RSS by 0.6 MiB.
    return array("i", (i for i in todo if gates[i] is not None))


def _unlink(nxt: array, prv: array, slot: int) -> None:
    p, x = prv[slot], nxt[slot]
    if p >= 0:
        nxt[p] = x
    if x < len(nxt):
        prv[x] = p


def _drop(gates: list[Gate | None], nxt: array, prv: array, i: int) -> None:
    for slot in range(3 * i, 3 * i + len(gates[i].qubits)):
        _unlink(nxt, prv, slot)
    gates[i] = None


_PASS, _BLOCK, _CANCEL = 0, 1, 2


def _answer(g: Gate, h: Gate) -> int:
    """What a cancel or merge walk from g does on meeting h.  Reads only kind
    and qubits: Rz commutes with Rz at any angles and has no inverse kind."""
    if _is_inverse_pair(g, h):
        return _CANCEL
    return _PASS if commutes(g, h) else _BLOCK


def _pass_cancel(gates: list[Gate | None], todo: array, nxt: array, prv: array,
                 gid: array, memo: dict, stop: array, full: bool) -> bool:
    changed = False
    end = len(nxt)
    n = end // 3
    for i in todo:
        g = gates[i]
        if g is None:
            continue  # cancelled by an earlier gate of this run
        if not full:
            s = stop[i]
            if s == n or gates[s] is not None:
                continue  # the gate its last walk stopped at still blocks it
        row = gid[i] << 32
        arity = len(g.qubits)
        # Walk the gate's wires merged by position; a cursor at end is spent.
        base = 3 * i
        x = nxt[base]
        y = nxt[base + 1] if arity > 1 else end
        z = nxt[base + 2] if arity > 2 else end
        while True:
            j = x if x < y else y  # min(x, y, z) without the call
            j = (j if j < z else z) // 3
            if j == n:
                break
            key = row | gid[j]
            r = memo.get(key)
            if r is None:
                r = memo[key] = _answer(g, gates[j])
            if r:
                if r == _CANCEL:
                    _drop(gates, nxt, prv, i)
                    _drop(gates, nxt, prv, j)
                    changed = True
                break
            if x // 3 == j:
                x = nxt[x]
            if y // 3 == j:
                y = nxt[y]
            if z // 3 == j:
                z = nxt[z]
        stop[i] = j
    return changed


def _pass_merge(gates: list[Gate | None], todo: array, nxt: array, prv: array,
                gid: array, memo: dict, stop: array, full: bool) -> tuple[bool, float]:
    changed = False
    phase = 0.0
    end = len(nxt)
    n = end // 3
    for i in todo:
        g = gates[i]
        if g is None:
            continue
        if not full:
            s = stop[i]
            if s == n or gates[s] is not None:
                continue
        row = gid[i] << 32
        x = nxt[3 * i]
        stop[i] = n
        while x < end:
            j = x // 3
            h = gates[j]
            x = nxt[x]
            if h.kind == "Rz":
                g = Gate("Rz", g.qubits, g.angle + h.angle)
                gates[i] = g
                _drop(gates, nxt, prv, j)
                changed = True
            else:
                key = row | gid[j]
                r = memo.get(key)
                if r is None:
                    r = memo[key] = _answer(g, h)
                if r:
                    stop[i] = j
                    break
        r = g.angle % (2.0 * TWO_PI)  # Rz has period 4pi
        if min(r, 2.0 * TWO_PI - r) < ANGLE_EPS:
            _drop(gates, nxt, prv, i)
            changed = True
        elif abs(r - TWO_PI) < ANGLE_EPS:
            _drop(gates, nxt, prv, i)
            phase += math.pi  # Rz(2pi) = -I = e^{i pi} I
            changed = True
    return changed, phase


def _pass_cnot_triple(gates: list[Gate | None], todo: array, nxt: array, prv: array,
                      gid: array, ids: dict, w1: array, w2: array, full: bool) -> bool:
    changed = False
    end = len(nxt)
    n = end // 3
    for i in todo:
        g1 = gates[i]
        if g1 is None:
            continue
        if not full:
            s, t = w1[i], w2[i]
            if s == n or gates[s] is not None and (t == n or gates[t] is not None):
                continue
        a, b = g1.qubits
        # The next gate touching {a, b} must be CNOT(b, c).
        after_a = nxt[3 * i]
        j = w1[i] = min(after_a, nxt[3 * i + 1]) // 3
        if j == n:
            continue
        g2 = gates[j]
        w2[i] = n
        if g2.kind != "CNOT" or g2.qubits[0] != b or g2.qubits[1] == a:
            continue
        # Separators between g1 and g2 must avoid wire c as well.
        c_slot = 3 * j + 1
        if prv[c_slot] > 3 * i:
            w2[i] = prv[c_slot] // 3
            continue
        # The next gate touching {a, b, c} must repeat CNOT(a, b).
        k = w2[i] = min(after_a, nxt[3 * j], nxt[c_slot]) // 3
        if k == n:
            continue
        if gates[k].kind != "CNOT" or gates[k].qubits != (a, b):
            continue
        _drop(gates, nxt, prv, k)
        gates[i] = Gate("CNOT", (a, g2.qubits[1]))
        gid[i] = ids.setdefault(("CNOT", gates[i].qubits), len(ids))
        # Gate i's second slot moves from wire b to wire c, just before g2.
        moved = 3 * i + 1
        _unlink(nxt, prv, moved)
        p = prv[c_slot]
        prv[moved], nxt[moved] = p, c_slot
        prv[c_slot] = moved
        if p >= 0:
            nxt[p] = moved
        changed = True
    return changed


def optimize(c: Circuit, max_sweeps: int = MAX_SWEEPS) -> Circuit:
    """Run cancel, merge and the CNOT-triple rewrite, in that order, until a
    sweep changes nothing or max_sweeps sweeps have run; never grows the
    circuit."""
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    gates: list[Gate | None] = list(c.gates)
    nxt, prv, gid, ids = _wire_chains(gates)
    cancel, merge, triple = _kind_lists(gid, ids)
    memo: dict[int, int] = {}
    # Where each gate's last walk stopped (n: nowhere).  Cancel walks only
    # non-Rz gates and merge only Rz gates, so they share stop.
    stop, w1, w2 = (array("i", [len(gates)]) * len(gates) for _ in range(3))
    full = True  # every pass walks every gate: the first sweep, and after a rewrite
    phase = c.global_phase
    for sweep in range(max_sweeps):
        # From sweep 2 on, each list drops the gates removed since it was
        # last filtered; kinds never change, so no list ever gains a gate.
        if sweep:
            cancel = _live(gates, cancel)
        cancelled = _pass_cancel(gates, cancel, nxt, prv, gid, memo, stop, full)
        if sweep:
            merge = _live(gates, merge)
        merged, dphase = _pass_merge(gates, merge, nxt, prv, gid, memo, stop, full)
        phase += dphase
        if sweep:
            triple = _live(gates, triple)
        full = _pass_cnot_triple(gates, triple, nxt, prv, gid, ids, w1, w2, full)
        if not (cancelled or merged or full):
            break
    return Circuit(c.n_qubits, [g for g in gates if g is not None], phase)
