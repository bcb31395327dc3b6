"""Peephole circuit optimization with commutation-aware gate motion.

Three passes run in this order, sweep after sweep, until a sweep changes
nothing or max_sweeps sweeps have run, so the output never has more gates
than the input:

  _pass_cancel       remove g, g^-1 separated only by gates that provably
                     commute with g
  _pass_merge        fuse Rz angles on a wire across commuting separators;
                     a sum of 0 mod 4pi drops the gate, and Rz(2pi) = -I
                     feeds the global phase
  _pass_cnot_triple  CNOT(a,b) CNOT(b,c) CNOT(a,b) -> CNOT(a,c) CNOT(b,c)

commutes answers True only when commutation is provable; a False only
blocks a rewrite.  The core, _optimize_ids, keeps per gate position i
(n gates; n also stands for "nowhere"):

  gates, gid, ids  gate i as a Gate and its (kind, qubits) number in ids,
                   all that a walk's answer reads, so memo keeps one answer
                   per pair of numbers
  angles           gate i's Rz angle, summed in place by merge
  nxt, prv         the per-wire chains from _link: slot 3i + s is gate i's
                   s-th wire, linked to the live gates before and after it
  dead             the byte mask of dropped gates
  stop             where gate i's last cancel or merge walk stopped; after
                   the first sweep those passes run lazily, over the gates
                   whose stop was dropped (_due), and in full again after a
                   triple rewrite.  The triple pass walks every CNOT.
  owned, jump      a scanned cancel block's pending pairs, dropped at once
                   by pointer doubling (_drop_pairs)

Each pass walks its own index list (_kind_lists).  A cancel or triple run
of at least _SCAN_MIN gates is first scanned in numpy, _SCAN_BLOCK gates at
a time: _cancel_scan takes every walk's first step, and _triple_scan makes
every test of the triple loop up to the first rewrite.  The per-gate loops
walk what the scans leave.  optimize() numbers a Circuit's gates
(_wire_chains) and rebuilds only merged Rz gates; pricing synthesizes
straight into ids (circuits._trotter_ids).

README.md, section Optimizer, argues once why each of these shortcuts gives
exactly the gates of a scan over the whole list, and gives the measurements
behind _SCAN_MIN.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .circuits import Circuit, Gate, _check_angle

_DIAGONAL_1Q = frozenset(("Rz", "T", "Tdg", "S", "Sdg"))
# kind -> kind of its inverse; Rz has none (rotations merge instead)
_INVERSE_KIND = {"X": "X", "H": "H", "BasisY": "BasisY", "CNOT": "CNOT",
                 "SWAP": "SWAP", "CSWAP": "CSWAP",
                 "T": "Tdg", "Tdg": "T", "S": "Sdg", "Sdg": "S"}
ANGLE_EPS = 1e-12
TWO_PI = 2.0 * math.pi
MAX_SWEEPS = 50
_PAD = (-1, -1, -1)
# A cancel or CNOT-triple run of at least _SCAN_MIN gates is scanned with
# numpy first, _SCAN_BLOCK gates at a time so that the scan's temporaries
# stay small.  Shorter runs go straight to the per-gate loop: on small
# circuits the scans' fixed costs outweigh what they save.
_SCAN_MIN = 256
_SCAN_BLOCK = 8192
_SLOTS = np.arange(3, dtype=np.intc)  # the slots of gate i are 3*i + _SLOTS
_NO_PAIRS = np.empty(0, np.intc)


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
    """Doubly linked per-wire chains over fixed gate positions, and gate ids:
    gid[i] numbers gate i's (kind, qubits) in ids, the only fields the
    walks' answers read, and _link builds the chains from them.  Numbering
    the gates is the one Python loop over them."""
    ids: dict[tuple, int] = {}
    gid = array("i", [ids.setdefault((g.kind, g.qubits), len(ids)) for g in gates])
    return (*_link(gid, ids), gid, ids)


def _link(gid: array, ids: dict) -> tuple[array, array]:
    """The per-wire chains of the gates numbered gid[i] in ids.

    Gate i owns slot 3*i + s for its s-th qubit.  nxt[slot] is the slot of
    the next live gate on that wire (len(nxt) when there is none) and
    prv[slot] the previous one (-1 when there is none).  Slots are C ints:
    a list of 700 million gates would not fit in memory long before 3*i
    overflows them.

    A table gives each id's wires, and numpy gathers it by gid, sorts the
    slots by wire (stable, so each wire keeps gate order) and links equal
    neighbours.
    """
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
    # As the smallest unsigned type that holds the ranks: numpy's stable
    # sort is a radix sort on 8- and 16-bit integers, several times faster.
    wire = wire[slots].astype(np.min_scalar_type(len(rank)))
    by_wire = np.argsort(wire, kind="stable")  # by wire, in gate order
    slots, wire = slots[by_wire], wire[by_wire]
    same = wire[1:] == wire[:-1]
    before, after = slots[:-1][same], slots[1:][same]
    del wire, slots, same, by_wire  # before nxt and prv exist, to keep the peak low
    end = 3 * len(gid)
    nxt = array("i", [end]) * end
    prv = array("i", [-1]) * end
    np.frombuffer(nxt, np.intc)[before] = after
    np.frombuffer(prv, np.intc)[after] = before
    return nxt, prv


def _of_kind(gid: array, ids: dict, kinds) -> np.ndarray:
    """Mask of the gates whose kind is in kinds."""
    return np.array([kind in kinds for kind, _ in ids], bool)[np.frombuffer(gid, np.intc)]


def _kind_lists(gid: array, ids: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the non-Rz, the Rz and the CNOT gates, in gate order:
    the gates that cancel, merge and the CNOT-triple check walk."""
    rz, cnot = _of_kind(gid, ids, ("Rz",)), _of_kind(gid, ids, ("CNOT",))
    return tuple(np.flatnonzero(m).astype(np.intc) for m in (~rz, rz, cnot))


def _due(todo: np.ndarray, gone: np.ndarray, full: bool, stop: np.ndarray) -> np.ndarray:
    """The gates of todo that a run walks: all of them in a full run; in a
    lazy run those whose stop has been dropped.  gone[n] stays False, so
    stop n ("stopped nowhere") never counts as dropped."""
    if full:
        return todo
    return todo[gone.take(stop.take(todo)) > gone.take(todo)]  # and not dropped itself


def _unlink(nxt: array, prv: array, slot: int) -> None:
    p, x = prv[slot], nxt[slot]
    if p >= 0:
        nxt[p] = x
    if x < len(nxt):
        prv[x] = p


def _drop(gates: list[Gate | None], nxt: array, prv: array, dead: bytearray,
          i: int) -> None:
    for slot in range(3 * i, 3 * i + len(gates[i].qubits)):
        _unlink(nxt, prv, slot)
    gates[i] = None
    dead[i] = 1


_PASS, _BLOCK, _CANCEL = 0, 1, 2


def _answer(g: Gate, h: Gate) -> int:
    """What a cancel or merge walk from g does on meeting h.  Reads only kind
    and qubits: Rz commutes with Rz at any angles and has no inverse kind."""
    if _is_inverse_pair(g, h):
        return _CANCEL
    return _PASS if commutes(g, h) else _BLOCK


def _cancel_scan(due: np.ndarray, gates: list[Gate | None], memo: dict, nxt: np.ndarray,
                 gid: np.ndarray, gone: np.ndarray,
                 stop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Take the first step of the walks of due's live gates at once, on the
    chains as they stand; return the live gates whose walk goes on past it,
    with their first neighbour and the answer there (pass or cancel).

    Gate i's first neighbour is j = min(nxt[3i], nxt[3i+1], nxt[3i+2]) // 3
    (an unused slot holds len(nxt)), and stop[i] = j is written for every
    gate: it is final where j is n or the answer there is stop, and the
    per-gate loop writes the others again.  The answer for each distinct
    pair of gate ids comes from memo, or from _answer on one gate pair with
    those ids.  Key -1, which memo maps to stop, stands for j = n."""
    n = len(gone) - 1
    due = due[~gone.take(due)]
    base = 3 * due
    j = np.minimum(np.minimum(nxt.take(base), nxt.take(base + 1)), nxt.take(base + 2)) // 3
    stop[due] = j
    key = gid.take(due).astype(np.int64) << 32 | gid.take(j, mode="clip")
    key[j == n] = -1
    keys, pair = np.unique(key, return_inverse=True)
    keys = keys.tolist()
    answers = [memo.get(k) for k in keys]
    if None in answers:
        at = np.empty(len(keys), np.intp)
        at[pair] = np.arange(len(due))  # one gate of each pair of ids
        for t, k in enumerate(keys):
            if answers[t] is None:
                f = at[t]
                answers[t] = memo[k] = _answer(gates[due[f]], gates[j[f]])
    answer = np.array(answers, np.int8).take(pair)
    go = answer != _BLOCK
    return due[go], j[go], answer[go]


def _pending(go: np.ndarray, first: np.ndarray, answer: np.ndarray,
             owned: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pending pairs among the scanned walks go, whose first neighbours
    and answers are first and answer: every walk that cancels there, unless
    its walker is the partner of another such walk.  Marks their walkers
    and partners in owned and returns them (walkers, partners)."""
    cancel = answer == _CANCEL
    owned[first[cancel]] = True
    pend = cancel & ~owned.take(go)
    owned[first[cancel & ~pend]] = False
    walkers = go[pend]
    owned[walkers] = True
    return walkers, first[pend]


def _drop_pairs(walkers: np.ndarray, partners: np.ndarray, gates: list[Gate | None],
                nxt: np.ndarray, prv: np.ndarray, gone: np.ndarray, owned: np.ndarray,
                jump: np.ndarray) -> bool:
    """Drop the pending pairs (walkers[t], partners[t]) at once and return
    whether there were any.  owned marks exactly their gates; the arguments
    after gates are numpy views.

    On each wire the pending slots form runs of neighbours.  A run's head
    is a slot whose previous gate is not owned, and its tail is found by
    pointer doubling: jump[s] is first the next slot where that one is
    pending, else s itself, and each step sets jump[s] = jump[jump[s]] for
    the slots not yet at their tail.  The head's outer neighbours are then
    linked to each other.  jump is indexed by slot, and only its entries at
    pending slots are read.  A slot with no neighbour (an unused one among
    them) has nothing to relink and is left out."""
    if not len(walkers):
        return False
    both = np.concatenate((walkers, partners))
    for i in both.tolist():
        gates[i] = None
    gone[both] = True
    slots = (3 * both[:, None] + _SLOTS).ravel()
    after, before = nxt.take(slots), prv.take(slots)
    end = len(nxt)
    linked = (after < end) | (before >= 0)
    slots, after, before = slots[linked], after[linked], before[linked]
    inner = owned.take(after // 3)  # the next slot is pending (n is unowned)
    jump[slots] = slots
    at, hop = slots[inner], after[inner]
    # A run holds at most n slots, one per gate on its wire, so every tail is
    # found within end.bit_length() rounds.  More means that owned marks a
    # gate outside the pairs, and unwritten jump entries may form a cycle.
    for _ in range(end.bit_length()):
        if not len(at):
            break
        jump[at] = hop
        far = jump.take(hop)
        on = far != hop
        at, hop = at[on], far[on]
    if len(at):
        raise RuntimeError("pending slots run on past every tail: owned marks a gate "
                           "outside the pairs being dropped")
    head = ~owned.take(before // 3)  # -1 // 3 reads slot n, unowned
    before, after = before[head], nxt.take(jump.take(slots[head]))
    on = before >= 0
    nxt[before[on]] = after[on]
    on = after < end
    prv[after[on]] = before[on]
    owned[both] = False
    return True


def _pass_cancel(gates: list[Gate | None], due: np.ndarray, nxt: array, prv: array,
                 gid: array, memo: dict, stop: array, dead: bytearray, owned: bytearray,
                 views: tuple) -> bool:
    """One cancel run over the gates of due.  views are the numpy views that
    _cancel_scan and _drop_pairs take.  In a scanned block the scan settles
    the walks that stop at their first neighbour, the pending pairs, whose
    gates owned marks, are dropped at the end of the block, and this loop
    walks the rest."""
    at_nxt, at_prv, at_gid, gone, at_stop, at_owned, jump = views
    relink = (at_nxt, at_prv, gone, at_owned, jump)
    changed = False
    end = len(nxt)
    n = end // 3
    scan = len(due) >= _SCAN_MIN
    for pos in range(0, len(due), _SCAN_BLOCK):
        go = due[pos:pos + _SCAN_BLOCK]
        walkers = partners = _NO_PAIRS
        if scan:
            go, first, answer = _cancel_scan(go, gates, memo, at_nxt, at_gid, gone, at_stop)
            walkers, partners = _pending(go, first, answer, at_owned)
            todo = array("i", go[~at_owned.take(go)].tobytes())
        else:
            todo = array("i", go.tobytes())
        while True:
            for i in todo:
                g = gates[i]
                if g is None:
                    continue  # cancelled by an earlier gate of this run
                row = gid[i] << 32
                # Walk the gate's wires merged by position; a cursor at end is
                # spent, and an unused slot's is there from the start.
                base = 3 * i
                x, y, z = nxt[base], nxt[base + 1], nxt[base + 2]
                while True:
                    j = x if x < y else y  # min(x, y, z) without the call
                    j = (j if j < z else z) // 3
                    if j == n:
                        r = _BLOCK
                        break
                    key = row | gid[j]
                    r = memo.get(key)
                    if r is None:
                        r = memo[key] = _answer(g, gates[j])
                    if r:
                        break
                    if x // 3 == j:
                        x = nxt[x]
                    if y // 3 == j:
                        y = nxt[y]
                    if z // 3 == j:
                        z = nxt[z]
                if r == _CANCEL:
                    if owned[j]:
                        break  # a conflict, below
                    # j has i's wires, and each cursor is at j's slot on its
                    # wire: unlink i's slot, then j's, wire by wire.
                    for s in (base, x, base + 1, y, base + 2, z)[:2 * len(g.qubits)]:
                        p, q = prv[s], nxt[s]
                        if p >= 0:
                            nxt[p] = q
                        if q < end:
                            prv[q] = p
                    gates[i] = gates[j] = None
                    dead[i] = dead[j] = 1
                    changed = True
                stop[i] = j
            else:
                break
            # A conflict: i takes a gate of a pending pair whose walker comes
            # after it.  Drop the pairs before i, release the rest, and walk
            # on from i gate by gate.
            late = walkers > i
            at_owned[walkers[late]] = at_owned[partners[late]] = False
            changed |= _drop_pairs(walkers[~late], partners[~late], gates, *relink)
            walkers = partners = _NO_PAIRS
            todo = array("i", go[go >= i].tobytes())
        changed |= _drop_pairs(walkers, partners, gates, *relink)
    return changed


def _pass_merge(gates: list[Gate | None], todo: np.ndarray, nxt: array, prv: array,
                gid: array, memo: dict, stop: array, dead: bytearray,
                angles: list[float]) -> tuple[bool, float]:
    """One merge run over the Rz gates of todo.  Each gate's angle is
    angles[i]; its Gate's own angle is never read."""
    changed = False
    phase = 0.0
    end = len(nxt)
    n = end // 3
    for i in array("i", todo.tobytes()):
        g = gates[i]
        if g is None:
            continue
        row = gid[i] << 32
        x = nxt[3 * i]
        stop[i] = n
        angle = angles[i]
        while x < end:
            j = x // 3
            h = gates[j]
            x = nxt[x]
            if h.kind == "Rz":
                angle += angles[j]
                _check_angle(angle)
                _drop(gates, nxt, prv, dead, j)
                changed = True
            else:
                key = row | gid[j]
                r = memo.get(key)
                if r is None:
                    r = memo[key] = _answer(g, h)
                if r:
                    stop[i] = j
                    break
        angles[i] = angle
        r = angle % (2.0 * TWO_PI)  # Rz has period 4pi
        if min(r, 2.0 * TWO_PI - r) < ANGLE_EPS:
            _drop(gates, nxt, prv, dead, i)
            changed = True
        elif abs(r - TWO_PI) < ANGLE_EPS:
            _drop(gates, nxt, prv, dead, i)
            phase += math.pi  # Rz(2pi) = -I = e^{i pi} I
            changed = True
    return changed, phase


def _triple_scan(due: np.ndarray, nxt: np.ndarray, prv: np.ndarray, gid: np.ndarray,
                 cnot: np.ndarray, gone: np.ndarray) -> tuple[np.ndarray, int]:
    """Every test of the CNOT-triple loop for the live gates of due at once,
    on the chains as they stand: the live gates and the position among them
    of the first that rewrites (len when none does).

    The arguments are numpy views; cnot marks the CNOT gates (slot n
    unmarked).  Chain reads past the last slot, which only gates whose
    next gate on {a, b} is n make, are clipped and then masked out."""
    n = len(cnot) - 1
    due = due[~gone.take(due)]
    base = 3 * due
    after_a = nxt.take(base)
    after_b = nxt.take(base + 1)
    j = np.minimum(after_a, after_b) // 3
    # g2 = CNOT(b, c) with c != a: its control slot is the next on wire b
    # and its target slot is not the next on wire a.
    c_slot = 3 * j + 1
    pair = cnot.take(j) & (after_b == c_slot - 1) & (after_a != c_slot)
    apart = prv.take(c_slot, mode="clip") <= base  # no separator on wire c
    k = np.minimum(np.minimum(after_a, nxt.take(c_slot - 1, mode="clip")),
                   nxt.take(c_slot, mode="clip")) // 3
    hit = pair & apart & (gid.take(k, mode="clip") == gid.take(due)) & (k != n)
    hits = np.flatnonzero(hit)
    return due, int(hits[0]) if len(hits) else len(due)


def _pass_cnot_triple(gates: list[Gate | None], due: np.ndarray, nxt: array, prv: array,
                      gid: array, ids: dict, dead: bytearray, views: tuple) -> bool:
    """One run over the CNOTs of due.  views are _triple_scan's numpy
    arguments.  The scan settles every gate up to the first rewrite, and
    this loop goes on from there."""
    if len(due) >= _SCAN_MIN:
        for pos in range(0, len(due), _SCAN_BLOCK):
            live, first = _triple_scan(due[pos:pos + _SCAN_BLOCK], *views)
            if first < len(live):
                due = np.concatenate((live[first:], due[pos + _SCAN_BLOCK:]))
                break
        else:
            return False
    changed = False
    n = len(nxt) // 3
    for i in array("i", due.tobytes()):
        g1 = gates[i]
        if g1 is None:
            continue
        a, b = g1.qubits
        # The next gate touching {a, b} must be CNOT(b, c).
        after_a = nxt[3 * i]
        j = min(after_a, nxt[3 * i + 1]) // 3
        if j == n:
            continue
        g2 = gates[j]
        if g2.kind != "CNOT" or g2.qubits[0] != b or g2.qubits[1] == a:
            continue
        # Separators between g1 and g2 must avoid wire c as well.
        c_slot = 3 * j + 1
        if prv[c_slot] > 3 * i:
            continue
        # The next gate touching {a, b, c} must repeat CNOT(a, b).
        k = min(after_a, nxt[3 * j], nxt[c_slot]) // 3
        if k == n:
            continue
        if gates[k].kind != "CNOT" or gates[k].qubits != (a, b):
            continue
        _drop(gates, nxt, prv, dead, k)
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


def _optimize_ids(gates: list[Gate | None], nxt: array, prv: array, gid: array, ids: dict,
                  angles: list[float], phase: float, max_sweeps: int) -> tuple[bytearray, float]:
    """The optimizer core: run cancel, merge and the CNOT-triple rewrite, in
    that order, until a sweep changes nothing or max_sweeps sweeps have run.

    gates[i] is a Gate of kind and qubits ids[gid[i]], whose angle is not
    read: gate i's Rz angle is angles[i].  nxt and prv are _link's chains.
    Drops set gates[i] to None, merges update angles and rewrites gates and
    gid (a new (kind, qubits) is added to ids).  Returns the dead mask
    (dead[i]: gate i was dropped, n + 1 bytes) and phase plus the global
    phase the merges gained."""
    cancel, merge, triple = _kind_lists(gid, ids)
    memo: dict[int, int] = {-1: _BLOCK}  # -1: see _cancel_scan
    # Where each gate's last walk stopped (n: nowhere).  Cancel walks only
    # non-Rz gates and merge only Rz gates, so they share stop.
    n = len(gates)
    stop = array("i", [n]) * n
    at_stop = np.frombuffer(stop, np.intc)
    dead = bytearray(n + 1)  # dead[i]: gate i was dropped; slot n stays 0
    gone = np.frombuffer(dead, bool)
    owned = bytearray(n + 1)  # owned[i]: gate i is in a pending pair; slot n stays 0
    cnot = np.zeros(n + 1, bool)
    cnot[triple] = True  # kinds never change
    at_nxt, at_prv, at_gid = (np.frombuffer(a, np.intc) for a in (nxt, prv, gid))
    jump = np.empty(3 * n, np.intc)  # see _drop_pairs
    scan_cancel = (at_nxt, at_prv, at_gid, gone, at_stop, np.frombuffer(owned, bool), jump)
    scan_triple = (at_nxt, at_prv, at_gid, cnot, gone)
    full = True  # cancel and merge walk every gate: the first sweep, and after a rewrite
    for _ in range(max_sweeps):
        due = _due(cancel, gone, full, at_stop)
        cancelled = _pass_cancel(gates, due, nxt, prv, gid, memo, stop, dead, owned,
                                 scan_cancel)
        due = _due(merge, gone, full, at_stop)
        merged, dphase = _pass_merge(gates, due, nxt, prv, gid, memo, stop, dead, angles)
        phase += dphase
        full = _pass_cnot_triple(gates, triple, nxt, prv, gid, ids, dead, scan_triple)
        if not (cancelled or merged or full):
            break
    return dead, phase


def optimize(c: Circuit, max_sweeps: int = MAX_SWEEPS) -> Circuit:
    """Run cancel, merge and the CNOT-triple rewrite, in that order, until a
    sweep changes nothing or max_sweeps sweeps have run; never grows the
    circuit."""
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    gates: list[Gate | None] = list(c.gates)
    nxt, prv, gid, ids = _wire_chains(gates)
    rz = np.flatnonzero(_of_kind(gid, ids, ("Rz",))).tolist()
    angles = [0.0] * len(gates)
    for i in rz:
        angles[i] = gates[i].angle
    _, phase = _optimize_ids(gates, nxt, prv, gid, ids, angles, c.global_phase, max_sweeps)
    for i in rz:
        g = gates[i]
        if g is not None and angles[i] is not g.angle:  # merged
            gates[i] = Gate("Rz", g.qubits, angles[i])
    return Circuit(c.n_qubits, [g for g in gates if g is not None], phase)
