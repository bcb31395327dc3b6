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
blocks a rewrite.  The core, _optimize_ids, reads no Gate.  It keeps per
gate position i (n gates; n also stands for "nowhere"):

  gid, ids, keys   gate i's (kind, qubits) number in ids; keys[gid[i]] is
                   that (kind, qubits), all that a walk's answer reads
  angles           gate i's Rz angle, summed in place by merge
  nxt, prv         the per-wire chains from _link: slot 3i + s is gate i's
                   s-th wire, linked to the live gates before and after it
  dead             the byte mask of dropped gates, the one record of which
                   gates are live
  loose            the Rz gates whose own first angle drops them, which
                   the merge scan never settles
  stop             where gate i's last cancel or merge walk stopped; after
                   the first sweep those passes run lazily, over the gates
                   whose stop was dropped (_due), and in full again after a
                   triple rewrite.  The triple pass walks every CNOT.
  owned, jump      a scanned cancel block's pending pairs, dropped at once
                   by pointer doubling (_drop_pairs)

and per id its kind and its wires as dense ranks (_link's wire table).
_answer_table holds _answer once per (kind of a, kind of b, overlap code),
the overlap code saying which of b's wires are which of a's: the scans
gather it in numpy (_answers), and the per-gate loops fill memo, keyed on
pairs of ids, from it.

Each pass walks its own index list.  A run of at least _SCAN_MIN gates is
first scanned in numpy, _SCAN_BLOCK gates at a time: _cancel_scan takes
every cancel or merge walk's first step, and _triple_scan makes every test
of the triple loop up to the first rewrite.  The per-gate loops walk
what the scans leave.  optimize() takes the ids of a synthesized Circuit
from its record (circuits._Synthesis) while its gates are the ones placed,
numbers any other Circuit's gates (_wire_chains), and builds a Gate only
for merged Rz gates and rewritten CNOTs; pricing synthesizes straight into
ids (circuits._trotter_ids).

The core reads angles only in the merge pass and loose; cancel, the
triple pass, the scans and _due read ids and chains.  Pricing needs only
a count, and runs the core with angles None, which skips the merge pass.

README.md, section Optimizer, argues once why each of these shortcuts gives
exactly the gates of a scan over the whole list, and gives the measurements
behind _SCAN_MIN.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array

import numpy as np

from .circuits import GATE_ARITY, Circuit, Gate, _check_angle, _placed, _staircase_gate
from .paulis import _is_nonneg_int

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
_KIND = {kind: k for k, kind in enumerate(GATE_ARITY)}  # a kind's number in the answer table
# At 3t + s: what "wire t of a is wire s of b" takes off an overlap code.
_OVERLAP = np.array([(3 - t) << 2 * s for t in range(3) for s in range(3)], np.uint8)


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


def _wire_chains(gates: list[Gate]) -> tuple[array, array, np.ndarray, array, dict]:
    """Doubly linked per-wire chains over fixed gate positions, the wire
    table, and gate ids: gid[i] numbers gate i's (kind, qubits) in ids, the
    only fields the walks' answers read, and _link builds the chains from
    them.  Numbering the gates is the one Python loop over them."""
    ids: dict[tuple, int] = {}
    gid = array("i", [ids.setdefault((g.kind, g.qubits), len(ids)) for g in gates])
    return (*_link(gid, ids), gid, ids)


def _link(gid: array, ids: dict) -> tuple[array, array, np.ndarray]:
    """The per-wire chains of the gates numbered gid[i] in ids, and the wire
    table: row r holds the wires of id r as dense ranks, padded with -1.  A
    qubit index may be any non-negative int, but a rank always fits a C int.

    Gate i owns slot 3*i + s for its s-th qubit.  nxt[slot] is the slot of
    the next live gate on that wire (len(nxt) when there is none) and
    prv[slot] the previous one (-1 when there is none).  Slots are C ints:
    a list of 700 million gates would not fit in memory long before 3*i
    overflows them.

    numpy gathers the wire table by gid, sorts the slots by wire (stable,
    so each wire keeps gate order) and links equal neighbours.
    """
    rank: dict[int, int] = {}
    table = array("i")
    for _, qubits in ids:
        table.extend([rank.setdefault(q, len(rank)) for q in qubits])
        table.extend(_PAD[len(qubits):])
    wires = np.frombuffer(table, np.intc).reshape(-1, 3)
    # Cell s of row i in the n x 3 grid is slot 3*i + s.
    wire = wires[np.frombuffer(gid, np.intc)].ravel()
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
    return nxt, prv, wires


def _grown(wires: np.ndarray, keys: list) -> np.ndarray:
    """wires with a row for each id that rewrites added to keys: a CNOT on
    two wires that older ids already rank."""
    rank = {q: r for (_, qubits), row in zip(keys, wires.tolist()) for q, r in zip(qubits, row)}
    new = [(rank[a], rank[c], -1) for _, (a, c) in keys[len(wires):]]
    return np.concatenate((wires, np.array(new, np.intc)))


def _of_kind(gid: array, ids: dict, kinds) -> np.ndarray:
    """Mask of the gates whose kind is in kinds."""
    return np.array([kind in kinds for kind, _ in ids], bool)[np.frombuffer(gid, np.intc)]


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


def _drop(nxt: array, prv: array, dead: bytearray, i: int, arity: int) -> None:
    for slot in range(3 * i, 3 * i + arity):
        _unlink(nxt, prv, slot)
    dead[i] = 1


_PASS, _BLOCK, _CANCEL = 0, 1, 2


def _answer(g: Gate, h: Gate) -> int:
    """What a cancel or merge walk from g does on meeting h.  Reads only kind
    and qubits: Rz commutes with Rz at any angles and has no inverse kind."""
    if _is_inverse_pair(g, h):
        return _CANCEL
    return _PASS if commutes(g, h) else _BLOCK


def _at(a: tuple, b: tuple) -> int:
    """Where the answer table holds _answer for gates of (kind, qubits) a
    and b: at (kind of a, kind of b, overlap code), whose base-4 digit s is
    the position of b's s-th wire among a's wires, or 3 when a does not
    touch it or b has no s-th wire."""
    (ka, qa), (kb, qb) = a, b
    at = (_KIND[ka] * len(_KIND) + _KIND[kb]) << 6 | 63
    for s, q in enumerate(qb):
        if q in qa:
            at -= (3 - qa.index(q)) << 2 * s
    return at


@functools.cache
def _answer_table() -> tuple[np.ndarray, list]:
    """_answer at _at(a, b) for every pair of kinds and every way their
    wires can coincide, as int8 and as a list; -1 where no gate pair lands.
    Each entry comes from _answer on one pair of Gates, a on wires 0, 1, ...
    and b on a's wires or on fresh ones, so commutes and _is_inverse_pair
    stay the one rule.  Built on first use, once per process."""
    table = np.full(len(_KIND) ** 2 << 6, -1, np.int8)
    for ka, na in GATE_ARITY.items():
        a = _staircase_gate(ka, tuple(range(na)))
        for kb, nb in GATE_ARITY.items():
            for qb in itertools.permutations(range(na + nb), nb):
                table[_at((ka, a.qubits), (kb, qb))] = _answer(a, _staircase_gate(kb, qb))
    return table, table.tolist()


def _id_tables(keys: list, wires: np.ndarray) -> tuple:
    """_answers' view of each id: its kind's offset in the answer table as
    gate a and as gate b (with overlap code 63), and its wire ranks, column
    by column, padded with -1 as gate a and with -2 as gate b, so that a pad
    never meets a pad."""
    kind = np.array([_KIND[k] for k, _ in keys], np.intp)
    wa = np.ascontiguousarray(wires.T)
    return kind * (len(_KIND) << 6), kind << 6 | 63, wa, np.where(wa < 0, -2, wa)


def _answers(a: np.ndarray, b: np.ndarray, row_a: np.ndarray, row_b: np.ndarray,
             wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """_answer for each pair of ids (a[t], b[t]), gathered from the answer
    table; the other arguments are _id_tables'."""
    same = wa.take(a, 1)[:, None] == wb.take(b, 1)[None]  # [t, s]: wire t of a is wire s of b
    at = row_a.take(a) + row_b.take(b) - _OVERLAP @ same.reshape(9, -1).view(np.uint8)
    return _answer_table()[0].take(at)


def _cancel_scan(due: np.ndarray, nxt: np.ndarray, gid: np.ndarray, gone: np.ndarray,
                 stop: np.ndarray, per_id: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Take the first step of the cancel or merge walks of due's live gates
    at once, on the chains as they stand; return the live gates whose walk
    goes on past it, with their first neighbour and the answer there (pass
    or cancel).

    Gate i's first neighbour is j = min(nxt[3i], nxt[3i+1], nxt[3i+2]) // 3
    (an unused slot holds len(nxt)), and stop[i] = j is written for every
    gate: it is final where j is n or the answer there is stop, and the
    per-gate loop writes the others again.  The answers are gathered from
    the answer table by the ids of each pair (per_id: _id_tables)."""
    n = len(gone) - 1
    due = due[~gone.take(due)]
    base = 3 * due
    j = np.minimum(np.minimum(nxt.take(base), nxt.take(base + 1)), nxt.take(base + 2)) // 3
    stop[due] = j
    answer = _answers(gid.take(due), gid.take(j, mode="clip"), *per_id)
    go = (answer != _BLOCK) & (j != n)
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


def _drop_pairs(walkers: np.ndarray, partners: np.ndarray, nxt: np.ndarray, prv: np.ndarray,
                gone: np.ndarray, owned: np.ndarray, jump: np.ndarray) -> bool:
    """Drop the pending pairs (walkers[t], partners[t]) at once and return
    whether there were any.  owned marks exactly their gates; the arguments
    are numpy views.

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


def _pass_cancel(due: np.ndarray, nxt: array, prv: array, gid: array, keys: list,
                 memo: dict, stop: array, dead: bytearray, owned: bytearray,
                 views: tuple) -> bool:
    """One cancel run over the gates of due.  views are the numpy views that
    _cancel_scan and _drop_pairs take.  In a scanned block the scan settles
    the walks that stop at their first neighbour, the pending pairs, whose
    gates owned marks, are dropped at the end of the block, and this loop
    walks the rest."""
    at_nxt, at_prv, at_gid, gone, at_stop, at_owned, jump, per_id = views
    relink = (at_nxt, at_prv, gone, at_owned, jump)
    table = _answer_table()[1]
    changed = False
    end = len(nxt)
    n = end // 3
    scan = len(due) >= _SCAN_MIN
    for pos in range(0, len(due), _SCAN_BLOCK):
        go = due[pos:pos + _SCAN_BLOCK]
        walkers = partners = _NO_PAIRS
        if scan:
            go, first, answer = _cancel_scan(go, at_nxt, at_gid, gone, at_stop, per_id)
            walkers, partners = _pending(go, first, answer, at_owned)
            todo = array("i", go[~at_owned.take(go)].tobytes())
        else:
            todo = array("i", go.tobytes())
        while True:
            for i in todo:
                if dead[i]:
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
                        r = memo[key] = table[_at(keys[gid[i]], keys[gid[j]])]
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
                    for s in (base, x, base + 1, y, base + 2, z)[:2 * len(keys[gid[i]][1])]:
                        p, q = prv[s], nxt[s]
                        if p >= 0:
                            nxt[p] = q
                        if q < end:
                            prv[q] = p
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
            changed |= _drop_pairs(walkers[~late], partners[~late], *relink)
            walkers = partners = _NO_PAIRS
            todo = array("i", go[go >= i].tobytes())
        changed |= _drop_pairs(walkers, partners, *relink)
    return changed


_KEEP, _AT_0, _AT_2PI = 0, 1, 2  # what a merge walk's end does with its gate


def _dropped(angle: float) -> int:
    """What the end of a merge walk does with its gate's summed angle: keep
    the gate, drop it at 0 mod 4pi (Rz has period 4pi), or drop it at 2pi
    mod 4pi, where Rz(2pi) = -I = e^{i pi} I feeds the global phase."""
    r = angle % (2.0 * TWO_PI)
    if min(r, 2.0 * TWO_PI - r) < ANGLE_EPS:
        return _AT_0
    return _AT_2PI if abs(r - TWO_PI) < ANGLE_EPS else _KEEP


def _loose(angles: list[float], merge: np.ndarray) -> np.ndarray:
    """The Rz gates of merge whose angle alone drops them, as _dropped tests
    it, in merge's order."""
    r = np.fromiter(map(angles.__getitem__, merge.tolist()), float, len(merge)) % (2.0 * TWO_PI)
    return merge[(np.minimum(r, 2.0 * TWO_PI - r) < ANGLE_EPS) | (abs(r - TWO_PI) < ANGLE_EPS)]


def _pass_merge(todo: np.ndarray, nxt: array, prv: array, gid: array, keys: list,
                memo: dict, stop: array, dead: bytearray, is_rz: bytes,
                angles: list[float], loose: bytearray, views: tuple) -> tuple[bool, float]:
    """One merge run over the Rz gates of todo; is_rz[i] marks the Rz
    gates.  Each gate's angle is angles[i].  A run of at least _SCAN_MIN
    gates is first scanned (views are _cancel_scan's arguments): a walk
    stopped at its first neighbour, or with none, is settled there unless
    loose[i] marks its gate."""
    if len(todo) >= _SCAN_MIN:
        go = [_cancel_scan(todo[pos:pos + _SCAN_BLOCK], *views)[0]
              for pos in range(0, len(todo), _SCAN_BLOCK)]
        todo = np.unique(np.concatenate((todo[np.frombuffer(loose, bool).take(todo)], *go)))
    table = _answer_table()[1]
    changed = False
    phase = 0.0
    end = len(nxt)
    n = end // 3
    for i in array("i", todo.tobytes()):
        if dead[i]:
            continue
        row = gid[i] << 32
        x = nxt[3 * i]
        stop[i] = n
        angle = angles[i]
        test = loose[i]  # a walk that merges nothing tests only a loose gate's angle
        while x < end:
            j = x // 3
            x = nxt[x]
            if is_rz[j]:
                angle += angles[j]
                _check_angle(angle)
                _drop(nxt, prv, dead, j, 1)
                changed = test = True
            else:
                key = row | gid[j]
                r = memo.get(key)
                if r is None:
                    r = memo[key] = table[_at(keys[gid[i]], keys[gid[j]])]
                if r:
                    stop[i] = j
                    break
        out = _dropped(angle) if test else _KEEP
        angles[i] = angle
        if out:
            _drop(nxt, prv, dead, i, 1)
            changed = True
            if out == _AT_2PI:
                phase += math.pi
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


def _pass_cnot_triple(due: np.ndarray, nxt: array, prv: array, gid: array, ids: dict,
                      keys: list, dead: bytearray, views: tuple) -> bool:
    """One run over the CNOTs of due.  views are _triple_scan's numpy
    arguments.  The scan settles every gate up to the first rewrite, and
    this loop goes on from there.  A rewrite changes gate i's id, numbering
    a new (kind, qubits) in ids and keys."""
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
        if dead[i]:
            continue
        t = gid[i]
        a, b = keys[t][1]
        # The next gate touching {a, b} must be CNOT(b, c).
        after_a = nxt[3 * i]
        j = min(after_a, nxt[3 * i + 1]) // 3
        if j == n:
            continue
        kind, q = keys[gid[j]]
        if kind != "CNOT" or q[0] != b or q[1] == a:
            continue
        # Separators between g1 and g2 must avoid wire c as well.
        c_slot = 3 * j + 1
        if prv[c_slot] > 3 * i:
            continue
        # The next gate touching {a, b, c} must repeat CNOT(a, b).
        k = min(after_a, nxt[3 * j], nxt[c_slot]) // 3
        if k == n or gid[k] != t:
            continue
        _drop(nxt, prv, dead, k, 2)
        key = "CNOT", (a, q[1])
        gid[i] = ids.setdefault(key, len(ids))
        if len(ids) > len(keys):
            keys.append(key)
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


def _optimize_ids(nxt: array, prv: array, wires: np.ndarray, gid: array, ids: dict,
                  angles: list[float] | None, phase: float,
                  max_sweeps: int) -> tuple[bytearray, float]:
    """The optimizer core: run cancel, merge and the CNOT-triple rewrite, in
    that order, until a sweep changes nothing or max_sweeps sweeps have run.

    gid[i] numbers gate i's (kind, qubits) in ids, and gate i's Rz angle is
    angles[i] (None: skip the merge pass).  nxt, prv and wires are _link's
    chains and wire table.  Merges update angles and rewrites gid (a new
    (kind, qubits) is added to ids).  Returns the dead mask (dead[i]: gate
    i was dropped, n + 1 bytes) and phase plus what the merges gained."""
    keys = list(ids)
    n = len(gid)
    rz = _of_kind(gid, ids, ("Rz",))
    cnot = np.append(_of_kind(gid, ids, ("CNOT",)), False)  # kinds never change
    cancel, merge, triple = (np.flatnonzero(m).astype(np.intc) for m in (~rz, rz, cnot))
    is_rz = rz.tobytes()
    # The Rz gates whose angle alone drops them: the merge scan never
    # settles their walks.  A gate that a walk leaves live has an angle that
    # does not drop it, so no later walk that merges nothing tests it.
    loose = bytearray(n)
    if angles is None:
        merge = merge[:0]  # a count only: no merge pass
    else:
        np.frombuffer(loose, bool)[_loose(angles, merge)] = True
    memo: dict[int, int] = {}
    # Where each gate's last walk stopped (n: nowhere).  Cancel walks only
    # non-Rz gates and merge only Rz gates, so they share stop.
    stop = array("i", [n]) * n
    at_stop = np.frombuffer(stop, np.intc)
    dead = bytearray(n + 1)  # dead[i]: gate i was dropped; slot n stays 0
    gone = np.frombuffer(dead, bool)
    owned = bytearray(n + 1)  # owned[i]: gate i is in a pending pair; slot n stays 0
    at_nxt, at_prv, at_gid = (np.frombuffer(a, np.intc) for a in (nxt, prv, gid))
    jump = np.empty(3 * n, np.intc)  # see _drop_pairs
    scan_cancel = (at_nxt, at_prv, at_gid, gone, at_stop, np.frombuffer(owned, bool), jump,
                   _id_tables(keys, wires))
    scan_merge = (at_nxt, at_gid, gone, at_stop, scan_cancel[-1])
    scan_triple = (at_nxt, at_prv, at_gid, cnot, gone)
    full = True  # cancel and merge walk every gate: the first sweep, and after a rewrite
    for _ in range(max_sweeps):
        due = _due(cancel, gone, full, at_stop)
        cancelled = _pass_cancel(due, nxt, prv, gid, keys, memo, stop, dead, owned,
                                 scan_cancel)
        due = _due(merge, gone, full, at_stop)
        merged, dphase = _pass_merge(due, nxt, prv, gid, keys, memo, stop, dead, is_rz,
                                     angles, loose, scan_merge)
        phase += dphase
        if not (cancelled or merged or full):
            break  # the chains are those the last triple run left as they were
        full = _pass_cnot_triple(triple, nxt, prv, gid, ids, keys, dead, scan_triple)
        if len(keys) > len(wires):
            wires = _grown(wires, keys)
            scan_cancel = (*scan_cancel[:-1], _id_tables(keys, wires))
            scan_merge = (*scan_merge[:-1], scan_cancel[-1])
        if not (cancelled or merged or full):
            break
    return dead, phase


def optimize(c: Circuit, max_sweeps: int = MAX_SWEEPS) -> Circuit:
    """Run cancel, merge and the CNOT-triple rewrite, in that order, until a
    sweep changes nothing or max_sweeps sweeps (an integer >= 1) have run;
    never grows the circuit."""
    if not (_is_nonneg_int(max_sweeps) and max_sweeps >= 1):
        raise ValueError(f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")
    gates = c.gates
    record = c._synthesis
    if record is not None and record.holds(gates):
        gid, ids = array("i", record.gid), dict(record.ids)  # the core rewrites both
        nxt, prv, wires = _link(gid, ids)
    else:
        nxt, prv, wires, gid, ids = _wire_chains(gates)
    was = np.frombuffer(gid, np.intc).copy()
    rz = np.flatnonzero(_of_kind(gid, ids, ("Rz",))).tolist()
    angles = [0.0] * len(gates)
    for i in rz:
        angles[i] = gates[i].angle
    dead, phase = _optimize_ids(nxt, prv, wires, gid, ids, angles, c.global_phase, max_sweeps)
    out = list(gates)
    keys = list(ids)
    for i in np.flatnonzero(np.frombuffer(gid, np.intc) != was).tolist():
        out[i] = _placed(*keys[gid[i]])  # rewritten, on a checked gate's wires
    for i in rz:
        if angles[i] is not gates[i].angle and not dead[i]:  # merged, each sum checked
            out[i] = _placed("Rz", gates[i].qubits, angles[i])
    live = (~np.frombuffer(dead, bool)[:-1]).tobytes()
    return Circuit(c.n_qubits, list(itertools.compress(out, live)), phase)
