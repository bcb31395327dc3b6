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
its witness, and from a pass's second run on (a lazy run) a gate is walked
again only if its witness has since been dropped: cancel and merge note
the blocking gate, the CNOT-triple check the next gate on {a, b} (w1) and
then the gate before g2 on wire c or the third gate (w2); n means
nowhere.  Each dropped gate is marked in a byte mask, dead, whose slot
n stays 0.  Before a lazy run one numpy step over the pass's index list
keeps the gates whose witness is marked, dead[stop] for cancel and merge
and dead[w1] | (w1 != n) & dead[w2] for the triple, and that are not
marked themselves, so the passes test no witness themselves.  (A
cancelled walker's witness is its dropped partner: without the second
test it would come back in every lazy run.)

That is exact.  Between two runs of a pass the only changes are drops,
and a drop among the gates a walk passed over leaves the gate it stops
at, and the answer there, as they were.  Within a run, no drop removes
the witness of a gate the run has yet to reach.  Merge drops only Rz
gates, which never stop a merge walk.  A cancel walker i' drops itself
and its inverse partner j; a later gate i that stopped at j shares a wire
with i' and lies between them, so i' walked past it and commutes(i', i).
commutes is symmetric and answers alike for inverse partners, so
commutes(i, j) too, and i's walk could not have stopped at j.  The
triple rewrite breaks this: it drops the third CNOT, which may be the
witness of a later CNOT that was not due when the run began.  So after
the first rewrite of a lazy triple run, the rest of the run walks the
CNOT list and tests each gate's witnesses as it comes.  optimize() tells
the pass whether its run is lazy; the length of its list cannot, as the
scan below leaves dropped gates out of a full run's list too.  The
rewrite is also the one change that moves a slot onto another wire or
gives a gate new qubits, so every pass walks every gate in the next
sweep after one.

The triple rewrite seldom fires (on the report and compile_wide
benchmarks, never), so a run first makes every test of its loop for all
of its live due CNOTs in one numpy step on the chains as they stand,
_triple_scan: w1 = min(nxt[3i], nxt[3i+1]) // 3; whether g2 = gate w1 is
CNOT(b, c) with c != a, which the chains tell without a qubit index (a
CNOT whose control slot is nxt[3i+1] and whose target slot is not
nxt[3i]); the separator test prv[3 w1 + 1] > 3i; and the third gate k,
and whether gid[k] == gid[i].  It writes the witnesses of every gate
before the first that rewrites, w2 only where w1 is not n, and the
per-gate loop goes on from that gate; with none, the run is over.  That
is exact: until its first rewrite a run changes nothing but witnesses,
which none of its tests read, so each test sees what the scan saw.  The
loop is the one path that rewrites.

Most cancel walks end at the first gate they meet: on the report
benchmark two thirds of the live walks stop there and a third cancel
with it.  So a cancel run first takes the first step of all its live due
walks in one numpy step on the chains as they stand, _cancel_scan: gate
i's first neighbour is j = min(nxt[3i], nxt[3i+1], nxt[3i+2]) // 3 (an
unused slot holds len(nxt), so no arity is needed), the answer there is
looked up once per distinct pair of ids, and stop[i] = j is noted.  Where
j is n or the answer is stop, the walk is settled; the per-gate loop
walks the rest, in order.  That is exact.  Within a run gates are only
dropped, and no gate lies between i and j, so at i's turn the loop meets
j again unless j was dropped first.  It was not: j > i is not a walker
before i, and if an earlier walker i' took j as its partner, i' walked
past i, so commutes(i, j) by the argument above, and i's answer at j
would not be stop.  The loop drops a cancelled pair in place.  When the
walk reaches its partner, each cursor stands at the partner's slot on
its wire, so the loop unlinks the walker's slot and then the partner's,
wire by wire, as _drop would.

Most of the walks the scan leaves cancel with that first neighbour.  So
in a scanned block each walk whose first answer is cancel is a pending
pair (walker i, partner j), unless i is itself the partner of another
such walk: of H, H, H on one wire only the first two pair.  A byte mask,
owned, marks the pending walkers and partners; the loop walks the other
gates the scan left, in order, and at the end of the block _drop_pairs
drops every pending pair at once.  A cancel answer needs the same set of
wires, so i and j are neighbours on every wire of i, and stay so while
gates are dropped.  A loop walk from k > i never meets them: it walks
forward, and to meet j it would have to lie between i and j on a wire of
j.  A walk from k < i meets them as a gate-by-gate run would, where they
are still there; the loop's drops in place keep the chains valid around
them.  A loop walk that answers cancel at an owned gate is the one
divergence, a conflict (of T, T, Tdg on one wire, the first T passes the
second and takes the Tdg, which the second had as pending partner).  The
pairs whose walker comes before it are dropped, the rest are released,
and the loop walks the rest of the block gate by gate, from that walk
on.

_drop_pairs marks the pairs dead and relinks their slots in numpy.  On
each wire the pending slots form runs of neighbours; a run's head is a
slot whose previous gate is not owned, owned[prv // 3], and its tail is
found by pointer doubling over a slot-indexed jump table, in log2 of the
longest run steps; then the head's outer neighbours are linked.  Unlike
marking every drop and relinking once per run (tried: 1.3-1.4x slower,
as its relink looped once per gate in a wire's longest dead stretch and
its walks skipped dead gates), only neighbouring pending gates are
relinked, and no walk meets a dead gate.  The relink leaves a dead
gate's own slots as they were, which differs from the per-gate loop's
unlinks; no pass reads a dead gate's slots.

Both scans take a long run _SCAN_BLOCK gates at a time, which keeps
their temporaries small and stops the triple scan at the block that
holds the first rewrite; owned and jump are allocated once per call.  A
scan costs some 30-50 us whatever its length, more than the loop spends
on a short run, so a run of fewer than _SCAN_MIN gates skips it.

Each pass has its own index list, built once with numpy: cancel the
non-Rz gates, merge the Rz gates, the CNOT-triple check the CNOTs.  No
rewrite changes a kind (the triple keeps a CNOT a CNOT, a merge an Rz an
Rz), so no list ever needs a new entry.  The lists keep their dropped
gates.  A lazy run's due list leaves them out; a full run's keeps them,
and its pass skips each with the None test that also skips a gate an
earlier gate of its run dropped.

The chains come from a table of each distinct (kind, qubits)'s wires,
held as dense ranks so that a qubit index may be any non-negative int:
numpy gathers the table by gate id, sorts the slots by wire and links
neighbours, and numbering the gates is the one Python loop over them.
That adds a fixed cost of some tens of microseconds per call, and the
numpy steps a few more per lazy run.  On the report benchmark
(BENCH_20.json, shared 2-vCPU host) the pending pairs cut pass_s from
0.79 s to 0.67 s (0.84x, lower in 10 of 10 pairs) and the traced self
time of optimize() from 0.47 s to 0.35 s (0.75x), with the same output;
compile_wide pass_s fell to 0.81x.  _SCAN_MIN is set from mirrored
CNOT/H circuits of 48 to 192 gates, where scanning runs of 64 gates or
more made optimize() about 10% slower than never scanning and runs of
256 or more cost nothing measurable.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

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


def _kind_lists(gid: array, ids: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the non-Rz, the Rz and the CNOT gates, in gate order:
    the gates that cancel, merge and the CNOT-triple check walk."""
    g = np.frombuffer(gid, np.intc)
    rz = np.array([kind == "Rz" for kind, _ in ids], bool)[g]
    cnot = np.array([kind == "CNOT" for kind, _ in ids], bool)[g]
    return tuple(np.flatnonzero(m).astype(np.intc) for m in (~rz, rz, cnot))


def _due(todo: np.ndarray, gone: np.ndarray, full: bool, w: np.ndarray,
         v: np.ndarray | None = None) -> np.ndarray:
    """The gates of todo that a run walks: all of them in a full run; in a
    lazy run those whose witness w has been dropped, or, when w is not n,
    whose witness v has.  gone[n] stays False, so the witness n ("stopped
    nowhere") never counts as dropped."""
    if full:
        return todo
    s = w.take(todo)
    due = gone.take(s)
    if v is not None:
        due |= (s != len(gone) - 1) & gone.take(v.take(todo))
    return todo[due > gone.take(todo)]  # due and not dropped itself


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
    while len(at):
        jump[at] = hop
        far = jump.take(hop)
        on = far != hop
        at, hop = at[on], far[on]
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
                gid: array, memo: dict, stop: array, dead: bytearray) -> tuple[bool, float]:
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
        while x < end:
            j = x // 3
            h = gates[j]
            x = nxt[x]
            if h.kind == "Rz":
                g = Gate("Rz", g.qubits, g.angle + h.angle)
                gates[i] = g
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
        r = g.angle % (2.0 * TWO_PI)  # Rz has period 4pi
        if min(r, 2.0 * TWO_PI - r) < ANGLE_EPS:
            _drop(gates, nxt, prv, dead, i)
            changed = True
        elif abs(r - TWO_PI) < ANGLE_EPS:
            _drop(gates, nxt, prv, dead, i)
            phase += math.pi  # Rz(2pi) = -I = e^{i pi} I
            changed = True
    return changed, phase


def _triple_scan(due: np.ndarray, nxt: np.ndarray, prv: np.ndarray, gid: np.ndarray,
                 cnot: np.ndarray, gone: np.ndarray, w1: np.ndarray,
                 w2: np.ndarray) -> tuple[np.ndarray, int]:
    """Every test of the CNOT-triple loop for the live gates of due at once,
    on the chains as they stand: the live gates and the position among them
    of the first that rewrites (len when none does).  Writes the witnesses
    of the gates before it as the loop would, w2 only where w1 is not n.

    The arguments are numpy views; cnot marks the CNOT gates (slot n
    unmarked).  Chain reads past the last slot, which only gates whose
    w1 is n make, are clipped and then masked out."""
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
    before_c = prv.take(c_slot, mode="clip")
    apart = before_c <= base  # no separator on wire c
    k = np.minimum(np.minimum(after_a, nxt.take(c_slot - 1, mode="clip")),
                   nxt.take(c_slot, mode="clip")) // 3
    hit = pair & apart & (gid.take(k, mode="clip") == gid.take(due)) & (k != n)
    second = np.where(pair, np.where(apart, k, before_c // 3), n)
    hits = np.flatnonzero(hit)
    first = int(hits[0]) if len(hits) else len(due)
    i, j, second = due[:first], j[:first], second[:first]
    w1[i] = j
    on = j != n
    w2[i[on]] = second[on]
    return due, first


def _pass_cnot_triple(gates: list[Gate | None], due: np.ndarray, lazy: bool,
                      cnots: np.ndarray, nxt: array, prv: array, gid: array, ids: dict,
                      w1: array, w2: array, dead: bytearray, views: tuple) -> bool:
    """One run over the CNOTs of due; lazy when due holds only the gates
    whose witness was dropped.  views are _triple_scan's numpy arguments.
    The scan settles every gate up to the first rewrite, and this loop goes
    on from there."""
    if len(due) >= _SCAN_MIN:
        for pos in range(0, len(due), _SCAN_BLOCK):
            live, first = _triple_scan(due[pos:pos + _SCAN_BLOCK], *views)
            if first < len(live):
                due = np.concatenate((live[first:], due[pos + _SCAN_BLOCK:]))
                break
        else:
            return False
    changed = False
    end = len(nxt)
    n = end // 3
    todo, pos, check = array("i", due.tobytes()), 0, False
    while pos < len(todo):
        i = todo[pos]
        pos += 1
        g1 = gates[i]
        if g1 is None:
            continue
        if check:
            s = w1[i]
            if not (dead[s] or s != n and dead[w2[i]]):
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
        if lazy and not check:
            # This run skipped some CNOTs, and dropping k can make a later
            # one due: the rest of the run tests each CNOT's witnesses.
            todo, check = array("i", cnots.tobytes()), True
            pos = bisect_right(todo, i)
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
    memo: dict[int, int] = {-1: _BLOCK}  # -1: see _cancel_scan
    # Where each gate's last walk stopped (n: nowhere).  Cancel walks only
    # non-Rz gates and merge only Rz gates, so they share stop.
    n = len(gates)
    stop, w1, w2 = (array("i", [n]) * n for _ in range(3))
    at_stop, at_w1, at_w2 = (np.frombuffer(a, np.intc) for a in (stop, w1, w2))
    dead = bytearray(n + 1)  # dead[i]: gate i was dropped; slot n stays 0
    gone = np.frombuffer(dead, bool)
    owned = bytearray(n + 1)  # owned[i]: gate i is in a pending pair; slot n stays 0
    cnot = np.zeros(n + 1, bool)
    cnot[triple] = True  # kinds never change
    at_nxt, at_prv, at_gid = (np.frombuffer(a, np.intc) for a in (nxt, prv, gid))
    jump = np.empty(3 * n, np.intc)  # see _drop_pairs
    scan_cancel = (at_nxt, at_prv, at_gid, gone, at_stop, np.frombuffer(owned, bool), jump)
    scan_triple = (at_nxt, at_prv, at_gid, cnot, gone, at_w1, at_w2)
    full = True  # every pass walks every gate: the first sweep, and after a rewrite
    phase = c.global_phase
    for _ in range(max_sweeps):
        due = _due(cancel, gone, full, at_stop)
        cancelled = _pass_cancel(gates, due, nxt, prv, gid, memo, stop, dead, owned,
                                 scan_cancel)
        due = _due(merge, gone, full, at_stop)
        merged, dphase = _pass_merge(gates, due, nxt, prv, gid, memo, stop, dead)
        phase += dphase
        due = _due(triple, gone, full, at_w1, at_w2)
        full = _pass_cnot_triple(gates, due, not full, triple, nxt, prv, gid, ids,
                                 w1, w2, dead, scan_triple)
        if not (cancelled or merged or full):
            break
    return Circuit(c.n_qubits, [g for g in gates if g is not None], phase)
