"""The peephole optimizer as it was before the per-wire index: a test oracle.

This is a verbatim copy of the earlier ``qudenc.optimizer`` pass logic: the
commutation predicate and its helpers, the three passes, and the sweep
loop, which runs the passes in the library's one fixed order.  Each pass
scans the whole gate list forward from every candidate and the list is
compacted after every pass.  ``qudenc.optimizer.optimize`` must return
exactly the same gates and global phase; tests/test_optimizer_reference.py
checks that.  Do not edit this file to
follow later optimizer changes: it is the reference they are held to.

``wire_chains`` is the per-wire index builder as a plain loop over every
gate qubit; ``qudenc.optimizer._wire_chains`` must return the same arrays.
``triple_run`` is one run of the per-wire CNOT-triple pass as a per-gate
loop over its due CNOTs; ``qudenc.optimizer._pass_cnot_triple``, which
settles every gate up to the first rewrite in one numpy step, must leave
the same gates, chains, gate ids and witnesses.  ``cancel_run`` is one run
of the per-wire cancel pass as a per-gate loop over its due gates;
``qudenc.optimizer._pass_cancel``, which settles in one numpy step every
walk that stops at its first neighbour, must leave the same gates, chains
and dead mask, give the same answer, and note the same stops for the gates
left live.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

from qudenc.circuits import Circuit, Gate

_DIAGONAL_1Q = frozenset(("Rz", "T", "Tdg", "S", "Sdg"))
_SELF_INVERSE = frozenset(("X", "H", "BasisY", "CNOT", "SWAP", "CSWAP"))
_INVERSE_PAIRS = {("T", "Tdg"), ("Tdg", "T"), ("S", "Sdg"), ("Sdg", "S")}
ANGLE_EPS = 1e-12
TWO_PI = 2.0 * math.pi


def commutes(a: Gate, b: Gate) -> bool:
    """Conservative: True only when commutation is provable."""
    sa, sb = a.support(), b.support()
    if not (sa & sb):
        return True
    if a.kind == b.kind and a.angle == b.angle and _same_action(a, b):
        return True
    # Order-insensitive pairwise cases.
    for g1, g2 in ((a, b), (b, a)):
        if g1.kind in _DIAGONAL_1Q and g2.kind in _DIAGONAL_1Q:
            return True
        if g1.kind in _DIAGONAL_1Q and g2.kind in ("CNOT", "CSWAP"):
            if g1.qubits[0] == g2.qubits[0]:
                return True  # diagonal on the control wire
            if g2.kind == "CNOT" and g1.qubits[0] == g2.qubits[1]:
                return False  # on the target: anticommuting case
            return False
        if g1.kind == "X" and g2.kind == "CNOT":
            return g1.qubits[0] == g2.qubits[1]  # X slides over a target
    if a.kind == "CNOT" and b.kind == "CNOT":
        shared_control = a.qubits[0] == b.qubits[0]
        shared_target = a.qubits[1] == b.qubits[1]
        if shared_control and not shared_target:
            return a.qubits[1] != b.qubits[0] and b.qubits[1] != a.qubits[0]
        if shared_target and not shared_control:
            return True
        return shared_control and shared_target
    if a.kind == "CSWAP" and b.kind == "CSWAP":
        if a.qubits[0] == b.qubits[0]:
            return not (set(a.qubits[1:]) & set(b.qubits[1:]))
        return False
    if {a.kind, b.kind} == {"CNOT", "CSWAP"}:
        cn, cs = (a, b) if a.kind == "CNOT" else (b, a)
        # CNOT controlled by the CSWAP's control, acting off its swap pair.
        return cn.qubits[0] == cs.qubits[0] and cn.qubits[1] not in cs.qubits[1:]
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
    if a.kind in _SELF_INVERSE and _same_action(a, b):
        return True
    if (a.kind, b.kind) in _INVERSE_PAIRS and a.qubits == b.qubits:
        return True
    return False


def _pass_cancel(gates: list[Gate | None]) -> bool:
    changed = False
    n = len(gates)
    for i in range(n):
        g = gates[i]
        if g is None or g.kind == "Rz":
            continue
        j = i + 1
        while j < n:
            h = gates[j]
            if h is None:
                j += 1
                continue
            if _is_inverse_pair(g, h):
                gates[i] = gates[j] = None
                changed = True
                break
            if commutes(g, h):
                j += 1
                continue
            break
    return changed


def _normalized_angle(angle: float) -> float:
    """Reduce modulo 4pi (the period of Rz) into [0, 4pi)."""
    return angle % (2.0 * TWO_PI)


def _pass_merge(gates: list[Gate | None], eps: float) -> tuple[bool, float]:
    changed = False
    phase = 0.0
    n = len(gates)
    for i in range(n):
        g = gates[i]
        if g is None or g.kind != "Rz":
            continue
        j = i + 1
        while j < n:
            h = gates[j]
            if h is None:
                j += 1
                continue
            if h.kind == "Rz" and h.qubits == g.qubits:
                g = Gate("Rz", g.qubits, g.angle + h.angle)
                gates[i] = g
                gates[j] = None
                changed = True
                j += 1
                continue
            if commutes(g, h):
                j += 1
                continue
            break
        r = _normalized_angle(g.angle)
        if min(r, 2.0 * TWO_PI - r) < eps:
            gates[i] = None
            changed = True
        elif abs(r - TWO_PI) < eps:
            gates[i] = None
            phase += math.pi  # Rz(2pi) = -I = e^{i pi} I
            changed = True
    return changed, phase


def _pass_cnot_triple(gates: list[Gate | None]) -> bool:
    changed = False
    n = len(gates)
    for i in range(n):
        g1 = gates[i]
        if g1 is None or g1.kind != "CNOT":
            continue
        a, b = g1.qubits
        # Find the next gate touching {a, b}; it must be CNOT(b, c).
        j = i + 1
        g2 = None
        while j < n:
            h = gates[j]
            if h is None or not (h.support() & {a, b}):
                j += 1
                continue
            g2 = h
            break
        if g2 is None or g2.kind != "CNOT" or g2.qubits[0] != b or g2.qubits[1] == a:
            continue
        c = g2.qubits[1]
        # Separators between g1 and g2 must avoid wire c as well.
        if any(gates[t] is not None and c in gates[t].support()
               for t in range(i + 1, j)):
            continue
        # Find the next gate touching {a, b, c}; it must repeat CNOT(a, b).
        k = j + 1
        g3 = None
        while k < n:
            h = gates[k]
            if h is None or not (h.support() & {a, b, c}):
                k += 1
                continue
            g3 = h
            break
        if g3 is None or g3.kind != "CNOT" or g3.qubits != (a, b):
            continue
        gates[i] = Gate("CNOT", (a, c))
        gates[j] = Gate("CNOT", (b, c))
        gates[k] = None
        changed = True
    return changed


def optimize(c: Circuit, max_sweeps: int = 50) -> Circuit:
    """Run the passes in order to a fixed point; never grows the circuit."""
    gates: list[Gate | None] = list(c.gates)
    phase = c.global_phase
    for _ in range(max_sweeps):
        changed = _pass_cancel(gates)
        gates = [g for g in gates if g is not None]
        did, dphase = _pass_merge(gates, ANGLE_EPS)
        changed |= did
        phase += dphase
        gates = [g for g in gates if g is not None]
        changed |= _pass_cnot_triple(gates)
        gates = [g for g in gates if g is not None]
        if not changed:
            break
    return Circuit(c.n_qubits, gates, phase)


def wire_chains(gates: list[Gate]) -> tuple[array, array, array, dict]:
    """nxt/prv per-wire chains over slots 3*i + s, gate ids and the id table,
    linked by walking every gate's qubits in order."""
    end = 3 * len(gates)
    nxt = array("i", [end]) * end
    prv = array("i", [-1]) * end
    ids: dict[tuple, int] = {}
    gid = array("i", [ids.setdefault((g.kind, g.qubits), len(ids)) for g in gates])
    last: dict[int, int] = {}
    for i, g in enumerate(gates):
        for s, q in enumerate(g.qubits):
            slot = 3 * i + s
            p = last.get(q, -1)
            if p >= 0:
                nxt[p] = slot
                prv[slot] = p
            last[q] = slot
    return nxt, prv, gid, ids


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
    """What a cancel walk from g does on meeting h."""
    if _is_inverse_pair(g, h):
        return _CANCEL
    return _PASS if commutes(g, h) else _BLOCK


def cancel_run(gates: list[Gate | None], due: array, nxt: array, prv: array, gid: array,
               memo: dict, stop: array, dead: bytearray) -> bool:
    """One cancel run over the chains of wire_chains, gate by gate.

    due holds the non-Rz gates the run walks, in gate order.  Each walks its
    wires merged by position, past gates it commutes with, and notes in
    stop the gate it stopped at: the inverse partner it cancelled with, the
    gate that blocked it, or n when it ran off the end.  memo caches the
    answer for each pair of gate ids (gid[i] << 32 | gid[j])."""
    changed = False
    end = len(nxt)
    n = end // 3
    for i in due:
        g = gates[i]
        if g is None:
            continue  # cancelled by an earlier gate of this run
        row = gid[i] << 32
        arity = len(g.qubits)
        # Walk the gate's wires merged by position; a cursor at end is spent.
        base = 3 * i
        x = nxt[base]
        y = nxt[base + 1] if arity > 1 else end
        z = nxt[base + 2] if arity > 2 else end
        while True:
            j = min(x, y, z) // 3
            if j == n:
                break
            key = row | gid[j]
            r = memo.get(key)
            if r is None:
                r = memo[key] = _answer(g, gates[j])
            if r:
                if r == _CANCEL:
                    _drop(gates, nxt, prv, dead, i)
                    _drop(gates, nxt, prv, dead, j)
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


def triple_run(gates: list[Gate | None], due: array, cnots, nxt: array, prv: array,
               gid: array, ids: dict, w1: array, w2: array, dead: bytearray) -> bool:
    """One CNOT-triple run over the chains of wire_chains, gate by gate.

    due holds the CNOTs the run walks, in gate order: every CNOT in a full
    run, the CNOTs whose witness w1 or w2 was dropped (dead) in a lazy run,
    which is how a shorter due than cnots reads.  Each gate notes its
    witnesses: w1 the next gate on {a, b}, then w2 the gate before g2 on
    wire c or the third gate (n: nowhere).  After the first rewrite of a
    lazy run, the rest of the run walks cnots and tests each gate's
    witnesses as it comes."""
    changed = False
    end = len(nxt)
    n = end // 3
    todo, pos, check = due, 0, False
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
        if len(todo) < len(cnots):
            # This run skipped some CNOTs, and dropping k can make a later
            # one due: the rest of the run tests each CNOT's witnesses.
            todo, check = array("i", cnots.tobytes()), True
            pos = bisect_right(todo, i)
        changed = True
    return changed
