"""In-circuit conversion between encodings of the same register.

Standard binary <-> Gray is the classic bitwise prefix-XOR: K-1 CNOTs,
no ancillas.  With bit 0 least significant and G = l ^ (l >> 1),

    SB -> Gray : CNOT(i+1 -> i) for i = 0 .. K-2 (ascending)
    Gray -> SB : the same gates in descending order

(ascending order works for SB -> Gray because the controls are the still-
untouched higher SB bits; reversing the list inverts the circuit).

Standard binary -> unary on d wires marks wire l for level l.  The routine
first stages the K binary bits onto wires 2^(b+1) - 1 (counted separately
as layout SWAPs), then grows the one-hot marker through K doubling rounds
of Fredkin fans.  In round b the staged bit acts as control: if clear, the
marker stays in the lower half; if set, CSWAPs move the marker up by 2^b.
The staged control wire is itself inside the upper half, so when the
marker would land exactly on it the wire's own 1 already serves as the
marker: a closing CNOT pair [CNOT(L -> ctrl) fan, CNOT(ctrl -> ctrl - 2^b)]
fixes up that coincidence and clears the duplicate.  Gate totals are exact:

    CNOT = d - 1,  CSWAP = d - K - 1,  X = 1        (K = ceil(log2 d))

and after Clifford+T expansion the CNOT total is 9d - 8K - 9.

Standard binary -> block unary (g = 3, d = 12, local code SB) is built as
a fixed desk-scale showcase: a 4-bit in-place permutation l -> (block << 2)
| (local value), synthesized by a greedy reversible-logic pass, followed
by three Fredkin fan-out steps that route the 2-bit local value into block
b with a single borrowed-ancilla wire (computed by a Toffoli on the block
address, uncomputed through an OR).  Wire layout: 8 code wires (blocks at
[2b, 2b+2)) plus wire 8 as the ancilla.
"""

from __future__ import annotations

from .circuits import Circuit, Gate, ResourceReport, count_resources, toffoli_via_cswap
from .encoding import ceil_log2, check_level_count

SB_TO_GRAY = "sb2gray"
GRAY_TO_SB = "gray2sb"
SB_TO_UNARY = "sb2unary"
UNARY_TO_SB = "unary2sb"
SB_TO_BU = "sb2bu"
CONVERSION_KINDS = (SB_TO_GRAY, GRAY_TO_SB, SB_TO_UNARY, UNARY_TO_SB, SB_TO_BU)


# ---------------------------------------------------------------------------
# SB <-> Gray

def sb_to_gray_circuit(d: int) -> Circuit:
    check_level_count(d)
    K = ceil_log2(d)
    c = Circuit(K)
    for i in range(K - 1):
        c.add("CNOT", i + 1, i)
    return c


def gray_to_sb_circuit(d: int) -> Circuit:
    """Inverse circuit: reversed gate list (every CNOT is self-inverse)."""
    fwd = sb_to_gray_circuit(d)
    return Circuit(fwd.n_qubits, fwd.gates[::-1])


# ---------------------------------------------------------------------------
# SB -> unary

def sb_to_unary_circuit(d: int, include_layout: bool = True) -> Circuit:
    """Map |SB(l) on wires 0..K-1> |0...> to the one-hot |unary(l)>.

    With include_layout=False the binary bits are assumed already staged
    on wires 2^(b+1)-1 (capped at d-1); the layout SWAPs are bookkeeping,
    not arithmetic, and are reported separately.
    """
    check_level_count(d)
    K = ceil_log2(d)
    c = Circuit(d)
    if include_layout:
        for b in range(K - 1, -1, -1):
            src, dst = b, min((1 << (b + 1)) - 1, d - 1)
            if src != dst:
                c.add("SWAP", src, dst)
    c.add("X", 0)
    c.add("CNOT", 1, 0)
    for b in range(1, K):
        ctrl = min((1 << (b + 1)) - 1, d - 1)
        low = 1 << b
        for wire in range(low, ctrl):
            c.add("CSWAP", ctrl, wire - low, wire)
        for wire in range(low, ctrl):
            c.add("CNOT", wire, ctrl)
        c.add("CNOT", ctrl, ctrl - low)
    return c


def unary_to_sb_circuit(d: int, include_layout: bool = True) -> Circuit:
    """Inverse circuit: reversed gate list (every gate is self-inverse)."""
    fwd = sb_to_unary_circuit(d, include_layout)
    return Circuit(d, list(reversed(fwd.gates)), -fwd.global_phase)


# ---------------------------------------------------------------------------
# reversible-logic synthesis of bit permutations (desk scale)

def synthesize_permutation(perm, n_bits: int):
    """Greedy output-side synthesis of |x> -> |perm[x]>.

    Returns a chronological list of (controls, target) multi-controlled-X
    gates.  Working through x in increasing order, the image f(x) is edited
    to x by first turning on missing bits (controls = bits of the current
    image, all above x, so earlier fixed points cannot fire) and then
    turning off surplus bits (controls = bits of x).  The edits act on the
    output side, so the circuit is the reversed edit list.
    """
    size = 1 << n_bits
    if sorted(perm) != list(range(size)):
        raise ValueError("not a permutation of the full bit-pattern range")
    f = list(perm)
    edits: list[tuple[tuple[int, ...], int]] = []

    def apply_edit(controls: tuple[int, ...], target: int):
        mask = 0
        for i in controls:
            mask |= 1 << i
        bit = 1 << target
        for idx, v in enumerate(f):
            if v & mask == mask:
                f[idx] = v ^ bit
        edits.append((controls, target))

    for x in range(size):
        if f[x] == x:
            continue
        cur = f[x]
        for j in range(n_bits):
            if x & (1 << j) and not cur & (1 << j):
                controls = tuple(i for i in range(n_bits) if cur & (1 << i))
                apply_edit(controls, j)
                cur |= 1 << j
        for j in range(n_bits):
            if cur & (1 << j) and not x & (1 << j):
                controls = tuple(i for i in range(n_bits) if x & (1 << i))
                apply_edit(controls, j)
                cur &= ~(1 << j)
        assert f[x] == x
    assert f == list(range(size))
    return list(reversed(edits))


def mcx_gates(controls, target: int, borrow) -> list[Gate]:
    """Multi-controlled X over the native alphabet, up to 3 controls.

    Three controls use one borrowed (dirty) wire w via the double-Toffoli
    trick: TOF(c3, w -> t) TOF(c1, c2 -> w) TOF(c3, w -> t) TOF(c1, c2 -> w).
    """
    k = len(controls)
    if k == 0:
        return [Gate("X", (target,))]
    if k == 1:
        return [Gate("CNOT", (controls[0], target))]
    if k == 2:
        return toffoli_via_cswap(controls[0], controls[1], target)
    if k == 3:
        used = set(controls) | {target}
        free = [w for w in borrow if w not in used]
        if not free:
            raise ValueError("no borrowable wire for a 3-controlled X")
        w = free[0]
        c1, c2, c3 = controls
        return (toffoli_via_cswap(c3, w, target)
                + toffoli_via_cswap(c1, c2, w)
                + toffoli_via_cswap(c3, w, target)
                + toffoli_via_cswap(c1, c2, w))
    raise ValueError("more than 3 controls is out of desk scale here")


# ---------------------------------------------------------------------------
# SB -> block unary (g = 3, d = 12, local code SB)

BU_SHOWCASE_D = 12
BU_SHOWCASE_G = 3


def _bu_stage_permutation() -> list[int]:
    """4-bit permutation sending level l to (block << 2) | local value.

    Levels 12..15 never occur; they are assigned the spare images 0, 4, 8,
    12 (block addresses with empty local slots) to complete a permutation.
    """
    perm = [0] * 16
    for l in range(BU_SHOWCASE_D):
        block, local = divmod(l, BU_SHOWCASE_G)
        perm[l] = (block << 2) | (local + 1)
    spare = [v for v in range(16) if v not in perm[:BU_SHOWCASE_D]]
    for j, x in enumerate(range(BU_SHOWCASE_D, 16)):
        perm[x] = spare[j]
    return perm


def sb_to_bu_circuit() -> Circuit:
    """|SB(l) on wires 0..3> |0 on 4..8>  ->  |block-unary(l) on 0..7> |0>.

    Stage A permutes wires 0..3 in place so that wires 2,3 hold the block
    address Q and wires 0,1 the 2-bit local value v.  Stage B routes v into
    block Q: for Q = 3, 2, 1 in turn, a Toffoli on the address computes the
    ancilla flag, Fredkin gates move v, CNOTs clear the consumed address
    bits, and the flag is uncomputed from the freshly written block (whose
    local value is never 0, so OR of its two wires equals the flag).
    """
    c = Circuit(9)
    perm = _bu_stage_permutation()
    borrow = (4, 5, 6, 7)
    for controls, target in synthesize_permutation(perm, 4):
        c.extend(mcx_gates(controls, target, borrow))

    anc = 8

    def or_uncompute(w0: int, w1: int):
        c.add("CNOT", w0, anc)
        c.add("CNOT", w1, anc)
        c.extend(toffoli_via_cswap(w0, w1, anc))

    # Q = 3: flag = q1 AND q0 (wires 3, 2); move v to wires 6, 7.
    c.extend(toffoli_via_cswap(2, 3, anc))
    c.add("CSWAP", anc, 0, 6)
    c.add("CSWAP", anc, 1, 7)
    c.add("CNOT", anc, 2)
    c.add("CNOT", anc, 3)
    or_uncompute(6, 7)

    # Q = 2: flag = q1 AND (NOT q0); move v to wires 4, 5.
    c.add("X", 2)
    c.extend(toffoli_via_cswap(2, 3, anc))
    c.add("X", 2)
    c.add("CSWAP", anc, 0, 4)
    c.add("CSWAP", anc, 1, 5)
    c.add("CNOT", anc, 3)
    or_uncompute(4, 5)

    # Q = 1: flag = (NOT q1) AND q0; v stays on wires 2, 3 = block 1.
    c.add("X", 3)
    c.extend(toffoli_via_cswap(2, 3, anc))
    c.add("X", 3)
    c.add("CSWAP", anc, 0, 2)
    c.add("CSWAP", anc, 1, 3)
    c.add("CNOT", anc, 0)
    or_uncompute(2, 3)
    return c


# ---------------------------------------------------------------------------
# cost summaries

def _build(kind: str, d: int, include_layout: bool) -> Circuit:
    """The one kind -> circuit dispatch behind conversion_cost and
    conversion_circuit; the builders check d themselves."""
    if kind not in CONVERSION_KINDS:
        raise ValueError(f"unknown conversion kind {kind!r}; choose from {CONVERSION_KINDS}")
    if kind == SB_TO_GRAY:
        return sb_to_gray_circuit(d)
    if kind == GRAY_TO_SB:
        return gray_to_sb_circuit(d)
    if kind == SB_TO_UNARY:
        return sb_to_unary_circuit(d, include_layout)
    if kind == UNARY_TO_SB:
        return unary_to_sb_circuit(d, include_layout)
    if d != BU_SHOWCASE_D:
        raise ValueError(f"the block-unary conversion is built for d = {BU_SHOWCASE_D}")
    return sb_to_bu_circuit()


def conversion_cost(kind: str, d: int, decompose: str = "none") -> ResourceReport:
    """Counts of the built layout-free circuit; they equal the closed forms above."""
    return count_resources(_build(kind, d, include_layout=False), decompose)


def conversion_circuit(kind: str, d: int) -> Circuit:
    return _build(kind, d, include_layout=True)
