"""Output checks that do not call the code under test.

Each check takes what an op produced and returns a list of problems (empty
when the output is right).  The oracles are written here from the
definitions in the source paper, not taken from ``qudenc``:

* codewords of SB / Gray / unary / block-unary (g levels per block, local
  value v+1 in standard binary on ceil(log2(g+1)) bits);
* the action of a Pauli string on a basis state, P|k> = i^{#Y}
  (-1)^{|k & z|} |k ^ x>, used to rebuild the encoded matrix on the code
  space in numpy and compare it with the source matrix;
* the staircase law: a weight-p string costs 2(p-1) CNOTs;
* the SB<->unary tallies CNOT = d-1, CSWAP = d-K-1, and 9d-8K-9 CNOTs
  after Clifford+T expansion (K = ceil(log2 d));
* the A-D scenario rule applied to the five scheme counts.
"""

from __future__ import annotations

import numpy as np

RECONSTRUCTION_TOL = 1e-10
UNITARY_TOL = 1e-9
ENTANGLING = ("CNOT", "SWAP", "CSWAP")
BU_G = 3


def ceil_log2(d: int) -> int:
    return (d - 1).bit_length()


def register_width(kind: str, d: int) -> int:
    if kind in ("sb", "gray"):
        return ceil_log2(d)
    if kind == "unary":
        return d
    return -(-d // BU_G) * BU_G.bit_length()


def codewords(kind: str, d: int) -> list[int]:
    """Codeword of each level as an integer, bit q = qubit q."""
    if kind == "sb":
        return list(range(d))
    if kind == "gray":
        return [l ^ (l >> 1) for l in range(d)]
    if kind == "unary":
        return [1 << l for l in range(d)]
    w = BU_G.bit_length()
    return [((l % BU_G) + 1) << (w * (l // BU_G)) for l in range(d)]


def product_codewords(kind: str, dims) -> list[int]:
    """Joint codewords of a site-by-site register; first site least
    significant both in the qubits and in the joint level index."""
    joint = [0]
    shift = 0
    for d in dims:
        site = codewords(kind, d)
        joint = [prev | (site[l] << shift) for l in range(d) for prev in joint]
        shift += register_width(kind, d)
    return joint


def parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each uint64 by XOR folding (np.bitwise_count needs numpy 2)."""
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return v & np.uint64(1)


def reconstruction_error(pauli_sum, codes, target, chunk: int = 256) -> float:
    """max |<code_i| S |code_j> - target[i, j]| over all levels i, j."""
    codes = np.asarray(codes, dtype=np.uint64)
    dim = len(codes)
    items = list(pauli_sum.terms.items())
    xm = np.zeros(len(items), dtype=np.uint64)
    zm = np.zeros(len(items), dtype=np.uint64)
    amp = np.zeros(len(items), dtype=complex)
    for t, (pstring, coeff) in enumerate(items):
        x = z = ny = 0
        for q, letter in pstring:
            if letter != "Z":
                x |= 1 << q
            if letter != "X":
                z |= 1 << q
            ny += letter == "Y"
        xm[t], zm[t], amp[t] = x, z, complex(coeff) * 1j ** ny
    order = np.argsort(codes)
    ordered = codes[order]
    cols = np.arange(dim)
    real = np.zeros(dim * dim)
    imag = np.zeros(dim * dim)
    for lo in range(0, len(items), chunk):
        hi = lo + chunk
        out = codes[None, :] ^ xm[lo:hi, None]
        odd = parity(codes[None, :] & zm[lo:hi, None])
        val = amp[lo:hi, None] * (1 - 2 * odd.astype(np.int8))
        pos = np.minimum(np.searchsorted(ordered, out), dim - 1)
        hit = ordered[pos] == out
        flat = order[pos[hit]] * dim + np.broadcast_to(cols, out.shape)[hit]
        real += np.bincount(flat, weights=val[hit].real, minlength=dim * dim)
        imag += np.bincount(flat, weights=val[hit].imag, minlength=dim * dim)
    rebuilt = (real + 1j * imag).reshape(dim, dim)
    return float(np.max(np.abs(rebuilt - np.asarray(target))))


def check_reconstruction(pauli_sum, codes, target) -> list[str]:
    err = reconstruction_error(pauli_sum, codes, target)
    if not err < RECONSTRUCTION_TOL:
        return [f"reconstruction error {err:.3g} >= {RECONSTRUCTION_TOL}"]
    return []


def staircase_law_cnots(pauli_sum) -> int:
    """CNOTs of a staircase over every string: 2(p - 1) for weight p >= 1."""
    return sum(2 * (len(s) - 1) for s in pauli_sum.terms if len(s) >= 1)


def gate_tally(gates) -> dict[str, int]:
    out: dict[str, int] = {}
    for g in gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


def check_circuit_pipeline(pauli_sum, raw, opt, entangling_total=None) -> list[str]:
    """Staircase law on the unoptimized circuit, optimizer never grows it,
    and the reported entangling total (when given) matches a recount."""
    problems = []
    raw_tally = gate_tally(raw.gates)
    want = staircase_law_cnots(pauli_sum)
    if raw_tally.get("CNOT", 0) != want:
        problems.append(f"staircase law: {raw_tally.get('CNOT', 0)} CNOTs, want {want}")
    rotations = sum(1 for s in pauli_sum.terms if s)
    if raw_tally.get("Rz", 0) != rotations:
        problems.append(f"{raw_tally.get('Rz', 0)} Rz for {rotations} strings")
    if len(opt.gates) > len(raw.gates):
        problems.append(f"optimizer grew the circuit {len(raw.gates)} -> {len(opt.gates)}")
    recount = sum(v for k, v in gate_tally(opt.gates).items() if k in ENTANGLING)
    if entangling_total is not None and recount != entangling_total:
        problems.append(f"entangling total {entangling_total}, recount {recount}")
    return problems


def check_unitaries(u_ref, u_opt, gates_ref: int, gates_opt: int) -> list[str]:
    problems = []
    # Row blocks keep this check's temporaries out of the peak RSS figure.
    dist = max(float(np.max(np.abs(u_ref[i:i + 64] - u_opt[i:i + 64])))
               for i in range(0, len(u_ref), 64))
    if not dist < UNITARY_TOL:
        problems.append(f"optimized unitary differs by {dist:.3g}")
    if gates_opt > gates_ref:
        problems.append(f"optimizer grew the circuit {gates_ref} -> {gates_opt}")
    return problems


def check_conversion(kind: str, d: int, outputs, body: dict, clifford_t: dict) -> list[str]:
    """Every codeword lands on its image (amplitude 1) and the tallies match
    the closed forms."""
    sb, gray, unary = codewords("sb", d), codewords("gray", d), codewords("unary", d)
    target = {"sb2unary": unary, "unary2sb": sb, "sb2gray": gray, "gray2sb": sb}[kind]
    problems = [f"level {l} not mapped to its codeword"
                for l, out in enumerate(outputs) if not abs(out[target[l]] - 1.0) < UNITARY_TOL]
    K = ceil_log2(d)
    if kind in ("sb2unary", "unary2sb"):
        want = {"CNOT": d - 1, "CSWAP": d - K - 1, "X": 1}
        got = {k: body.get(k, 0) for k in want}
        if got != want:
            problems.append(f"tallies {got}, want {want}")
        if clifford_t.get("CNOT", 0) != 9 * d - 8 * K - 9:
            problems.append(f"Clifford+T CNOTs {clifford_t.get('CNOT', 0)}, "
                            f"want {9 * d - 8 * K - 9}")
    elif body.get("CNOT", 0) != K - 1:
        problems.append(f"SB<->Gray CNOTs {body.get('CNOT', 0)}, want {K - 1}")
    return problems


SCENARIO_ORDER = ("sb_only", "gray_only", "sb_and_gray", "unary_only",
                  "all_with_compacting")


def scenario_of(counts: dict) -> str:
    """A: one compact code wins; B: mixing SB and Gray wins; C: unary wins and
    compacting in and out still beats staying compact (or the mix of all
    three wins outright); D: unary wins but compacting does not pay.  Ties
    go to fewer qubits and fewer conversions, in SCENARIO_ORDER."""
    best = min(counts[k] for k in SCENARIO_ORDER)
    winner = next(k for k in SCENARIO_ORDER if counts[k] == best)
    if winner in ("sb_only", "gray_only"):
        return "A"
    if winner == "sb_and_gray":
        return "B"
    if winner == "unary_only":
        compact = min(counts["sb_only"], counts["gray_only"])
        return "C" if counts["all_with_compacting"] < compact else "D"
    return "C"


# Scenario labels pinned by the acceptance tests, keyed by (model, s or d).
PINNED_SCENARIOS = {("heisenberg", 1.5): ("A", "B")}


def check_report(model: str, d_or_s, site_dim: int, rep) -> list[str]:
    problems = []
    counts = rep.counts
    label = scenario_of(counts)
    if rep.scenario != label:
        problems.append(f"scenario {rep.scenario}, rule gives {label}")
    pinned = PINNED_SCENARIOS.get((model, d_or_s))
    if pinned and rep.scenario not in pinned:
        problems.append(f"scenario {rep.scenario} not in pinned {pinned}")
    K = max(1, ceil_log2(site_dim))
    for k in ("sb_only", "gray_only", "sb_and_gray"):
        if rep.qubits_per_particle[k] != K:
            problems.append(f"{k} uses {rep.qubits_per_particle[k]} qubits, want {K}")
    if rep.qubits_per_particle["unary_only"] != site_dim:
        problems.append(f"unary uses {rep.qubits_per_particle['unary_only']} qubits")
    if rep.conversions["sb_and_gray"] % max(1, 2 * (K - 1)):
        problems.append("SB/Gray conversions are not whole pairs of K-1 CNOTs")
    for k, v in counts.items():
        if counts["sb_only"] and abs(rep.ratios[k] - v / counts["sb_only"]) > 1e-12:
            problems.append(f"ratio of {k} is not its count over sb_only")
    return problems
