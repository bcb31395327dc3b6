"""Resource counting by expansion, the reference for count_resources.

Each SWAP and CSWAP is rewritten into the gates of its Clifford+T
template, and the rewritten list is counted gate by gate.
tests/test_circuits.py holds count_resources, which adds each template's
histogram instead, to this.
"""

from qudenc.circuits import (ENTANGLING_KINDS, GATE_ARITY, Circuit, Gate, ResourceReport,
                             cswap_clifford_t, swap_as_cnots)


def _expand_clifford_t(gates: list[Gate]) -> list[Gate]:
    out: list[Gate] = []
    for g in gates:
        if g.kind == "SWAP":
            out.extend(swap_as_cnots(*g.qubits))
        elif g.kind == "CSWAP":
            out.extend(cswap_clifford_t(*g.qubits))
        else:
            out.append(g)
    return out


def count_resources(c: Circuit, decompose: str = "none") -> ResourceReport:
    """The histogram of the gates, expanded under decompose="clifford_t",
    in GATE_ARITY order without zeros."""
    gates = c.gates if decompose == "none" else _expand_clifford_t(c.gates)
    counts = {k: 0 for k in GATE_ARITY}
    for g in gates:
        counts[g.kind] += 1
    counts = {k: v for k, v in counts.items() if v}
    entangling = sum(counts.get(k, 0) for k in ENTANGLING_KINDS)
    return ResourceReport(c.n_qubits, counts, entangling, len(gates))
