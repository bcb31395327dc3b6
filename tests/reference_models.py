"""Test oracles for qudenc.models.

The Franck-Condon model terms from a loop over every (j, m, m') triple:
``qudenc.models._franck_condon_terms`` sums each row of J at once and must
return the same terms, coefficients equal bit for bit, in the same order.
The loop takes about M^3 / 2 steps, so it is kept here, not in the library.

The site product one Python tuple at a time (``_site_product`` and
``encode_term``, verbatim copies of the library's functions before they
moved onto packed numpy arrays): ``qudenc.models.encode_term`` must give
the same strings, in the same order, with the same coefficients.  Do not
edit these two to follow later changes: they are the reference.

``_optimized_step``, optimize(trotter_step(...)) in the optimizer core's
packed form, moved here verbatim from the library, which no longer calls
it: pricing runs the core with no merge pass.
"""

from itertools import accumulate

import numpy as np

from reference_paulis import tensor_shift
from qudenc.circuits import _trotter_ids
from qudenc.encoder import augment_truncation, encode_matrix
from qudenc.encoding import EncodingSpec, num_qubits
from qudenc.models import COEFF_ZERO_TOL, LocalTerm, _identity_matrix, duschinsky_matrix
from qudenc.optimizer import MAX_SWEEPS, _link, _optimize_ids
from qudenc.paulis import PRUNE_EPS, PackedSum, PauliSum
from qudenc.qudit_ops import bosonic


def franck_condon_terms(spec, omega_A=None, omega_B=None, k=None,
                        delta=None) -> list[LocalTerm]:
    """M = N modes; the defaults depend on M."""
    M, d = spec.N, spec.d
    wA = np.asarray(np.ones(M) if omega_A is None else omega_A, dtype=float)
    wB = np.asarray(np.full(M, 1.1) if omega_B is None else omega_B, dtype=float)
    dvec = np.asarray(np.full(M, 0.2) if delta is None else delta, dtype=float)
    S = duschinsky_matrix(M, min(4, M) if k is None else k, spec.seed)
    J = np.diag(np.sqrt(wB)) @ S @ np.diag(1.0 / np.sqrt(wA))

    quad = np.zeros(M)            # coefficient of q_m^2 (and p_m^2)
    cross = np.zeros((M, M))      # coefficient of q_m q_m' (m < m'), and p p'
    lin = np.zeros(M)             # coefficient of q_m
    const = 0.0
    for j in range(M):
        w = wB[j]
        for m in range(M):
            quad[m] += 0.5 * w * J[j, m] ** 2
            lin[m] += w * dvec[j] * J[j, m]
            for mp in range(m + 1, M):
                cross[m, mp] += w * J[j, m] * J[j, mp]
        const += 0.5 * w * dvec[j] ** 2

    q = bosonic(d, "q")
    p = bosonic(d, "p")
    q2 = bosonic(d, "q2")
    p2 = bosonic(d, "p2")
    terms: list[LocalTerm] = []
    for m in range(M):
        if abs(quad[m]) > COEFF_ZERO_TOL:
            terms.append(LocalTerm((m,), ((q2,),), quad[m], "q2"))
            terms.append(LocalTerm((m,), ((p2,),), quad[m], "p2"))
        if abs(lin[m]) > COEFF_ZERO_TOL:
            terms.append(LocalTerm((m,), ((q,),), lin[m], "linear"))
    for m in range(M):
        for mp in range(m + 1, M):
            if abs(cross[m, mp]) > COEFF_ZERO_TOL:
                terms.append(LocalTerm((m, mp), ((q, q),), cross[m, mp], "qq"))
                terms.append(LocalTerm((m, mp), ((p, p),), cross[m, mp], "pp"))
    if abs(const) > COEFF_ZERO_TOL:
        terms.append(LocalTerm((0,), ((_identity_matrix(d),),), const, "constant"))
    return terms


def _site_product(products, specs, offsets, n_qubits: int) -> PauliSum:
    """Sum of the products' tensor products, site j encoded under specs[j] from
    qubit offsets[j] up.  Sites own disjoint qubits, so strings concatenate and
    coefficients multiply; partial products below PRUNE_EPS drop as in
    reference_paulis.multiply.  A matrix object met again under the same spec
    is encoded once."""
    ascending = offsets == sorted(offsets)
    out = PauliSum(n_qubits)
    encoded: dict = {}
    for product in products:
        acc = [((), 1.0)]
        for spec, offset, m in zip(specs, offsets, product):
            if (spec, id(m)) not in encoded:
                encoded[spec, id(m)] = encode_matrix(spec, m).sum
            part = tensor_shift(encoded[spec, id(m)], offset, n_qubits).terms.items()
            acc = [(sa + sb, c) for sa, ca in acc for sb, cb in part
                   if abs(c := ca * cb) >= PRUNE_EPS]
        for s, c in acc:
            s = s if ascending else tuple(sorted(s))
            out.terms[s] = out.terms.get(s, 0) + c
    return out


def encode_term(term: LocalTerm, kind: str, g: int = 3,
                augment: bool = False) -> PauliSum:
    """Pauli sum of the whole term on a register laid out site by site
    (first site in the lowest qubits)."""
    products = (tuple(tuple(map(augment_truncation, product)) for product in term.factors)
                if augment else term.factors)
    specs = [EncodingSpec(kind, m.d, g=g) for m in products[0]]
    offsets = list(accumulate((num_qubits(sp) for sp in specs), initial=0))
    return (term.coefficient * _site_product(products, specs, offsets, offsets[-1])).simplify()


def _optimized_step(h: PackedSum, theta: float, phase: float = 0.0,
                    max_sweeps: int = MAX_SWEEPS) -> tuple:
    """optimize(trotter_step(h, theta), max_sweeps) in the optimizer core's
    packed form, h's strings being in Trotter order, with no Gate at all.
    Returns the core's gid, ids, angles, dead mask and phase, phase being
    the start phase plus what the merges gained."""
    gid, ids, angles = _trotter_ids(h, theta)
    dead, phase = _optimize_ids(*_link(gid, ids), gid, ids, angles, phase, max_sweeps)
    return gid, ids, angles, dead, phase
