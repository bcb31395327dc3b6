"""The Franck-Condon model terms from a loop over every (j, m, m') triple: a
test oracle.  ``qudenc.models._franck_condon_terms`` sums each row of J at once
and must return the same terms, coefficients equal bit for bit, in the
same order.  The loop takes about M^3 / 2 steps, so it is kept here, not in
the library."""

import numpy as np

from qudenc.models import COEFF_ZERO_TOL, LocalTerm, _identity_matrix, duschinsky_matrix
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
