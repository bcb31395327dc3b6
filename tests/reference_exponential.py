"""exp(-i t H) by eigendecomposition: the exact evolution that synthesized
Trotter circuits are checked against.  Only the tests use it, so it lives
here rather than in the library."""

import numpy as np

from qudenc.qudit_ops import as_matrix


def matrix_exponential(H, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, via eigendecomposition."""
    m = as_matrix(H)
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("matrix_exponential requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T
