"""State vectors for the simulator tests."""

import numpy as np


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """The computational basis state |index> on n_qubits qubits."""
    v = np.zeros(2 ** n_qubits, dtype=complex)
    v[index] = 1.0
    return v
