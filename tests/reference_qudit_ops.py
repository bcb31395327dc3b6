"""Test oracles for qudenc.qudit_ops: the named operators one level at a time.

Verbatim copies of the library's builders before they filled their bands
from numpy diagonals, less the input checks.  Each returns the matrix that
the library wraps in a QuditMatrix; qudenc.qudit_ops must give the same
bytes, signed zeros included.  Do not edit these to follow later changes:
they are the reference.
"""

import numpy as np


def _annihilation(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        a[l, l + 1] = np.sqrt(l + 1)
    return a


def bosonic(d: int, name: str) -> np.ndarray:
    if name in ("n", "n2", "n_nminus1"):
        ns = np.arange(d, dtype=float)
        return np.diag({"n": ns, "n2": ns ** 2, "n_nminus1": ns * ns - ns}[name])
    a = _annihilation(d)
    adag = a.conj().T
    if name == "a":
        return a
    if name == "adag":
        return adag
    if name == "q":
        return (adag + a) / np.sqrt(2)
    if name == "p":
        return 1j * (adag - a) / np.sqrt(2)
    if name == "q2":
        qm = (adag + a) / np.sqrt(2)
        return qm @ qm
    pm = 1j * (adag - a) / np.sqrt(2)  # p2
    return pm @ pm


def spin(d: int, axis: str) -> np.ndarray:
    """S_axis on d = 2s + 1 levels, highest magnetization first."""
    s = (d - 1) / 2
    if axis == "z":
        return np.diag([s - l for l in range(d)])
    m = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        c = np.sqrt((l + 1) * (2 * s - l)) / 2
        if axis == "x":
            m[l, l + 1] = c
            m[l + 1, l] = c
        else:
            m[l, l + 1] = -1j * c
            m[l + 1, l] = 1j * c
    return m


def first_quantized_x(Nx: int, delta: float) -> np.ndarray:
    return np.diag([(i - Nx / 2) * delta for i in range(Nx)])


def tridiag_test_matrix(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        v = rng.uniform(-1, 1)
        m[l, l + 1] = v
        m[l + 1, l] = v
    return m
