"""Dense d x d matrix operators for a single d-level system.

Bosonic operators live in the truncated Fock basis |0>, ..., |d-1>:
a|l> = sqrt(l) |l-1>, q = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2),
n = diag[0, 1, ..., d-1].  Squares (q2, p2, n2) are products of the
*already truncated* matrices — the standard Fock-truncation convention;
only the boundary rows differ from truncating the exact square.

Spin-s matrices use d = 2s+1 levels ordered by descending magnetization,
<l|S_z|l> = s - l, with the usual ladder elements
sqrt((l+1)(2s-l))/... entering S_x and S_y (hbar = 1).

Also provided: the diagonal first-quantized position grid
x_i = (i - Nx/2) * Delta, and seeded random Hermitian test matrices
(dense, and tridiagonal with a zero diagonal) for resource studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import check_level_count

BOSONIC = "bosonic"
SPIN = "spin"
GENERIC = "generic"

BOSONIC_NAMES = ("a", "adag", "q", "p", "q2", "p2", "n", "n2", "n_nminus1")


@dataclass(frozen=True)
class QuditMatrix:
    """A dense complex matrix plus enough provenance to rebuild it at a
    different truncation (operator name and family)."""

    mat: np.ndarray
    name: str = "custom"
    family: str = GENERIC

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError(f"need a square matrix of dimension >= 2, got shape {m.shape}")
        object.__setattr__(self, "mat", m)

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.mat, dtype=dtype)

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) < 1e-10)


def as_matrix(A) -> np.ndarray:
    """Accept a QuditMatrix or a bare array."""
    if isinstance(A, QuditMatrix):
        return A.mat
    return np.asarray(A, dtype=complex)


def _annihilation(d: int) -> np.ndarray:
    a = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        a[l, l + 1] = np.sqrt(l + 1)
    return a


def bosonic(d: int, name: str) -> QuditMatrix:
    """Truncated bosonic operator by name; see module docstring for the
    truncation convention on squares."""
    check_level_count(d)
    if name not in BOSONIC_NAMES:
        raise ValueError(f"unknown bosonic operator {name!r}; choose from {BOSONIC_NAMES}")
    a = _annihilation(d)
    adag = a.conj().T
    if name == "a":
        m = a
    elif name == "adag":
        m = adag
    elif name == "q":
        m = (adag + a) / np.sqrt(2)
    elif name == "p":
        m = 1j * (adag - a) / np.sqrt(2)
    elif name == "q2":
        qm = (adag + a) / np.sqrt(2)
        m = qm @ qm
    elif name == "p2":
        pm = 1j * (adag - a) / np.sqrt(2)
        m = pm @ pm
    elif name == "n":
        m = np.diag(np.arange(d, dtype=complex))
    elif name == "n2":
        m = np.diag(np.arange(d, dtype=complex) ** 2)
    else:  # n_nminus1
        ns = np.arange(d, dtype=complex)
        m = np.diag(ns * ns - ns)
    return QuditMatrix(m, name=name, family=BOSONIC)


def twice_spin(s) -> int:
    """The integer 2s of a spin s, which must be a finite, positive multiple
    of 1/2 (to within 1e-12); anything else raises ValueError."""
    twice = 2 * float(s)
    if not (math.isfinite(twice) and abs(twice - round(twice)) <= 1e-12 and round(twice) >= 1):
        raise ValueError(f"s must be a finite, positive multiple of 1/2, got {s}")
    return round(twice)


def spin_levels(s) -> int:
    """d = 2s + 1 for a spin s, checked by twice_spin and check_level_count."""
    d = twice_spin(s) + 1
    check_level_count(d, f"2s + 1 for s = {s}")
    return d


def spin(s: float, axis: str) -> QuditMatrix:
    """Spin-s operator S_axis on d = 2s+1 levels, highest magnetization first."""
    d = spin_levels(s)
    s = (d - 1) / 2
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    if axis == "z":
        return QuditMatrix(np.diag([s - l for l in range(d)]).astype(complex),
                           name="sz", family=SPIN)
    # Ladder element between |l> and |l+1>: sqrt((l+1)(2s-l)).
    m = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        c = np.sqrt((l + 1) * (2 * s - l)) / 2
        if axis == "x":
            m[l, l + 1] = c
            m[l + 1, l] = c
        else:
            m[l, l + 1] = -1j * c
            m[l + 1, l] = 1j * c
    return QuditMatrix(m, name=f"s{axis}", family=SPIN)


def first_quantized_x(Nx: int, delta: float) -> QuditMatrix:
    """Diagonal position grid x_i = (i - Nx/2) * delta on Nx points."""
    check_level_count(Nx, "Nx")
    if delta <= 0:
        raise ValueError("delta must be positive")
    xs = [(i - Nx / 2) * delta for i in range(Nx)]
    return QuditMatrix(np.diag(xs).astype(complex), name="x_grid", family=GENERIC)


def dense_hermitian_test_matrix(d: int, seed: int) -> QuditMatrix:
    """Seeded random Hermitian matrix with entries drawn uniform in [-1, 1]
    (real and imaginary parts), then Hermitized."""
    check_level_count(d)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    m = (raw + raw.conj().T) / 2
    return QuditMatrix(m, name="dense", family=GENERIC)


def tridiag_test_matrix(d: int, seed: int) -> QuditMatrix:
    """Seeded random real symmetric tridiagonal matrix with a zero diagonal
    (nonzeros only where |i - j| = 1)."""
    check_level_count(d)
    rng = np.random.default_rng(seed)
    m = np.zeros((d, d), dtype=complex)
    for l in range(d - 1):
        v = rng.uniform(-1, 1)
        m[l, l + 1] = v
        m[l + 1, l] = v
    return QuditMatrix(m, name="bmat", family=GENERIC)
