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

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import check_level_count

BOSONIC = "bosonic"
SPIN = "spin"
GENERIC = "generic"

BOSONIC_NAMES = ("a", "adag", "q", "p", "q2", "p2", "n", "n2", "n_nminus1")


@dataclass(frozen=True)
class QuditMatrix:
    """A dense complex matrix plus enough provenance to rebuild it at a
    different truncation (operator name and family).

    mat is a read-only complex copy of the matrix given, so the digest,
    taken on first use, always describes what mat holds."""

    mat: np.ndarray
    name: str = "custom"
    family: str = GENERIC

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError(f"need a square matrix of dimension >= 2, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @cached_property
    def digest(self) -> str:
        return _array_digest(self.mat)

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


def _array_digest(m: np.ndarray) -> str:
    m = np.ascontiguousarray(m)
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()[:16]


def matrix_digest(A) -> str:
    """Hash of a matrix's shape and entries.  A QuditMatrix hashes its mat
    once and keeps the digest; a bare array is hashed on every call."""
    if isinstance(A, QuditMatrix):
        return A.digest
    return _array_digest(as_matrix(A))


def bosonic(d: int, name: str) -> QuditMatrix:
    """Truncated bosonic operator by name; see module docstring for the
    truncation convention on squares."""
    check_level_count(d)
    if name not in BOSONIC_NAMES:
        raise ValueError(f"unknown bosonic operator {name!r}; choose from {BOSONIC_NAMES}")
    if name in ("n", "n2", "n_nminus1"):
        # Diagonal: no ladder matrices, and a real diagonal that QuditMatrix
        # turns into its one complex copy.
        ns = np.arange(d, dtype=float)
        diagonal = {"n": ns, "n2": ns ** 2, "n_nminus1": ns * ns - ns}[name]
        return QuditMatrix(np.diag(diagonal), name=name, family=BOSONIC)
    # Complex before conj(), which gives adag's zero imaginary parts a sign.
    a = np.diag(np.sqrt(np.arange(1, d)) + 0j, 1)
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
    else:  # p2
        pm = 1j * (adag - a) / np.sqrt(2)
        m = pm @ pm
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
    l = np.arange(d)
    if axis == "z":
        return QuditMatrix(np.diag(s - l), name="sz", family=SPIN)
    # Ladder element between |l> and |l+1>: sqrt((l+1)(2s-l)).
    c = np.sqrt(l[1:] * (2 * s - l[:-1])) / 2
    above, below = (c, c) if axis == "x" else (-1j * c, 1j * c)
    return QuditMatrix(np.diag(above, 1) + np.diag(below, -1), name=f"s{axis}", family=SPIN)


def first_quantized_x(Nx: int, delta: float) -> QuditMatrix:
    """Diagonal position grid x_i = (i - Nx/2) * delta on Nx points."""
    check_level_count(Nx, "Nx")
    if delta <= 0:
        raise ValueError("delta must be positive")
    xs = (np.arange(Nx) - Nx / 2) * delta
    return QuditMatrix(np.diag(xs), name="x_grid", family=GENERIC)


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
    v = np.random.default_rng(seed).uniform(-1, 1, d - 1)
    return QuditMatrix(np.diag(v, 1) + np.diag(v, -1), name="bmat", family=GENERIC)
