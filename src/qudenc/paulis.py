"""Weighted sums of Pauli strings.

A Pauli string is stored as a sorted tuple of (qubit, letter) pairs with
letter in {X, Y, Z}; qubits not listed carry the identity, so the empty
tuple is the identity string.  A :class:`PauliSum` maps strings to complex
coefficients over an explicit qubit count.

Simplification collects coefficients, prunes magnitudes below PRUNE_EPS,
and orders terms pseudo-alphabetically: sort by acting qubits (lowest
first), breaking ties X < Y < Z, with the identity first — so e.g. every
term containing X0 precedes every term whose lowest qubit is 1.  That
ordering is also the Trotter term order.

Coefficients are complex doubles.  Pruning (_kept) drops a modulus below
PRUNE_EPS = 1e-12.  A sum is Hermitian (_real) if every |im| is at most
REAL_COEFF_TOL = 1e-12 times max(1, the sum's largest finite |re|).

Pricing holds its sums packed (:class:`PackedSum`): every string is a row
of integer codes 4 * qubit + letter, padded with _END, so that the site
product and the Trotter staircase run in numpy.  ``PauliSum`` stays the
public type.

The library multiplies sums only on disjoint qubits, on packed rows, and
applies strings on bit masks; the general product (XY = iZ and cyclic) and a
string on a basis state are the tests' reference, tests/reference_paulis.py.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

PRUNE_EPS = 1e-12
REAL_COEFF_TOL = 1e-12

PauliString = tuple[tuple[int, str], ...]

_RANK = {"X": 0, "Y": 1, "Z": 2}


def string(*factors: tuple[int, str]) -> PauliString:
    """Build a Pauli string from (qubit, letter) pairs, e.g. string((0, "X"), (2, "Z"))."""
    seen = {}
    for q, p in factors:
        if p not in _RANK:
            raise ValueError(f"unknown Pauli letter {p!r}")
        if q in seen:
            raise ValueError(f"duplicate qubit {q}")
        _check_index(q)
        seen[q] = p
    return tuple(sorted(seen.items()))


# Input rules shared with circuits.py: widths and qubit indices, finite reals.
_INT = (int, np.integer)


def _is_nonneg_int(n) -> bool:
    return isinstance(n, _INT) and not isinstance(n, bool) and n >= 0


def _int_error(x, negative: str, what: str = "qubit index") -> ValueError:
    """The error for an x that _is_nonneg_int refuses: the message negative
    if x is a negative integer, else that x is not an integer."""
    if isinstance(x, _INT) and not isinstance(x, bool):
        return ValueError(negative)
    return ValueError(f"{what} must be an integer, got {x!r}")


def _check_index(q) -> None:
    """A qubit index must be an integer >= 0."""
    if not _is_nonneg_int(q):
        raise _int_error(q, f"negative qubit index {q}")


def _is_finite_real(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _kept(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Which coefficients re + i im pruning keeps: |c| >= PRUNE_EPS, with
    |c| the C hypot that abs(complex) takes.  A finite c whose modulus
    overflows is kept, where abs(c) would raise OverflowError."""
    with np.errstate(over="ignore"):
        return np.hypot(re, im) >= PRUNE_EPS


def _real(re: np.ndarray, im: np.ndarray) -> bool:
    """The realness rule above, on the whole sum's scale, as rounding residue
    sits on strings whose true coefficient is 0; no non-finite re is in it."""
    scale = np.abs(re).max(initial=1.0, where=np.isfinite(re))
    return bool((np.abs(im) <= REAL_COEFF_TOL * scale).all())


def weight(s: PauliString) -> int:
    """Number of non-identity factors."""
    return len(s)


def string_to_text(s: PauliString) -> str:
    """Token form "X0 Z2"; the identity string is the empty text."""
    return " ".join(f"{p}{q}" for q, p in s)


def text_to_string(text: str) -> PauliString:
    """Parse "X0 Z2" (or "" / "I" for the identity)."""
    text = text.strip()
    if text in ("", "I"):
        return ()
    factors = []
    for token in text.split():
        letter, idx = token[0].upper(), token[1:]
        if letter not in _RANK or not idx.isdigit():
            raise ValueError(f"bad Pauli token {token!r}")
        factors.append((int(idx), letter))
    return string(*factors)


class PauliSum:
    """A finite map Pauli string -> complex coefficient on n_qubits qubits."""

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Mapping[PauliString, complex] | None = None):
        if not _is_nonneg_int(n_qubits):
            raise _int_error(n_qubits, "n_qubits must be non-negative", "n_qubits")
        self.n_qubits = n_qubits
        self.terms: dict[PauliString, complex] = {}
        if terms:
            for s, c in terms.items():
                self._accumulate(s, c)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, {(): 1.0})

    def copy(self) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = dict(self.terms)
        return out

    def _accumulate(self, s: PauliString, c: complex) -> None:
        for q, _ in s:
            _check_index(q)
            if q >= self.n_qubits:
                raise ValueError(f"qubit {q} outside register of {self.n_qubits}")
        self.terms[s] = self.terms.get(s, 0) + complex(c)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch in addition")
        out = self.copy()
        for s, c in other.terms.items():
            out._accumulate(s, c)
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "PauliSum":
        out = PauliSum(self.n_qubits)
        out.terms = {s: scalar * c for s, c in self.terms.items()}
        return out

    def simplify(self) -> "PauliSum":
        """Collect, prune |coeff| < PRUNE_EPS, and order terms canonically."""
        out = PauliSum(self.n_qubits)
        # Strings are unique and are their own sort key, so no value is compared.
        items = sorted(self.terms.items(), key=itemgetter(0))
        coeffs = np.array([c for _, c in items], complex)
        out.terms = dict(compress(items, _kept(coeffs.real, coeffs.imag)))
        return out

    def is_hermitian(self) -> bool:
        """Pauli strings are Hermitian, so hermiticity = real coefficients."""
        c = np.array(list(self.terms.values()), complex)
        return _real(c.real, c.imag)

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterable[tuple[PauliString, complex]]:
        return iter(self.terms.items())

    def coeff(self, s: PauliString) -> complex:
        return self.terms.get(tuple(sorted(s)), 0)

    def max_weight(self) -> int:
        return max((weight(s) for s in self.terms), default=0)

    def __repr__(self) -> str:
        inner = " + ".join(
            f"({c:.6g})*{string_to_text(s) or 'I'}" for s, c in list(self.terms.items())[:6]
        )
        extra = "" if len(self.terms) <= 6 else f" + ... [{len(self.terms)} terms]"
        return f"PauliSum({self.n_qubits} qubits: {inner}{extra})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        ordered = sorted(self.terms)
        return {
            "n_qubits": self.n_qubits,
            "terms": [
                {"pauli": string_to_text(s), "re": self.terms[s].real, "im": self.terms[s].imag}
                for s in ordered
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PauliSum":
        if not (isinstance(data, Mapping) and _is_nonneg_int(data.get("n_qubits"))
                and isinstance(data.get("terms"), list)):
            raise ValueError("Pauli-sum JSON needs an integer 'n_qubits' >= 0 and a 'terms' list")
        out = cls(data["n_qubits"])
        for pos, entry in enumerate(data["terms"]):
            if not (isinstance(entry, Mapping) and isinstance(entry.get("pauli"), str)
                    and all(_is_finite_real(entry.get(k, 0.0)) for k in ("re", "im"))):
                raise ValueError(f"term {pos} of Pauli-sum JSON needs a 'pauli' "
                                 "string and finite numeric 're' / 'im'")
            out._accumulate(text_to_string(entry["pauli"]),
                            complex(entry.get("re", 0.0), entry.get("im", 0.0)))
        return out


# ---------------------------------------------------------------------------
# packed form

_CODE = {"X": 1, "Y": 2, "Z": 3}
_LETTER = (None, "X", "Y", "Z")
_END = np.iinfo(np.intc).max  # pads a row; above every code, so sorting a row puts it last


@lru_cache(maxsize=16)
def _pairs(n: int) -> tuple:
    """The (qubit, letter) pair of each code 4 * qubit + letter of an
    n-qubit register, None at the identity codes 4 * qubit, shared by the
    strings built from them."""
    return tuple(letter and (q, letter) for q in range(n) for letter in _LETTER)


class PackedSum(NamedTuple):
    """A Pauli sum as padded rows.  Row i holds string i's codes
    4 * qubit + letter (X, Y, Z = 1, 2, 3) in qubit order, then _END to the
    row's end, and its coefficient is re[i] + i im[i].  Codes are C ints.
    Bit masks would need a bit per qubit, and a two-site unary term spans
    up to 2 * MAX_D qubits."""

    n_qubits: int
    rows: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @classmethod
    def pack(cls, items, n_qubits: int) -> "PackedSum":
        """The (string, coefficient) pairs of items, in their order."""
        strings, coeffs = zip(*items) if items else ((), ())
        lens = np.fromiter(map(len, strings), np.intc, len(strings))
        rows = np.full((len(strings), lens.max(initial=0)), _END, np.intc)
        rows[np.arange(rows.shape[1]) < lens[:, None]] = np.fromiter(
            (4 * q + _CODE[p] for s in strings for q, p in s), np.intc, int(lens.sum()))
        c = np.array(coeffs, complex)
        return cls(n_qubits, rows, c.real.copy(), c.imag.copy())

    def unpack(self) -> PauliSum:
        """The PauliSum with these strings and coefficients, in this order.
        It reads only codes of its own register, 0 <= code < 4 * n_qubits."""
        pairs, live = _pairs(self.n_qubits), self.rows != _END
        flat = list(map(pairs.__getitem__, self.rows[live].tolist()))
        ends = np.cumsum(live.sum(axis=1)).tolist()
        out = PauliSum(self.n_qubits)
        out.terms = dict(zip(map(tuple, map(flat.__getitem__, map(slice, [0] + ends, ends))),
                             map(complex, self.re.tolist(), self.im.tolist())))
        return out

    def pruned(self) -> "PackedSum":
        """Without the strings whose coefficients simplify prunes."""
        keep = _kept(self.re, self.im)
        return PackedSum(self.n_qubits, self.rows[keep], self.re[keep], self.im[keep])

    def is_hermitian(self) -> bool:
        """PauliSum.is_hermitian on the packed coefficients."""
        return _real(self.re, self.im)
