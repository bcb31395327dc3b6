"""Weighted sums of Pauli strings.

A Pauli string is stored as a sorted tuple of (qubit, letter) pairs with
letter in {X, Y, Z}; qubits not listed carry the identity, so the empty
tuple is the identity string.  A :class:`PauliSum` maps strings to complex
coefficients over an explicit qubit count.

Multiplication uses the single-qubit algebra (XY = iZ and cyclic, P^2 = I)
and distributes over terms.  Simplification collects coefficients, prunes
magnitudes below PRUNE_EPS, and orders terms pseudo-alphabetically: sort
by acting qubits (lowest first), breaking ties X < Y < Z, with the identity
first — so e.g. every term containing X0 precedes every term whose lowest
qubit is 1.  That ordering is also the Trotter term order.

Coefficients are complex doubles; the operators this package encodes have
dyadic-rational coefficients, so arithmetic here is exact and anything
below the prune epsilon PRUNE_EPS = 1e-12 is noise.

Pricing holds its sums packed (:class:`PackedSum`): every string is a run
of integer codes in one flat array, so that the site product and the
Trotter staircase run in numpy.  ``PauliSum`` stays the public type.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

PRUNE_EPS = 1e-12

PauliString = tuple[tuple[int, str], ...]

_RANK = {"X": 0, "Y": 1, "Z": 2}

# (a, b) -> (phase, letter or None for identity), reading a.b as matrices.
_PRODUCT: dict[tuple[str, str], tuple[complex, str | None]] = {
    ("X", "X"): (1, None),
    ("Y", "Y"): (1, None),
    ("Z", "Z"): (1, None),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


def string(*factors: tuple[int, str]) -> PauliString:
    """Build a Pauli string from (qubit, letter) pairs, e.g. string((0, "X"), (2, "Z"))."""
    seen = {}
    for q, p in factors:
        if p not in _RANK:
            raise ValueError(f"unknown Pauli letter {p!r}")
        if q in seen:
            raise ValueError(f"duplicate qubit {q}")
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        seen[q] = p
    return tuple(sorted(seen.items()))


# Input rules shared with circuits.py: widths and qubit indices, finite reals.
def _is_nonneg_int(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def _is_finite_real(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def weight(s: PauliString) -> int:
    """Number of non-identity factors."""
    return len(s)


def multiply_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Matrix product a.b as (phase, string)."""
    da, db = dict(a), dict(b)
    phase: complex = 1
    out = []
    for q in sorted(set(da) | set(db)):
        pa, pb = da.get(q), db.get(q)
        if pa is None:
            out.append((q, pb))
        elif pb is None:
            out.append((q, pa))
        else:
            ph, letter = _PRODUCT[(pa, pb)]
            phase *= ph
            if letter is not None:
                out.append((q, letter))
    return phase, tuple(out)


def act_on_bits(s: PauliString, bits) -> tuple[complex, tuple[int, ...]]:
    """Apply the string to a computational basis state |bits> (index = qubit).

    Returns (phase, flipped bits): X flips, Z contributes (-1)^bit,
    Y flips with phase i on |0> and -i on |1>.
    """
    phase: complex = 1
    new = list(bits)
    for q, p in s:
        b = new[q]
        if p == "Z":
            if b:
                phase = -phase
        elif p == "X":
            new[q] = 1 - b
        else:  # Y
            new[q] = 1 - b
            phase *= 1j if b == 0 else -1j
    return phase, tuple(new)


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
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
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

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            return self.multiply(other)
        return other * self

    def multiply(self, other: "PauliSum") -> "PauliSum":
        """Operator product, distributed term by term and simplified."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch in product")
        out = PauliSum(self.n_qubits)
        for sa, ca in self.terms.items():
            for sb, cb in other.terms.items():
                phase, s = multiply_strings(sa, sb)
                out._accumulate(s, phase * ca * cb)
        return out.simplify()

    def simplify(self) -> "PauliSum":
        """Collect, prune |coeff| < PRUNE_EPS, and order terms canonically."""
        out = PauliSum(self.n_qubits)
        # Strings are unique and are their own sort key, so no value is compared.
        out.terms = {s: c for s, c in sorted(self.terms.items(), key=itemgetter(0))
                     if abs(c) >= PRUNE_EPS}
        return out

    def tensor_shift(self, offset: int, total: int) -> "PauliSum":
        """Embed into a larger register, shifting every qubit index by offset."""
        if offset < 0 or offset + self.n_qubits > total:
            raise ValueError(f"shift by {offset} overflows register of {total}")
        out = PauliSum(total)
        out.terms = {
            tuple((q + offset, p) for q, p in s): c for s, c in self.terms.items()
        }
        return out

    def is_hermitian(self) -> bool:
        """Pauli strings are Hermitian, so hermiticity = real coefficients."""
        return all(abs(c.imag) < PRUNE_EPS for c in self.terms.values())

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

    def allclose(self, other: "PauliSum", tol: float = 1e-10) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(s, 0) - other.terms.get(s, 0)) <= tol for s in keys)

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


class PackedSum(NamedTuple):
    """A Pauli sum in compressed sparse rows.  String i is the run of
    lens[i] codes 4 * qubit + letter (X, Y, Z = 1, 2, 3) that follows the
    runs of strings 0..i-1 in codes, and its coefficient is re[i] + i im[i].
    Codes and lens are C ints.  Bit masks would need a bit per qubit, and a
    two-site unary term spans up to 2 * MAX_D qubits."""

    n_qubits: int
    codes: np.ndarray
    lens: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @classmethod
    def pack(cls, items, n_qubits: int) -> "PackedSum":
        """The (string, coefficient) pairs of items, in their order."""
        strings, coeffs = zip(*items) if items else ((), ())
        lens = np.fromiter(map(len, strings), np.intc, len(strings))
        codes = np.fromiter((4 * q + _CODE[p] for s in strings for q, p in s), np.intc,
                            int(lens.sum()))
        c = np.array(coeffs, complex)
        return cls(n_qubits, codes, lens, c.real.copy(), c.imag.copy())

    def unpack(self) -> PauliSum:
        """The PauliSum with these strings and coefficients, in this order."""
        # One (qubit, letter) pair per distinct code, shared by its strings.
        pairs = {code: (code >> 2, _LETTER[code & 3]) for code in np.unique(self.codes).tolist()}
        flat = list(map(pairs.__getitem__, self.codes.tolist()))
        ends = np.cumsum(self.lens).tolist()
        out = PauliSum(self.n_qubits)
        out.terms = dict(zip(map(tuple, map(flat.__getitem__, map(slice, [0] + ends, ends))),
                             map(complex, self.re.tolist(), self.im.tolist())))
        return out

    def pruned(self) -> "PackedSum":
        """Without the strings whose coefficients simplify prunes."""
        keep = np.hypot(self.re, self.im) >= PRUNE_EPS
        return PackedSum(self.n_qubits, self.codes[np.repeat(keep, self.lens)],
                         self.lens[keep], self.re[keep], self.im[keep])

    def is_hermitian(self) -> bool:
        """PauliSum.is_hermitian on the packed coefficients."""
        return bool((np.abs(self.im) < PRUNE_EPS).all())
