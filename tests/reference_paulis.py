"""The tuple Pauli algebra: products of strings and sums, a string on a
basis state, shifts into a larger register, and a tolerant comparison.

These are verbatim copies of the earlier ``qudenc.paulis`` functions
``multiply_strings`` and ``act_on_bits`` and of the ``PauliSum`` methods
``multiply``, ``tensor_shift`` and ``allclose``, which are module functions
here.  The library multiplies on packed rows (``models._site_product``) and
applies strings on bit masks (``simulator.verify_encoding``), so none of
them has a caller there.  They stay as the algebra that the encoder,
site-product, boson-sampling and verifier oracles are written in, and
tests/test_paulis.py holds them to dense matrices.
"""

from __future__ import annotations

from qudenc.paulis import PauliString, PauliSum

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


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Operator product, distributed term by term and simplified."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch in product")
    out = PauliSum(a.n_qubits)
    for sa, ca in a.terms.items():
        for sb, cb in b.terms.items():
            phase, s = multiply_strings(sa, sb)
            out._accumulate(s, phase * ca * cb)
    return out.simplify()


def tensor_shift(s: PauliSum, offset: int, total: int) -> PauliSum:
    """Embed into a larger register, shifting every qubit index by offset."""
    if offset < 0 or offset + s.n_qubits > total:
        raise ValueError(f"shift by {offset} overflows register of {total}")
    out = PauliSum(total)
    out.terms = {
        tuple((q + offset, p) for q, p in string): c for string, c in s.terms.items()
    }
    return out


def allclose(a: PauliSum, b: PauliSum, tol: float = 1e-10) -> bool:
    if a.n_qubits != b.n_qubits:
        return False
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(s, 0) - b.terms.get(s, 0)) <= tol for s in keys)
