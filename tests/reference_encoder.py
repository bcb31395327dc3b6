"""The encoder layer as it was before the one-dict sum: a test oracle.

This is a verbatim copy of the earlier ``qudenc.encoder.encode_element`` and
``encode_matrix`` and of the sum in ``qudenc.models.encode_term``.  Each
matrix element is expanded into its own simplified ``PauliSum`` and added
to a running total with ``total = total + element``, which copies the whole
total every time.  ``qudenc.encoder.encode_matrix`` and
``qudenc.models.encode_term`` must return the same terms in the same order
with ``repr``-equal coefficients; tests/test_encoder_reference.py checks
that.  Do not edit this file to follow later encoder changes: it is the
reference they are held to.
"""

from __future__ import annotations

from qudenc import encoding as enc_mod
from qudenc.encoder import EncodedOperator, augment_truncation
from qudenc.encoding import EncodingSpec, bitmask_subset, encode, num_qubits
from qudenc.paulis import PauliSum
from qudenc.qudit_ops import as_matrix

ZERO_ENTRY_TOL = 1e-14

# Per-qubit substitution rules keyed by (bit of l, bit of l'):
# list of (letter or None, coefficient) factors.
_RULES = {
    (0, 0): ((None, 0.5), ("Z", 0.5)),
    (1, 1): ((None, 0.5), ("Z", -0.5)),
    (0, 1): (("X", 0.5), ("Y", 0.5j)),
    (1, 0): (("X", 0.5), ("Y", -0.5j)),
}


def encode_element(spec: EncodingSpec, l: int, lp: int, coeff: complex = 1.0) -> PauliSum:
    """Pauli sum for coeff * |l><l'|."""
    bits_l = encode(spec, l)
    bits_lp = encode(spec, lp)
    union = sorted(bitmask_subset(spec, l) | bitmask_subset(spec, lp))
    n = enc_mod.num_qubits(spec)
    expansion: list[tuple[tuple[tuple[int, str], ...], complex]] = [((), complex(coeff))]
    for q in union:
        rule = _RULES[(bits_l[q], bits_lp[q])]
        expansion = [
            (ops if letter is None else ops + ((q, letter),), c * rc)
            for ops, c in expansion
            for letter, rc in rule
        ]
    out = PauliSum(n)
    for ops, c in expansion:
        out._accumulate(ops, c)
    return out.simplify()


def encode_matrix(spec: EncodingSpec, A) -> EncodedOperator:
    """Encode a whole d x d matrix: sum of element encodings, simplified.

    Entries below ``ZERO_ENTRY_TOL`` are treated as structural zeros so
    that analytically sparse operators keep their sparsity pattern.
    """
    m = as_matrix(A)
    if m.shape[0] != spec.d:
        raise ValueError(f"matrix dimension {m.shape[0]} != spec.d {spec.d}")
    n = enc_mod.num_qubits(spec)
    total = PauliSum(n)
    for l in range(spec.d):
        for lp in range(spec.d):
            c = m[l, lp]
            if abs(c) < ZERO_ENTRY_TOL:
                continue
            total = total + encode_element(spec, l, lp, c)
    return EncodedOperator(total.simplify())


def encode_term(term, kind: str, g: int = 3, augment: bool = False) -> PauliSum:
    """Pauli sum of the whole term on a register laid out site by site
    (first site in the lowest qubits)."""
    matrices = term.factors
    if augment:
        matrices = tuple(tuple(augment_truncation(m) for m in product)
                         for product in matrices)
    dims = tuple(matrices[0][j].d for j in range(len(term.sites)))
    specs = [EncodingSpec(kind, dj, g=g) for dj in dims]
    widths = [num_qubits(sp) for sp in specs]
    offsets = [sum(widths[:j]) for j in range(len(widths))]
    total = sum(widths)
    out = PauliSum(total)
    for product in matrices:
        acc: PauliSum | None = None
        for j, m in enumerate(product):
            part = encode_matrix(specs[j], m).sum.tensor_shift(offsets[j], total)
            acc = part if acc is None else acc.multiply(part)
        out = out + acc
    return (term.coefficient * out).simplify()
