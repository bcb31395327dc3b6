"""The encoding verifier as it was before it ran in numpy: a test oracle.

This is a verbatim copy of the earlier ``qudenc.simulator.verify_encoding``,
which applies every Pauli string to every codeword with one
``act_on_bits`` call each and adds the hits into one dict per column.
``qudenc.simulator.verify_encoding`` must return the same float, compared
with ``==``; tests/test_simulator.py checks that.  Do not edit this file to
follow later simulator changes: it is the reference they are held to.
"""

from __future__ import annotations

from reference_paulis import act_on_bits
from qudenc import encoder
from qudenc.encoding import EncodingSpec, encode
from qudenc.paulis import PauliSum
from qudenc.qudit_ops import as_matrix


def verify_encoding(spec: EncodingSpec, A, s: PauliSum | None = None) -> float:
    """Max abs error of <R(l)|M|R(l')> against A[l, l'], over all l, l'.

    Runs matrix-free, so it works for unary codes far past the dense cap.
    """
    m = as_matrix(A)
    if s is None:
        s = encoder.encode_matrix(spec, m).sum
    d = spec.d
    codewords = [encode(spec, l) for l in range(d)]
    # Group the reconstruction by ket: apply every term once per column.
    index = {bits: l for l, bits in enumerate(codewords)}
    err = 0.0
    for lp in range(d):
        column = {}
        for pstring, coeff in s.terms.items():
            phase, out_bits = act_on_bits(pstring, codewords[lp])
            l = index.get(out_bits)
            if l is not None:
                column[l] = column.get(l, 0.0 + 0.0j) + coeff * phase
        for l in range(d):
            err = max(err, abs(column.get(l, 0.0) - m[l, lp]))
    return float(err)
