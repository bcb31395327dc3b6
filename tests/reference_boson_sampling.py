"""The boson-sampling circuit layer as it was before it used encode_term.

This is a verbatim copy of the earlier ``qudenc.models.boson_sampling_circuit``,
which encodes a, a^dag and n once per mode register and builds each gate's
Pauli sum by hand; only its local ``Circuit`` import moved to the top.
``qudenc.models.boson_sampling_circuit`` must return exactly the same qubit
count, gates, angles and global phase; tests/test_boson_sampling_reference.py
checks that.  Do not edit this file to follow later changes: it is the
reference they are held to.
"""

from __future__ import annotations

from reference_paulis import multiply, tensor_shift
from qudenc.circuits import Circuit, trotter_step
from qudenc.encoder import encode_matrix
from qudenc.encoding import EncodingSpec, num_qubits
from qudenc.models import BOSON_SAMPLING, ModelSpec, build_model
from qudenc.qudit_ops import bosonic


def boson_sampling_circuit(spec: ModelSpec, kind: str, g: int = 3):
    """Concatenated single-Trotter-factor circuits, one per listed gate."""
    if spec.model != BOSON_SAMPLING:
        raise ValueError("needs a boson_sampling ModelSpec")
    terms = build_model(spec)
    enc = EncodingSpec(kind, spec.d, g=g)
    nq = num_qubits(enc)
    total = spec.N * nq
    circ = Circuit(total)
    a_sum = encode_matrix(enc, bosonic(spec.d, "a")).sum
    adag_sum = encode_matrix(enc, bosonic(spec.d, "adag")).sum
    n_sum = encode_matrix(enc, bosonic(spec.d, "n")).sum
    for term in terms:
        theta = term.coefficient
        if term.label.startswith("phase_shifter"):
            h = tensor_shift(n_sum, term.sites[0] * nq, total)
        else:
            i, j = term.sites
            h = (multiply(tensor_shift(adag_sum, i * nq, total),
                          tensor_shift(a_sum, j * nq, total))
                 + multiply(tensor_shift(a_sum, i * nq, total),
                            tensor_shift(adag_sum, j * nq, total))).simplify()
        step = trotter_step(h, theta)
        circ.gates.extend(step.gates)
        circ.global_phase += step.global_phase
    return circ
