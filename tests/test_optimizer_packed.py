"""Pricing's packed path against the public one.

Pricing synthesizes a Pauli sum straight into gate ids and Rz angles
(circuits._trotter_ids) and runs the optimizer core on them
(models._optimized_step), with no Gate per gate.  Rebuilt into Gates, the
core's survivors must equal optimize(trotter_step(h)) exactly: the same
gates, the same angles and the same global phase, float for float.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudenc import models
from qudenc.circuits import Gate, _trotter_ids, trotter_step
from qudenc.optimizer import optimize
from qudenc.paulis import PauliSum

_THETA = 0.5  # so that a string's Rz angle 2 theta c is its coefficient c
# Angles at the edges of the merge rule: Rz(pi) + Rz(pi) = -I, Rz(2pi), Rz(4pi).
_EDGE_COEFFS = (math.pi, -math.pi, 2 * math.pi, 4 * math.pi, 1.0, -1.0)


@st.composite
def _pauli_sums(draw) -> PauliSum:
    """Up to 12 strings on up to 5 qubits, the identity and repeats included,
    so that neighbouring staircases share basis changes and ladders."""
    n = draw(st.integers(1, 5))
    coeffs = st.one_of(st.sampled_from(_EDGE_COEFFS),
                       st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    h = PauliSum(n)
    for _ in range(draw(st.integers(1, 12))):
        word = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
        h._accumulate(tuple((q, p) for q, p in enumerate(word) if p != "I"), draw(coeffs))
    return h


def _packed(h: PauliSum, max_sweeps: int) -> tuple[list[Gate], float]:
    """The core's survivors on the packed form of trotter_step(h), rebuilt
    into Gates, and the global phase, started from trotter_step's."""
    phase = trotter_step(h, _THETA).global_phase
    gates, _, _, angles, _, phase = models._optimized_step(h, _THETA, phase, max_sweeps)
    return [g if g.kind != "Rz" else Gate("Rz", g.qubits, angles[i])
            for i, g in enumerate(gates) if g is not None], phase


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(_pauli_sums())
def test_property_packed_core_matches_optimize(h):
    for cap in (1, 2, 50):
        want = optimize(trotter_step(h, _THETA), cap)
        assert _packed(h, cap) == (want.gates, want.global_phase)


@pytest.mark.parametrize("terms, match", [
    ({((0, "X"),): 1j}, "Hermitian"),
    ({((0, "Z"),): 1e308}, "Rz angle must be a finite real number, got inf"),
    ({((0, "Z"),): float("nan")}, "Rz angle must be a finite real number, got nan"),
    ({((3, "Z"),): 1.0}, "outside the register"),
], ids=["non-hermitian", "angle-overflow", "angle-nan", "outside-register"])
def test_packed_synthesis_makes_the_checks_of_trotter_step(terms, match):
    h = PauliSum(2)
    h.terms = dict(terms)  # past PauliSum's own register check
    for synthesize in (trotter_step, _trotter_ids):
        with pytest.raises(ValueError, match=match):
            synthesize(h, 1.0)
