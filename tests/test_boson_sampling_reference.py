"""Differential test: boson_sampling_circuit against its hand-built reference.

reference_boson_sampling.py keeps the earlier circuit layer, which builds
each gate's Pauli sum from per-mode a, a^dag and n sums.  The current layer
tensors each gate's sites straight onto their modes' qubits, with the site
product that encode_term also uses; both must give the same circuit down to
the repr of every angle and of the global phase.
"""

import math
import random

import pytest

import reference_boson_sampling as ref
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY
from qudenc.models import BOSON_SAMPLING, ModelSpec, boson_sampling_circuit

KINDS = (SB, GRAY, UNARY, BLOCK_UNARY)
DS = (2, 3, 4, 5, 8)
# theta = 0 and |theta| below the Pauli-sum prune epsilon must keep their
# gates: the angle multiplies the synthesized rotations, not the encoding.
SPECIAL_THETAS = (0.0, 1e-13, -1e-13)


def _random_program(rng: random.Random, N: int) -> list[dict]:
    gates = []
    for _ in range(rng.randint(0, 4)):
        if N >= 2 and rng.random() < 0.6:
            kind, modes = "beamsplitter", rng.sample(range(N), 2)  # either order
        else:
            kind, modes = "phase_shifter", [rng.randrange(N)]
        theta = (rng.choice(SPECIAL_THETAS) if rng.random() < 0.3
                 else rng.uniform(-math.pi, math.pi))
        gates.append({"kind": kind, "modes": modes, "theta": theta})
    return gates


def _fingerprint(circ):
    return (circ.n_qubits, repr(circ.global_phase),
            [(g.kind, g.qubits, repr(g.angle)) for g in circ.gates])


def _cases(n_cases: int = 60):
    rng = random.Random(20191)
    for i in range(n_cases):
        N, d, kind = rng.randint(1, 4), DS[i % len(DS)], KINDS[i % len(KINDS)]
        g = rng.choice((1, 2, 3))
        yield N, d, kind, g, _random_program(rng, N)


@pytest.mark.parametrize("kind", KINDS)
def test_reversed_beamsplitter_at_zero_and_tiny_angles(kind):
    gates = [{"kind": "beamsplitter", "modes": [1, 0], "theta": t}
             for t in SPECIAL_THETAS]
    gates.append({"kind": "phase_shifter", "modes": [1], "theta": 0.0})
    spec = ModelSpec(BOSON_SAMPLING, N=2, d=3, params={"gates": gates})
    got = boson_sampling_circuit(spec, kind)
    assert got.gates  # zero-angle gates are synthesized, not pruned
    assert _fingerprint(got) == _fingerprint(ref.boson_sampling_circuit(spec, kind))


def test_seeded_programs_match_reference():
    for N, d, kind, g, gates in _cases():
        spec = ModelSpec(BOSON_SAMPLING, N=N, d=d, params={"gates": gates})
        got = boson_sampling_circuit(spec, kind, g=g)
        want = ref.boson_sampling_circuit(spec, kind, g=g)
        assert _fingerprint(got) == _fingerprint(want), (N, d, kind, g, gates)
