"""Same bytes: pinned hashes of reports and optimized pricing circuits.

A change that means to keep every output must leave these values as they
are.  Each test states its own inputs:

- a sweep of 78 model specs through compute_scheme_report, hashed in order
  over each report's JSON with sorted keys, plus every spec's scenario
  label;
- the 86 Pauli sums that pricing builds in one pass over the ten report
  specs of the benchmark at seed 0 (each spec under a cold price cache),
  and the nine compile_wide terms at seed 0.  Each sum's Trotter step goes
  through optimize(trotter_step(...)) at sweep caps 50, 2 and 3.  The
  sha256 covers every surviving gate's kind, qubits and angle repr, and
  each circuit's global-phase repr.  The same gates must come out of
  the core's packed path (reference_models._optimized_step), which drops the
  identity string's phase, so the phase is compared on the optimize path
  only.
- the block-unary conversion circuit at d = 12 through optimize.  Every
  value above stays the same when commutes answers False for every pair:
  no cancel or merge on those staircases needs a walk past a gate that
  shares a wire.  This circuit then keeps all its gates, so it pins
  commutes.

After an intended output change, print the new values with

    PYTHONPATH=src python tests/test_same_bytes.py

and say in the change's record why they moved.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from qudenc import models
from qudenc.circuits import trotter_step
from qudenc.converters import conversion_circuit
from qudenc.models import LocalTerm, ModelSpec, compute_scheme_report
from qudenc.optimizer import optimize
from qudenc.qudit_ops import bosonic
from reference_models import _optimized_step

CAPS = (50, 2, 3)


# ---------------------------------------------------------------------------
# the 78-spec report sweep

_BEAMSPLITTERS = [{"kind": "beamsplitter", "modes": [1, 0], "theta": 0.3},
                  {"kind": "beamsplitter", "modes": [2, 1], "theta": 0.5},
                  {"kind": "beamsplitter", "modes": [0, 2], "theta": 0.7}]


def _sweep_specs() -> list[ModelSpec]:
    """Six models at d = 2..12, Heisenberg at s = 1/2..9/2, and three zero
    or empty models: 78 specs."""
    specs = []
    for d in range(2, 13):
        specs += [ModelSpec("bose_hubbard", N=N, d=d) for N in (1, 2, 3)]
        specs += [ModelSpec("shifted_qho", d=d),
                  ModelSpec("franck_condon", N=3, d=d, seed=d),
                  ModelSpec("boson_sampling", N=3, d=d, params={"gates": _BEAMSPLITTERS})]
    specs += [ModelSpec("heisenberg", N=3, s=k / 2) for k in range(1, 10)]
    specs += [ModelSpec("bose_hubbard", N=2, d=3, params={"t": 0.0, "U": 0.0}),
              ModelSpec("shifted_qho", d=3, params={"omega": 0.0, "delta": 0.0}),
              ModelSpec("boson_sampling", N=2, d=3, params={"gates": []})]
    return specs


SWEEP_SHA256 = "5cd528cfd0c5f2497f46e9d83ee79cc0221b067c6ec707aa6d2fae86fd582a30"
SWEEP_SCENARIOS = ("AAAAAADAAAAADAAAAADCCCCCDAADAADAADAADAAAAADCCCCCDCCCCCDCCCCCDCCDCC"
                   "AAACDABCCAAA")


def _sweep() -> tuple[str, str]:
    h, labels = hashlib.sha256(), []
    for spec in _sweep_specs():
        rep = compute_scheme_report(spec)
        h.update(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
        labels.append(rep.scenario)
    return h.hexdigest(), "".join(labels)


def test_report_sweep_of_78_specs():
    assert len(_sweep_specs()) == 78
    assert _sweep() == (SWEEP_SHA256, SWEEP_SCENARIOS)


# ---------------------------------------------------------------------------
# report's 86 and compile_wide's 9 optimized circuits

_REPORT_SPECS = [
    *(ModelSpec("heisenberg", N=4, s=s) for s in (1.5, 3.5, 7.5)),
    *(ModelSpec("bose_hubbard", N=4, d=d) for d in (6, 8, 12, 16)),
    ModelSpec("shifted_qho", d=32),
    ModelSpec("franck_condon", N=4, d=8, seed=1826701615),
    ModelSpec("boson_sampling", N=4, d=8, params={"gates": [
        {"kind": "beamsplitter", "modes": [3, 1], "theta": 0.47770139926941846},
        {"kind": "phase_shifter", "modes": [0], "theta": 0.12313868973994074},
        {"kind": "beamsplitter", "modes": [2, 3], "theta": 1.3778578081888104},
        {"kind": "phase_shifter", "modes": [2], "theta": 1.1212951853775979},
        {"kind": "beamsplitter", "modes": [1, 3], "theta": 1.4091013933028755},
        {"kind": "phase_shifter", "modes": [1], "theta": 0.10383390023820734},
        {"kind": "beamsplitter", "modes": [2, 3], "theta": 0.14701980542765009},
        {"kind": "phase_shifter", "modes": [0], "theta": 0.3459178688435826},
    ]}),
]

# (code, operator, d, coefficient, theta); a hopping term is
# coefficient * (adag a + a adag) on two sites.
_COMPILE_WIDE = [
    ("block_unary", "hopping", 12, -1.043624991465423, 0.4707825907044957),
    ("unary", "q", 24, 0.7095693498571636, 0.4171340993546895),
    ("unary", "q2", 24, 0.4158293710110963, 0.051232325076566644),
    ("unary", "p2", 24, 0.23277881914895576, 0.4358319244644062),
    ("block_unary", "q2", 24, 0.2132221084228233, 0.06511350888745897),
    ("block_unary", "p2", 24, 0.8506161913602179, 0.3783449508934748),
    ("unary", "hopping", 12, -1.4127555772777218, 0.12904502927115158),
    ("unary", "hopping", 16, -1.1066357757671799, 0.43843051505744896),
    ("unary", "hopping", 20, -1.2294965609839985, 0.2936575491120913),
]

# workload: {cap: (gates out, sha256)}
CIRCUITS = {
    "report": {
        50: (111151, "34877834a6106e6c283a563f960aae58c18df2e22f5ca9e290d4e36c8c7a2fde"),
        2: (178593, "1f9f68ca059fbdc4aed98a1e83ce574adef5565856f7969a9d1807cc1c6ada35"),
        3: (152365, "835b8704cbbfe4e680315441dc57fcd7e4612f3bbcaf845f662f57a2bae24b14"),
    },
    "compile_wide": {
        50: (64786, "b17acc509d7e7aeee5f6732dcd344c71cca74d50b95ff26c6d495a9ca1a7d386"),
        2: (79914, "888caad5f63655fe94a7287cce0b3aa2bc7e219eff9a3280322a55e8cf5fa194"),
        3: (74242, "ec8d85fc830271686fe8b9e212a88e6c0358b6de518f54e520bf0dcc0fa4b6f8"),
    },
}


def _report_sums() -> list:
    """(packed sum, theta) of every term that pricing synthesizes, in order."""
    sums, term_sum = [], models._term_sum

    def recorded(*args, **kwargs):
        sums.append((term_sum(*args, **kwargs), models.PRICING_THETA))
        return sums[-1][0]

    models._term_sum = recorded
    try:
        for spec in _REPORT_SPECS:
            models.clear_price_cache()
            compute_scheme_report(spec)
    finally:
        models._term_sum = term_sum
        models.clear_price_cache()
    assert len(sums) == 86
    return sums


def _compile_wide_sums() -> list:
    sums = []
    for kind, name, d, coeff, theta in _COMPILE_WIDE:
        if name == "hopping":
            a, adag = bosonic(d, "a"), bosonic(d, "adag")
            term = LocalTerm((0, 1), ((adag, a), (a, adag)), coeff, name)
        else:
            term = LocalTerm((0,), ((bosonic(d, name),),), coeff, name)
        sums.append((models._term_sum(term, kind), theta))
    return sums


def _packed_gates(h, theta: float, cap: int):
    """(kind, qubits, angle) of each gate that the core's packed path keeps."""
    gid, ids, angles, dead, _ = _optimized_step(h, theta, 0.0, cap)
    keys = list(ids)
    for i, (kind, qubits) in enumerate(map(keys.__getitem__, gid)):
        if not dead[i]:
            yield kind, qubits, angles[i] if kind == "Rz" else None


def _circuits(sums) -> dict:
    """{cap: (gates out, sha256)} over optimize(trotter_step(...)), with the
    packed path held to the same gates, circuit by circuit."""
    count, digest = dict.fromkeys(CAPS, 0), {cap: hashlib.sha256() for cap in CAPS}
    for h, theta in sums:
        raw = trotter_step(h.unpack(), theta)
        for cap in CAPS:
            opt = optimize(raw, cap)
            gates = [(g.kind, g.qubits, g.angle) for g in opt.gates]
            assert list(_packed_gates(h, theta, cap)) == gates
            count[cap] += len(gates)
            digest[cap].update(_text(opt).encode())
    return {cap: (count[cap], digest[cap].hexdigest()) for cap in CAPS}


def _text(opt) -> str:
    """What the sha256 reads of one optimized circuit."""
    text = "".join(f"{g.kind} {g.qubits} {g.angle!r}\n" for g in opt.gates)
    return f"{text}{opt.global_phase!r}\n"


_SUMS = {"report": _report_sums, "compile_wide": _compile_wide_sums}


@pytest.mark.parametrize("workload", list(CIRCUITS))
def test_optimized_circuits(workload):
    assert _circuits(_SUMS[workload]()) == CIRCUITS[workload]


# ---------------------------------------------------------------------------
# an optimized circuit whose walks pass commuting gates

# (gates in, gates out, sha256); every cap gives the same circuit.
CONVERSION = (60, 56, "2b5170e4bcb5c2a547c298d7f6ed52e8e77a336a9beb6aa03526e3e887090251")


def _conversion() -> tuple:
    circ = conversion_circuit("sb2bu", 12)
    opt = {cap: optimize(circ, cap) for cap in CAPS}
    assert len({_text(o) for o in opt.values()}) == 1
    return len(circ.gates), len(opt[50].gates), hashlib.sha256(_text(opt[50]).encode()).hexdigest()


def test_optimized_conversion_circuit():
    assert _conversion() == CONVERSION


if __name__ == "__main__":
    print("sweep", _sweep())
    for workload, sums in _SUMS.items():
        print(workload, _circuits(sums()))
    print("conversion", _conversion())
