"""The four workloads: fixed op lists generated from the seed.

An op is one closed-loop call into the public library API.  Its ``run``
is the timed part; ``summarize`` (the behavioural outputs compared with
expected.json) and ``check`` (independent oracles) run after the timer
stops.  ``seeded`` marks ops whose input depends on --seed; their
expected outputs are only compared at the default seed.

All library calls go through module attributes (``models.encode_term``,
``optimizer.optimize``, ...) so the traced run can wrap them.

Why each workload exists is recorded in README.md; in short:
  report        the paper's product: pricing, price cache, scheme logic
  compile_wide  wide unary / block-unary circuits, optimizer-bound
  map_dense     encoder-bound, no synthesis or optimizer at all
  verify        simulator and converters (the test oracles)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from qudenc import bounds, circuits, converters, encoder, models, optimizer, simulator
from qudenc.encoding import EncodingSpec
from qudenc.qudit_ops import (bosonic, dense_hermitian_test_matrix,
                              first_quantized_x, tridiag_test_matrix)

import checks

DEFAULT_SEED = 0
WORKLOADS = ("report", "compile_wide", "map_dense", "verify")
CODES = ("sb", "gray", "unary", "block_unary")


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[object], list]
    seeded: bool


# ---------------------------------------------------------------------------
# report: compute_scheme_report over a fixed model list

def _report(spec):
    models.clear_price_cache()  # every op pays what a fresh `qudenc report` pays
    return models.compute_scheme_report(spec)


def _report_summary(rep) -> dict:
    return {"counts": dict(rep.counts), "scenario": rep.scenario,
            "conversions": dict(rep.conversions),
            "qubits": dict(rep.qubits_per_particle)}


def _boson_sampling_gates(rng, modes: int, n_gates: int) -> list[dict]:
    gates = []
    for r in range(n_gates):
        theta = float(rng.uniform(0.1, 1.5))
        if r % 2:
            gates.append({"kind": "phase_shifter", "modes": [int(rng.integers(modes))],
                          "theta": theta})
        else:
            i, j = rng.choice(modes, size=2, replace=False)
            gates.append({"kind": "beamsplitter", "modes": [int(i), int(j)],
                          "theta": theta})
    return gates


def report_ops(rng, tiny: bool) -> list[Op]:
    N = 2 if tiny else 4
    entries = [(f"heisenberg/N{N}/s{s}", models.ModelSpec("heisenberg", N=N, s=s), False)
               for s in ((1.5,) if tiny else (1.5, 3.5, 7.5))]
    entries += [(f"bose_hubbard/N{N}/d{d}", models.ModelSpec("bose_hubbard", N=N, d=d),
                 False) for d in ((3,) if tiny else (6, 8, 12, 16))]
    qho_d = 4 if tiny else 32
    entries.append((f"shifted_qho/N1/d{qho_d}", models.ModelSpec("shifted_qho", d=qho_d),
                    False))
    fc_d = 3 if tiny else 8
    entries.append((f"franck_condon/N{N}/d{fc_d}",
                    models.ModelSpec("franck_condon", N=N, d=fc_d,
                                     seed=int(rng.integers(1 << 31))), True))
    bs_d = 3 if tiny else 8
    entries.append((f"boson_sampling/N{N}/d{bs_d}",
                    models.ModelSpec("boson_sampling", N=N, d=bs_d,
                                     params={"gates": _boson_sampling_gates(rng, N, 2 * N)}),
                    True))
    ops = []
    for key, spec, seeded in entries:
        d_or_s = spec.s if spec.model == "heisenberg" else spec.d
        ops.append(Op(f"report/{key}", partial(_report, spec), _report_summary,
                      partial(checks.check_report, spec.model, d_or_s, spec.site_dim),
                      seeded))
    return ops


# ---------------------------------------------------------------------------
# compile_wide: encode_term -> trotter_step -> optimize -> count_resources

def _compile(term, kind, theta):
    h = models.encode_term(term, kind)
    raw = circuits.trotter_step(h, theta)
    opt = optimizer.optimize(raw)
    return h, raw, opt, circuits.count_resources(opt)


def _compile_summary(result) -> dict:
    h, raw, opt, rep = result
    return {"qubits": h.n_qubits, "terms": len(h.terms), "gates_in": len(raw.gates),
            "gates_out": len(opt.gates), "entangling": rep.entangling_total}


def _joint_matrix(term) -> np.ndarray:
    """coefficient * sum of site products, first site least significant."""
    total = 0
    for product in term.factors:
        acc = np.ones((1, 1))
        for m in product:
            acc = np.kron(np.asarray(m), acc)
        total = total + acc
    return term.coefficient * total


def _compile_check(term, kind, result) -> list:
    h, raw, opt, rep = result
    codes = checks.product_codewords(kind, term.site_dims())
    return (checks.check_circuit_pipeline(h, raw, opt, rep.entangling_total)
            + checks.check_reconstruction(h, codes, _joint_matrix(term)))


def compile_wide_ops(rng, tiny: bool) -> list[Op]:
    quad_d = 4 if tiny else 24
    hops = (("unary", 3), ("block_unary", 4)) if tiny else \
        (("unary", 12), ("unary", 16), ("unary", 20), ("block_unary", 12))
    # Five cheap quadratures below four hopping circuits: op_p50_ms falls on
    # the dearest quadrature (block-unary q2 / p2, which cost the same) and
    # op_p90_ms (p61 here) on the cheapest hopping circuit, unary d=12.
    quads = [("unary", name) for name in ("q", "q2", "p2")]
    quads += [("block_unary", name) for name in ("q2", "p2")]
    entries = []
    for kind, name in quads:
        coeff = float(rng.uniform(0.2, 1.0))
        term = models.LocalTerm((0,), ((bosonic(quad_d, name),),), coeff, name)
        entries.append((f"{kind}/{name}/d{quad_d}", term, kind))
    for kind, d in hops:
        a, adag = bosonic(d, "a"), bosonic(d, "adag")
        term = models.LocalTerm((0, 1), ((adag, a), (a, adag)),
                                -float(rng.uniform(0.5, 1.5)), "hopping")
        entries.append((f"{kind}/hopping/d{d}", term, kind))
    # The block-unary hopping circuit (63k gates) goes first, so the warm-up
    # op grows the heap to its working size; otherwise the first timed pass
    # runs the small ops up to 1.5 times slower.
    entries.insert(0, entries.pop())
    # Coefficients and angles come from the seed; gate counts do not depend
    # on them, so these ops are compared with expected.json at every seed.
    return [Op(f"compile_wide/{key}",
               partial(_compile, term, kind, float(rng.uniform(0.05, 0.5))),
               _compile_summary, partial(_compile_check, term, kind), False)
            for key, term, kind in entries]


# ---------------------------------------------------------------------------
# map_dense: encode_matrix -> staircase_cnots (the bounds-op path)

def _map(spec, matrix):
    s = encoder.encode_matrix(spec, matrix).sum
    return s, bounds.staircase_cnots(s)


def _map_summary(result) -> dict:
    s, cnots = result
    return {"qubits": s.n_qubits, "terms": len(s.terms), "staircase_cnots": cnots}


def _map_check(kind, matrix, result) -> list:
    s, cnots = result
    problems = checks.check_reconstruction(s, checks.codewords(kind, matrix.d), matrix)
    want = checks.staircase_law_cnots(s)
    if cnots != want:
        problems.append(f"staircase_cnots {cnots}, law gives {want}")
    return problems


def map_dense_ops(rng, tiny: bool) -> list[Op]:
    ops = []
    for d in ((4, 5) if tiny else (32, 48, 64)):
        matrices = (("dense", dense_hermitian_test_matrix(d, int(rng.integers(1 << 31))), True),
                    ("tridiag", tridiag_test_matrix(d, int(rng.integers(1 << 31))), True),
                    ("x", first_quantized_x(d, 0.1), False))
        for name, matrix, seeded in matrices:
            for kind in CODES:
                ops.append(Op(f"map_dense/{name}/d{d}/{kind}",
                              partial(_map, EncodingSpec(kind, d), matrix),
                              _map_summary, partial(_map_check, kind, matrix), seeded))
    return ops


# ---------------------------------------------------------------------------
# verify: simulate-check, conversion circuits on every codeword,
# matrix-free verify_encoding

def _simulate(h, theta, opt):
    ref = circuits.trotter_step(h, theta)
    u_ref = simulator.circuit_to_unitary(ref)
    u_opt = simulator.circuit_to_unitary(opt)
    return h, ref, opt, u_ref, u_opt, simulator.unitary_distance(u_ref, u_opt)


def _simulate_summary(result) -> dict:
    h, ref, opt, *_ = result
    return {"qubits": h.n_qubits, "gates_ref": len(ref.gates), "gates_opt": len(opt.gates)}


def _simulate_problems(result) -> list:
    h, ref, opt, u_ref, u_opt, dist = result
    problems = checks.check_circuit_pipeline(h, ref, opt)
    problems += checks.check_unitaries(u_ref, u_opt, len(ref.gates), len(opt.gates))
    if not dist <= checks.UNITARY_TOL:
        problems.append(f"simulate-check distance {dist:.3g}")
    return problems


def _convert(kind, d, sources):
    c = converters.conversion_circuit(kind, d)
    outputs = []
    for index in sources:
        state = np.zeros(2 ** c.n_qubits, dtype=complex)
        state[index] = 1.0
        outputs.append(simulator.apply_circuit(c, state))
    return (c, outputs, converters.conversion_cost(kind, d).counts,
            converters.conversion_cost(kind, d, "clifford_t").counts)


def _convert_summary(result) -> dict:
    c, _, body, clifford_t = result
    return {"qubits": c.n_qubits, "gates": len(c.gates), "body": dict(body),
            "clifford_t": dict(clifford_t)}


def _convert_check(kind, d, result) -> list:
    _, outputs, body, clifford_t = result
    return checks.check_conversion(kind, d, outputs, body, clifford_t)


def _verify_encoding(spec, matrix, s):
    return simulator.verify_encoding(spec, matrix, s)


def _verify_encoding_summary(s, err) -> dict:
    return {"terms": len(s.terms)}


def _verify_encoding_check(kind, matrix, s, err) -> list:
    problems = [] if err < checks.RECONSTRUCTION_TOL else [f"verify_encoding error {err:.3g}"]
    return problems + checks.check_reconstruction(s, checks.codewords(kind, matrix.d), matrix)


def verify_ops(rng, tiny: bool) -> list[Op]:
    ops = []
    if tiny:
        sims = (("sb", 4, "dense"), ("unary", 3, "q"))
        convs = (("sb2unary", 4), ("unary2sb", 4), ("sb2gray", 8), ("gray2sb", 8))
        encs = (("unary", 5, "q2"), ("block_unary", 7, "p2"))
    else:
        # The first op is also the warm-up.  Its 16 MiB unitaries raise
        # glibc's mmap and trim thresholds; until they are raised, the
        # 7-qubit op below pays about 0.8 s of page faults per run.
        sims = (("unary", 10, "q"), ("sb", 128, "tridiag"), ("sb", 16, "dense"),
                ("gray", 16, "dense"), ("gray", 64, "tridiag"), ("block_unary", 12, "q"),
                ("unary", 8, "q"))
        # The four large conversions cost about the same, so op_p90_ms (p75
        # here) falls inside their group rather than between two ops.
        convs = (("sb2unary", 12), ("sb2unary", 16), ("unary2sb", 16),
                 ("sb2gray", 768), ("gray2sb", 768))
        encs = (("unary", 64, "q2"), ("unary", 64, "tridiag"),
                ("block_unary", 64, "q2"), ("block_unary", 96, "p2"))

    def matrix(name, d):
        if name == "dense":
            return dense_hermitian_test_matrix(d, int(rng.integers(1 << 31))), True
        if name == "tridiag":
            return tridiag_test_matrix(d, int(rng.integers(1 << 31))), True
        return bosonic(d, name), False

    for kind, d, name in sims:
        m, seeded = matrix(name, d)
        h = encoder.encode_matrix(EncodingSpec(kind, d), m).sum
        theta = float(rng.uniform(0.05, 0.5))
        opt = optimizer.optimize(circuits.trotter_step(h, theta))
        ops.append(Op(f"verify/simulate/{kind}/{name}/d{d}",
                      partial(_simulate, h, theta, opt),
                      _simulate_summary, _simulate_problems, seeded))
    for kind, d in convs:
        source_code = {"sb2unary": "sb", "sb2gray": "sb", "unary2sb": "unary",
                       "gray2sb": "gray"}[kind]
        ops.append(Op(f"verify/convert/{kind}/d{d}",
                      partial(_convert, kind, d, checks.codewords(source_code, d)),
                      _convert_summary, partial(_convert_check, kind, d), False))
    for kind, d, name in encs:
        m, seeded = matrix(name, d)
        spec = EncodingSpec(kind, d)
        s = encoder.encode_matrix(spec, m).sum
        ops.append(Op(f"verify/encoding/{kind}/{name}/d{d}",
                      partial(_verify_encoding, spec, m, s),
                      partial(_verify_encoding_summary, s),
                      partial(_verify_encoding_check, kind, m, s), seeded))
    return ops


BUILDERS = {"report": report_ops, "compile_wide": compile_wide_ops,
            "map_dense": map_dense_ops, "verify": verify_ops}

# Latency percentile reported as op_p90_ms, fixed per workload so that two
# commits are compared at the same percentile.  p90 where at least 10
# samples lie above it in three passes, the fewest a run makes (10, 9, 36
# and 16 ops per pass).  Elsewhere the percentile keeps 10 samples above
# it and falls next to the middle of one op's samples, one per pass, for
# three to six passes: the highest percentile with 10 samples above it
# would fall on that op's slowest pass.
LATENCY_PERCENTILE = {"report": 65, "compile_wide": 61, "map_dense": 90, "verify": 78}


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's op list; the first op doubles as the warm-up op."""
    return BUILDERS[workload](np.random.default_rng(seed), tiny)
