"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Checks the span arithmetic, the percentile rule, that every independent
check accepts good output and rejects broken output, that BENCHMARK.json
names exactly the metrics the harness prints, and that every workload
passes all its checks on tiny inputs at the default seed and a second
seed, untraced and traced.  Also checks that run.py refuses to run
without the library sources.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402  (puts ./src on sys.path)
import workloads  # noqa: E402
from qudenc import encoder, models  # noqa: E402
from qudenc.encoding import EncodingSpec, encode, num_qubits  # noqa: E402
from qudenc.qudit_ops import bosonic, dense_hermitian_test_matrix  # noqa: E402

SECOND_SEED = 7


def test_self_times():
    rec = spans.Recorder()
    rec.spans = [["op", 0.0, 10.0, -1, 1], ["a", 1.0, 6.0, 0, 1],
                 ["b", 2.0, 3.0, 1, 1], ["b", 7.0, 9.0, 0, 1]]
    assert rec.self_times() == {"op": 3.0, "a": 4.0, "b": 3.0}
    assert rec.calls() == {"op": 1, "a": 1, "b": 2}
    assert rec.root_time() == 10.0
    assert sum(rec.self_times().values()) == rec.root_time()


def test_percentiles():
    assert workload.percentile([3, 1, 2], 50) == 2
    assert workload.percentile(list(range(11)), 90) == 9
    for name, q in workloads.LATENCY_PERCENTILE.items():
        # op_p90_ms keeps 10 samples above it in the fewest passes a run makes
        lat = list(range(workload.MIN_PASSES * len(workloads.build(name, 0))))
        assert sum(x > workload.percentile(lat, q) for x in lat) >= 10, name


def test_codewords_match_definitions():
    for kind in workloads.CODES:
        for d in (2, 5, 8, 13):
            spec = EncodingSpec(kind, d)
            assert checks.register_width(kind, d) == num_qubits(spec)
            ints = [sum(b << q for q, b in enumerate(encode(spec, l))) for l in range(d)]
            assert checks.codewords(kind, d) == ints, (kind, d)
    joint = checks.product_codewords("unary", (3, 2))
    assert joint == [0b01001, 0b01010, 0b01100, 0b10001, 0b10010, 0b10100]


def test_reconstruction_oracle():
    for kind in workloads.CODES:
        m = dense_hermitian_test_matrix(6, seed=3)
        s = encoder.encode_matrix(EncodingSpec(kind, 6), m).sum
        codes = checks.codewords(kind, 6)
        assert checks.reconstruction_error(s, codes, m) < 1e-12, kind
        broken = s.copy()
        first = next(iter(broken.terms))
        broken.terms[first] += 1e-6
        assert checks.reconstruction_error(broken, codes, m) > 1e-8, kind
    a, adag = bosonic(3, "a"), bosonic(3, "adag")
    term = models.LocalTerm((0, 1), ((adag, a), (a, adag)), -0.7, "hopping")
    for kind in ("unary", "block_unary", "sb"):
        h = models.encode_term(term, kind)
        codes = checks.product_codewords(kind, (3, 3))
        target = workloads._joint_matrix(term)
        assert np.allclose(target, models.term_matrix(term))
        assert checks.reconstruction_error(h, codes, target) < 1e-12, kind


def test_checks_reject_bad_outputs():
    counts = {"sb_only": 5, "gray_only": 6, "unary_only": 9, "sb_and_gray": 5,
              "all_with_compacting": 5}
    assert checks.scenario_of(counts) == "A"
    assert checks.scenario_of(dict(counts, sb_only=6)) == "B"
    assert checks.scenario_of(dict(counts, sb_only=7, gray_only=7, unary_only=5,
                                   sb_and_gray=6, all_with_compacting=6)) == "C"
    assert checks.scenario_of(dict(counts, sb_only=6, gray_only=7, unary_only=5,
                                   sb_and_gray=6, all_with_compacting=17)) == "D"
    rep = models.compute_scheme_report(models.ModelSpec("heisenberg", N=2, s=1.5))
    assert checks.check_report("heisenberg", 1.5, 4, rep) == []
    wrong = "C" if rep.scenario != "C" else "A"
    bad = models.SchemeReport(**{**rep.__dict__, "scenario": wrong})
    assert checks.check_report("heisenberg", 1.5, 4, bad)
    good = {"CNOT": 7, "CSWAP": 4, "X": 1}
    ct = {"CNOT": 9 * 8 - 8 * 3 - 9}
    outputs = [np.eye(2 ** 8)[1 << l] for l in range(8)]
    assert checks.check_conversion("sb2unary", 8, outputs, good, ct) == []
    assert checks.check_conversion("sb2unary", 8, outputs, dict(good, CSWAP=5), ct)
    assert checks.check_conversion("sb2unary", 8, outputs[::-1], good, ct)


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    e2e = {"setup_s": ("s", "lower"), **workload.END_TO_END}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == e2e
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        workload.LAYER_METRICS
    layer_spans = {f"{name}.self_s" for name in spans.SPAN_NAMES}
    assert layer_spans <= set(workload.LAYER_METRICS)


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    return proc


def test_tiny_runs_pass_every_check():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, SECOND_SEED):
            for trace in ("0", "1"):
                proc = _run([str(HERE / "workload.py"), "--workload", name, "--seed",
                             str(seed), "--seconds", "0.2", "--trace", trace, "--tiny"])
                assert proc.returncode == 0, proc.stderr
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                assert out["correct"] and out["failed"] == 0, (name, seed, trace, out)
                assert out["attempted"] >= 2 * len(workloads.build(name, seed, True))
                want = workload.LAYER_METRICS if trace == "1" else workload.END_TO_END
                assert set(out["metrics"]) == set(want)


def test_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(["perfbench/run.py", "--workload", "report", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
