"""One workload run in its own process; started by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-only

Setup is timed from the top of this file through ``import qudenc`` and
input generation.  Then one untimed warm-up op runs, then closed-loop
passes over the op list (one op at a time, single thread) until the next
pass would end after --seconds; at least three passes always run.  With
--trace 1 the passes alternate untraced / traced, and the traced ones
route the library's layer functions through spans.Recorder.

While the passes run, a timer samples the host's speed (hostspeed.py);
op times exclude the sampling and are reported at reference host speed,
as is the set-up time of a --setup-only run.

Every op's output is checked after its timer stops: independent oracles
and expected.json on the first pass, and equality with the first pass on
later passes.  The last stdout line is one JSON object.
"""

import sys
import time

_T0 = time.perf_counter()

import hostspeed  # noqa: E402  (standard library only)

_SETUP_SAMPLER = hostspeed.Sampler(hostspeed.SETUP_INTERVAL_S)
if "--setup-only" in sys.argv:
    _SETUP_SAMPLER.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qudenc  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
HARNESS_SHARE_MAX = 0.02  # largest share of trace.pass_s left to harness.self_s

# name -> (unit, better).  run.py adds setup_s to END_TO_END.
END_TO_END = {
    "pass_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
LAYER_METRICS = {
    "encoder.encode_matrix.calls": ("count", "lower"),
    "encoder.encode_matrix.self_s": ("s", "lower"),
    "encoder.terms_out": ("count", "lower"),
    "models.encode_term.calls": ("count", "lower"),
    "models.encode_term.self_s": ("s", "lower"),
    "models.term_entangling_cost.calls": ("count", "lower"),
    "models.price_cache.hit_ratio": ("ratio", "higher"),
    "models.compute_scheme_report.self_s": ("s", "lower"),
    "circuits.trotter_step.calls": ("count", "lower"),
    "circuits.trotter_step.self_s": ("s", "lower"),
    "circuits.gates_synth": ("count", "lower"),
    "circuits.count_resources.self_s": ("s", "lower"),
    "optimizer.optimize.calls": ("count", "lower"),
    "optimizer.optimize.self_s": ("s", "lower"),
    "optimizer.gates_in": ("count", "lower"),
    "optimizer.gates_out": ("count", "lower"),
    "optimizer.removed_ratio": ("ratio", "higher"),
    "optimizer.us_per_gate_in": ("us", "lower"),
    "bounds.staircase_cnots.self_s": ("s", "lower"),
    "converters.conversion_circuit.self_s": ("s", "lower"),
    "converters.conversion_cost.calls": ("count", "lower"),
    "simulator.circuit_to_unitary.calls": ("count", "lower"),
    "simulator.circuit_to_unitary.self_s": ("s", "lower"),
    "simulator.apply_circuit.self_s": ("s", "lower"),
    "simulator.verify_encoding.self_s": ("s", "lower"),
    "simulator.gates_applied": ("count", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "harness.self_s": ("s", "lower"),
}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Judge:
    """Checks each op output once, then holds later passes to the first."""

    def __init__(self, expected: dict, compare_seeded: bool, tiny: bool):
        self.expected = expected  # empty for tiny inputs, which have none
        self.compare_seeded = compare_seeded
        self.tiny = tiny
        self.first: dict[str, tuple] = {}
        self.problems: list[str] = []

    def __call__(self, op, result) -> bool:
        summary = json.loads(json.dumps(op.summarize(result)))
        seen = self.first.get(op.key)
        if seen is None:
            problems = op.check(result)
            want = self.expected.get(op.key)
            if want is None and not self.tiny:
                problems.append("no expected output recorded")
            elif want is not None and (self.compare_seeded or not op.seeded) \
                    and want != summary:
                problems.append(f"outputs {summary} differ from expected {want}")
            self.first[op.key] = (summary, problems)
            self.problems += [f"{op.key}: {p}" for p in problems]
            return not problems
        if summary != seen[0]:
            self.problems.append(f"{op.key}: outputs changed between passes: {summary}")
            return False
        return not seen[1]


def run_passes(ops, seconds: float, trace: bool, judge: Judge) -> dict:
    ops[0].run()  # warm-up: untimed, unchecked
    sampler = hostspeed.Sampler()
    clock = sampler.clock
    rec = spans.Recorder(clock)
    passes = []  # per pass: traced?, [(work seconds, first sample, end sample, op id)]
    attempted = failed = 0
    start = time.perf_counter()
    with sampler.running():
        while True:
            in_trace = trace and len(passes) % 2 == 1
            began = time.perf_counter()
            timed = []
            with spans.installed(rec) if in_trace else contextlib.nullcontext():
                for op in ops:
                    if in_trace:
                        rec.op_id += 1
                        index = rec.begin(spans.OP_SPAN)
                    k = len(sampler.samples)
                    t = clock()
                    result = op.run()
                    dt = clock() - t
                    if in_trace:
                        rec.end(index)
                    timed.append((dt, k, len(sampler.samples), rec.op_id))
                    attempted += 1
                    failed += not judge(op, result)
                    del result
            passes.append((in_trace, timed))
            now = time.perf_counter()
            if len(passes) >= MIN_PASSES and now - start + (now - began) > seconds:
                break
    samples = sampler.samples or [hostspeed.probe()]  # tiny inputs: no tick
    latencies, untraced, traced, unscaled = [], [], [], []
    for in_trace, timed in passes:
        factors = [hostspeed.op_factor(samples, k, end) for _, k, end, _ in timed]
        scaled = [dt * f for (dt, *_), f in zip(timed, factors)]
        if in_trace:
            rec.op_scale.update({op_id: f for (*_, op_id), f in zip(timed, factors)})
            traced.append(sum(scaled))
        else:
            latencies += scaled
            untraced.append(sum(scaled))
            unscaled.append(sum(dt for dt, *_ in timed))
    return {"rec": rec, "latencies": latencies, "untraced": untraced,
            "traced": traced, "unscaled": unscaled, "attempted": attempted,
            "failed": failed, "speed_samples": len(sampler.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end(workload: str, run: dict) -> tuple[dict, dict]:
    lat = run["latencies"]
    q = workloads.LATENCY_PERCENTILE[workload]
    metrics = {
        "pass_s": statistics.median(run["untraced"]),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": percentile(lat, q) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {"passes": len(run["untraced"]), "samples": len(lat), "tail_percentile": q,
             "unscaled_pass_s": statistics.median(run["unscaled"]),
             "speed_samples": run["speed_samples"]}
    return metrics, notes


def per_layer(run: dict) -> tuple[dict, dict]:
    rec = run["rec"]
    passes = len(run["traced"])
    self_s = rec.self_times()
    calls = rec.calls()
    c = rec.counters
    per = {}
    for name in spans.SPAN_NAMES:
        per[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        per[f"{name}.calls"] = calls.get(name, 0) / passes
    for name, total in c.items():
        per[name] = total / passes
    per["harness.self_s"] = self_s.get(spans.OP_SPAN, 0.0) / passes
    per["trace.pass_s"] = rec.root_time() / passes
    tec_calls = c.get("models.term_entangling_cost.calls", 0)
    per["models.price_cache.hit_ratio"] = (
        c.get("models.price_cache.hits", 0) / tec_calls if tec_calls else 0.0)
    gates_in = c.get("optimizer.gates_in", 0)
    per["optimizer.removed_ratio"] = (
        (gates_in - c.get("optimizer.gates_out", 0)) / gates_in if gates_in else 0.0)
    per["optimizer.us_per_gate_in"] = (
        self_s.get("optimizer.optimize", 0.0) * 1e6 / gates_in if gates_in else 0.0)
    per["trace.overhead_ratio"] = (statistics.median(run["traced"])
                                   / statistics.median(run["untraced"]))
    metrics = {name: per.get(name, 0.0) for name in LAYER_METRICS}
    return metrics, {"traced_passes": passes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs for the harness self-test")
    args = p.parse_args(argv)

    if not Path(qudenc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qudenc imported from {qudenc.__file__}, not from this checkout")
    ops = workloads.build(args.workload, args.seed, args.tiny)
    if args.setup_only:
        setup_s = _SETUP_SAMPLER.clock() - _T0
        _SETUP_SAMPLER.stop()
        samples = _SETUP_SAMPLER.samples or [hostspeed.probe()]
        print(json.dumps({"setup_s": setup_s * hostspeed.factor(samples),
                          "unscaled_setup_s": setup_s}))
        return 0

    expected = {}
    if not args.tiny:
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)[args.workload]
    judge = Judge(expected, args.seed == workloads.DEFAULT_SEED, args.tiny)
    run = run_passes(ops, args.seconds, bool(args.trace), judge)
    correct = run["failed"] == 0
    if args.trace:
        metrics, notes = per_layer(run)
        # harness.self_s is op time that no layer span covers; a layer
        # that stops being wrapped shows up here.  Tiny ops last tens of
        # microseconds, so there the op span's own cost exceeds the limit.
        share = metrics["harness.self_s"] / metrics["trace.pass_s"]
        if share > HARNESS_SHARE_MAX and not args.tiny:
            judge.problems.append(f"harness.self_s is {share:.1%} of trace.pass_s, "
                                  f"above {HARNESS_SHARE_MAX:.0%}: a layer is not traced")
            correct = False
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        run["rec"].dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, notes = end_to_end(args.workload, run)
    units = LAYER_METRICS if args.trace else END_TO_END
    metrics = {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()}
    print(json.dumps({"metrics": metrics, "notes": notes,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "correct": correct, "problems": judge.problems[:20]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
