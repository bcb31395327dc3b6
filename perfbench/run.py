"""qudenc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload report --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src, nothing is installed.  Each run starts the workload in its own
single-threaded process (BLAS/OpenMP pinned to one thread).  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Same names as workloads.WORKLOADS; not imported from there, so the
# launcher itself never loads numpy or qudenc.
WORKLOADS = ("report", "compile_wide", "map_dense", "verify")
SETUP_SAMPLES = 5        # set-up-only processes whose median is setup_s
DEADLINE_S = 170         # every child is killed before the run reaches 180 s
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class ChildFailed(RuntimeError):
    pass


def run_child(extra: list[str], started: float) -> dict:
    env = dict(os.environ, **PINNED_THREADS, PYTHONHASHSEED="0")
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *extra],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"workload process killed after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(args, started: float) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    main = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                     started)
    if not args.trace:
        # The measured process has written __pycache__ for ./src, so every
        # set-up sample loads from it, as a user's second run would.
        setups = [run_child(base + ["--setup-only"], started)
                  for _ in range(SETUP_SAMPLES)]
        main["notes"]["setup_samples"] = len(setups)
        main["notes"]["unscaled_setup_s"] = statistics.median(s["unscaled_setup_s"] for s in setups)
        setup_s = statistics.median(s["setup_s"] for s in setups)
        main["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **main["metrics"]}
    return main


def describe(args, main: dict) -> None:
    n = main["notes"]
    metrics = main["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "closed loop, 1 client, 1 process, 1 BLAS thread")
    if args.trace:
        print(f"  traced passes {n['traced_passes']}; times are at reference host "
              "speed (hostspeed.py)")
    else:
        print(f"  setup_s      median of {n['setup_samples']} set-up processes")
        print(f"  pass_s       median of {n['passes']} passes")
        print(f"  op_p50_ms    median of {n['samples']} ops")
        q = n["tail_percentile"]
        tail = "" if q == 90 else " (in three passes fewer than 10 samples lie above p90)"
        print(f"  op_p90_ms    p{q} of {n['samples']} ops{tail}")
        print("  peak_rss_mb  peak resident set of the workload process")
        print(f"  times are at reference host speed ({n['speed_samples']} speed samples, "
              f"hostspeed.py); unscaled medians: pass {n['unscaled_pass_s']:.3f} s, "
              f"set-up {n['unscaled_setup_s']:.3f} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6f} {m['unit']}")
    ratio = main["failed"] / main["attempted"]
    print(f"  {'fail_ratio':<40} {ratio:>14.6f} ratio ({main['failed']} of "
          f"{main['attempted']} ops failed a check)")
    for problem in main["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qudenc" / "__init__.py").is_file():
        print(f"error: no qudenc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        result = measure(args, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    describe(args, result)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
