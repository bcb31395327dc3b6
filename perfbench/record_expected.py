"""Record expected.json: every op's behavioural outputs at the default seed.

    python3 perfbench/record_expected.py

Refuses to write if any op fails an independent check.  Re-record only
when the workloads themselves change; a library change that moves one of
these numbers is a behaviour change, and the benchmark reports it as a
failed op.
"""

import json
import os
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
os.environ.update(run.PINNED_THREADS)
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    expected = {}
    failures = []
    for name in workloads.WORKLOADS:
        expected[name] = {}
        for op in workloads.build(name, workloads.DEFAULT_SEED):
            result = op.run()
            failures += [f"{op.key}: {p}" for p in op.check(result)]
            expected[name][op.key] = op.summarize(result)
            print(op.key, json.dumps(expected[name][op.key]), flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
