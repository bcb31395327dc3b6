"""Golden CLI outputs: exit codes, stdout and every written file, byte for byte.

Each case runs a chain of ``qudenc`` commands in-process, in an empty
directory, after writing the case's input files there.  The expected
transcript (each command, its stdout and its exit code) and every file the
chain leaves in the directory are kept under ``tests/golden/<case>/``.

After an intended output change, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of ``tests/golden/`` like any other change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from qudenc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPT = "transcript.txt"

_BEAMSPLITTER_PROGRAM = {"gates": [
    {"kind": "beamsplitter", "modes": [1, 0], "theta": 0.3},
    {"kind": "phase_shifter", "modes": [1], "theta": 0.7},
]}


def _conversion_commands() -> list[str]:
    cmds = []
    for kind in ("sb2gray", "gray2sb", "sb2unary", "unary2sb", "sb2bu"):
        for d in ((12,) if kind == "sb2bu" else (2, 5, 12, 16)):
            for mode in ("none", "clifford_t"):
                cmds.append(f"conversion-cost --kind {kind} --d {d} "
                            f"--decompose {mode} --out cost_{kind}_{d}_{mode}.json")
            cmds.append(f"convert-circuit --kind {kind} --d {d} "
                        f"--out circ_{kind}_{d}.json")
    return cmds


# case name -> (input files, commands run in order in one directory)
CASES = {
    # The README's command-line examples in README order; the Bose-Hubbard
    # sweep is cut from 4..16 to 4..8 to keep the suite fast.
    "readme": ({}, [
        "encode --enc bu --d 12 --g 3 --level 7",
        "map-op --enc sb --d 8 --op q --out q.json",
        "trotter --enc sb --d 8 --op q --theta 0.1 --out step.json",
        "optimize --circuit step.json --out opt.json",
        "export-qasm --circuit opt.json --out step.qasm",
        "convert-circuit --kind sb2unary --d 8 --out conv.json",
        "conversion-cost --kind sb2unary --d 16 --decompose clifford_t",
        "bounds --dH 2 --K 4",
        "bounds-op --enc unary --d 16 --op q --sparsity tridiagonal",
        "report --model bose-hubbard --d 4..8 --N 2 --out bh.csv",
        "report --model heisenberg --s 1.5 --N 3",
        "simulate-check --pauli q.json --circuit opt.json --theta 0.1 --tol 1e-9",
    ]),
    # Identity-bearing terms at non-power-of-two cutoffs, a seeded
    # Duschinsky matrix, and a boson-sampling program with reversed modes.
    "reports": ({"bs.json": json.dumps(_BEAMSPLITTER_PROGRAM)}, [
        "report --model shifted-qho --d 5,6 --N 1 --out qho.csv",
        "report --model franck-condon --d 3 --N 2 --seed 3 --out fc.csv",
        "report --model heisenberg --s 1.5 --N 3 --out heis.csv",
        "report --model boson-sampling --d 3 --N 2 --config bs.json --out bs.csv",
    ]),
    "conversions": ({}, _conversion_commands()),
}


def run_case(name: str) -> dict[str, bytes]:
    """Run one case in a fresh directory; return every file it leaves there
    plus the transcript, keyed by file name."""
    inputs, commands = CASES[name]
    lines = []
    cwd, seed = os.getcwd(), os.environ.pop("SEED", None)
    workdir = tempfile.mkdtemp(prefix=f"golden-{name}-")
    try:
        os.chdir(workdir)
        for fname, text in inputs.items():
            Path(fname).write_text(text)
        for cmd in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(cmd.split())
            lines.append(f"$ qudenc {cmd}\n{out.getvalue()}[exit {code}]\n")
        files = {p.name: p.read_bytes() for p in Path(workdir).iterdir()}
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir)
        if seed is not None:
            os.environ["SEED"] = seed
    files[TRANSCRIPT] = "".join(lines).encode()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_outputs(name):
    got = run_case(name)
    want = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(want)
    for fname in sorted(want):
        assert got[fname] == want[fname], f"{name}/{fname} differs"


def record() -> None:
    for name in sorted(CASES):
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for fname, data in run_case(name).items():
            (target / fname).write_bytes(data)
        print(f"recorded {target}", file=sys.stderr)


if __name__ == "__main__":
    record()
