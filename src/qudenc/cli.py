"""Command-line interface.

Subcommands: encode | map-op | trotter | optimize | convert-circuit |
conversion-cost | bounds | bounds-op | report | simulate-check |
export-qasm.  Every subcommand prints a short human summary to stdout and
writes machine-readable JSON/CSV when --out is given.  Outputs are
deterministic for fixed flags and seed (the SEED environment variable
supplies a default seed when --seed is absent).

Exit codes: 0 success, 1 verification failure (simulate-check), 2 usage
error or an input too large for memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from itertools import islice

import numpy as np

from . import bounds as bounds_mod
from . import converters, models
from .circuits import (Circuit, count_resources, export_circuit, import_circuit,
                       trotter_step)
from .encoder import encode_matrix
from .encoding import (BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec,
                       bitmask_subset, encode, format_bits, num_qubits)
from .optimizer import MAX_SWEEPS, optimize
from .paulis import PauliSum, string_to_text
from .qudit_ops import BOSONIC_NAMES, bosonic, dense_hermitian_test_matrix, \
    matrix_digest, spin, tridiag_test_matrix, twice_spin
from .simulator import circuit_to_unitary, unitary_distance

_ENC_CHOICES = {"sb": SB, "gray": GRAY, "unary": UNARY, "bu": BLOCK_UNARY,
                "block_unary": BLOCK_UNARY}
_OP_CHOICES = tuple(BOSONIC_NAMES) + ("sx", "sy", "sz", "dense", "tridiag")


def fmt(x) -> str:
    """12 significant digits for all numeric output."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write(args, payload) -> None:
    """Write text as is, a dict as indent-2 JSON or a circuit as JSON to --out, if given."""
    if not args.out:
        return
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2)
    elif isinstance(payload, Circuit):
        payload = export_circuit(payload, "json")
    with open(args.out, "w", newline="\n") as fh:
        fh.write(payload)


def _resolve_seed(args, config: dict | None = None) -> int:
    if args.seed is not None:
        return args.seed
    if "SEED" in os.environ:
        try:
            return int(os.environ["SEED"])
        except ValueError:
            raise ValueError("the SEED environment variable must be an integer, "
                             f"got {os.environ['SEED']!r}") from None
    seed = (config or {}).get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"--config seed must be an integer, got {seed!r}")
    return seed


def _encoding_from_args(args) -> EncodingSpec:
    kind = _ENC_CHOICES[args.enc]
    if kind == BLOCK_UNARY:
        spec = EncodingSpec(kind, args.d, g=3 if args.g is None else args.g,
                            local_kind=_ENC_CHOICES[args.local or "sb"])
        if spec.g > spec.d:  # accepted, but the one block is wider than d needs
            print(f"note: --g {spec.g} exceeds --d {spec.d}, so the one block is "
                  f"{num_qubits(spec)} qubits wide (--g {spec.d} needs "
                  f"{num_qubits(replace(spec, g=spec.d))})", file=sys.stderr)
        return spec
    for flag in ("g", "local"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only to --enc bu")
    return EncodingSpec(kind, args.d)


def _spec_and_operator(args):
    """The --enc encoding and the --op matrix at --d (seeded test matrices
    take --seed, then SEED, then 0)."""
    spec = _encoding_from_args(args)
    seed = _resolve_seed(args)
    if args.op in BOSONIC_NAMES:
        return spec, bosonic(args.d, args.op)
    if args.op in ("sx", "sy", "sz"):
        return spec, spin((args.d - 1) / 2.0, args.op[1])
    test_matrix = dense_hermitian_test_matrix if args.op == "dense" else tridiag_test_matrix
    return spec, test_matrix(args.d, seed)


def _read(flag: str, path: str, parse=json.loads):
    """The file that flag names, parsed; an error reading or parsing it names flag and path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{flag} {path} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{flag} {path} is not UTF-8 text: {exc}") from None
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag} {path} is not valid JSON: {exc}") from None


# What each report axis reads, and the forms its flag takes.
_AXIS_RULES = {
    "d": ("integers", "--d takes a cutoff such as 4, a list such as 4,8 "
                      "or a range such as 4..16"),
    "s": ("positive multiples of 1/2", "--s takes a spin such as 1.5, a list such as "
                                       "0.5,1.5 or a range such as 0.5..2.5"),
}


def _parse_value_list(text: str, axis: str) -> list:
    """'4..16' inclusive range, '4,8,16' list, or a single value.  The spin
    axis s takes what qudit_ops.twice_spin accepts, and its ranges step by 1/2."""
    is_range = ".." in text
    try:  # each cutoff d, or twice each spin s
        ints = [int(v) if axis == "d" else twice_spin(v)
                for v in (text.split("..", 1) if is_range else text.split(","))]
    except ValueError:
        what, forms = _AXIS_RULES[axis]
        raise ValueError(f"--{axis} {'range ' if is_range else ''}{text!r} needs "
                         f"{'ends' if is_range else 'values'} that are {what}; {forms}") from None
    if is_range:
        ints = list(range(ints[0], ints[1] + 1))
        if not ints:
            raise ValueError(f"empty range {text!r}")
    return ints if axis == "d" else [k / 2 for k in ints]


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_encode(args) -> int:
    spec = _encoding_from_args(args)
    levels = [args.level] if args.level is not None else list(range(spec.d))
    rows = [{"level": l, "bits": format_bits(spec, encode(spec, l)),
             "support": sorted(bitmask_subset(spec, l))} for l in levels]
    print(f"{spec.describe()} on {num_qubits(spec)} qubits")
    for r in rows:
        print(f"  level {r['level']:>3} -> {r['bits']}   support {r['support']}")
    _write(args, {"encoding": spec.describe(), "n_qubits": num_qubits(spec),
                  "codewords": rows})
    return 0


def _sum_summary(s: PauliSum, head: int = 6) -> list[str]:
    lines = [f"  {len(s.terms)} Pauli terms on {s.n_qubits} qubits, "
             f"max weight {s.max_weight()}"]
    for p, c in islice(s.terms.items(), head):
        lines.append(f"  {fmt(c.real)}{'+' if c.imag >= 0 else '-'}"
                     f"{fmt(abs(c.imag))}j  {string_to_text(p) or 'I'}")
    if len(s.terms) > head:
        lines.append(f"  ... {len(s.terms) - head} more")
    return lines


def _cmd_map_op(args) -> int:
    spec, op = _spec_and_operator(args)
    encoded = encode_matrix(spec, op)
    print(f"{args.op} at d={args.d} under {spec.describe()}")
    print("\n".join(_sum_summary(encoded.sum)))
    _write(args, {**encoded.sum.to_json_dict(), "encoding": spec.describe(),
                  "operator": args.op, "source_digest": matrix_digest(op)})
    return 0


def _cmd_trotter(args) -> int:
    spec, op = _spec_and_operator(args)
    circ = trotter_step(encode_matrix(spec, op).sum, args.theta)
    rep = count_resources(circ)
    print(f"trotter step for {args.op} (d={args.d}, {spec.describe()}, "
          f"theta={fmt(args.theta)})")
    print(f"  gates {rep.total_gates}, entangling {rep.entangling_total}, "
          f"counts {rep.counts}")
    _write(args, circ)
    return 0


def _cmd_optimize(args) -> int:
    circ = _read("--circuit", args.circuit, import_circuit)
    before = count_resources(circ)
    opt = optimize(circ, args.max_sweeps)
    after = count_resources(opt)
    print(f"optimize: {before.total_gates} -> {after.total_gates} gates, "
          f"entangling {before.entangling_total} -> {after.entangling_total}")
    # A fixed point survives one more sweep unchanged; anything else hit the cap.
    again = optimize(opt, 1)
    if again.gates != opt.gates or again.global_phase != opt.global_phase:
        print(f"warning: optimize stopped at --max-sweeps {args.max_sweeps} "
              "before a fixed point", file=sys.stderr)
    _write(args, opt)
    return 0


def _cmd_convert_circuit(args) -> int:
    circ = converters.conversion_circuit(args.kind, args.d)
    rep = count_resources(circ)
    print(f"{args.kind} at d={args.d}: {circ.n_qubits} wires, counts {rep.counts}")
    _write(args, circ)
    return 0


def _cmd_conversion_cost(args) -> int:
    rep = converters.conversion_cost(args.kind, args.d, args.decompose)
    print(f"{args.kind} at d={args.d} ({args.decompose}): counts {rep.counts}, "
          f"entangling {rep.entangling_total}")
    _write(args, rep.to_json_dict())
    return 0


def _cmd_bounds(args) -> int:
    q = bounds_mod.BoundQuery(args.dH, args.K, diagonal=args.diagonal)
    dist = bounds_mod.pauli_length_distribution(q)
    ub = bounds_mod.cnot_upper_bound(q)
    print(f"d_H={args.dH} K={args.K}{' diagonal' if args.diagonal else ''}\n"
          f"  length distribution {dist}\n  cnot upper bound {ub}")
    payload = {"d_H": args.dH, "K": args.K, "diagonal": args.diagonal,
               "length_distribution": dist, "cnot_upper_bound": ub}
    if q.d_H <= bounds_mod.MAX_CLOSED_FORM_DH:
        payload["closed_form"] = bounds_mod.closed_form_cnot_upper_bound(q)
        print(f"  closed form {payload['closed_form']}")
    _write(args, payload)
    return 0


def _cmd_bounds_op(args) -> int:
    spec, op = _spec_and_operator(args)
    ub = bounds_mod.operator_upper_bound(spec, op)
    print(f"staircase CNOT bound for {args.op} (d={args.d}, {spec.describe()}): {ub}")
    payload = {"operator": args.op, "d": args.d, "encoding": spec.describe(),
               "operator_upper_bound": ub}
    if args.sparsity:
        cls = bounds_mod.asymptotic_class(_ENC_CHOICES[args.enc], args.sparsity)
        print(f"  asymptotic class ({args.sparsity}): {cls}")
        payload["asymptotic_class"] = cls
    _write(args, payload)
    return 0


def _cmd_report(args) -> int:
    model = args.model.replace("-", "_")
    if model not in models.MODEL_NAMES:
        raise ValueError(f"unknown model {args.model!r}")
    config = {}
    if args.config:
        config = _read("--config", args.config)
        if not isinstance(config, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
    seed = _resolve_seed(args, config)
    params = {k: v for k, v in config.items() if k != "seed"}
    # Heisenberg sweeps the spin s; every other model sweeps the cutoff d.
    axis, other = ("s", "d") if model == models.HEISENBERG else ("d", "s")
    if getattr(args, axis) is None:
        raise ValueError(f"{args.model} needs --{axis}")
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} applies only to "
                         f"{'heisenberg' if other == 's' else 'the bosonic models'}")
    values = _parse_value_list(getattr(args, axis), axis)
    wanted = models.SCHEME_NAMES if args.schemes == "all" else (args.schemes,)

    rows = [["model", "d_or_s", "N", "scheme", "entangling_count", "relative_to_sb",
             "qubits_per_particle", "conversions_counted", "scenario"]]
    for v in values:
        rep = models.compute_scheme_report(models.ModelSpec(
            model, N=args.N, params=params, seed=seed, **{axis: v}))
        best = min(rep.counts, key=rep.counts.get)  # ties go to the earlier scheme
        print(f"{model} {axis}={fmt(v)} N={args.N}: scenario {rep.scenario}, "
              f"best {best} ({rep.counts[best]} entangling)")
        for scheme in wanted:
            rows.append([rep.model, fmt(rep.d_or_s), rep.N, scheme,
                         rep.counts[scheme], fmt(rep.ratios[scheme]),
                         rep.qubits_per_particle[scheme],
                         rep.conversions[scheme], rep.scenario])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _write(args, buf.getvalue())
    return 0


def _cmd_simulate_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    h = PauliSum.from_json_dict(_read("--pauli", args.pauli))
    circ = _read("--circuit", args.circuit, import_circuit)
    if h.n_qubits != circ.n_qubits:
        raise ValueError(f"the Pauli sum acts on {h.n_qubits} qubits but the "
                         f"circuit on {circ.n_qubits}")
    dist = unitary_distance(circuit_to_unitary(trotter_step(h, args.theta)),
                            circuit_to_unitary(circ),
                            up_to_phase=args.up_to_phase)
    ok = dist <= args.tol
    print(f"distance {fmt(dist)} vs tol {fmt(args.tol)}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_export_qasm(args) -> int:
    text = export_circuit(_read("--circuit", args.circuit, import_circuit), "qasm2")
    if not args.out:
        sys.stdout.write(text)
    _write(args, text)
    return 0


# ---------------------------------------------------------------------------
# parser wiring: shared flag groups, then one row per subcommand

_ENC = [("--enc", dict(required=True, choices=sorted(_ENC_CHOICES))),
        ("--d", dict(type=int, required=True, help="number of levels")),
        ("--g", dict(type=int, help="block size (bu only)")),
        ("--local", dict(choices=["sb", "gray"],
                         help="local code inside each block (bu only)"))]
_OP = [("--op", dict(required=True, choices=_OP_CHOICES))]
_SEED = [("--seed", dict(type=int))]
_OUT = [("--out", {})]
_CIRCUIT = [("--circuit", dict(required=True))]
_THETA = [("--theta", dict(type=float, default=0.1))]
_KIND = [("--kind", dict(required=True, choices=converters.CONVERSION_KINDS)),
         ("--d", dict(type=int, required=True))]

# subcommand -> (handler, help, flags in --help order)
_COMMANDS = {
    "encode": (_cmd_encode, "show codewords of an encoding",
               _ENC + [("--level", dict(type=int))] + _OUT),
    "map-op": (_cmd_map_op, "encode an operator as a Pauli sum", _ENC + _OP + _SEED + _OUT),
    "trotter": (_cmd_trotter, "synthesize one Trotter step",
                _ENC + _OP + _THETA + _SEED + _OUT),
    "optimize": (_cmd_optimize, "run the peephole optimizer",
                 _CIRCUIT + [("--max-sweeps", dict(type=int, default=MAX_SWEEPS))] + _OUT),
    "convert-circuit": (_cmd_convert_circuit, "emit an encoding conversion circuit",
                        _KIND + _OUT),
    "conversion-cost": (_cmd_conversion_cost, "closed-form conversion gate counts", _KIND + [
        ("--decompose", dict(choices=["none", "clifford_t"], default="none"))] + _OUT),
    "bounds": (_cmd_bounds, "per-element Pauli length distribution and CNOT bound", [
        ("--dH", dict(type=int, required=True)), ("--K", dict(type=int, required=True)),
        ("--diagonal", dict(action="store_true"))] + _OUT),
    "bounds-op": (_cmd_bounds_op, "staircase CNOT bound for a whole operator", _ENC + _OP + [
        ("--sparsity", dict(choices=bounds_mod.SPARSITY_PATTERNS))] + _SEED + _OUT),
    "report": (_cmd_report, "per-scheme entangling counts and scenarios", [
        ("--model", dict(required=True)),
        ("--d", dict(help="cutoff, range '4..16', or list '4,8'")),
        ("--s", dict(help="spin, list '1.5,3.5', or range '0.5..2.5' in steps of 1/2")),
        ("--N", dict(type=int, default=3)),
        ("--schemes", dict(default="all", choices=["all"] + list(models.SCHEME_NAMES))),
        ("--config", dict(help="JSON model parameters"))]
        + _SEED + [("--out", dict(help="CSV path"))]),
    "simulate-check": (_cmd_simulate_check,
                       "verify a circuit against a Pauli sum's Trotter step",
                       [("--pauli", dict(required=True))] + _CIRCUIT + _THETA + [
                           ("--tol", dict(type=float, default=1e-9)),
                           ("--up-to-phase", dict(action="store_true"))]),
    "export-qasm": (_cmd_export_qasm, "circuit JSON -> OpenQASM 2", _CIRCUIT + _OUT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudenc",
        description="Map d-level operators onto qubit registers, synthesize "
                    "Trotter circuits, and compare encoding schemes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
