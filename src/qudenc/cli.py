"""Command-line interface.

Subcommands: encode | map-op | trotter | optimize | convert-circuit |
conversion-cost | bounds | bounds-op | report | simulate-check |
export-qasm.  Every subcommand prints a short human summary to stdout and
writes machine-readable JSON/CSV when --out is given.  Outputs are
deterministic for fixed flags and seed (the SEED environment variable
supplies a default seed when --seed is absent).

Exit codes: 0 success, 1 verification failure (simulate-check), 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import converters, models
from .circuits import count_resources, export_circuit, import_circuit, trotter_step
from .encoder import encode_matrix
from .encoding import (BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec,
                       bitmask_subset, encode, format_bits, num_qubits)
from .optimizer import PassConfig, optimize
from .paulis import PauliSum, string_to_text, weight
from .qudit_ops import BOSONIC_NAMES, bosonic, dense_hermitian_test_matrix, \
    spin, tridiag_test_matrix
from .simulator import circuit_to_unitary, unitary_distance

_ENC_CHOICES = {"sb": SB, "gray": GRAY, "unary": UNARY, "bu": BLOCK_UNARY,
                "block_unary": BLOCK_UNARY}
_OP_CHOICES = tuple(BOSONIC_NAMES) + ("sx", "sy", "sz", "dense", "tridiag")


class UsageError(ValueError):
    """Bad command-line input; exits 2 like every other ValueError."""


def fmt(x) -> str:
    """12 significant digits for all numeric output."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _resolve_seed(args, config: dict | None = None) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SEED")
    if env is not None:
        return int(env)
    if config and "seed" in config:
        seed = config["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise UsageError(f"--config seed must be an integer, got {seed!r}")
        return seed
    return 0


def _encoding_from_args(args) -> EncodingSpec:
    kind = _ENC_CHOICES[args.enc]
    if args.g is not None and kind != BLOCK_UNARY:
        raise UsageError("--g applies only to --enc bu")
    if args.local is not None and kind != BLOCK_UNARY:
        raise UsageError("--local applies only to --enc bu")
    kwargs = {}
    if kind == BLOCK_UNARY:
        kwargs["g"] = args.g if args.g is not None else 3
        kwargs["local_kind"] = _ENC_CHOICES[args.local] if args.local else SB
    return EncodingSpec(kind, args.d, **kwargs)


def _add_encoding_flags(sp, need_d: bool = True) -> None:
    sp.add_argument("--enc", required=True, choices=sorted(_ENC_CHOICES))
    sp.add_argument("--d", type=int, required=need_d, help="number of levels")
    sp.add_argument("--g", type=int, default=None, help="block size (bu only)")
    sp.add_argument("--local", choices=["sb", "gray"], default=None,
                    help="local code inside each block (bu only)")


def _operator_matrix(name: str, d: int, seed: int):
    if name in BOSONIC_NAMES:
        return bosonic(d, name)
    if name in ("sx", "sy", "sz"):
        return spin((d - 1) / 2.0, name[1])
    if name == "dense":
        return dense_hermitian_test_matrix(d, seed)
    if name == "tridiag":
        return tridiag_test_matrix(d, seed)
    raise UsageError(f"unknown operator {name!r}")


def _parse_value_list(text: str, cast=int) -> list:
    """'4..16' inclusive range, '4,8,16' list, or a single value."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise UsageError(f"empty range {text!r}")
        return values
    if "," in text:
        return [cast(v) for v in text.split(",")]
    return [cast(text)]


# ---------------------------------------------------------------------------
# subcommand implementations

def _cmd_encode(args) -> int:
    spec = _encoding_from_args(args)
    levels = [args.level] if args.level is not None else list(range(spec.d))
    rows = []
    for l in levels:
        bits = encode(spec, l)
        rows.append({"level": l, "bits": format_bits(spec, bits),
                     "support": sorted(bitmask_subset(spec, l))})
    print(f"{spec.describe()} on {num_qubits(spec)} qubits")
    for r in rows:
        print(f"  level {r['level']:>3} -> {r['bits']}   support {r['support']}")
    if args.out:
        _write(args.out, json.dumps(
            {"encoding": spec.describe(), "n_qubits": num_qubits(spec),
             "codewords": rows}, indent=2))
    return 0


def _sum_summary(s: PauliSum, head: int = 6) -> list[str]:
    lines = [f"  {len(s.terms)} Pauli terms on {s.n_qubits} qubits, "
             f"max weight {s.max_weight()}"]
    for i, (p, c) in enumerate(s.terms.items()):
        if i >= head:
            lines.append(f"  ... {len(s.terms) - head} more")
            break
        name = string_to_text(p) or "I"
        lines.append(f"  {fmt(c.real)}{'+' if c.imag >= 0 else '-'}"
                     f"{fmt(abs(c.imag))}j  {name}")
    return lines


def _cmd_map_op(args) -> int:
    spec = _encoding_from_args(args)
    seed = _resolve_seed(args)
    op = _operator_matrix(args.op, args.d, seed)
    encoded = encode_matrix(spec, op)
    print(f"{args.op} at d={args.d} under {spec.describe()}")
    for line in _sum_summary(encoded.sum):
        print(line)
    if args.out:
        payload = encoded.sum.to_json_dict()
        payload["encoding"] = spec.describe()
        payload["operator"] = args.op
        payload["source_digest"] = encoded.source_digest
        _write(args.out, json.dumps(payload, indent=2))
    return 0


def _cmd_trotter(args) -> int:
    spec = _encoding_from_args(args)
    seed = _resolve_seed(args)
    op = _operator_matrix(args.op, args.d, seed)
    encoded = encode_matrix(spec, op)
    circ = trotter_step(encoded.sum, args.theta, ordering=args.ordering)
    rep = count_resources(circ)
    print(f"trotter step for {args.op} (d={args.d}, {spec.describe()}, "
          f"theta={fmt(args.theta)})")
    print(f"  gates {rep.total_gates}, entangling {rep.entangling_total}, "
          f"counts {rep.counts}")
    if args.out:
        _write(args.out, export_circuit(circ, "json"))
    return 0


def _cmd_optimize(args) -> int:
    with open(args.circuit) as fh:
        circ = import_circuit(fh.read())
    cfg = PassConfig() if args.max_sweeps is None else \
        PassConfig(max_sweeps=args.max_sweeps)
    before = count_resources(circ)
    opt = optimize(circ, cfg)
    after = count_resources(opt)
    print(f"optimize: {before.total_gates} -> {after.total_gates} gates, "
          f"entangling {before.entangling_total} -> {after.entangling_total}")
    if args.out:
        _write(args.out, export_circuit(opt, "json"))
    return 0


def _cmd_convert_circuit(args) -> int:
    circ = converters.conversion_circuit(args.kind, args.d)
    rep = count_resources(circ)
    print(f"{args.kind} at d={args.d}: {circ.n_qubits} wires, "
          f"counts {rep.counts}")
    if args.out:
        _write(args.out, export_circuit(circ, "json"))
    return 0


def _cmd_conversion_cost(args) -> int:
    rep = converters.conversion_cost(args.kind, args.d, args.decompose)
    print(f"{args.kind} at d={args.d} ({args.decompose}): counts {rep.counts}, "
          f"entangling {rep.entangling_total}")
    if args.out:
        _write(args.out, json.dumps(rep.to_json_dict(), indent=2))
    return 0


def _cmd_bounds(args) -> int:
    q = bounds_mod.BoundQuery(args.dH, args.K, diagonal=args.diagonal)
    dist = bounds_mod.pauli_length_distribution(q)
    ub = bounds_mod.cnot_upper_bound(q)
    print(f"d_H={args.dH} K={args.K}{' diagonal' if args.diagonal else ''}")
    print(f"  length distribution {dist}")
    print(f"  cnot upper bound {ub}")
    payload = {"d_H": args.dH, "K": args.K, "diagonal": args.diagonal,
               "length_distribution": dist, "cnot_upper_bound": ub}
    try:
        closed = bounds_mod.closed_form_cnot_upper_bound(q)
        print(f"  closed form {closed}")
        payload["closed_form"] = closed
    except ValueError:
        pass
    if args.out:
        _write(args.out, json.dumps(payload, indent=2))
    return 0


def _cmd_bounds_op(args) -> int:
    spec = _encoding_from_args(args)
    seed = _resolve_seed(args)
    op = _operator_matrix(args.op, args.d, seed)
    ub = bounds_mod.operator_upper_bound(spec, op)
    print(f"staircase CNOT bound for {args.op} (d={args.d}, {spec.describe()}): {ub}")
    payload = {"operator": args.op, "d": args.d, "encoding": spec.describe(),
               "operator_upper_bound": ub}
    if args.sparsity:
        cls = bounds_mod.asymptotic_class(_ENC_CHOICES[args.enc], args.sparsity)
        print(f"  asymptotic class ({args.sparsity}): {cls}")
        payload["asymptotic_class"] = cls
    if args.out:
        _write(args.out, json.dumps(payload, indent=2))
    return 0


_MODEL_ALIASES = {
    "bose-hubbard": models.BOSE_HUBBARD, "bose_hubbard": models.BOSE_HUBBARD,
    "shifted-qho": models.SHIFTED_QHO, "shifted_qho": models.SHIFTED_QHO,
    "franck-condon": models.FRANCK_CONDON, "franck_condon": models.FRANCK_CONDON,
    "heisenberg": models.HEISENBERG,
    "boson-sampling": models.BOSON_SAMPLING, "boson_sampling": models.BOSON_SAMPLING,
}


def _cmd_report(args) -> int:
    model = _MODEL_ALIASES.get(args.model)
    if model is None:
        raise UsageError(f"unknown model {args.model!r}")
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"--config {args.config} must hold a JSON object")
    seed = _resolve_seed(args, config)
    params = {k: v for k, v in config.items() if k != "seed"}
    if model == models.HEISENBERG:
        if args.s is None:
            raise UsageError("heisenberg needs --s")
        values = _parse_value_list(args.s, float)
    else:
        if args.d is None:
            raise UsageError(f"{args.model} needs --d")
        values = _parse_value_list(args.d, int)
    wanted = models.SCHEME_NAMES if args.schemes == "all" else (args.schemes,)

    rows = []
    for v in values:
        if model == models.HEISENBERG:
            spec = models.ModelSpec(model, N=args.N, s=v, params=params, seed=seed)
        else:
            spec = models.ModelSpec(model, N=args.N, d=int(v), params=params,
                                    seed=seed)
        rep = models.compute_scheme_report(spec)
        best = min(rep.counts, key=lambda k: (rep.counts[k],
                                              models.SCHEME_NAMES.index(k)))
        print(f"{model} {'s' if model == models.HEISENBERG else 'd'}={fmt(v)} "
              f"N={args.N}: scenario {rep.scenario}, best {best} "
              f"({rep.counts[best]} entangling)")
        for scheme in wanted:
            rows.append([rep.model, fmt(rep.d_or_s), rep.N, scheme,
                         rep.counts[scheme], fmt(rep.ratios[scheme]),
                         rep.qubits_per_particle[scheme],
                         rep.conversions[scheme], rep.scenario])
    if args.out:
        header = ["model", "d_or_s", "N", "scheme", "entangling_count",
                  "relative_to_sb", "qubits_per_particle",
                  "conversions_counted", "scenario"]
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write(args.out, buf.getvalue())
    return 0


def _cmd_simulate_check(args) -> int:
    with open(args.pauli) as fh:
        h = PauliSum.from_json_dict(json.load(fh))
    with open(args.circuit) as fh:
        circ = import_circuit(fh.read())
    reference = trotter_step(h, args.theta)
    dist = unitary_distance(circuit_to_unitary(reference),
                            circuit_to_unitary(circ),
                            up_to_phase=args.up_to_phase)
    ok = dist <= args.tol
    print(f"distance {fmt(dist)} vs tol {fmt(args.tol)}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_export_qasm(args) -> int:
    with open(args.circuit) as fh:
        circ = import_circuit(fh.read())
    text = export_circuit(circ, "qasm2")
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudenc",
        description="Map d-level operators onto qubit registers, synthesize "
                    "Trotter circuits, and compare encoding schemes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("encode", help="show codewords of an encoding")
    _add_encoding_flags(sp)
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("map-op", help="encode an operator as a Pauli sum")
    _add_encoding_flags(sp)
    sp.add_argument("--op", required=True, choices=_OP_CHOICES)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_map_op)

    sp = sub.add_parser("trotter", help="synthesize one Trotter step")
    _add_encoding_flags(sp)
    sp.add_argument("--op", required=True, choices=_OP_CHOICES)
    sp.add_argument("--theta", type=float, default=0.1)
    sp.add_argument("--ordering", choices=["canonical", "given"],
                    default="canonical")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_trotter)

    sp = sub.add_parser("optimize", help="run the peephole optimizer")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--max-sweeps", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("convert-circuit", help="emit an encoding conversion circuit")
    sp.add_argument("--kind", required=True, choices=converters.CONVERSION_KINDS)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_convert_circuit)

    sp = sub.add_parser("conversion-cost", help="closed-form conversion gate counts")
    sp.add_argument("--kind", required=True, choices=converters.CONVERSION_KINDS)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--decompose", choices=["none", "clifford_t"], default="none")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_conversion_cost)

    sp = sub.add_parser("bounds", help="per-element Pauli length distribution and CNOT bound")
    sp.add_argument("--dH", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--diagonal", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("bounds-op", help="staircase CNOT bound for a whole operator")
    _add_encoding_flags(sp)
    sp.add_argument("--op", required=True, choices=_OP_CHOICES)
    sp.add_argument("--sparsity", choices=bounds_mod.SPARSITY_PATTERNS,
                    default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_bounds_op)

    sp = sub.add_parser("report", help="per-scheme entangling counts and scenarios")
    sp.add_argument("--model", required=True)
    sp.add_argument("--d", default=None, help="cutoff, range '4..16', or list '4,8'")
    sp.add_argument("--s", default=None, help="spin, single or list '1.5,3.5'")
    sp.add_argument("--N", type=int, default=3)
    sp.add_argument("--schemes", default="all",
                    choices=["all"] + list(models.SCHEME_NAMES))
    sp.add_argument("--config", default=None, help="JSON model parameters")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="CSV path")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("simulate-check",
                        help="verify a circuit against a Pauli sum's Trotter step")
    sp.add_argument("--pauli", required=True)
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--theta", type=float, default=0.1)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--up-to-phase", action="store_true")
    sp.set_defaults(func=_cmd_simulate_check)

    sp = sub.add_parser("export-qasm", help="circuit JSON -> OpenQASM 2")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_export_qasm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
