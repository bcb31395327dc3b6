"""Command-line interface driven in-process: exit codes, formats, determinism."""

import argparse
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qudenc
from qudenc import cli, models
from qudenc.circuits import export_circuit, import_circuit
from qudenc.cli import fmt, main
from qudenc.encoder import encode_matrix
from qudenc.encoding import BLOCK_UNARY, EncodingSpec
from qudenc.optimizer import optimize
from qudenc.qudit_ops import bosonic, spin


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt_significant_digits():
    assert fmt(32) == "32"
    assert fmt(1.0) == "1"
    assert fmt(1.5) == "1.5"
    assert fmt(1 / 3) == "0.333333333333"  # 12 significant digits
    assert fmt(1e-15) == "1e-15"


def test_encode_block_unary_display(capsys):
    code, out, _ = run(capsys, "encode", "--enc", "bu", "--d", "12",
                       "--g", "3", "--level", "7")
    assert code == 0
    assert "00 10 00 00" in out
    assert "support [4, 5]" in out


def test_encode_json_payload(tmp_path, capsys):
    path = tmp_path / "enc.json"
    code, out, _ = run(capsys, "encode", "--enc", "gray", "--d", "8",
                       "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["n_qubits"] == 3
    assert len(data["codewords"]) == 8
    assert data["codewords"][2]["bits"] == "011"  # Gray(2) = 3


def test_map_op_number_operator_json(tmp_path, capsys):
    path = tmp_path / "op.json"
    code, out, _ = run(capsys, "map-op", "--enc", "sb", "--d", "3",
                       "--op", "n", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["encoding"] == "sb(d=3)"
    assert data["operator"] == "n"
    assert len(data["source_digest"]) == 16
    terms = {t["pauli"]: t["re"] for t in data["terms"]}
    assert terms == {"": 0.75, "Z0": 0.25, "Z1": -0.25, "Z0 Z1": -0.75}
    # canonical order: identity first, then by lowest acting qubit
    assert [t["pauli"] for t in data["terms"]] == ["", "Z0", "Z0 Z1", "Z1"]


def test_bounds_headline_example(capsys):
    code, out, _ = run(capsys, "bounds", "--dH", "2", "--K", "4")
    assert code == 0
    assert "cnot upper bound 32" in out
    assert "closed form 32" in out


def test_bounds_diagonal(capsys):
    code, out, _ = run(capsys, "bounds", "--dH", "0", "--K", "3", "--diagonal")
    assert code == 0
    assert "cnot upper bound 10" in out  # 3*8 - 16 + 2


def test_bounds_invalid_query_is_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--dH", "0", "--K", "3")
    assert code == 2
    assert "error" in err
    # K = 16 is the compact register of d = 2^16, the largest level count.
    code, out, _ = run(capsys, "bounds", "--dH", "1", "--K", "16")
    assert code == 0 and "closed form 491520" in out  # (K - 1) 2^(K - 1)
    code, out, err = run(capsys, "bounds", "--dH", "1", "--K", "17")
    assert code == 2 and out == ""
    assert err == "error: K must be in [1, 16], got 17\n"


def test_trotter_and_optimize_and_qasm_pipeline(tmp_path, capsys):
    circ_path = tmp_path / "circ.json"
    code, out, _ = run(capsys, "trotter", "--enc", "sb", "--d", "4",
                       "--op", "q", "--theta", "0.25", "--out", str(circ_path))
    assert code == 0 and "entangling" in out

    opt_path = tmp_path / "opt.json"
    code, out, _ = run(capsys, "optimize", "--circuit", str(circ_path),
                       "--out", str(opt_path))
    assert code == 0
    before, after = json.loads(circ_path.read_text()), json.loads(opt_path.read_text())
    assert len(after["gates"]) <= len(before["gates"])

    qasm_path = tmp_path / "circ.qasm"
    code, _, _ = run(capsys, "export-qasm", "--circuit", str(opt_path),
                     "--out", str(qasm_path))
    assert code == 0
    assert qasm_path.read_text().startswith("OPENQASM 2.0;")


def test_conversion_cost_clifford_t(capsys):
    code, out, _ = run(capsys, "conversion-cost", "--kind", "sb2unary",
                       "--d", "16", "--decompose", "clifford_t")
    assert code == 0
    assert "'CNOT': 103" in out


def test_convert_circuit_writes_json(tmp_path, capsys):
    path = tmp_path / "conv.json"
    code, out, _ = run(capsys, "convert-circuit", "--kind", "sb2gray",
                       "--d", "8", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["n_qubits"] == 3 and len(data["gates"]) == 2


def test_simulate_check_pass_and_fail(tmp_path, capsys):
    from qudenc.circuits import export_circuit, trotter_step
    from qudenc.encoder import encode_matrix
    from qudenc.encoding import SB, EncodingSpec
    from qudenc.qudit_ops import bosonic

    h = encode_matrix(EncodingSpec(SB, 4), bosonic(4, "q")).sum
    pauli_path = tmp_path / "h.json"
    pauli_path.write_text(json.dumps(h.to_json_dict()))
    circ_path = tmp_path / "step.json"
    circ_path.write_text(export_circuit(trotter_step(h, 0.3), "json"))

    code, out, _ = run(capsys, "simulate-check", "--pauli", str(pauli_path),
                       "--circuit", str(circ_path), "--theta", "0.3")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "simulate-check", "--pauli", str(pauli_path),
                       "--circuit", str(circ_path), "--theta", "0.4")
    assert code == 1 and "FAIL" in out


def test_report_heisenberg_csv_row(tmp_path, capsys):
    path = tmp_path / "rep.csv"
    code, out, _ = run(capsys, "report", "--model", "heisenberg", "--s", "1.5",
                       "--N", "2", "--schemes", "sb_only", "--out", str(path))
    assert code == 0
    assert "scenario A" in out
    lines = path.read_text().splitlines()
    assert lines[0] == ("model,d_or_s,N,scheme,entangling_count,relative_to_sb,"
                        "qubits_per_particle,conversions_counted,scenario")
    assert lines[1] == "heisenberg,1.5,2,sb_only,16,1,2,0,A"


def test_report_all_schemes_and_repeatability(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["report", "--model", "bose-hubbard", "--d", "3..4", "--N", "1",
            "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) == 1 + 2 * 5  # header + 5 schemes per cutoff
    assert {line.split(",")[1] for line in lines[1:]} == {"3", "4"}


def test_report_unknown_model_is_usage_error(capsys):
    code, _, err = run(capsys, "report", "--model", "nope", "--d", "4")
    assert code == 2 and "unknown model" in err


def test_report_heisenberg_requires_s(capsys):
    code, _, err = run(capsys, "report", "--model", "heisenberg", "--d", "4")
    assert code == 2 and "--s" in err


def test_g_flag_rejected_outside_block_unary(capsys):
    code, _, err = run(capsys, "encode", "--enc", "sb", "--d", "8", "--g", "3")
    assert code == 2 and "--enc bu" in err


def test_block_size_above_level_count_is_noted_on_stderr(capsys, tmp_path):
    spec = EncodingSpec(BLOCK_UNARY, 3, g=5)
    out_file = tmp_path / "n.json"
    code, out, err = run(capsys, "map-op", "--enc", "bu", "--d", "3", "--g", "5",
                         "--op", "n", "--out", str(out_file))
    assert code == 0
    assert err == "note: --g 5 exceeds --d 3, so the one block is 3 qubits wide " \
                  "(--g 3 needs 2)\n"
    assert out.startswith(f"n at d=3 under {spec.describe()}\n") and "note" not in out
    written = json.loads(out_file.read_text())
    assert written == {**encode_matrix(spec, bosonic(3, "n")).sum.to_json_dict(),
                       "encoding": spec.describe(), "operator": "n",
                       "source_digest": written["source_digest"]}
    for g in ("1", "3"):
        code, _, err = run(capsys, "map-op", "--enc", "bu", "--d", "3", "--g", g,
                           "--op", "n")
        assert code == 0 and err == ""


def test_missing_circuit_file_is_usage_error(capsys):
    code, _, err = run(capsys, "optimize", "--circuit", "/no/such/file.json")
    assert code == 2


_GOOD_RZ = {"kind": "Rz", "qubits": [0], "angle": 0.5}


@pytest.mark.parametrize("circuit", [
    {"n_qubits": 1, "gates": [{"kind": "Rz", "qubits": [0], "angle": "abc"}]},
    {"n_qubits": 1, "gates": [{"kind": "Rz", "qubits": [0], "angle": float("nan")}]},
    {"n_qubits": 1, "gates": [_GOOD_RZ, {"kind": "Rz", "angle": 0.5}]},
    {"n_qubits": 1, "gates": [{"qubits": [0]}]},
    {"n_qubits": 1, "gates": [{"kind": "X", "qubits": ["0"]}]},
    {"n_qubits": 1, "gates": [["X", 0]]},
    {"n_qubits": 1},
    {"gates": [_GOOD_RZ]},
], ids=["string-angle", "nan-angle", "no-qubits", "no-kind", "string-qubit",
        "gate-not-object", "no-gates", "no-n_qubits"])
def test_bad_circuit_json_is_usage_error(tmp_path, capsys, circuit):
    circ_path, out_path = tmp_path / "bad.json", tmp_path / "out.json"
    circ_path.write_text(json.dumps(circuit))  # NaN is written as the JSON token NaN
    code, out, err = run(capsys, "optimize", "--circuit", str(circ_path),
                         "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_optimize_max_sweeps(tmp_path, capsys):
    circ_path = tmp_path / "c.json"
    circ_path.write_text(json.dumps({"n_qubits": 1, "gates": [_GOOD_RZ, _GOOD_RZ]}))
    code, _, err = run(capsys, "optimize", "--circuit", str(circ_path),
                       "--max-sweeps", "0")
    assert code == 2 and "max_sweeps" in err
    code, out, _ = run(capsys, "optimize", "--circuit", str(circ_path),
                       "--max-sweeps", "1")
    assert code == 0 and "2 -> 1 gates" in out


def test_seed_resolution(tmp_path, capsys, monkeypatch):
    def dense_json(argv_extra):
        path = tmp_path / "d.json"
        assert main(["map-op", "--enc", "sb", "--d", "4", "--op", "dense",
                     "--out", str(path)] + argv_extra) == 0
        capsys.readouterr()
        return path.read_text()

    monkeypatch.delenv("SEED", raising=False)
    explicit5 = dense_json(["--seed", "5"])
    monkeypatch.setenv("SEED", "5")
    from_env = dense_json([])
    assert from_env == explicit5
    # an explicit flag wins over the environment
    monkeypatch.setenv("SEED", "6")
    assert dense_json(["--seed", "5"]) == explicit5
    assert dense_json([]) != explicit5


def _assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


_RZ_CIRCUIT = json.dumps({"n_qubits": 1, "gates": [_GOOD_RZ]})
# exp(-i 0.1 * 0.5 Z0) is exactly Rz(0.1): a circuit at distance 0 from its sum.
_ZERO_DISTANCE = {"h.json": json.dumps({"n_qubits": 1, "terms": [{"pauli": "Z0", "re": 0.5}]}),
                  "c.json": json.dumps({"n_qubits": 1, "gates": [
                      {"kind": "Rz", "qubits": [0], "angle": 0.1}]})}
_QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


@pytest.mark.parametrize("files, argv, needle", [
    ({"h.json": json.dumps({"n_qubits": 1}), "c.json": _RZ_CIRCUIT},
     ["simulate-check", "--pauli", "h.json", "--circuit", "c.json"], "'terms'"),
    ({"c.json": json.dumps({"n_qubits": 1, "global_phase": None, "gates": []})},
     ["optimize", "--circuit", "c.json"], "'global_phase'"),
    ({"c.qasm": _QASM_HEAD + "qreg q[1];\nrz q[0];\n"},
     ["optimize", "--circuit", "c.qasm"], "rz angle"),
    ({"c.qasm": _QASM_HEAD + "// global phase: nan\nqreg q[1];\nh q[0];\n"},
     ["optimize", "--circuit", "c.qasm", "--out", "out.json"], "global phase"),
    ({"c.qasm": _QASM_HEAD + "qreg q[1];\nh q[0];\nqreg q[2];\nx q[1];\n"},
     ["export-qasm", "--circuit", "c.qasm"], "one qreg"),
    ({"c.qasm": _QASM_HEAD + "qreg q[1];\nx(0.5) q[0];\n"},
     ["export-qasm", "--circuit", "c.qasm"], "forbidden"),
    (_ZERO_DISTANCE, ["simulate-check", "--pauli", "h.json", "--circuit", "c.json",
                      "--tol", "nan"], "--tol"),
    (_ZERO_DISTANCE, ["simulate-check", "--pauli", "h.json", "--circuit", "c.json",
                      "--tol", "-1"], "--tol"),
    ({}, ["SEED=abc", "map-op", "--enc", "sb", "--d", "4", "--op", "q"], "SEED"),
    ({}, ["SEED=1.5", "report", "--model", "bose-hubbard", "--d", "2", "--N", "1"], "SEED"),
    ({}, ["report", "--model", "bose-hubbard", "--d", "100000", "--N", "1"], "got 100000"),
    ({}, ["report", "--model", "heisenberg", "--s", "1e9", "--N", "1"], "s = 1000000000.0"),
    ({"c.qasm": _QASM_HEAD + "qreg q[2];\nx qq[1];\n"},
     ["export-qasm", "--circuit", "c.qasm"], "q[<int>] on qreg q"),
    ({"c.qasm": _QASM_HEAD + "qreg q[2];\ncx q[0], r[1];\n"},
     ["export-qasm", "--circuit", "c.qasm"], "q[<int>] on qreg q"),
    ({"c.qasm": _QASM_HEAD + "qreg q;\nx q[0];\n"},
     ["export-qasm", "--circuit", "c.qasm"], "qreg declaration"),
    ({"c.json": json.dumps({"n_qubits": -2, "gates": []})},
     ["export-qasm", "--circuit", "c.json"], "'n_qubits'"),
    ({"c.json": json.dumps({"n_qubits": True, "gates": []})},
     ["optimize", "--circuit", "c.json", "--out", "out.json"], "'n_qubits'"),
    ({"h.json": json.dumps({"n_qubits": True, "terms": [{"pauli": "Z0", "re": 0.5}]}),
      "c.json": _ZERO_DISTANCE["c.json"]},
     ["simulate-check", "--pauli", "h.json", "--circuit", "c.json"], "'n_qubits'"),
    ({"h.json": json.dumps({"n_qubits": 1, "terms": [{"pauli": "Z0", "re": True}]}),
      "c.json": _ZERO_DISTANCE["c.json"]},
     ["simulate-check", "--pauli", "h.json", "--circuit", "c.json"], "'re'"),
    ({"h.json": json.dumps({"n_qubits": 1, "terms": [{"pauli": "Z0", "re": 10 ** 400}]}),
      "c.json": _ZERO_DISTANCE["c.json"]},
     ["simulate-check", "--pauli", "h.json", "--circuit", "c.json"], "'re'"),
    ({"c.json": json.dumps({"n_qubits": 1, "global_phase": 10 ** 400, "gates": []})},
     ["optimize", "--circuit", "c.json"], "'global_phase'"),
    ({"c.json": json.dumps({"n_qubits": 1, "gates": [
        {"kind": "Rz", "qubits": [0], "angle": 10 ** 400}]})},
     ["optimize", "--circuit", "c.json"], "Rz angle"),
], ids=["pauli-without-terms", "null-global-phase", "qasm-rz-without-angle",
        "qasm-nan-global-phase", "qasm-second-qreg", "qasm-x-with-angle", "nan-tol", "negative-tol",
        "non-integer-SEED-map-op", "fractional-SEED-report", "report-d-above-cap",
        "report-s-above-cap", "qasm-other-register-name", "qasm-second-register-argument",
        "qasm-qreg-without-size", "negative-circuit-width", "bool-circuit-width",
        "bool-pauli-width", "bool-pauli-coefficient", "huge-integer-pauli-coefficient",
        "huge-integer-global-phase", "huge-integer-rz-angle"])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, monkeypatch,
                                             files, argv, needle):
    """Input files, flags and NAME=value environment settings (written before
    the subcommand, as in a shell) that the command cannot use."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    code, out, err = run(capsys, *argv)
    _assert_one_line_error(code, err)
    assert needle in err and out == ""
    assert not (tmp_path / "out.json").exists()


def test_report_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]")
    code, _, err = run(capsys, "report", "--model", "bose-hubbard", "--d", "4",
                       "--N", "1", "--config", str(config))
    _assert_one_line_error(code, err)


@pytest.mark.parametrize("model, config, needle", [
    ("boson-sampling", {"gates": [{"kind": "beamsplitter", "modes": [0, 1]}]}, "'gates'"),
    ("boson-sampling", {"gates": [{"kind": "beamsplitter", "modes": [0, "1"],
                                   "theta": 0.3}]}, "'gates'"),
    ("boson-sampling", {"gates": "abc"}, "'gates'"),
    ("bose-hubbard", {"t": "abc"}, "'t'"),
    ("bose-hubbard", {"U": None}, "'U'"),
    ("bose-hubbard", {"periodic": "yes"}, "'periodic'"),
    ("bose-hubbard", {"t": float("nan")}, "'t'"),
    ("bose-hubbard", {"mu": 10 ** 400}, "'mu'"),
    ("franck-condon", {"omega_A": {"a": 1}}, "'omega_A'"),
    ("franck-condon", {"k": 1.5}, "'k'"),
    ("bose-hubbard", {"seed": [1]}, "seed"),
], ids=["gate-without-theta", "gate-with-string-mode", "gates-not-a-list",
        "string-t", "null-U", "string-periodic", "nan-t", "huge-integer-mu",
        "omega-A-object", "float-k", "list-seed"])
def test_report_malformed_parameter_is_usage_error(tmp_path, capsys, model, config,
                                                   needle):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "report", "--model", model, "--d", "3", "--N", "2",
                         "--config", str(path))
    _assert_one_line_error(code, err)
    assert needle in err and out == ""


def test_report_unknown_parameter_names_key_and_accepted_keys(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"t": "abc"}))
    code, out, err = run(capsys, "report", "--model", "franck-condon", "--d", "3",
                         "--N", "2", "--config", str(path))
    _assert_one_line_error(code, err)
    assert "'t'" in err
    assert all(key in err for key in ("omega_A", "omega_B", "delta", "k"))


def test_report_config_seed_and_model_keys_are_accepted(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 3, "omega": 2.0, "delta": 0.25}))
    code, out, err = run(capsys, "report", "--model", "shifted-qho", "--d", "4",
                         "--N", "1", "--config", str(path))
    assert code == 0 and err == "" and "shifted_qho d=4" in out


def test_qasm_rz_expression_names_the_accepted_subset(tmp_path, capsys):
    path = tmp_path / "c.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(pi/4) q[0];\n')
    code, _, err = run(capsys, "optimize", "--circuit", str(path))
    _assert_one_line_error(code, err)
    assert "rz angle must be a decimal number" in err


def test_report_empty_range_is_usage_error(capsys):
    code, out, err = run(capsys, "report", "--model", "bose-hubbard",
                         "--d", "8..4", "--N", "1")
    _assert_one_line_error(code, err)
    assert out == ""


@pytest.mark.parametrize("command", ["conversion-cost", "convert-circuit"])
@pytest.mark.parametrize("kind, d", [("sb2gray", "1"), ("gray2sb", "0"),
                                     ("sb2gray", "-5"), ("gray2sb", "-5")])
def test_conversion_rejects_d_below_two(capsys, command, kind, d):
    code, out, err = run(capsys, command, "--kind", kind, "--d", d)
    _assert_one_line_error(code, err)
    assert out == ""


_TWO_QUBIT_CIRCUIT = json.dumps({"n_qubits": 2, "gates": [
    {"kind": "CNOT", "qubits": [0, 1]}, {"kind": "Rz", "qubits": [1], "angle": 0.5}]})


@pytest.mark.parametrize("pauli_sum", [
    {"n_qubits": 0, "terms": []},
    {"n_qubits": 1, "terms": [{"pauli": "Z0", "re": 0.5}]},
], ids=["zero-qubit-sum", "one-qubit-sum"])
def test_simulate_check_width_mismatch_is_usage_error(tmp_path, capsys, monkeypatch,
                                                      pauli_sum):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.json").write_text(json.dumps(pauli_sum))
    (tmp_path / "c.json").write_text(_TWO_QUBIT_CIRCUIT)
    code, out, err = run(capsys, "simulate-check", "--pauli", "h.json",
                         "--circuit", "c.json")
    _assert_one_line_error(code, err)
    assert f"{pauli_sum['n_qubits']} qubits" in err and "circuit on 2" in err
    assert out == ""


@pytest.mark.parametrize("argv, needle", [
    (["--model", "bose-hubbard", "--d", "4", "--s", "9"], "--s applies only to heisenberg"),
    (["--model", "heisenberg", "--s", "1.5", "--d", "4"], "--d applies only to"),
    (["--model", "bose-hubbard", "--d", "2.5..4"], "--d range '2.5..4' needs ends that are "
                                                   "integers; --d takes a cutoff such as 4"),
    (["--model", "bose-hubbard", "--d", "1e3"], "--d '1e3' needs values that are integers"),
    (["--model", "heisenberg", "--s", "x"], "--s 'x' needs values that are positive "
                                            "multiples of 1/2; --s takes a spin"),
], ids=["s-for-bose-hubbard", "d-for-heisenberg", "fractional-d-range", "float-d",
        "non-number-s"])
def test_report_rejects_the_axis_flag_the_model_does_not_read(capsys, argv, needle):
    """An axis flag the model does not sweep, or an axis value it cannot read."""
    code, out, err = run(capsys, "report", *argv, "--N", "2")
    _assert_one_line_error(code, err)
    assert needle in err and out == ""


@pytest.mark.parametrize("spelling", ["underscore", "hyphen"])
@pytest.mark.parametrize("model", models.MODEL_NAMES)
def test_report_accepts_every_model_name_in_both_spellings(capsys, model, spelling):
    name = model.replace("_", "-") if spelling == "hyphen" else model
    axis = ["--s", "0.5"] if model == models.HEISENBERG else ["--d", "2"]
    code, out, err = run(capsys, "report", "--model", name, *axis, "--N", "1")
    assert code == 0 and err == ""
    assert out.startswith(f"{model} ")


def test_parser_registers_the_documented_subcommands():
    documented = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.S).group(1)
    names = [n.strip() for n in documented.split("|")]
    assert len(names) == 11
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(names)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert set(re.findall(r"^qudenc ([a-z-]+)", readme, re.M)) == set(names)


@pytest.mark.parametrize("spins, swept", [
    ("0.5..1.5", ["0.5", "1", "1.5"]),
    ("1..2", ["1", "1.5", "2"]),
], ids=["half-integer-ends", "integer-ends"])
def test_report_spin_range_steps_by_half(tmp_path, capsys, spins, swept):
    path = tmp_path / "rep.csv"
    code, out, err = run(capsys, "report", "--model", "heisenberg", "--s", spins,
                         "--N", "2", "--schemes", "sb_only", "--out", str(path))
    assert code == 0 and err == ""
    assert re.findall(r"^heisenberg s=(\S+) N=2:", out, re.M) == swept
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == swept


@pytest.mark.parametrize("spins", ["0.7..2", "x..2", "1..nan", "0.5..inf", "1.25..2"])
def test_report_spin_range_ends_must_be_multiples_of_half(capsys, spins):
    code, out, err = run(capsys, "report", "--model", "heisenberg", "--s", spins,
                         "--N", "2")
    _assert_one_line_error(code, err)
    assert f"--s range {spins!r}" in err and "0.5..2.5" in err and out == ""


def test_optimize_reports_the_sweep_cap(tmp_path, capsys):
    # The inner X pair cancels in sweep 1; the H pair around it only in sweep 2.
    gates = [{"kind": k, "qubits": [0]} for k in ("H", "X", "X", "H")]
    circ_path, out_path = tmp_path / "c.json", tmp_path / "out.json"
    circ_path.write_text(json.dumps({"n_qubits": 1, "gates": gates}))
    code, out, err = run(capsys, "optimize", "--circuit", str(circ_path),
                         "--max-sweeps", "1", "--out", str(out_path))
    assert code == 0 and out == "optimize: 4 -> 2 gates, entangling 0 -> 0\n"
    assert err == "warning: optimize stopped at --max-sweeps 1 before a fixed point\n"
    capped = optimize(import_circuit(circ_path.read_text()), 1)
    assert out_path.read_text() == export_circuit(capped, "json")
    for sweeps in (["--max-sweeps", "2"], []):
        code, out, err = run(capsys, "optimize", "--circuit", str(circ_path), *sweeps)
        assert code == 0 and out == "optimize: 4 -> 0 gates, entangling 0 -> 0\n"
        assert err == ""


@pytest.mark.parametrize("text", ["0.5", "1", "7.5", "0", "-0.5", "0.7", "1e-13",
                                  "inf", "nan", "1e400"])
def test_spin_rule_is_one_rule(capsys, text):
    """spin, ModelSpec and report --s accept exactly the same spins, and none
    of them raises anything but ValueError for the others."""
    outcomes = []
    for make in (lambda: spin(float(text), "z"),
                 lambda: models.ModelSpec(models.HEISENBERG, N=1, s=float(text))):
        try:
            make()
            outcomes.append(True)
        except ValueError:
            outcomes.append(False)
    code = run(capsys, "report", "--model", "heisenberg", "--s", text,
               "--N", "1", "--schemes", "sb_only")[0]
    assert code in (0, 2)
    outcomes.append(code == 0)
    assert outcomes == [float(text) in (0.5, 1, 7.5)] * 3


# Valid flags for each subcommand; c.json and h.json are written by the test.
_WALK_BASE = {
    "encode": ["--enc", "sb", "--d", "4"],
    "map-op": ["--enc", "sb", "--d", "4", "--op", "q"],
    "trotter": ["--enc", "sb", "--d", "4", "--op", "q"],
    "optimize": ["--circuit", "c.json"],
    "convert-circuit": ["--kind", "sb2gray", "--d", "4"],
    "conversion-cost": ["--kind", "sb2gray", "--d", "4"],
    "bounds": ["--dH", "1", "--K", "2"],
    "bounds-op": ["--enc", "sb", "--d", "4", "--op", "q"],
    "report": ["--model", "bose-hubbard", "--d", "2", "--N", "1"],
    "simulate-check": ["--pauli", "h.json", "--circuit", "c.json"],
    "export-qasm": ["--circuit", "c.json"],
}
_NUMBER_FLAGS = [(name, flag) for name, (_, _, flags) in cli._COMMANDS.items()
                 for flag, kwargs in flags
                 if kwargs.get("type") in (int, float) or flag in ("--d", "--s")]


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "x"])
@pytest.mark.parametrize("command, flag", _NUMBER_FLAGS)
def test_no_number_flag_value_raises_a_traceback(tmp_path, capsys, monkeypatch,
                                                 command, flag, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEED", raising=False)
    for name, text in _ZERO_DISTANCE.items():
        (tmp_path / name).write_text(text)
    base = (["--model", "heisenberg", "--s", "0.5", "--N", "1"] if flag == "--s"
            else _WALK_BASE[command])
    argv = list(base)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    try:
        code = main([command, *argv])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err


_ADDRESS_SPACE_CAP = 2_000_000 * 1024  # bytes, like `ulimit -v 2000000`


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP, _ADDRESS_SPACE_CAP))


@pytest.mark.parametrize("argv", [
    ["map-op", "--enc", "sb", "--d", "65536", "--op", "n"],
    ["report", "--model", "bose-hubbard", "--d", "65536", "--N", "1"],
    ["map-op", "--enc", "bu", "--d", "4", "--g", "1099511627776", "--op", "n"],
], ids=["d65536-operator", "d65536-report", "bu-huge-block"])
def test_input_too_large_for_memory_is_usage_error(argv):
    """Accepted inputs whose tables do not fit exit 2 with one error line.
    The child runs under an address-space cap, so the oversized allocation
    fails at once whatever the host's overcommit policy."""
    src = str(Path(qudenc.__file__).resolve().parents[1])
    # One BLAS thread, so that importing numpy fits under the cap on hosts with many cores.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "qudenc.cli", *argv], env=env,
                          preexec_fn=_cap_address_space, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert "allocate" in errors[0]
