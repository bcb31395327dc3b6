"""Circuit IR, staircase synthesis, resource counting, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuits
from reference_exponential import matrix_exponential
from qudenc import circuits
from qudenc.circuits import (GATE_ARITY, Circuit, Gate, _trotter_ids, count_resources,
                             cswap_clifford_t, export_circuit, import_circuit, import_qasm,
                             swap_as_cnots, toffoli_gates, toffoli_via_cswap, trotter_step,
                             trotter_term)
from qudenc.encoder import encode_matrix
from qudenc.encoding import GRAY, SB, EncodingSpec
from qudenc.paulis import PackedSum, PauliSum, text_to_string
from qudenc.qudit_ops import bosonic
from qudenc.simulator import circuit_to_unitary, pauli_to_matrix, unitary_distance


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("H", (0,), angle=0.5)
    with pytest.raises(ValueError):
        Gate("Rz", (0,))
    with pytest.raises(ValueError):
        Gate("Q", (0,))
    with pytest.raises(ValueError):
        Circuit(2).add("X", 5)
    for angle in ("abc", float("nan"), float("inf"), True):
        with pytest.raises(ValueError):
            Gate("Rz", (0,), angle=angle)
    assert Gate("Rz", (0,), angle=2).angle == 2


def test_gate_qubits_must_be_integers():
    # A float index once exported as "h q[0.5];".
    with pytest.raises(ValueError, match="qubit index must be an integer, got 0.5"):
        Circuit(2).add("H", 0.5)
    with pytest.raises(ValueError, match="qubit index must be an integer, got 1.0"):
        Gate("CNOT", (0, 1.0))
    with pytest.raises(ValueError, match="qubit index must be an integer, got True"):
        Gate("X", (True,))
    with pytest.raises(ValueError, match=r"negative qubit index in \(0, -1\)"):
        Gate("CNOT", (0, -1))
    # numpy integers are integers.
    assert Gate("CSWAP", (np.int64(2), np.intp(0), np.int32(1))).qubits == (2, 0, 1)


def test_trotter_term_qubit_indices_must_be_integers():
    # A packed float index once read 4 * 0.5 + 1 = 3, an Rz on qubit 0, and
    # True read as qubit 1.
    with pytest.raises(ValueError, match="qubit index must be an integer, got 0.5"):
        trotter_term(((0.5, "X"),), 1.0, 0.1, 2)
    with pytest.raises(ValueError, match="qubit index must be an integer, got True"):
        trotter_term(((True, "X"),), 1.0, 0.1, 2)
    with pytest.raises(ValueError, match="negative qubit index -1"):
        trotter_term(((-1, "X"),), 1.0, 0.1, 2)
    # numpy integers are integers.
    assert trotter_term(((np.int64(1), "X"),), 1.0, 0.1, 2).gates == \
        trotter_term(((1, "X"),), 1.0, 0.1, 2).gates


def test_circuit_width_must_be_an_integer():
    # A float width once exported as "qreg q[2.5];".
    with pytest.raises(ValueError, match="n_qubits must be an integer, got 2.5"):
        Circuit(2.5)
    with pytest.raises(ValueError, match="n_qubits must be an integer, got True"):
        Circuit(True)
    with pytest.raises(ValueError, match="n_qubits must be non-negative"):
        Circuit(-1)
    assert Circuit(np.int64(2)).add("H", 1).n_qubits == 2


def test_staircase_structure_weight_three():
    s = text_to_string("X0 Y1 Z2")
    c = trotter_term(s, 0.5, 0.2, 3)
    kinds = [(g.kind, g.qubits) for g in c.gates]
    assert kinds == [
        ("H", (0,)), ("BasisY", (1,)),
        ("CNOT", (0, 1)), ("CNOT", (1, 2)),
        ("Rz", (2,)),
        ("CNOT", (1, 2)), ("CNOT", (0, 1)),
        ("H", (0,)), ("BasisY", (1,)),
    ]
    rz = [g for g in c.gates if g.kind == "Rz"][0]
    assert abs(rz.angle - 2 * 0.2 * 0.5) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 5, 13, 70])
def test_staircase_numbers_keys_as_np_unique_on_both_sides_of_the_width_cutoff(n, monkeypatch):
    # At or below the cutoff the keys are numbered by a presence mask, above
    # it by np.unique: the same gate ids, ids and everything else.
    rng = np.random.default_rng(n)
    for _ in range(5):
        items = {}
        for _ in range(int(rng.integers(1, 30))):
            qubits = np.flatnonzero(rng.random(n) < min(1.0, 4 / n)).tolist()
            items[tuple((q, "XYZ"[rng.integers(3)]) for q in qubits)] = float(rng.normal())
        h = PackedSum.pack(sorted(items.items()), n)
        outputs = []
        for cutoff in (n, n - 1):
            monkeypatch.setattr(circuits, "_DENSE_KEYS_MAX", cutoff)
            outputs.append(circuits._staircase(h, 0.3))
        (gid, ids, rz, angles, phase), want = outputs
        assert gid.dtype == want[0].dtype and np.array_equal(gid, want[0])
        assert list(ids.items()) == list(want[1].items())
        assert np.array_equal(rz, want[2]) and (angles, phase) == want[3:]


def test_staircase_matches_exponential():
    rng = np.random.default_rng(0)
    for text in ("Z0", "X0 X1", "Y0 Z2", "X0 Y1 Z2 X3"):
        s = text_to_string(text)
        n = max(q for q, _ in s) + 1
        coeff = rng.uniform(-2, 2)
        theta = rng.uniform(-2, 2)
        c = trotter_term(s, coeff, theta, n)
        p = PauliSum(n)
        p._accumulate(s, coeff)
        ref = matrix_exponential(pauli_to_matrix(p.simplify()), theta)
        assert unitary_distance(circuit_to_unitary(c), ref) < 1e-12


def test_identity_term_is_pure_phase():
    c = trotter_term((), 1.5, 0.3, 2)
    assert len(c.gates) == 0
    ref = np.exp(-1j * 0.3 * 1.5) * np.eye(4)
    assert unitary_distance(circuit_to_unitary(c), ref) < 1e-12


def test_trotter_term_rejects_complex_coefficient():
    with pytest.raises(ValueError):
        trotter_term(text_to_string("X0"), 1j, 0.1, 1)


def test_trotter_step_term_order_is_canonical():
    h = PauliSum(2)
    h._accumulate(text_to_string("Z1"), 0.5)
    h._accumulate(text_to_string("X0"), 0.25)
    h = h.simplify()
    c = trotter_step(h, 0.1)
    first_rz = [g for g in c.gates if g.kind == "Rz"][0]
    assert first_rz.qubits == (0,)  # X0 sorts before Z1


def test_trotter_step_requires_hermitian():
    h = PauliSum(1)
    h._accumulate(text_to_string("X0"), 1j)
    with pytest.raises(ValueError):
        trotter_step(h.simplify(), 0.1)


def _real_parts(h: PauliSum) -> PauliSum:
    out = PauliSum(h.n_qubits)
    out.terms = {s: complex(c.real, 0.0) for s, c in h.terms.items()}
    return out


@pytest.mark.parametrize("kind", [SB, GRAY])
@pytest.mark.parametrize("d", [5, 16, 64])
@pytest.mark.parametrize("op", ["q2", "p2"])
def test_trotter_step_takes_a_hermitian_sum_at_any_scale(kind, d, op):
    # The encoder leaves rounding residue near 1e-10j on strings whose real
    # part is 0, in a sum whose largest coefficient is 1e6 or more.  That
    # residue is real enough: the step is the step of the real parts.
    h = encode_matrix(EncodingSpec(kind, d), 1e6 * bosonic(d, op).mat).sum
    assert max(abs(c.imag) for c in h.terms.values()) > 1e-11
    got, want = trotter_step(h, 0.1), trotter_step(_real_parts(h), 0.1)
    assert got.gates == want.gates
    assert [repr(g.angle) for g in got.gates] == [repr(g.angle) for g in want.gates]
    assert repr(got.global_phase) == repr(want.global_phase)


def test_trotter_term_and_trotter_step_share_one_realness_rule():
    x0 = text_to_string("X0")
    for c, real in ((1e6 + 5e-7j, True), (1e6 + 2e-6j, False), (0.5 + 5e-13j, True),
                    (0.5 + 2e-12j, False)):
        h = PauliSum(1, {x0: c})
        if real:
            assert trotter_term(x0, c, 0.1, 1).gates == trotter_step(h, 0.1).gates
            continue
        with pytest.raises(ValueError, match="non-real"):
            trotter_term(x0, c, 0.1, 1)
        with pytest.raises(ValueError, match="non-real"):
            trotter_step(h, 0.1)


def test_trotter_term_rejects_a_coefficient_whose_modulus_overflows():
    # abs() of this coefficient raises OverflowError.
    with pytest.raises(ValueError, match="non-real"):
        trotter_term(text_to_string("X0"), complex(1.5e308, 1.5e308), 0.1, 1)


@pytest.mark.parametrize("theta", [0.37, np.float64(0.37)], ids=["float", "np.float64"])
def test_rz_angles_are_python_floats(theta):
    # The layout computes angles in numpy; a numpy scalar angle would export
    # as rz(np.float64(...)) and read back as an error.  No Y, so that the
    # QASM round trip gives back the very gates.
    h = PauliSum(3, {(): 0.25, text_to_string("X0 Z2"): 0.5, text_to_string("Z1"): -1.5,
                     text_to_string("Z0 X1 X2"): 0.125})
    step = trotter_step(h, theta)
    rz = [g.angle for g in step.gates if g.kind == "Rz"]
    assert len(rz) == 3 and all(type(a) is float for a in rz)
    assert type(step.global_phase) is float
    back = import_qasm(export_circuit(step, "qasm2"))
    assert (back.gates, back.global_phase) == (step.gates, step.global_phase)
    term = trotter_term(text_to_string("X0 Z1"), 0.5, theta, 2)
    assert [type(g.angle) for g in term.gates if g.kind == "Rz"] == [float]
    _, _, angles = _trotter_ids(PackedSum.pack(sorted(h.terms.items()), 3), theta)
    assert all(type(a) is float for a in angles)


def test_count_resources_histogram():
    c = Circuit(3)
    c.add("H", 0)
    c.add("CNOT", 0, 1)
    c.add("SWAP", 1, 2)
    c.add("CSWAP", 0, 1, 2)
    rep = count_resources(c)
    assert rep.counts == {"H": 1, "CNOT": 1, "SWAP": 1, "CSWAP": 1}
    assert rep.entangling_total == 3
    rep_ct = count_resources(c, "clifford_t")
    # SWAP -> 3 CNOT, CSWAP -> 8 CNOT + 2 H + 4 T + 3 Tdg
    assert rep_ct.counts["CNOT"] == 1 + 3 + 8
    assert rep_ct.counts["H"] == 1 + 2
    assert rep_ct.counts["T"] == 4
    assert rep_ct.counts["Tdg"] == 3
    assert rep_ct.entangling_total == 12


@st.composite
def _counted_circuits(draw):
    """Random circuits of every gate kind that fits, SWAP and CSWAP
    included, on 0 to 8 qubits."""
    n = draw(st.integers(0, 8))
    kinds = sorted(k for k, arity in GATE_ARITY.items() if arity <= n)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)) if kinds else ():
        qubits = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
        gates.append(Gate(kind, qubits, 0.5 if kind == "Rz" else None))
    return Circuit(n, gates)


@pytest.mark.ci
@settings(max_examples=200, deadline=None)
@given(_counted_circuits())
def test_property_count_resources_is_the_expanded_histogram(c):
    for decompose in ("none", "clifford_t"):
        got = count_resources(c, decompose)
        want = reference_circuits.count_resources(c, decompose)
        assert got == want
        assert list(got.counts) == list(want.counts)  # the same key order


def test_decomposition_templates_are_correct():
    tof = Circuit(3, toffoli_gates(0, 1, 2))
    # qubit 0 = LSB; toffoli controls 0,1 target 2 flips bit 2 when bits 0,1 set
    perm = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        j = i ^ (1 << 2) if (i & 1 and i & 2) else i
        perm[j, i] = 1
    assert unitary_distance(circuit_to_unitary(tof), perm) < 1e-12

    csw = Circuit(3, cswap_clifford_t(0, 1, 2))
    direct = Circuit(3)
    direct.add("CSWAP", 0, 1, 2)
    assert unitary_distance(circuit_to_unitary(csw),
                            circuit_to_unitary(direct)) < 1e-12

    tof2 = Circuit(3, toffoli_via_cswap(0, 1, 2))
    assert unitary_distance(circuit_to_unitary(tof2), perm) < 1e-12

    sw = Circuit(2, swap_as_cnots(0, 1))
    direct_sw = Circuit(2)
    direct_sw.add("SWAP", 0, 1)
    assert unitary_distance(circuit_to_unitary(sw),
                            circuit_to_unitary(direct_sw)) < 1e-12


def test_json_round_trip_preserves_unitary_exactly():
    c = Circuit(3, global_phase=0.7)
    c.add("X", 0)
    c.add("BasisY", 2)
    c.add("Rz", 0, angle=0.3125)
    c.add("CSWAP", 0, 1, 2)
    back = import_circuit(export_circuit(c, "json"))
    assert back.gates == c.gates
    assert back.global_phase == c.global_phase


def test_qasm_round_trip_all_kinds():
    c = Circuit(3, global_phase=-0.25)
    c.add("X", 0)
    c.add("H", 1)
    c.add("BasisY", 2)
    c.add("Rz", 0, angle=0.31)
    c.add("T", 1)
    c.add("Tdg", 2)
    c.add("CNOT", 0, 1)
    c.add("SWAP", 1, 2)
    c.add("CSWAP", 0, 1, 2)
    text = export_circuit(c, "qasm2")
    assert "ccx" not in text  # CSWAP is expanded to the Clifford+T subset
    back = import_circuit(text)
    assert unitary_distance(circuit_to_unitary(c),
                            circuit_to_unitary(back)) < 1e-12


def test_qasm_basis_y_becomes_sdg_h_s():
    c = Circuit(1)
    c.add("BasisY", 0)
    lines = [l for l in export_circuit(c, "qasm2").splitlines()
             if l and not l.startswith(("OPENQASM", "include", "qreg"))]
    assert lines == ["sdg q[0];", "h q[0];", "s q[0];"]


def test_qasm_register_of_any_name_reads_back_as_q():
    c = import_circuit('OPENQASM 2.0;\nqreg r[2];\nx r[0];\ncx r[1], r[0];\n')
    assert c.n_qubits == 2
    assert export_circuit(c, "qasm2").splitlines()[-2:] == ["x q[0];", "cx q[1],q[0];"]


@pytest.mark.parametrize("fmt", ["json", "qasm2"])
@pytest.mark.parametrize("gates, named", [
    ([Gate("H", (5,))], "gate 0 H(5,)"),
    ([Gate("X", (0,)), Gate("CNOT", (1, 2))], "gate 1 CNOT(1, 2)"),
    ([Gate("Rz", (0,), 0.5), Gate("CSWAP", (0, 1, 9)), Gate("H", (7,))], "gate 1 CSWAP(0, 1, 9)"),
], ids=["one-qubit", "cnot", "cswap-before-h"])
def test_export_refuses_a_gate_outside_the_register(fmt, gates, named):
    # The file would name a qubit beyond its own qreg or n_qubits, which
    # import_circuit refuses: export must not write what cannot be read back.
    c = Circuit(2, gates)
    with pytest.raises(ValueError) as err:
        export_circuit(c, fmt)
    assert str(err.value) == f"{named} acts outside the 2-qubit register"


def test_qasm_import_rejects_unknown_gate():
    with pytest.raises(ValueError):
        import_circuit('OPENQASM 2.0;\nqreg q[1];\nfoo q[0];')


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _circuits(draw):
    """Random circuits over the whole gate alphabet, with random angles and phase."""
    n = draw(st.integers(3, 5))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(sorted(GATE_ARITY)))
        qubits = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
        gates.append(Gate(kind, qubits, draw(_FINITE) if kind == "Rz" else None))
    return Circuit(n, gates, draw(_FINITE))


def _qasm_expansion(gates):
    """The gates QASM carries: BasisY as sdg, h, s and CSWAP as its Clifford+T network."""
    out = []
    for g in gates:
        if g.kind == "BasisY":
            out += [Gate("Sdg", g.qubits), Gate("H", g.qubits), Gate("S", g.qubits)]
        elif g.kind == "CSWAP":
            out += cswap_clifford_t(*g.qubits)
        else:
            out.append(g)
    return out


@settings(max_examples=100, deadline=None)
@given(_circuits())
def test_json_and_qasm_round_trips_keep_gates_angles_and_phase(c):
    for text, gates in ((export_circuit(c, "json"), c.gates),
                        (export_circuit(c, "qasm2"), _qasm_expansion(c.gates))):
        back = import_circuit(text)
        assert back.n_qubits == c.n_qubits
        assert back.gates == gates
        assert [repr(g.angle) for g in back.gates] == [repr(g.angle) for g in gates]
        assert back.global_phase == c.global_phase
