"""Reference simulator oracles: gate matrices, state application, exponentials."""

import itertools
import mmap
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simulator
from reference_exponential import matrix_exponential
from states import basis_state
from qudenc import simulator
from qudenc.circuits import (GATE_ARITY, Circuit, Gate, export_circuit,
                             import_circuit)
from qudenc.converters import conversion_circuit
from qudenc.encoder import encode_matrix
from qudenc.encoding import BLOCK_UNARY, GRAY, SB, UNARY, EncodingSpec, num_qubits
from qudenc.paulis import PauliSum, text_to_string
from qudenc.qudit_ops import bosonic, dense_hermitian_test_matrix, tridiag_test_matrix
from qudenc.simulator import (MAX_DENSE_QUBITS, _plan, _run, apply_circuit,
                              circuit_to_unitary, gate_matrix,
                              pauli_to_matrix, unitary_distance, verify_circuit_equivalence,
                              verify_encoding)


def test_basis_y_identity():
    v = gate_matrix(Gate("BasisY", (0,)))
    Y = np.array([[0, -1j], [1j, 0]])
    Z = np.diag([1, -1]).astype(complex)
    np.testing.assert_allclose(v, (Y + Z) / np.sqrt(2), atol=1e-15)
    # Hermitian, self-inverse, conjugates Z into Y
    np.testing.assert_allclose(v, v.conj().T, atol=1e-15)
    np.testing.assert_allclose(v @ v, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(v @ Z @ v, Y, atol=1e-15)
    # equals S H S^dagger
    S = np.diag([1, 1j])
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(v, S @ H @ S.conj().T, atol=1e-15)


def test_qubit_zero_is_least_significant():
    c = Circuit(2)
    c.add("X", 0)
    out = apply_circuit(c, basis_state(2, 0))
    assert abs(out[1] - 1) < 1e-15  # |01> in (q1 q0) display = index 1
    c2 = Circuit(2)
    c2.add("X", 1)
    out2 = apply_circuit(c2, basis_state(2, 0))
    assert abs(out2[2] - 1) < 1e-15


def test_cnot_control_is_first_listed_qubit():
    c = Circuit(2)
    c.add("CNOT", 1, 0)  # control qubit 1
    u = circuit_to_unitary(c)
    # |10> (index 2) -> |11> (index 3)
    assert abs(u[3, 2] - 1) < 1e-15
    assert abs(u[1, 1] - 1) < 1e-15


def test_cswap_swaps_when_control_set():
    c = Circuit(3)
    c.add("CSWAP", 0, 1, 2)
    u = circuit_to_unitary(c)
    # control = qubit 0 set: |q2 q1 q0> = |011> (3) <-> |101> (5)
    assert abs(u[5, 3] - 1) < 1e-15
    assert abs(u[2, 2] - 1) < 1e-15  # control clear: untouched


def test_rz_convention():
    g = Gate("Rz", (0,), angle=0.8)
    expect = np.diag([np.exp(-0.4j), np.exp(0.4j)])
    np.testing.assert_allclose(gate_matrix(g), expect, atol=1e-15)


def test_concatenation_is_matrix_product():
    rng = np.random.default_rng(2)
    c1 = Circuit(2)
    c1.add("H", 0)
    c1.add("CNOT", 0, 1)
    c2 = Circuit(2)
    c2.add("Rz", 1, angle=0.4)
    c2.add("SWAP", 0, 1)
    both = Circuit(2, c1.gates + c2.gates)
    np.testing.assert_allclose(
        circuit_to_unitary(both),
        circuit_to_unitary(c2) @ circuit_to_unitary(c1), atol=1e-12)


def test_every_gate_kind_agrees_with_qasm_reimport():
    # exhaustive 2-qubit states for each gate kind, simulated two ways
    kinds = [Gate("X", (0,)), Gate("H", (1,)), Gate("BasisY", (0,)),
             Gate("Rz", (1,), angle=0.77), Gate("T", (0,)), Gate("Tdg", (1,)),
             Gate("CNOT", (1, 0)), Gate("SWAP", (0, 1))]
    for g in kinds:
        c = Circuit(2, [g])
        back = import_circuit(export_circuit(c, "qasm2"))
        u1 = circuit_to_unitary(c)
        u2 = circuit_to_unitary(back)
        assert unitary_distance(u1, u2) < 1e-12, g
    # CSWAP needs 3 qubits
    c = Circuit(3, [Gate("CSWAP", (2, 0, 1))])
    back = import_circuit(export_circuit(c, "qasm2"))
    assert unitary_distance(circuit_to_unitary(c),
                            circuit_to_unitary(back)) < 1e-12


def test_pauli_to_matrix_is_linear():
    a = PauliSum(2)
    a._accumulate(text_to_string("X0 Z1"), 1.0)
    b = PauliSum(2)
    b._accumulate(text_to_string("Y1"), 1.0)
    a, b = a.simplify(), b.simplify()
    np.testing.assert_allclose(pauli_to_matrix((2.0 * a) + (0.5j * b)),
                               2.0 * pauli_to_matrix(a) + 0.5j * pauli_to_matrix(b),
                               atol=1e-12)


def test_matrix_exponential_basics():
    np.testing.assert_allclose(matrix_exponential(np.zeros((4, 4)), 1.7),
                               np.eye(4), atol=1e-12)
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(matrix_exponential(z, np.pi),
                               -np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[0, 1], [0, 0]]), 1.0)


def test_matrix_exponential_is_unitary():
    m = pauli_to_matrix(
        __import__("qudenc").encoder.encode_matrix(
            EncodingSpec(SB, 4), bosonic(4, "q")).sum)
    u = matrix_exponential(m, 0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-9)


def test_verify_encoding_catches_wrong_sums():
    spec = EncodingSpec(SB, 4)
    n = bosonic(4, "n")
    good = __import__("qudenc").encoder.encode_matrix(spec, n).sum
    assert verify_encoding(spec, n, good) < 1e-12
    bad = good + (0.25 * PauliSum.identity(2))
    assert verify_encoding(spec, n, bad.simplify()) > 0.2


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.25, 1e-13]),
                    st.floats(-8.0, 8.0))


@st.composite
def _encoded_cases(draw):
    """A code (block unary with g = 2 to 4), a sparse complex d x d
    matrix, d = 2 to 24, and its encoded sum: as encoded, or with one
    string's coefficient changed, one string dropped or one string added."""
    kind = draw(st.sampled_from([SB, GRAY, UNARY, BLOCK_UNARY]))
    spec = EncodingSpec(kind, draw(st.integers(2, 24)),
                        draw(st.sampled_from([SB, GRAY])), draw(st.integers(2, 4)))
    d, n = spec.d, num_qubits(spec)
    m = np.zeros((d, d), dtype=complex)
    for _ in range(draw(st.integers(0, 6))):
        l, lp = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        m[l, lp] = complex(draw(_VALUES), draw(_VALUES))
    items = list(encode_matrix(spec, m).sum.terms.items())
    change = draw(st.sampled_from(["none", "perturb", "drop", "add"]))
    if change == "add":
        letters = draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ")))
        pos = draw(st.integers(0, len(items)))
        items.insert(pos, (tuple(sorted(letters.items())),
                           complex(draw(_VALUES), draw(_VALUES))))
    elif items and change != "none":
        pos = draw(st.integers(0, len(items) - 1))
        if change == "drop":
            del items[pos]
        else:
            items[pos] = (items[pos][0], items[pos][1] + complex(draw(_VALUES), draw(_VALUES)))
    s = PauliSum(n)
    s.terms = dict(items)  # as drawn: a repeated added string keeps one entry
    return spec, m, s


@pytest.mark.ci
@settings(deadline=None)
@given(_encoded_cases())
@example((EncodingSpec(SB, 2), np.zeros((2, 2)), PauliSum(1)))
@example((EncodingSpec(UNARY, 24), np.zeros((24, 24)), PauliSum(24)))
@example((EncodingSpec(BLOCK_UNARY, 23, GRAY, 4), np.eye(23), PauliSum.identity(15)))
def test_property_verify_encoding_is_the_reference_loop(case):
    # Bit for bit the per-codeword loop of tests/reference_simulator.py,
    # on exact sums, wrong sums and the empty sum.
    spec, m, s = case
    assert verify_encoding(spec, m, s) == reference_simulator.verify_encoding(spec, m, s)


@pytest.mark.parametrize("budget", [1, 5000])
def test_verify_encoding_in_blocks_is_the_reference_loop(monkeypatch, budget):
    # Blocks of one string, or at 5,000 bytes of 1 to 26 strings, on
    # registers of 5 to 130 qubits: one to three 64-bit words per codeword.
    monkeypatch.setattr(simulator, "_VERIFY_BLOCK_BYTES", budget)
    for spec, m in ((EncodingSpec(UNARY, 70), tridiag_test_matrix(70, 3)),
                    (EncodingSpec(UNARY, 130), bosonic(130, "q")),
                    (EncodingSpec(BLOCK_UNARY, 100, GRAY, 3), tridiag_test_matrix(100, 4)),
                    (EncodingSpec(SB, 24), dense_hermitian_test_matrix(24, 5))):
        s = encode_matrix(spec, m).sum
        items = list(s.terms.items())
        wrong = PauliSum(s.n_qubits)
        wrong.terms = dict(items[:3] + [(items[3][0], 0.5 * items[3][1])] + items[5:])
        for case in (s, wrong):
            assert verify_encoding(spec, m, case) == reference_simulator.verify_encoding(spec, m, case)
        assert verify_encoding(spec, m, wrong) > 0.01


def test_verify_encoding_rejects_a_string_outside_the_code():
    spec = EncodingSpec(SB, 4)
    with pytest.raises(ValueError, match=r"'Z0 X2' acts on qubit 2, outside the 2 qubits of sb\(d=4\)$"):
        verify_encoding(spec, np.eye(4), PauliSum(3, {((0, "Z"), (2, "X")): 1.0}))
    below = PauliSum(2)
    below.terms[((-1, "Z"),)] = 1.0  # past the constructor's check
    with pytest.raises(ValueError, match="acts on qubit -1, outside the 2 qubits"):
        verify_encoding(spec, np.eye(4), below)


def test_verify_circuit_equivalence_phase_flag():
    c1 = Circuit(1)
    c1.add("Rz", 0, angle=0.6)
    c2 = Circuit(1, list(c1.gates), global_phase=0.3)
    assert not verify_circuit_equivalence(c1, c2)
    assert verify_circuit_equivalence(c1, c2, up_to_phase=True)


def test_states_equal():
    a = basis_state(2, 1)
    # Equal up to a global phase, entry by entry.
    assert unitary_distance(a, np.exp(0.4j) * a, up_to_phase=True) <= 1e-9
    assert unitary_distance(a, basis_state(2, 2), up_to_phase=True) == float("inf")


def test_unitary_distance_over_many_panels_is_the_whole_array_max():
    # 2**16 entries of a 256 x 256 matrix are four 256 KiB pieces; the
    # largest difference sits in the last, and a NaN still propagates.
    rng = np.random.default_rng(9)
    u = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    v = u + 1e-9 * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))
    v[255, 254] += 3e-7j
    assert unitary_distance(u, v) == float(np.max(np.abs(u - v)))
    assert unitary_distance(u[0], v[-1]) == float(np.max(np.abs(u[0] - v[-1])))
    v[1, 2] = np.nan
    assert np.isnan(unitary_distance(u, v))


def test_dense_caps():
    with pytest.raises(ValueError):
        circuit_to_unitary(Circuit(MAX_DENSE_QUBITS + 1))
    with pytest.raises(ValueError):
        pauli_to_matrix(PauliSum(MAX_DENSE_QUBITS + 1))


def test_statevector_works_past_dense_cap():
    c = Circuit(16)
    c.add("X", 15)
    out = apply_circuit(c, basis_state(16, 0))
    assert abs(out[1 << 15] - 1) < 1e-15


def _tensordot_reference(tensor, g, n):
    """g applied as one tensordot of gate_matrix(g) over the gate's axes."""
    k = len(g.qubits)
    mat = gate_matrix(g).reshape((2,) * (2 * k))
    axes = [n - 1 - q for q in g.qubits]
    return np.moveaxis(np.tensordot(mat, tensor, axes=(range(k, 2 * k), axes)),
                       range(k), axes)


def _every_gate(n):
    """Every gate kind, on every ordered qubit tuple of n qubits."""
    for kind, arity in GATE_ARITY.items():
        for qs in itertools.permutations(range(n), arity):
            yield Gate(kind, qs, angle=0.83 if kind == "Rz" else None)


def test_gate_step_is_bitwise_tensordot_of_gate_matrix():
    n = 4
    rng = np.random.default_rng(11)
    state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    tensor = (rng.normal(size=(2,) * n + (3,))
              + 1j * rng.normal(size=(2,) * n + (3,)))
    for g in _every_gate(n):
        expect = _tensordot_reference(state.reshape((2,) * n), g, n).reshape(2 ** n)
        assert np.array_equal(apply_circuit(Circuit(n, [g]), state), expect), g
        expect = _tensordot_reference(tensor, g, n)
        assert np.array_equal(_simulated(Circuit(n, [g]), tensor), expect), g


def _simulated(c, tensor):
    """c, global phase included, run on a copy of tensor through the
    simulator's own plan; any axes past the first n ride along."""
    out = _run(_plan(c, tensor.ndim), tensor.copy())
    return np.exp(1j * c.global_phase) * out if c.global_phase else out


def _placed_cases(n):
    """Gate lists that put every gate kind fitting on n qubits with its
    first qubit on physical axis 0 or 1, or, after an H on qubit 0 has
    moved that qubit's axis to the front, on axis 1, 2 or 3."""
    for kind, arity in GATE_ARITY.items():
        if arity > n:
            continue
        for first, prior in ((n - 1, ()), (n - 2, ()), (n - 1, (0,)), (n - 2, (0,)),
                             (n - 3, (0,))):
            if first < 0 or first == 0 and prior and n > 1:
                continue
            qubits = (first,) + tuple(q for q in range(n) if q != first)[:arity - 1]
            for angle in (0.83, 0.0, -0.0) if kind == "Rz" else (None,):
                yield [Gate("H", (q,)) for q in prior] + [Gate(kind, qubits, angle)]


@pytest.mark.parametrize("n", range(1, 14))
def test_every_gate_at_every_axis_position_keeps_the_reference_bytes(n):
    # Each gate as one tensordot of its matrix, or a basis permutation as
    # a gather, after the dots before it, on tensors with trailing axes of
    # width 1, 2 and 16 (apply_circuit has none): bytes, signed zeros and all.
    rng = np.random.default_rng(n)
    for width in (None, 1, 2, 16):
        shape = (2,) * n + ((width,) if width else ())
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        tensor[rng.random(shape) < 0.2] = -0.0
        for gates in _placed_cases(n):
            expect = tensor
            for g in gates:
                apply = (_permuted_reference if g.kind in _PERMUTATION_KINDS
                         else _tensordot_reference)
                expect = apply(expect, g, n)
            got = _simulated(Circuit(n, gates), tensor)
            assert got.tobytes() == np.ascontiguousarray(expect).tobytes(), (width, gates)
            if width is None:
                state = tensor.reshape(2 ** n)
                assert apply_circuit(Circuit(n, gates), state).tobytes() == got.tobytes()


def test_apply_circuit_leaves_its_input_unchanged():
    rng = np.random.default_rng(5)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    kept = state.copy()
    c = Circuit(3)
    c.add("X", 0)
    c.add("CSWAP", 2, 0, 1)
    c.add("H", 1)
    for circuit in (c, Circuit(3), Circuit(3, global_phase=0.4)):
        out = apply_circuit(circuit, state)
        assert not np.shares_memory(out, state)
        assert np.array_equal(state, kept)
    assert np.array_equal(apply_circuit(Circuit(3), state), kept)


def test_each_rz_keeps_the_sign_of_its_zero_angle():
    # Rz(0.0) == Rz(-0.0) as Gates, but their matrices differ in the sign
    # of a zero.  The two-column dots of a two-qubit state can carry it to
    # the output: Rz(0.0) after Rz(-0.0) on qubit 1 of this state does.
    state = np.array([-0.0 - 0.0j, 0.5 - 0.0j, -1 - 1j, -1 + 1j])
    for q, first in itertools.product((1, 0), (-0.0, 0.0)):
        gates = [Gate("Rz", (q,), first), Gate("Rz", (q,), -first)]
        expect = state.reshape(2, 2)
        for g in gates:
            expect = _tensordot_reference(expect, g, 2)
        assert apply_circuit(Circuit(2, gates), state).tobytes() == expect.tobytes(), gates


def test_apply_circuit_takes_a_list_state():
    c = Circuit(1, [Gate("X", (0,))])
    assert apply_circuit(c, [1, 0]).tobytes() == apply_circuit(c, basis_state(1, 0)).tobytes()
    with pytest.raises(ValueError, match=r"state has shape \(3,\), expected \(2,\)"):
        apply_circuit(c, [1, 0, 0])


_PERMUTATION_KINDS = {"X", "CNOT", "SWAP", "CSWAP"}


def _permuted_reference(tensor, g, n):
    """A basis permutation g as a gather: slice i of the gate's axes becomes
    slice j where gate_matrix(g)[i, j] is 1, every value copied with its
    bits, where a tensordot's 0 * 1.0 + 1 * -0.0 gives +0.0."""
    k = len(g.qubits)
    axes = [n - 1 - q for q in g.qubits]
    moved = np.moveaxis(tensor, axes, range(k))
    picked = moved.reshape((2 ** k,) + moved.shape[k:])[gate_matrix(g).real.argmax(axis=1)]
    return np.moveaxis(picked.reshape(moved.shape), range(k), axes)


def _unpanelled_unitary(c):
    """The whole identity run through the circuit at once, every basis
    permutation as a gather and every other gate as one tensordot: what
    circuit_to_unitary must give, panel by panel, to the sign of a zero."""
    n, dim = c.n_qubits, 2 ** c.n_qubits
    tensor = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in c.gates:
        apply = _permuted_reference if g.kind in _PERMUTATION_KINDS else _tensordot_reference
        tensor = apply(tensor, g, n)
    if c.global_phase:
        tensor = np.exp(1j * c.global_phase) * tensor
    return tensor.reshape(dim, dim)


def _every_kind_circuit(n, phase):
    """One gate of every kind that fits on n qubits, on the top, bottom and
    middle wires."""
    wires = tuple(dict.fromkeys((n - 1, 0, n // 2)))
    return Circuit(n, [Gate(kind, wires[:arity], 0.83 if kind == "Rz" else None)
                       for kind, arity in GATE_ARITY.items() if arity <= n], phase)


@st.composite
def _circuits(draw):
    # Up to 7 qubits a unitary is one panel; 10 and 11 qubits take panels
    # of 16 and 8 columns.  Wide registers get fewer gates to keep the
    # unpanelled oracle quick.
    n = draw(st.integers(0, 11))
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n]
    gates = []
    for _ in range(draw(st.integers(0, 12 if n < 10 else 5)) if kinds else 0):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
        angle = draw(st.floats(-7.0, 7.0)) if kind == "Rz" else None
        gates.append(Gate(kind, qubits, angle))
    phase = draw(st.one_of(st.just(0.0), st.floats(-7.0, 7.0)))
    return Circuit(n, gates, phase)


def _permutation_runs(n, runs):
    """Runs of X, CNOT, SWAP and CSWAP gates on n qubits, one run per list
    of first qubits, each followed by an H on its first qubit and a T on
    the next one."""
    gates = []
    for firsts in runs:
        for i, q in enumerate(firsts):
            kind = ("X", "CNOT", "SWAP", "CSWAP")[i % 4]
            gates.append(Gate(kind, tuple((q + j) % n for j in range(GATE_ARITY[kind]))))
        gates += [Gate("H", (firsts[0],)), Gate("T", ((firsts[0] + 1) % n,))]
    return gates


# A run with the same gates again, first after a dot that moved an axis
# (its gather's sources change) and then after one in place (they repeat).
_RUN = [Gate("CSWAP", (9, 2, 5)), Gate("X", (0,)), Gate("SWAP", (9, 1)), Gate("CNOT", (3, 8))]


@pytest.mark.ci
@settings(deadline=None)
@given(_circuits())
@example(_every_kind_circuit(0, 0.4))
@example(_every_kind_circuit(1, 0.0))
@example(_every_kind_circuit(1, -1.3))
@example(_every_kind_circuit(7, 0.4))
@example(_every_kind_circuit(8, 0.4))
@example(_every_kind_circuit(10, 2.1))
@example(_every_kind_circuit(11, -0.6))
@example(_every_kind_circuit(11, 0.0))
# Rz(-0.0) == Rz(0.0) as Gates, but their matrices differ in the sign of a
# zero, and here it reaches the output; X and Sdg repeat.
@example(Circuit(1, [Gate("X", (0,)), Gate("X", (0,)), Gate("Sdg", (0,)), Gate("Rz", (0,), -0.0),
                     Gate("Sdg", (0,)), Gate("T", (0,)), Gate("Rz", (0,), 0.0)]))
# Long mixed permutation runs between dots, on 10 qubits.
@example(Circuit(10, _permutation_runs(10, [range(9, -1, -1), [3, 7, 1, 1, 8, 0, 5], [2, 2, 6]]),
                 0.3))
@example(Circuit(10, _RUN + [Gate("H", (0,))] + _RUN + [Gate("Rz", (0,), 0.4)] + _RUN
                 + [Gate("S", (4,))] + _RUN))
# Rz(0.0) and Rz(-0.0) on the first two axes, where 10 qubits take dots
# in place.
@example(Circuit(2, [Gate("H", (0,)), Gate("Rz", (1,), 0.0), Gate("Rz", (0,), -0.0),
                     Gate("Rz", (1,), -0.0), Gate("Rz", (0,), 0.0)]))
@example(Circuit(10, [Gate("H", (8,)), Gate("Rz", (9,), -0.0), Gate("Rz", (8,), 0.0),
                      Gate("Rz", (9,), 0.0), Gate("Rz", (8,), -0.0)]))
def test_panelled_unitary_is_bitwise_the_unpanelled_run(c):
    # Bytes, not values: array_equal counts -0.0 and 0.0 as equal.
    assert circuit_to_unitary(c).tobytes() == _unpanelled_unitary(c).tobytes()


def test_unitary_memory_stays_near_its_output():
    c = Circuit(11)
    for q in range(11):
        c.add("H", q)
    for q in range(10):
        c.add("CNOT", q, q + 1)
    c.add("Rz", 4, angle=0.7)
    c.add("BasisY", 9)
    tracemalloc.start()
    try:
        u = circuit_to_unitary(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes, peak / u.nbytes


def test_unitary_memory_with_many_permutation_runs_stays_near_its_output():
    # 200 distinct runs, each an X and a CNOT, between T gates on qubit 0.
    runs = [(a, b, t) for a, b, t in itertools.product(range(11), repeat=3) if b != t][:200]
    c = Circuit(11, [g for a, b, t in runs
                     for g in (Gate("X", (a,)), Gate("CNOT", (b, t)), Gate("T", (0,)))])
    tracemalloc.start()
    try:
        u = circuit_to_unitary(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes, peak / u.nbytes


def _per_gate_state(c, state):
    """c applied to a state gate by gate, every basis permutation as a
    gather and every other gate as one tensordot, then its global phase."""
    n = c.n_qubits
    tensor = state.reshape((2,) * n)
    for g in c.gates:
        apply = _permuted_reference if g.kind in _PERMUTATION_KINDS else _tensordot_reference
        tensor = apply(tensor, g, n)
    if c.global_phase:
        tensor = np.exp(1j * c.global_phase) * tensor
    return np.ascontiguousarray(tensor).reshape(2 ** n)


@pytest.mark.ci
@settings(deadline=None)
@given(_circuits(), st.integers(0, 2 ** 32 - 1))
@example(_every_kind_circuit(11, 0.0), 3)
@example(Circuit(10, _RUN + [Gate("H", (0,))] + _RUN + [Gate("Rz", (0,), 0.4)] + _RUN), 4)
# Long mixed permutation runs between dots, and runs with no dot after
# them, on 12 and 16 qubits.
@example(Circuit(12, _permutation_runs(12, [range(11, -1, -1), [3, 7, 1, 1, 8, 0, 5, 11],
                                            [2, 2, 6, 10]]) + _RUN * 3, 0.3), 5)
@example(Circuit(16, _permutation_runs(16, [range(15, -1, -1), [3, 7, 1, 13, 8, 0, 5, 14, 9]])
                 + _RUN + [Gate("CSWAP", (15, 0, 12)), Gate("CNOT", (11, 4))]), 6)
def test_apply_circuit_is_bitwise_the_per_gate_run(c, seed):
    # States with signed zeros, applied twice in a row: the second call
    # runs on whatever the first left behind for the same circuit.
    rng = np.random.default_rng(seed)
    size = 2 ** c.n_qubits
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    state.real[rng.random(size) < 0.2] = -0.0
    state.imag[rng.random(size) < 0.2] = -0.0
    expect = _per_gate_state(c, state).tobytes()
    for _ in range(2):
        assert apply_circuit(c, state).tobytes() == expect


def test_statevector_memory_stays_near_its_state(monkeypatch):
    # A cold cache: the run's sources are made in this call.
    monkeypatch.setattr(simulator, "_KEPT", {})
    c = conversion_circuit("sb2unary", 16)
    state = basis_state(c.n_qubits, 5)
    tracemalloc.start()
    try:
        apply_circuit(c, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * state.nbytes, peak / state.nbytes


def _pages(n):
    """Bytes of the whole pages that an n-qubit gather's sources take."""
    return -(-8 * 2 ** n // mmap.PAGESIZE) * mmap.PAGESIZE


def test_statevector_sources_stay_within_their_byte_bound(monkeypatch):
    # Room for one 10-qubit run and one 9-qubit run, evicted least recently
    # used first: the second 10-qubit run evicts the first, which on the
    # second round evicts both.  13-qubit sources are made for their call
    # and never kept.
    bound = _pages(10) + _pages(9)
    assert _pages(13) > bound
    monkeypatch.setattr(simulator, "_SOURCE_BYTES", bound)
    monkeypatch.setattr(simulator, "_KEPT", {})
    rng = np.random.default_rng(8)
    cases = [(n, [firsts]) for n, firsts in
             ((10, [0, 4, 9, 2]), (9, [3, 1, 8]), (10, [5, 2, 7, 1, 0]), (13, [12, 0, 6]))]
    for _ in range(2):
        for n, runs in cases:
            c = Circuit(n, _permutation_runs(n, runs))
            state = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            assert apply_circuit(c, state).tobytes() == _per_gate_state(c, state).tobytes()
            assert sum(src.base.nbytes for src in simulator._KEPT.values()) <= bound
            key = tuple((g.kind, g.qubits) for g in c.gates[:len(runs[0])]), tuple(range(n))
            assert (key in simulator._KEPT) == (n < 13)
            if n < 13:
                assert list(simulator._KEPT)[-1] == key
                assert not simulator._KEPT[key].flags.writeable
        assert [len(layout) for _, layout in simulator._KEPT] == [9, 10]


@pytest.mark.parametrize("gates", [
    [Gate("X", (2,))],
    [Gate("H", (0,)), Gate("CNOT", (0, 3))],
    [Gate("X", (0,)), Gate("CSWAP", (1, 0, 2))],
    [Gate("SWAP", (1, 0)), Gate("Rz", (5,), 0.5)],
])
def test_a_gate_outside_the_register_is_named(gates):
    c, bad = Circuit(2, gates), gates[-1]
    message = re.escape(f"{bad.kind}{bad.qubits} acts outside the 2-qubit register")
    with pytest.raises(ValueError, match=message):
        apply_circuit(c, basis_state(2, 0))
    with pytest.raises(ValueError, match=message):
        circuit_to_unitary(c)
