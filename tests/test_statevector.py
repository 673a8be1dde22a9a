import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcbnn.circuits import (
    Architecture,
    assemble_pqc,
    build_calculation_layer,
    build_embedding,
)
from qcbnn.samplers import CHUNK_DIM
from qcbnn.seeding import stream
from qcbnn.statevector import (
    GATE_SIGNATURES,
    CircuitTemplate,
    Gate,
    StateVector,
    Tape,
    adjoint_vjp,
    apply_gate,
    born_probabilities,
    expectation_z,
    gate_matrix,
    init_state,
    parameter_shift_grad,
    run_circuit,
    run_circuit_batch,
    RUN_BLOCK_AMPLITUDES,
    _FUSE_MAX_QUBITS,
    _KINDS,
    _FusedUnitary,
    _PhasePermutation,
    _derivative_rule,
)

from conftest import finite_difference_grad, shift_rule_oracle
from test_golden_sweep import environment


def rx_template(n=1):
    gates = tuple(Gate("RX", (q,), (("p", q),)) for q in range(n))
    return CircuitTemplate(n, gates, n, 0)


class TestInitState:
    def test_single_qubit(self):
        np.testing.assert_array_equal(init_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(init_state(2).amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_budget(self, n):
        with pytest.raises(ValueError, match="qubit budget exceeded"):
            init_state(n)


@st.composite
def placed_gates(draw):
    """A width n in 1..6 and a gate of any kind on distinct wires in any
    order, descending ones included, with one trainable slot per angle."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(sorted(k for k, (t, _) in GATE_SIGNATURES.items() if t <= n)))
    n_targets, n_angles = GATE_SIGNATURES[kind]
    targets = tuple(draw(st.permutations(range(n)))[:n_targets])
    return n, Gate(kind, targets, tuple(("p", a) for a in range(n_angles)))


def _dense_operator(n, mat, targets):
    """The 2^n x 2^n operator of gate matrix ``mat`` on ``targets``:
    ``kron(mat, I)`` acts on the wires ordered (targets..., the rest...),
    and a basis-index permutation maps that order to the wire order."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    index = np.arange(2**n)
    wire_index = np.zeros(2**n, dtype=np.intp)  # of each basis index in kron order
    for pos, q in enumerate(order):
        wire_index |= ((index >> (n - 1 - pos)) & 1) << (n - 1 - q)
    perm = np.zeros((2**n, 2**n))
    perm[wire_index, index] = 1.0
    return perm @ np.kron(mat, np.eye(2 ** (n - len(targets)))) @ perm.T


class TestApplyGate:
    def test_rx_pi_flips(self):
        state = apply_gate(init_state(1), Gate("RX", (0,), (("p", 0),)), [math.pi])
        np.testing.assert_allclose(state.amplitudes, [0, -1j], atol=1e-12)

    def test_hadamard(self):
        state = apply_gate(init_state(1), Gate("H", (0,)), [])
        np.testing.assert_allclose(state.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_cnot_builds_bell_state(self):
        plus = StateVector(2, np.array([1, 0, 1, 0]) / np.sqrt(2))
        state = apply_gate(plus, Gate("CNOT", (0, 1)), [])
        np.testing.assert_allclose(
            state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
        )

    def test_angle_count_mismatch(self):
        with pytest.raises(ValueError, match="angle"):
            apply_gate(init_state(1), Gate("RX", (0,), (("p", 0),)), [0.1, 0.2])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(init_state(1), Gate("RX", (1,), (("p", 0),)), [0.1])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(placed=placed_gates(), seed=st.integers(0, 2**32 - 1))
    @example(placed=(3, Gate("CRX", (2, 0), (("p", 0),))), seed=0)
    @example(placed=(6, Gate("ZZ", (5, 1), (("p", 0),))), seed=1)
    @example(placed=(6, Gate("U3", (0,), (("p", 0), ("p", 1), ("p", 2)))), seed=2)
    def test_matches_dense_operator(self, placed, seed):
        n, gate = placed
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, len(gate.angles))
        got = apply_gate(StateVector(n, amps), gate, angles).amplitudes
        dense = _dense_operator(n, gate_matrix(gate.kind, angles), gate.targets)
        np.testing.assert_allclose(got, dense @ amps, rtol=0, atol=1e-13)

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("SWAP", (0, 1))
        with pytest.raises(ValueError, match="distinct"):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError, match="target"):
            Gate("CNOT", (0,))

    def test_u3_is_phased_zyz_product(self):
        # independent oracle: U3(t,p,l) = e^{i(p+l)/2} RZ(p) RY(t) RZ(l)
        rng = np.random.default_rng(7)
        for _ in range(20):
            t, p, l = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
            rz = lambda a: np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])
            ry = np.array([[math.cos(t / 2), -math.sin(t / 2)],
                           [math.sin(t / 2), math.cos(t / 2)]])
            expected = np.exp(1j * (p + l) / 2) * rz(p) @ ry @ rz(l)
            got = gate_matrix("U3", np.array([t, p, l]))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zz_is_diagonal_phase(self):
        theta = 0.73
        got = gate_matrix("ZZ", np.array([theta]))
        expected = np.diag(np.exp(-1j * theta / 2 * np.array([1, -1, -1, 1])))
        np.testing.assert_allclose(got, expected, atol=1e-12)


@st.composite
def angle_batches(draw):
    """A gate kind and a (rows, n_angles) batch of its angles."""
    kind = draw(st.sampled_from(sorted(GATE_SIGNATURES)))
    shape = (draw(st.integers(1, 6)), GATE_SIGNATURES[kind][1])
    return kind, draw(hnp.arrays(np.float64, shape, elements=st.floats(-100.0, 100.0)))


_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]])
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1, -1])


def _rotation(pauli, a):
    """exp(-i a P / 2) = cos(a/2) I - i sin(a/2) P for a Pauli matrix P."""
    return math.cos(a / 2) * _I2 - 1j * math.sin(a / 2) * pauli


def _block_diagonal(upper, lower):
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2], out[2:, 2:] = upper, lower
    return out


def _rz_closed(a):
    return np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])


# Independent closed forms of every kind's matrix, one angle row at a time,
# basis order (control, target); none of them calls the package.
_CLOSED_FORMS = {
    "H": lambda: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "RX": lambda a: _rotation(_X, a),
    "RY": lambda a: _rotation(_Y, a),
    "RZ": _rz_closed,
    "PHASE": lambda a: np.diag([1, np.exp(1j * a)]),
    # U3(t, p, l) = e^{i(p+l)/2} RZ(p) RY(t) RZ(l)
    "U3": lambda t, p, l: np.exp(1j * (p + l) / 2) * _rz_closed(p) @ _rotation(_Y, t)
                          @ _rz_closed(l),
    "CNOT": lambda: _block_diagonal(_I2, _X),
    "CRX": lambda a: _block_diagonal(_I2, _rotation(_X, a)),
    "CRY": lambda a: _block_diagonal(_I2, _rotation(_Y, a)),
    "CRZ": lambda a: _block_diagonal(_I2, _rz_closed(a)),
    # exp(-i a Z(x)Z / 2)
    "ZZ": lambda a: math.cos(a / 2) * np.eye(4) - 1j * math.sin(a / 2) * np.kron(_Z, _Z),
}


class TestGateMatrix:
    def test_signatures(self):
        assert GATE_SIGNATURES == {
            "H": (1, 0), "RX": (1, 1), "RY": (1, 1), "RZ": (1, 1), "PHASE": (1, 1),
            "U3": (1, 3), "CNOT": (2, 0), "CRX": (2, 1), "CRY": (2, 1), "CRZ": (2, 1),
            "ZZ": (2, 1),
        }

    @pytest.mark.parametrize("kind", sorted(_CLOSED_FORMS))
    def test_matches_closed_form(self, kind):
        rng = np.random.default_rng(sorted(_CLOSED_FORMS).index(kind))
        angles = rng.uniform(-4 * math.pi, 4 * math.pi, (20, GATE_SIGNATURES[kind][1]))
        want = np.array([_CLOSED_FORMS[kind](*row) for row in angles])
        np.testing.assert_allclose(gate_matrix(kind, angles), want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(gate_matrix(kind, angles[0]), want[0], rtol=0, atol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind 'SWAP'"):
            gate_matrix("SWAP", np.zeros(0))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(batch=angle_batches())
    def test_unitary_for_every_kind(self, batch):
        kind, angles = batch
        mats = gate_matrix(kind, angles)
        d = 2 ** GATE_SIGNATURES[kind][0]
        assert mats.shape == (len(angles), d, d)
        eye = np.broadcast_to(np.eye(d), mats.shape)
        adjoint = mats.conj().swapaxes(-1, -2)
        np.testing.assert_allclose(mats @ adjoint, eye, rtol=0, atol=1e-13)
        np.testing.assert_allclose(adjoint @ mats, eye, rtol=0, atol=1e-13)


class TestExpectations:
    def test_ground_state(self):
        assert expectation_z(init_state(1), 0) == 1.0

    def test_flipped_state(self):
        state = apply_gate(init_state(1), Gate("RX", (0,), (("p", 0),)), [math.pi])
        assert expectation_z(state, 0) == pytest.approx(-1.0, abs=1e-12)

    def test_equator(self):
        state = apply_gate(init_state(1), Gate("RX", (0,), (("p", 0),)), [math.pi / 2])
        assert expectation_z(state, 0) == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            expectation_z(init_state(2), 2)


class TestBornProbabilities:
    def test_plus_state(self):
        state = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(born_probabilities(state), [0.5, 0.5], atol=1e-12)

    def test_ground(self):
        np.testing.assert_array_equal(born_probabilities(init_state(2)), [1, 0, 0, 0])

    def test_random_circuits_sum_to_one(self):
        for state in _random_states(np.random.default_rng(11), count=100):
            assert abs(born_probabilities(state).sum() - 1.0) < 1e-10


def _random_states(rng, count, max_qubits=4, max_gates=20):
    kinds_1q = ["H", "RX", "RY", "RZ", "PHASE", "U3"]
    kinds_2q = ["CNOT", "CRX", "CRY", "CRZ", "ZZ"]
    for _ in range(count):
        n = int(rng.integers(2, max_qubits + 1))
        state = init_state(n)
        for _ in range(int(rng.integers(5, max_gates))):
            if rng.random() < 0.5:
                kind = kinds_1q[rng.integers(len(kinds_1q))]
                targets = (int(rng.integers(n)),)
            else:
                kind = kinds_2q[rng.integers(len(kinds_2q))]
                targets = tuple(rng.choice(n, size=2, replace=False).astype(int))
            n_angles = {"H": 0, "CNOT": 0, "U3": 3}.get(kind, 1)
            gate = Gate(kind, targets, tuple(("p", i) for i in range(n_angles)))
            state = apply_gate(state, gate, rng.uniform(0, 2 * math.pi, n_angles))
        yield state


class TestInvariants:
    def test_norm_preserved_by_random_sequences(self):
        for state in _random_states(np.random.default_rng(5), count=60):
            assert abs(state.norm() - 1.0) < 1e-12

    def test_gate_then_inverse_restores_state(self):
        rng = np.random.default_rng(3)
        inverses = {
            "H": lambda a: ("H", a),
            "CNOT": lambda a: ("CNOT", a),
            "RX": lambda a: ("RX", -a),
            "RY": lambda a: ("RY", -a),
            "RZ": lambda a: ("RZ", -a),
            "PHASE": lambda a: ("PHASE", -a),
            "ZZ": lambda a: ("ZZ", -a),
            "CRX": lambda a: ("CRX", -a),
            "CRY": lambda a: ("CRY", -a),
            "CRZ": lambda a: ("CRZ", -a),
            "U3": lambda a: ("U3", np.array([-a[0], -a[2], -a[1]])),
        }
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        base = StateVector(2, amps)
        for kind, inv in inverses.items():
            n_targets, n_angles = (2, 1) if kind in ("CNOT", "CRX", "CRY", "CRZ", "ZZ") else (1, 1)
            if kind in ("H", "CNOT"):
                n_angles = 0
            if kind == "U3":
                n_angles = 3
            targets = (0, 1)[:n_targets]
            gate = Gate(kind, targets, tuple(("p", i) for i in range(n_angles)))
            angles = rng.uniform(-math.pi, math.pi, n_angles)
            inv_kind, inv_angles = inv(angles if kind == "U3" else (angles[0] if n_angles else angles))
            inv_gate = Gate(inv_kind, targets, tuple(("p", i) for i in range(n_angles)))
            mid = apply_gate(base, gate, angles)
            back = apply_gate(mid, inv_gate, np.atleast_1d(inv_angles) if n_angles else [])
            np.testing.assert_allclose(back.amplitudes, base.amplitudes, atol=1e-12)


class TestRunCircuit:
    def test_empty_template(self):
        template = CircuitTemplate(4, (), 0, 0)
        np.testing.assert_array_equal(run_circuit(template, [], []), [1, 1, 1, 1])

    def test_rx_layer(self):
        template = rx_template(4)
        out = run_circuit(template, [math.pi, 0, math.pi, 0], [])
        np.testing.assert_allclose(out, [-1, 1, -1, 1], atol=1e-12)

    def test_romero_outputs_bounded(self):
        template = assemble_pqc(Architecture.ROMERO, 4)
        rng = np.random.default_rng(0)
        params = rng.uniform(0, 2 * math.pi, (40, template.param_slots))
        inputs = rng.uniform(0, 2 * math.pi, (25, template.input_slots))
        for r, row in enumerate(params):
            out = run_circuit_batch(template, row, inputs)
            assert out.shape == (25, 4)
            assert out.min() >= -1.0 and out.max() <= 1.0
            b = r % len(inputs)
            np.testing.assert_allclose(out[b], run_circuit(template, row, inputs[b]),
                                       rtol=0, atol=1e-12)

    def test_slot_count_mismatch(self):
        template = rx_template(2)
        with pytest.raises(ValueError, match="expected 2 params"):
            run_circuit(template, [0.1], [])

    def test_pure_function(self):
        template = assemble_pqc(Architecture.CIRCUIT_III, 4)
        rng = np.random.default_rng(1)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
        first = run_circuit(template, params, inputs)
        second = run_circuit(template, params, inputs)
        np.testing.assert_array_equal(first, second)

    def test_batch_matches_single(self):
        template = assemble_pqc(Architecture.CIRCUIT_II, 4)
        rng = np.random.default_rng(2)
        params = rng.uniform(0, 2 * math.pi, (4, template.param_slots))
        inputs = rng.uniform(0, 2 * math.pi, (3, template.input_slots))
        for row in params:
            batch = run_circuit_batch(template, row, inputs)
            assert batch.shape == (3, 4)
            for b in range(3):
                np.testing.assert_allclose(
                    batch[b], run_circuit(template, row, inputs[b]), atol=1e-13
                )


@st.composite
def random_templates(draw, compilable=False):
    """Templates over every gate kind with p/enc1/enc2 angle refs mixed
    freely within a gate, on any ordered pair of distinct wires, up to one
    qubit past the widest fused unitary.  ``compilable`` keeps to what the
    compiled executor runs: at most ``_FUSE_MAX_QUBITS`` wires, and input
    refs only on diagonal kinds."""
    n = draw(st.integers(1, _FUSE_MAX_QUBITS + (0 if compilable else 1)))
    input_slots = draw(st.integers(0, 3))
    kinds = sorted(k for k, (n_targets, _) in GATE_SIGNATURES.items() if n_targets <= n)
    inputs = st.integers(0, max(input_slots - 1, 0))
    gates, slots = [], 0
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        n_targets, n_angles = GATE_SIGNATURES[kind]
        targets = tuple(draw(st.permutations(range(n)))[:n_targets])
        reads_input = input_slots and (_KINDS[kind].phases is not None or not compilable)
        tags = ["p", "enc1", "enc2"] if reads_input else ["p"]
        refs = []
        for _ in range(n_angles):
            tag = draw(st.sampled_from(tags))
            if tag == "p":
                refs.append(("p", slots))
                slots += 1
            elif tag == "enc1":
                refs.append(("enc1", draw(inputs)))
            else:
                refs.append(("enc2", draw(inputs), draw(inputs)))
        gates.append(Gate(kind, targets, tuple(refs)))
    return CircuitTemplate(n, tuple(gates), slots, input_slots)


def _compiles(template):
    """The compiled executor's contract, restated: at most
    ``_FUSE_MAX_QUBITS`` wires, and only diagonal gates read inputs."""
    return template.n_qubits <= _FUSE_MAX_QUBITS and all(
        _KINDS[gate.kind].phases is not None for gate in template.gates
        if any(ref[0] != "p" for ref in gate.angles))


# Every kind, p/enc refs and descending wire pairs, at the widest width
# that compiles; inputs are read only by diagonal kinds.
_MIXED = CircuitTemplate(_FUSE_MAX_QUBITS, (
    Gate("H", (0,)), Gate("H", (4,)),
    Gate("RZ", (2,), (("enc1", 0),)), Gate("CNOT", (2, 0)), Gate("CNOT", (0, 1)),
    Gate("ZZ", (4, 1), (("enc2", 0, 1),)), Gate("PHASE", (0,), (("enc1", 1),)),
    Gate("U3", (1,), (("p", 0), ("p", 1), ("p", 2))),
    Gate("RX", (3,), (("p", 3),)), Gate("CRY", (2, 0), (("p", 4),)),
    Gate("CRZ", (3, 1), (("enc2", 1, 0),)), Gate("RY", (4,), (("p", 5),)),
    Gate("CRZ", (2, 1), (("p", 6),)), Gate("CNOT", (1, 3)), Gate("CRX", (0, 4), (("p", 7),)),
    Gate("PHASE", (3,), (("p", 8),)), Gate("ZZ", (0, 3), (("p", 9),)),
), 10, 2)

# What the compiled executor rejects: input-reading RX, U3 and CRY gates,
# and a template one qubit past the widest fused unitary.
_UNCOMPILABLE_MIXED = CircuitTemplate(3, (
    Gate("H", (0,)), Gate("H", (2,)),
    Gate("RZ", (2,), (("enc1", 0),)), Gate("CNOT", (2, 0)), Gate("CNOT", (0, 1)),
    Gate("ZZ", (2, 1), (("enc2", 0, 1),)), Gate("PHASE", (0,), (("enc1", 1),)),
    Gate("U3", (1,), (("p", 0), ("enc1", 1), ("p", 1))),
    Gate("RX", (0,), (("enc2", 1, 0),)), Gate("CRY", (2, 0), (("enc1", 0),)),
    Gate("CRZ", (2, 1), (("p", 2),)), Gate("CNOT", (1, 2)), Gate("CRX", (0, 2), (("p", 3),)),
), 4, 2)
_TOO_WIDE = assemble_pqc(Architecture.CIRCUIT_IV, _FUSE_MAX_QUBITS + 1, 2, True, cr_axis="Y")


# A phase block whose permutation is not its own inverse (two CNOTs), between
# trainable fused blocks.
_PERMUTED = CircuitTemplate(3, (
    Gate("H", (0,)), Gate("RY", (1,), (("p", 0),)), Gate("CRX", (0, 2), (("p", 1),)),
    Gate("RZ", (2,), (("enc1", 0),)), Gate("CNOT", (2, 0)), Gate("CNOT", (0, 1)),
    Gate("RX", (0,), (("p", 2),)), Gate("CRY", (1, 2), (("p", 3),)),
), 4, 1)


# Every architecture at L1, L2 and L3, with and without re-uploading: a
# re-uploaded template repeats its embedding before every layer.
_PQCS = [assemble_pqc(arch, CHUNK_DIM, layers, reupload) for arch in Architecture
         for layers in (1, 2, 3) for reupload in (False, True)]


def _adjoint_of_ones(template, params, inputs):
    """``adjoint_vjp`` with a grad of ones, called like the other entry points."""
    return adjoint_vjp(template, params, inputs,
                       np.ones(np.shape(inputs)[:-1] + (template.n_qubits,)))


# The compiled executor's entry points, each taking (template, params, inputs).
_ENTRY_POINTS = {"run_circuit_batch": run_circuit_batch,
                 "parameter_shift_grad": parameter_shift_grad,
                 "adjoint_vjp": _adjoint_of_ones}


class TestCompiledExecutor:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(template=random_templates(compilable=True), seed=st.integers(0, 2**32 - 1))
    @example(template=assemble_pqc(Architecture.MATIC_I, 4, 2, True), seed=0)
    @example(template=assemble_pqc(Architecture.CIRCUIT_IV, 4, 2, True, cr_axis="Z"), seed=1)
    @example(template=_MIXED, seed=2)
    def test_grid_matches_reference_path(self, template, seed):
        self.check_grid_matches_reference_path(template, seed)

    @pytest.mark.parametrize("template", _PQCS, ids=lambda t: t.name)
    def test_pqc_matches_reference_path(self, template):
        self.check_grid_matches_reference_path(template, 4)

    @staticmethod
    def check_grid_matches_reference_path(template, seed):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, (3, template.param_slots))
        inputs = rng.uniform(0, 2 * math.pi, (2, template.input_slots))
        for row in params:
            batch = run_circuit_batch(template, row, inputs)
            assert batch.shape == (2, template.n_qubits)
            for b in range(2):
                np.testing.assert_allclose(
                    batch[b], run_circuit(template, row, inputs[b]), rtol=0, atol=1e-12
                )
                # 1-D inputs drop the batch axis
                np.testing.assert_allclose(run_circuit_batch(template, row, inputs[b]),
                                           batch[b], rtol=0, atol=1e-12)


def _snapshot(value):
    """A comparable copy of an object's attributes, arrays by dtype, shape
    and bytes, through lists, tuples and nested objects."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_snapshot(v) for v in value)
    if hasattr(value, "__dict__"):
        return {name: _snapshot(v) for name, v in vars(value).items()}
    return value


class TestCompiledTemplateIsPure:
    @pytest.mark.parametrize("template", [
        _MIXED, _PERMUTED, assemble_pqc(Architecture.CIRCUIT_III, 4, 2, True),
        assemble_pqc(Architecture.NIKOLOSKA, 4, 1, False, pairs="all"),
    ], ids=["mixed", "permuted", "circuit_iii_L2re", "nikoloska_all"])
    def test_running_changes_no_block(self, template):
        """A taped forward, its adjoint sweep and the shift rule, at two
        params vectors, leave every compiled block as it was compiled."""
        template = dataclasses.replace(template)  # compiled afresh
        before = _snapshot(template.blocks)
        rng = np.random.default_rng(0)
        inputs = rng.uniform(0, 2 * math.pi, (3, template.input_slots))
        grad = rng.normal(size=(3, template.n_qubits))
        for _ in range(2):
            params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
            tape = Tape()
            run_circuit_batch(template, params, inputs, tape)
            adjoint_vjp(template, params, inputs, grad, tape)
            parameter_shift_grad(template, params, inputs)
        assert _snapshot(template.blocks) == before


# sha256 over the fused blocks' builds, in block order, of every
# architecture at L1, L2 and L2re; see TestPrefixStackBytes.
PINNED_PREFIX_ENVIRONMENT = {
    "numpy": "2.4.6",
    "blas": "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
}
PINNED_PREFIXES = {
    "matic_i_L1":
        "d80ded7c1ff31ae27a7c662d0f7eddbd26c84fb416c1594998cb5b2e4b73795d",
    "matic_i_L2":
        "ce2cfaebd83eed4df2fc8a218dbaa0aff36676c785c241b50450041bec38af99",
    "matic_i_L2re":
        "a0fbaa730b064b52d4755199466eb028237359d553fcd86418f7458a3c7b0968",
    "matic_ii_L1":
        "9e6219c307e00482f028ddbdd15af211491548133113d68068b050d276f4369f",
    "matic_ii_L2":
        "094ff0743e9c49682c602a2b64b11014ebbee644edafedb35b617aab8100f615",
    "matic_ii_L2re":
        "ad201a984d7bdc2fef5adf02a468e73ffa1c988f57ce2d6a66ddaf2ae0736d0a",
    "nikoloska_L1":
        "6a72be73175b13b17b4cb342688bdec8bbdf6e3361dc01339c9813292e64bf9a",
    "nikoloska_L2":
        "20bf3011d4a276678ca248989683ad438a18ff54d80e50c12537c36298b7b5ff",
    "nikoloska_L2re":
        "e95adc52145afdfeda9e1e7050901185b606d4338203319b64054cf1165b324f",
    "romero_L1":
        "fe5f18ff397b7feaa8021ded63e60ff53fc1c59606aaded3fc27acedef1282a6",
    "romero_L2":
        "0c43a591e160363d715132eb592863d59f5059b72a5e7b21cb2da72bb6d6849c",
    "romero_L2re":
        "2092d14473c4012635b32564d45e3a9ac3f9568ba46267a408aa5e82f95a7d46",
    "circuit_i_L1":
        "129f0a014dc103f14deb57b9bb2d3a800e6cd0559e430ca00bb9bf2ded835398",
    "circuit_i_L2":
        "bde37477ddf3de8a5f40c86a159ff1e480a073a2122fcc5a902f7aa18885b59d",
    "circuit_i_L2re":
        "8e935cbc7cdaf5e38aaa652a5b476efb478fa0b86b2317af6a057647eefc8b01",
    "circuit_ii_L1":
        "3473e009896f4649f2cbcded946516a40328f275cd175d1933032704f6bf44b3",
    "circuit_ii_L2":
        "18ab6556b54fde03683387da78af165be73ef8eb18c04ac19f2ba2a5c61694c8",
    "circuit_ii_L2re":
        "4a2b424d2e726bd988514209fc6d6dd1f2d59c6bf9895b68247b39929a963725",
    "circuit_iii_L1":
        "5a1a4d40279a24df3c841ba11dea670d67b64e2d890d3aebc52560fe2bb5a344",
    "circuit_iii_L2":
        "14e75e5825721993e0b847efb40110f6d357fe5eb14d7f7d43ba993394fc4f44",
    "circuit_iii_L2re":
        "78848fbb6d551bb4ff54886d04ffa30d754db6af2b6b566d3936a4ead1651a94",
    "circuit_iv_L1":
        "59ede1999b8155d613ac1000328f72b1e4c3879714fd63b8c4b53507ffa960ab",
    "circuit_iv_L2":
        "63b87bd9380e685ded42d2447b15d9959679d80644006d1f81d5d2a83f418b96",
    "circuit_iv_L2re":
        "bebc5abb23066f2affa3263011a26b5d9be9a753fb3f725fae0d98cb989e3162",
}


class TestPrefixStackBytes:
    @pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
    @pytest.mark.parametrize("layers, reupload", [(1, False), (2, False), (2, True)],
                             ids=["L1", "L2", "L2re"])
    def test_builds_are_pinned(self, arch, layers, reupload):
        """Every fused block's prefix stack, the blocks that read no params
        included, keeps its bytes at a fixed theta: the forward, the tape
        and the adjoint sweep all read these matrices.  The matmul bits
        depend on the numpy and BLAS build, so the test skips under any
        other environment than the one the digests were made in."""
        if environment() != PINNED_PREFIX_ENVIRONMENT:
            pytest.skip(f"digests were made under {PINNED_PREFIX_ENVIRONMENT}, "
                        f"not {environment()}")
        template = assemble_pqc(arch, CHUNK_DIM, layers, reupload)
        theta = stream(0, "prefix-pin", arch.value, layers, int(reupload)).uniform(
            0, 2 * math.pi, template.param_slots)
        digest = hashlib.sha256()
        for block in template.blocks:
            if isinstance(block, _FusedUnitary):
                prefix = block.build(theta)
                digest.update(repr(prefix.shape).encode())
                digest.update(prefix.tobytes())
        assert digest.hexdigest() == PINNED_PREFIXES[template.name]


def _two_embeddings():
    """circuit_iii at L2 with two distinct embeddings: adjacent pairs, then all."""
    first, used = build_calculation_layer(Architecture.CIRCUIT_III, 4, 0)
    second, more = build_calculation_layer(Architecture.CIRCUIT_III, 4, used)
    gates = build_embedding(4) + first + build_embedding(4, pairs="all") + second
    return CircuitTemplate(4, gates, used + more, 4, name="two_embeddings")


class TestExecutorMemory:
    @pytest.mark.parametrize("template", [
        assemble_pqc(Architecture.CIRCUIT_III, 4, 2, True), _two_embeddings(),
    ], ids=lambda t: t.name)
    def test_peak_stays_near_three_states(self, template):
        """A tape-less run holds its (B, 2^n) probabilities and, inside one
        row block, about three and a half block states: the state, the
        phases and their real angles, inside ``phases``, or the state, the
        re-uploaded embedding's phases, kept for its next copy, and the
        next product.  A phase block's phases, a state's worth, are
        dropped once applied for the last time; if a second embedding's
        outlived its block into the next matrix product, the run would
        peak near four and a half."""
        rng = np.random.default_rng(0)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        block_rows = RUN_BLOCK_AMPLITUDES >> template.n_qubits
        inputs = rng.uniform(0, 2 * math.pi, (4 * block_rows, 4))
        run_circuit_batch(template, params, inputs)  # compile outside the trace
        probs_bytes = len(inputs) * 2**template.n_qubits * 8
        state_bytes = block_rows * 2**template.n_qubits * 16
        tracemalloc.start()
        try:
            run_circuit_batch(template, params, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = (peak - probs_bytes) / state_bytes
        assert states < 4, f"peak {states:.2f} block states beside the probabilities"


def whole_batch_oracle(template, params, inputs):
    """<Z> for (B, I) ``inputs`` with every block run on the whole batch:
    the compiled blocks in order, then |psi|^2, then one product with
    ``zsign``, its (B or 1, n) result broadcast over the rows."""
    psi = np.zeros((1, 2**template.n_qubits), dtype=np.complex128)
    psi[0, 0] = 1.0
    for block in template.blocks:
        if isinstance(block, _PhasePermutation):
            psi = block.apply(psi, block.phases(inputs))
        else:
            psi = psi @ block.build(params)[-1]
    probs = psi.real**2
    probs += psi.imag**2
    z = np.clip(probs @ template.zsign, -1.0, 1.0)
    return np.broadcast_to(z, (len(inputs), template.n_qubits))


_BLOCK_ROWS = RUN_BLOCK_AMPLITUDES >> CHUNK_DIM
_NO_INPUT = CircuitTemplate(4, (
    Gate("H", (0,)), Gate("RX", (1,), (("p", 0),)), Gate("CNOT", (0, 2)),
    Gate("CRY", (2, 3), (("p", 1),)),
), 2, 4, name="no_input")


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                      3 * _BLOCK_ROWS + 7])
    @pytest.mark.parametrize("template", _PQCS + [_NO_INPUT], ids=lambda t: t.name)
    def test_tape_less_run_equals_whole_batch_oracle(self, template, rows):
        """A run without a tape goes through the blocks a row block at a
        time and gives the whole-batch bits, for every row of a state that
        reads no input too."""
        rng = np.random.default_rng(rows)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (rows, template.input_slots))
        want = whole_batch_oracle(template, params, inputs)
        assert run_circuit_batch(template, params, inputs).tobytes() == \
            np.ascontiguousarray(want).tobytes()


class TestSharedPhaseBlocks:
    @pytest.mark.parametrize("template", _PQCS, ids=lambda t: t.name)
    def test_reuploaded_embedding_is_one_block(self, template):
        """Every copy of the embedding compiles to the same phase block
        object, and no other block is shared."""
        embeddings = [b for b in template.blocks if isinstance(b, _PhasePermutation)]
        copies = sum(gate.angles == (("enc1", 0),) for gate in template.gates)
        assert len(embeddings) == copies
        assert all(block is embeddings[0] for block in embeddings)
        assert len(set(map(id, template.blocks))) == len(template.blocks) - copies + 1

    @pytest.mark.parametrize("template", _PQCS, ids=lambda t: t.name)
    def test_phases_run_once_per_row_block(self, template, monkeypatch):
        """A tape-less run of three row blocks computes the embedding's
        phases once per row block, however many copies the template has, a
        taped run once, and both give the bits of the whole-batch oracle,
        which computes them at every occurrence."""
        rng = np.random.default_rng(7)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (2 * _BLOCK_ROWS + 52, template.input_slots))
        want = np.ascontiguousarray(whole_batch_oracle(template, params, inputs)).tobytes()
        embedding = next(b for b in template.blocks if isinstance(b, _PhasePermutation))
        calls = []
        phases = _PhasePermutation.phases
        monkeypatch.setattr(_PhasePermutation, "phases",
                            lambda block, rows: calls.append(block) or phases(block, rows))
        assert run_circuit_batch(template, params, inputs).tobytes() == want
        assert calls == [embedding] * 3
        calls.clear()
        tape = Tape()
        assert run_circuit_batch(template, params, inputs, tape).tobytes() == want
        assert calls == [embedding]
        assert len(tape.kept) == len(template.blocks)


class TestUncompilableTemplates:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(template=random_templates(), seed=st.integers(0, 2**32 - 1))
    @example(template=_UNCOMPILABLE_MIXED, seed=0)
    @example(template=_TOO_WIDE, seed=1)
    def test_compiled_entry_points_raise_and_run_circuit_runs(self, template, seed):
        assume(not _compiles(template))
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
        for run in _ENTRY_POINTS.values():
            with pytest.raises(ValueError, match="cannot compile"):
                run(template, params, inputs)
        z = run_circuit(template, params, inputs)
        assert z.shape == (template.n_qubits,)
        assert -1.0 <= z.min() and z.max() <= 1.0

    @pytest.mark.parametrize("template, named", [
        (_UNCOMPILABLE_MIXED, r"U3 on \(1,\)"),
        (_TOO_WIDE, f"{_FUSE_MAX_QUBITS + 1}-qubit"),
    ], ids=["gate", "width"])
    def test_error_names_the_gate_or_the_width(self, template, named):
        with pytest.raises(ValueError, match=named):
            template.blocks


class TestFuseWidthLimit:
    """The compiled executor's width limit, with literal widths: 5 qubits
    compile, 6 do not."""

    def test_five_qubits_compile_and_match_run_circuit(self):
        template = assemble_pqc(Architecture.CIRCUIT_IV, 5, 2, True, cr_axis="Y")
        assert template.blocks
        rng = np.random.default_rng(5)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (3, template.input_slots))
        want = np.stack([run_circuit(template, params, row) for row in inputs])
        np.testing.assert_allclose(run_circuit_batch(template, params, inputs), want,
                                   rtol=0, atol=1e-12)

    def test_six_qubits_do_not_compile(self):
        template = assemble_pqc(Architecture.CIRCUIT_IV, 6, 2, True, cr_axis="Y")
        with pytest.raises(ValueError, match="cannot compile a 6-qubit template: "
                                             "fused blocks take at most 5 qubits"):
            template.blocks


class TestShiftRows:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(template=random_templates(compilable=True), seed=st.integers(0, 2**32 - 1))
    @example(template=assemble_pqc(Architecture.MATIC_II, 4, 2, True), seed=0)
    @example(template=assemble_pqc(Architecture.CIRCUIT_II, 4, 2, True), seed=1)
    @example(template=_MIXED, seed=3)
    def test_matches_grid_of_shifted_params(self, template, seed):
        """``parameter_shift_grad`` on (B, I) inputs, per input row, and the
        gate-by-gate grid of shifted params agree."""
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (3, template.input_slots))
        batched = parameter_shift_grad(template, params, inputs)
        assert batched.shape == (3, template.n_qubits, template.param_slots)
        for b in range(3):
            np.testing.assert_allclose(parameter_shift_grad(template, params, inputs[b]),
                                       batched[b], rtol=0, atol=1e-13)
            np.testing.assert_allclose(batched[b], shift_rule_oracle(template, params, inputs[b]),
                                       rtol=0, atol=1e-12)


class TestAdjointVjp:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(template=random_templates(compilable=True), rows=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1))
    @example(template=_MIXED, rows=20, seed=0)
    @example(template=_PERMUTED, rows=3, seed=3)
    @example(template=assemble_pqc(Architecture.CIRCUIT_II, 4, 2, True, cr_axis="Z"),
             rows=7, seed=1)
    @example(template=assemble_pqc(Architecture.NIKOLOSKA, 4, 3, True, pairs="all"),
             rows=1, seed=2)
    def test_matches_the_shift_rule_oracle(self, template, rows, seed):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (rows, template.input_slots))
        grad = rng.normal(size=(rows, template.n_qubits))
        oracle = np.array([shift_rule_oracle(template, params, row) for row in inputs])
        want = np.einsum("bq,bqp->p", grad, oracle)
        got = adjoint_vjp(template, params, inputs, grad)
        assert got.shape == (template.param_slots,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # 1-D inputs take a 1-D grad
        np.testing.assert_allclose(adjoint_vjp(template, params, inputs[0], grad[0]),
                                   np.einsum("q,qp->p", grad[0], oracle[0]), rtol=0, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(template=random_templates(compilable=True), rows=st.integers(1, 6),
           one_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(template=_PERMUTED, rows=3, one_row=False, seed=3)
    def test_tape_gives_the_same_bits(self, template, rows, one_row, seed):
        """A forward's tape changes neither its outputs nor the sweep that
        reads it, against a sweep that runs its own forward."""
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (rows, template.input_slots))
        grad = rng.normal(size=(rows, template.n_qubits))
        if one_row:
            inputs, grad = inputs[0], grad[0]
        tape = Tape()
        forward = run_circuit_batch(template, params, inputs, tape)
        assert np.array_equal(forward, run_circuit_batch(template, params, inputs))
        assert len(tape.kept) == len(template.blocks)
        want = adjoint_vjp(template, params, inputs, grad)
        assert np.array_equal(adjoint_vjp(template, params, inputs, grad, tape), want)
        # the sweep leaves the tape as it was, so it can be read again
        assert np.array_equal(adjoint_vjp(template, params, inputs, grad, tape), want)

    @pytest.mark.parametrize("template", _PQCS, ids=lambda t: t.name)
    def test_pqc_matches_parameter_shift_grad(self, template):
        """The sweep over a taped forward, and over one it runs itself, of a
        template whose embedding blocks are shared, against the shift rule."""
        rng = np.random.default_rng(5)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (6, template.input_slots))
        grad = rng.normal(size=(6, template.n_qubits))
        want = np.einsum("bq,bqp->p", grad, parameter_shift_grad(template, params, inputs))
        tape = Tape()
        run_circuit_batch(template, params, inputs, tape)
        np.testing.assert_allclose(adjoint_vjp(template, params, inputs, grad, tape), want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(adjoint_vjp(template, params, inputs, grad), want,
                                   rtol=0, atol=1e-12)

    def test_stale_tape_raises(self):
        template = assemble_pqc(Architecture.CIRCUIT_III, 4, 2, True)
        rng = np.random.default_rng(0)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, (5, 4))
        grad = np.ones((5, 4))
        tape = Tape()
        run_circuit_batch(template, params, inputs, tape)
        params[3] += 0.1  # edited in place after the forward
        with pytest.raises(ValueError, match="other params"):
            adjoint_vjp(template, params, inputs, grad, tape)
        with pytest.raises(ValueError, match="other params"):
            adjoint_vjp(template, params, inputs, grad, Tape())  # never recorded
        run_circuit_batch(template, params, inputs, tape)  # a new forward re-records it
        assert np.array_equal(adjoint_vjp(template, params, inputs, grad, tape),
                              adjoint_vjp(template, params, inputs, grad))

    def test_permutation_is_exercised(self):
        perm = _PERMUTED.blocks[1].perm
        assert perm is not None and not np.array_equal(perm[perm], np.arange(len(perm)))

    def test_no_trainable_slot(self):
        template = CircuitTemplate(3, (Gate("H", (0,)), Gate("RZ", (1,), (("enc1", 0),))), 0, 1)
        assert adjoint_vjp(template, [], np.zeros((5, 1)), np.ones((5, 3))).shape == (0,)
        assert adjoint_vjp(template, [], [0.3], np.ones(3)).shape == (0,)

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 3)])
    def test_grad_must_have_the_output_shape(self, shape):
        template = rx_template(2)
        with pytest.raises(ValueError, match="output's shape"):
            adjoint_vjp(template, np.zeros(2), np.zeros((3, 0)), np.ones(shape))

    @pytest.mark.parametrize("kind, angle", [(kind, a) for kind, (_, n) in
                                             sorted(GATE_SIGNATURES.items()) for a in range(n)])
    def test_gate_derivative_matches_central_differences(self, kind, angle):
        """The exact matrix derivative each fused block scatters, for one
        angle of one kind, against central differences of ``gate_matrix``."""
        rng = np.random.default_rng(angle)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, (5, GATE_SIGNATURES[kind][1]))
        steps, weights = _derivative_rule(kind)
        pair = gate_matrix(kind, angles + steps)
        got = (weights * (pair[:, 0] - pair[:, 1]))[angle]
        h = 1e-6
        step = np.zeros(angles.shape[1])
        step[angle] = h
        fd = (gate_matrix(kind, angles + step) - gate_matrix(kind, angles - step)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=0, atol=1e-9)


class TestInputChecks:
    @pytest.mark.parametrize("run", list(_ENTRY_POINTS.values()), ids=list(_ENTRY_POINTS))
    def test_takes_one_params_vector(self, run):
        template = rx_template(2)
        with pytest.raises(ValueError, match="one params vector"):
            run(template, np.zeros((3, 2)), [])

    def test_gradient_without_trainable_slots(self):
        template = CircuitTemplate(3, (Gate("H", (0,)), Gate("RZ", (1,), (("enc1", 0),))), 0, 1)
        assert parameter_shift_grad(template, [], [0.3]).shape == (3, 0)
        assert parameter_shift_grad(template, [], np.zeros((5, 1))).shape == (5, 3, 0)


class TestParameterShift:
    def test_rx_at_zero(self):
        grad = parameter_shift_grad(rx_template(), [0.0], [])
        assert grad[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_rx_at_quarter_turn(self):
        grad = parameter_shift_grad(rx_template(), [math.pi / 2], [])
        assert grad[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_circuit_iii_matches_finite_differences(self):
        template = assemble_pqc(Architecture.CIRCUIT_III, 4)
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = rng.uniform(0, 2 * math.pi, template.param_slots)
            inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
            grad = parameter_shift_grad(template, params, inputs)
            fd = finite_difference_grad(
                lambda p: run_circuit(template, p, inputs), params
            )
            assert np.abs(grad - fd).max() < 1e-5

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(template=random_templates(compilable=True), seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences_on_random_templates(self, template, seed):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-2 * math.pi, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
        fd = finite_difference_grad(lambda p: run_circuit(template, p, inputs), params)
        np.testing.assert_allclose(parameter_shift_grad(template, params, inputs), fd,
                                   rtol=0, atol=1e-6)

    def test_grad_shape(self):
        template = assemble_pqc(Architecture.MATIC_II, 4)
        grad = parameter_shift_grad(
            template, np.zeros(template.param_slots), np.zeros(4)
        )
        assert grad.shape == (4, template.param_slots)
