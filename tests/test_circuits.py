import itertools
import math

import numpy as np
import pytest

from qcbnn.circuits import (
    Architecture,
    assemble_pqc,
    build_calculation_layer,
    build_embedding,
    format_template,
)
from qcbnn.statevector import (
    CircuitTemplate,
    adjoint_vjp,
    parameter_shift_grad,
    resolve_angles,
    run_circuit,
    _FusedUnitary,
    _PhasePermutation,
)

from conftest import finite_difference_grad

SINGLE_LAYER_PARAMS = {
    Architecture.MATIC_I: 4,
    Architecture.MATIC_II: 12,
    Architecture.NIKOLOSKA: 8,
    Architecture.ROMERO: 4,
    Architecture.CIRCUIT_I: 12,
    Architecture.CIRCUIT_II: 15,
    Architecture.CIRCUIT_III: 7,
    Architecture.CIRCUIT_IV: 8,
}

ENTANGLER_KINDS = ("CNOT", "CRX", "CRY", "CRZ", "ZZ")


class TestEmbedding:
    def test_two_qubit_structure_and_angles(self):
        gates = build_embedding(2)
        assert [g.kind for g in gates] == ["H", "H", "RZ", "RZ", "CNOT", "RZ", "CNOT"]
        z = np.zeros(2)
        angles = [
            resolve_angles(g, np.zeros(0), z) for g in gates if g.kind == "RZ"
        ]
        assert angles[0][0] == 0.0 and angles[1][0] == 0.0
        assert angles[2][0] == pytest.approx(2 * math.pi**2, abs=1e-12)

    def test_four_qubit_full_pairwise_gate_count(self):
        # 4 H + 4 RZ + 6 pairs x (CNOT, RZ, CNOT)
        assert len(build_embedding(4, pairs="all")) == 26

    def test_adjacent_topology_gate_count(self):
        # 4 H + 4 RZ + 3 pairs x 3 gates
        assert len(build_embedding(4, pairs="adjacent")) == 17

    def test_input_slots(self):
        template = assemble_pqc(Architecture.ROMERO, 4)
        assert template.input_slots == 4

    def test_rejects_tiny_or_unknown(self):
        with pytest.raises(ValueError):
            build_embedding(1)
        with pytest.raises(ValueError, match="pair topology"):
            build_embedding(4, pairs="ring")


class TestCalculationLayers:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_param_counts(self, arch):
        _, used = build_calculation_layer(arch, 4)
        assert used == SINGLE_LAYER_PARAMS[arch]

    def test_matic_i_content(self):
        gates, _ = build_calculation_layer(Architecture.MATIC_I, 4)
        assert [g.kind for g in gates] == ["RX"] * 4 + ["CNOT"] * 4
        assert [g.targets for g in gates[4:]] == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_nikoloska_content(self):
        gates, _ = build_calculation_layer(Architecture.NIKOLOSKA, 4)
        assert [g.kind for g in gates] == ["RX"] * 4 + ["PHASE"] * 4 + ["CNOT"] * 3

    def test_chain_architectures_drop_last_entangler(self):
        for arch in (Architecture.NIKOLOSKA, Architecture.ROMERO):
            gates, _ = build_calculation_layer(arch, 4)
            entanglers = [g for g in gates if g.kind in ENTANGLER_KINDS]
            assert len(entanglers) == 3
        for arch in (Architecture.MATIC_I, Architecture.MATIC_II):
            gates, _ = build_calculation_layer(arch, 4)
            entanglers = [g for g in gates if g.kind in ENTANGLER_KINDS]
            assert len(entanglers) == 4

    def test_circuit_iv_adds_first_last_entangler(self):
        g3, _ = build_calculation_layer(Architecture.CIRCUIT_III, 4)
        g4, _ = build_calculation_layer(Architecture.CIRCUIT_IV, 4)
        e3 = [g for g in g3 if g.kind in ENTANGLER_KINDS]
        e4 = [g for g in g4 if g.kind in ENTANGLER_KINDS]
        assert len(e4) == len(e3) + 1
        assert e4[-1].targets == (0, 3)

    def test_cr_axis_knob(self):
        gates, _ = build_calculation_layer(Architecture.CIRCUIT_III, 4, cr_axis="Z")
        assert {g.kind for g in gates if g.kind.startswith("CR")} == {"CRZ"}
        with pytest.raises(ValueError, match="axis"):
            build_calculation_layer(Architecture.CIRCUIT_III, 4, cr_axis="Q")


class TestAssembly:
    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_layer_scaling(self, arch, layers):
        template = assemble_pqc(arch, 4, layers=layers)
        assert template.param_slots == layers * SINGLE_LAYER_PARAMS[arch]

    def test_reupload_repeats_embedding(self):
        l2 = assemble_pqc(Architecture.CIRCUIT_III, 4, layers=2, reupload=False)
        l2re = assemble_pqc(Architecture.CIRCUIT_III, 4, layers=2, reupload=True)
        assert sum(g.kind == "H" for g in l2.gates) == 4
        assert sum(g.kind == "H" for g in l2re.gates) == 8
        assert l2.param_slots == l2re.param_slots == 14

    def test_param_count_examples(self):
        assert assemble_pqc(Architecture.MATIC_I, 4).param_slots == 4
        assert assemble_pqc(Architecture.ROMERO, 4).param_slots == 4
        assert assemble_pqc(Architecture.CIRCUIT_II, 4).param_slots == 15

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            assemble_pqc(Architecture.ROMERO, 4, layers=0)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_every_template_runs_and_differentiates(self, arch):
        template = assemble_pqc(arch, 4)
        rng = np.random.default_rng(hash(arch.value) % 2**32)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
        out = run_circuit(template, params, inputs)
        assert out.shape == (4,) and np.isfinite(out).all()
        grad = parameter_shift_grad(template, params, inputs)
        assert grad.shape == (4, template.param_slots) and np.isfinite(grad).all()

    @pytest.mark.parametrize(
        "arch", [Architecture.MATIC_II, Architecture.CIRCUIT_IV]
    )
    def test_assembled_gradients_match_finite_differences(self, arch):
        template = assemble_pqc(arch, 4, layers=1)
        rng = np.random.default_rng(9)
        params = rng.uniform(0, 2 * math.pi, template.param_slots)
        inputs = rng.uniform(0, 2 * math.pi, template.input_slots)
        grad = parameter_shift_grad(template, params, inputs)
        fd = finite_difference_grad(lambda p: run_circuit(template, p, inputs), params)
        assert np.abs(grad - fd).max() < 1e-5


def assembled_templates(arch):
    """Every 4-qubit template of ``arch``, with a label: layers 1-3, with
    and without re-upload, each CR axis and both embedding pair sets."""
    for layers, reupload, cr_axis, pairs in itertools.product(
            (1, 2, 3), (False, True), "XYZ", ("adjacent", "all")):
        template = assemble_pqc(arch, 4, layers, reupload, pairs=pairs, cr_axis=cr_axis)
        yield template, f"{template.name} CR{cr_axis} {pairs}"


class TestCompileContract:
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_every_assembled_template_compiles(self, arch):
        # The compiled executor has no gate-by-gate fallback: every template
        # the package builds must split into fused unitaries and phase maps.
        for template, label in assembled_templates(arch):
            kinds = {type(block) for block in template.blocks}
            assert kinds <= {_FusedUnitary, _PhasePermutation}, label

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_adjoint_matches_the_shift_rule(self, arch):
        """Training's adjoint sweep is the vjp of the shift-rule Jacobian on
        every template the package builds."""
        rng = np.random.default_rng(list(Architecture).index(arch))
        for template, label in assembled_templates(arch):
            params = rng.uniform(0, 2 * math.pi, template.param_slots)
            inputs = rng.uniform(0, 2 * math.pi, (5, template.input_slots))
            grad = rng.normal(size=(5, template.n_qubits))
            want = np.einsum("bq,bqp->p", grad, parameter_shift_grad(template, params, inputs))
            np.testing.assert_allclose(adjoint_vjp(template, params, inputs, grad), want,
                                       rtol=0, atol=1e-12, err_msg=label)


class TestArchitectureParsing:
    def test_parse(self):
        assert Architecture.parse("circuit_iii") is Architecture.CIRCUIT_III
        assert Architecture.parse(" MATIC_I ".lower()) is Architecture.MATIC_I

    def test_unknown_lists_valid_ids(self):
        with pytest.raises(ValueError, match="matic_i.*circuit_iv"):
            Architecture.parse("circuit_v")


GOLDEN_EMBEDDING_ADJACENT = """\
H 0
H 1
H 2
H 3
RZ 0 z0
RZ 1 z1
RZ 2 z2
RZ 3 z3
CNOT 0 1
RZ 1 zz(0,1)
CNOT 0 1
CNOT 1 2
RZ 2 zz(1,2)
CNOT 1 2
CNOT 2 3
RZ 3 zz(2,3)
CNOT 2 3
"""

# One calculation layer of every architecture on 4 wires, as format_template
# prints it; {axis} is the controlled-rotation axis.
GOLDEN_CALC = {
    Architecture.MATIC_I: """\
RX 0 t0
RX 1 t1
RX 2 t2
RX 3 t3
CNOT 0 1
CNOT 1 2
CNOT 2 3
CNOT 3 0
""",
    Architecture.MATIC_II: """\
U3 0 t0 t1 t2
U3 1 t3 t4 t5
U3 2 t6 t7 t8
U3 3 t9 t10 t11
CNOT 0 1
CNOT 1 2
CNOT 2 3
CNOT 3 0
""",
    Architecture.NIKOLOSKA: """\
RX 0 t0
RX 1 t1
RX 2 t2
RX 3 t3
PHASE 0 t4
PHASE 1 t5
PHASE 2 t6
PHASE 3 t7
CNOT 0 1
CNOT 1 2
CNOT 2 3
""",
    Architecture.ROMERO: """\
RY 0 t0
RY 1 t1
RY 2 t2
RY 3 t3
CNOT 0 1
CNOT 1 2
CNOT 2 3
""",
    Architecture.CIRCUIT_I: """\
U3 0 t0 t1 t2
U3 1 t3 t4 t5
U3 2 t6 t7 t8
U3 3 t9 t10 t11
CNOT 0 1
CNOT 1 2
CNOT 2 3
""",
    Architecture.CIRCUIT_II: """\
U3 0 t0 t1 t2
U3 1 t3 t4 t5
U3 2 t6 t7 t8
U3 3 t9 t10 t11
CR{axis} 0 1 t12
CR{axis} 1 2 t13
CR{axis} 2 3 t14
""",
    Architecture.CIRCUIT_III: """\
RY 0 t0
RY 1 t1
RY 2 t2
RY 3 t3
CR{axis} 0 1 t4
CR{axis} 1 2 t5
CR{axis} 2 3 t6
""",
    Architecture.CIRCUIT_IV: """\
RY 0 t0
RY 1 t1
RY 2 t2
RY 3 t3
CR{axis} 0 1 t4
CR{axis} 1 2 t5
CR{axis} 2 3 t6
CR{axis} 0 3 t7
""",
}

GOLDEN_MATIC_I_ADJACENT = GOLDEN_EMBEDDING_ADJACENT + GOLDEN_CALC[Architecture.MATIC_I]

GOLDEN_CIRCUIT_III_CALC = GOLDEN_CALC[Architecture.CIRCUIT_III].format(axis="X")


class TestTextDump:
    def test_matic_i_golden(self):
        template = assemble_pqc(Architecture.MATIC_I, 4, pairs="adjacent")
        assert format_template(template) == GOLDEN_MATIC_I_ADJACENT

    def test_circuit_iii_calculation_golden(self):
        gates, used = build_calculation_layer(Architecture.CIRCUIT_III, 4)
        template = CircuitTemplate(4, tuple(gates), used, 0)
        assert format_template(template) == GOLDEN_CIRCUIT_III_CALC

    @pytest.mark.parametrize("arch, axis", list(itertools.product(Architecture, "XYZ")))
    def test_every_architecture_golden(self, arch, axis):
        calc = GOLDEN_CALC[arch].format(axis=axis)
        gates, used = build_calculation_layer(arch, 4, cr_axis=axis)
        assert format_template(CircuitTemplate(4, gates, used, 0)) == calc
        template = assemble_pqc(arch, 4, cr_axis=axis)
        assert format_template(template) == GOLDEN_EMBEDDING_ADJACENT + calc
