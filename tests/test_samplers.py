import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbnn import autodiff as ad
from qcbnn.circuits import Architecture, assemble_pqc, build_embedding
from qcbnn.samplers import (
    CHUNK_DIM,
    N_CHUNKS,
    ClassicalWeightSampler,
    Discriminator,
    GaussianPosterior,
    NoiseLaw,
    PriorSpec,
    QuantumWeightSampler,
    WeightSample,
    prior_sample_block,
    sample_noise_block,
)
from qcbnn.statevector import CircuitTemplate, run_circuit_batch
from qcbnn.training import _quantum_theta_grad

import graph_oracle as og
from conftest import finite_difference_grad, per_draw_samples, shift_rule_oracle


def logit(p: float) -> float:
    """log(p / (1 - p)); rejects arguments outside the open unit interval."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit needs p in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


def one_draw(sampler, rng):
    return per_draw_samples(sampler, 1, rng)[0]


def make_quantum_sampler(seed=0, arch=Architecture.CIRCUIT_III):
    template = assemble_pqc(arch, 4)
    theta = np.random.default_rng(seed).uniform(0, 2 * math.pi, template.param_slots)
    return QuantumWeightSampler(template, theta)


class TestNoise:
    def test_same_seed_identical(self):
        law = NoiseLaw()
        a = sample_noise_block(np.random.default_rng(42), law, 1)
        b = sample_noise_block(np.random.default_rng(42), law, 1)
        np.testing.assert_array_equal(a, b)

    def test_uniform_mean_near_pi(self):
        draws = sample_noise_block(np.random.default_rng(0), NoiseLaw(), 10_000)
        assert abs(draws.mean() - math.pi) < 0.05

    def test_degenerate_gaussian(self):
        law = NoiseLaw("gaussian", mu=1.25, sigma=0.0)
        draws = sample_noise_block(np.random.default_rng(1), law, 50)
        np.testing.assert_array_equal(draws, np.full((50, 4), 1.25))

    def test_unknown_law(self):
        with pytest.raises(ValueError):
            NoiseLaw("cauchy")


class TestPrior:
    def test_uniform_mean(self):
        draws = prior_sample_block(PriorSpec(), np.random.default_rng(2), 100_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_degenerate_clipped_gaussian(self):
        spec = PriorSpec("clipped-gaussian", mu=0.4, sigma=0.0)
        np.testing.assert_array_equal(
            prior_sample_block(spec, np.random.default_rng(0), 1), np.full((1, 4), 0.4)
        )

    def test_always_in_unit_box(self):
        spec = PriorSpec("clipped-gaussian", mu=0.0, sigma=3.0)
        draws = prior_sample_block(spec, np.random.default_rng(3), 10_000)
        assert draws.min() >= -1.0 and draws.max() <= 1.0


class TestWeightSample:
    def test_flat_round_trip(self):
        chunks = np.arange(64.0).reshape(N_CHUNKS, CHUNK_DIM)
        ws = WeightSample(chunks, np.zeros((N_CHUNKS, 4)))
        rebuilt = WeightSample(ws.flat.reshape(N_CHUNKS, CHUNK_DIM), ws.noise)
        np.testing.assert_array_equal(rebuilt.chunks, chunks)

    def test_kernel_geometry(self):
        ws = WeightSample(np.arange(64.0).reshape(16, 4), np.zeros((16, 4)))
        assert ws.kernels.shape == (16, 2, 2)
        np.testing.assert_array_equal(ws.kernels[0].reshape(-1), ws.chunks[0])


class TestQuantumSampler:
    def test_embedding_only_is_deterministic_in_noise(self):
        template = CircuitTemplate(4, build_embedding(4), 0, 4)
        sampler = QuantumWeightSampler(template, np.zeros(0))
        z = np.full((1, 4), 0.3)
        np.testing.assert_array_equal(sampler.expectations(z), sampler.expectations(z))

    def test_all_weights_bounded(self):
        sampler = make_quantum_sampler()
        rng = np.random.default_rng(5)
        for ws in per_draw_samples(sampler, 1000 // N_CHUNKS + 1, rng):
            assert ws.flat.min() >= -1.0 and ws.flat.max() <= 1.0

    def test_same_stream_position_identical(self):
        sampler = make_quantum_sampler()
        a = one_draw(sampler, np.random.default_rng(7))
        b = one_draw(sampler, np.random.default_rng(7))
        np.testing.assert_array_equal(a.chunks, b.chunks)
        np.testing.assert_array_equal(a.noise, b.noise)

    # every architecture, a re-uploading stack, and the Y/Z entanglers:
    # two-term, four-term (CRX/CRY/CRZ) and three-slot U3 rows of the plan
    @pytest.mark.parametrize(
        "arch, layers, reupload, cr_axis",
        [(arch, 1, False, "X") for arch in Architecture]
        + [(Architecture.CIRCUIT_III, 2, True, "X"),
           (Architecture.CIRCUIT_III, 1, False, "Y"),
           (Architecture.CIRCUIT_III, 1, False, "Z")],
        ids=lambda v: v.value if isinstance(v, Architecture) else str(v),
    )
    def test_jacobian_matches_shift_rule_rows(self, arch, layers, reupload, cr_axis):
        template = assemble_pqc(arch, 4, layers, reupload, cr_axis=cr_axis)
        theta = np.random.default_rng(1).uniform(0, 2 * math.pi, template.param_slots)
        sampler = QuantumWeightSampler(template, theta)
        noise = sample_noise_block(np.random.default_rng(8), sampler.noise_law, 3)
        jac = sampler.jacobian(noise)
        for row in range(3):
            reference = shift_rule_oracle(sampler.template, sampler.theta.data, noise[row])
            np.testing.assert_allclose(jac[row], reference, atol=1e-12)
        upstream = np.random.default_rng(9).normal(size=(3, CHUNK_DIM))
        np.testing.assert_allclose(sampler.theta_vjp(noise, upstream),
                                   np.einsum("cq,cqp->p", upstream, jac), rtol=0, atol=1e-12)

    def test_theta_edited_between_forward_and_backward_raises(self):
        template = assemble_pqc(Architecture.CIRCUIT_III, 4)
        sampler = QuantumWeightSampler(template, np.linspace(0, 3, template.param_slots))
        noise = np.random.default_rng(0).uniform(0, 2 * math.pi, (16, CHUNK_DIM))
        node = sampler.forward(noise)
        sampler.theta.data[0] += 0.5
        with pytest.raises(ValueError, match="other params"):
            node._vjp(np.ones_like(node.data))

    def test_noise_width_validated(self):
        template = CircuitTemplate(4, (), 0, 3)
        with pytest.raises(ValueError, match="4 noise inputs"):
            QuantumWeightSampler(template, np.zeros(0))

    def test_theta_length_validated(self):
        template = assemble_pqc(Architecture.ROMERO, 4)
        with pytest.raises(ValueError, match="theta"):
            QuantumWeightSampler(template, np.zeros(3))


def _forward_then_backward(sampler, noise):
    """The forward node's chunks and theta's gradient from its vjp, which
    reads the forward's tape; a run at another theta in between makes the
    sweep rebuild the blocks the forward built."""
    node = sampler.forward(noise)
    run_circuit_batch(sampler.template, sampler.theta.data + 1.0, noise)
    return np.concatenate([node.data.ravel(), node._vjp(np.cos(noise))[0]])


# Calls that read a template's fused blocks (their builds, the prefix
# products that theta_vjp contracts against) at a sampler's theta; each is
# made on the sampler under test and on a sampler over a freshly assembled
# template, whose blocks have built nothing yet.
_CALLS = {
    "expectations": lambda s, noise: s.expectations(noise),
    "batch": lambda s, noise: run_circuit_batch(s.template, s.theta.data, noise),
    "batch_one_row": lambda s, noise: run_circuit_batch(s.template, s.theta.data, noise[0]),
    "jacobian": lambda s, noise: s.jacobian(noise),
    "theta_vjp": lambda s, noise: s.theta_vjp(noise, np.cos(noise)),
    "forward_backward": _forward_then_backward,
}
_MEMO_CELLS = [(Architecture.CIRCUIT_III, 1, False), (Architecture.CIRCUIT_III, 2, True),
               (Architecture.CIRCUIT_IV, 2, False), (Architecture.MATIC_II, 1, True)]


class TestBlockBuildMemo:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(cell=st.sampled_from(_MEMO_CELLS), seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.tuples(st.sampled_from(sorted(_CALLS) + ["fresh", "edit"]),
                                  st.integers(0, 1)), min_size=1, max_size=12))
    def test_call_sequences_match_a_fresh_template(self, cell, seed, ops):
        """Two samplers share one template; theta is replaced or edited in
        place between calls, and every result must be the same bits as
        the call on a template that has built nothing."""
        rng = np.random.default_rng(seed)
        template = assemble_pqc(cell[0], 4, cell[1], cell[2])
        slots = template.param_slots
        samplers = [QuantumWeightSampler(template, rng.uniform(0, 2 * math.pi, slots))
                    for _ in range(2)]
        for op, which in ops:
            sampler = samplers[which]
            if op == "fresh":  # data rebound to a new array
                sampler.theta.data = rng.uniform(0, 2 * math.pi, slots)
            elif op == "edit":  # the same array, one value moved, as Adam moves it
                sampler.theta.data[rng.integers(slots)] += rng.normal()
            else:
                noise = rng.uniform(0, 2 * math.pi, (int(rng.integers(1, 5)), CHUNK_DIM))
                fresh = QuantumWeightSampler(assemble_pqc(cell[0], 4, cell[1], cell[2]),
                                             sampler.theta.data.copy())
                got = _CALLS[op](sampler, noise)
                assert np.array_equal(got, _CALLS[op](fresh, noise)), op


class TestClassicalSampler:
    def test_zero_weights_give_zero_outputs(self):
        sampler = ClassicalWeightSampler(np.random.default_rng(0))
        for p in sampler.named_tensors().values():
            p.data = np.zeros_like(p.data)
        ws = one_draw(sampler, np.random.default_rng(1))
        np.testing.assert_array_equal(ws.chunks, np.zeros((N_CHUNKS, CHUNK_DIM)))

    def test_outputs_bounded_by_tanh(self):
        sampler = ClassicalWeightSampler(np.random.default_rng(2))
        ws = one_draw(sampler, np.random.default_rng(3))
        assert np.abs(ws.chunks).max() < 1.0

    def test_gradient_matches_finite_differences(self):
        sampler = ClassicalWeightSampler(np.random.default_rng(4))
        noise = sample_noise_block(np.random.default_rng(5), sampler.noise_law, 4)
        target = np.random.default_rng(6).normal(size=(4, CHUNK_DIM))

        def loss_fn():
            diff = og.add(sampler.forward(noise), -target)
            return og.summation(og.mul(diff, diff))

        loss_fn().backward()
        w1_grad = sampler.w1.grad.copy()

        def loss_of_w1(w1_value):
            saved = sampler.w1.data
            sampler.w1.data = w1_value
            value = loss_fn().item()
            sampler.w1.data = saved
            return value

        fd = finite_difference_grad(loss_of_w1, sampler.w1.data)
        np.testing.assert_allclose(w1_grad, fd, rtol=1e-4, atol=1e-7)

    def test_same_geometry_as_quantum(self):
        classical = ClassicalWeightSampler(np.random.default_rng(0))
        quantum = make_quantum_sampler()
        a = one_draw(classical, np.random.default_rng(1))
        b = one_draw(quantum, np.random.default_rng(1))
        assert a.chunks.shape == b.chunks.shape == (N_CHUNKS, CHUNK_DIM)
        assert a.kernels.shape == b.kernels.shape == (16, 2, 2)


class TestGeneratorContract:
    GENERATORS = {
        "quantum": lambda rng: make_quantum_sampler(3),
        "classical": ClassicalWeightSampler,
        "vi": GaussianPosterior,
    }

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_backward_reaches_every_parameter(self, kind):
        rng = np.random.default_rng(30)
        sampler = self.GENERATORS[kind](rng)
        noise = sample_noise_block(rng, sampler.noise_law, N_CHUNKS)
        upstream = rng.normal(size=(N_CHUNKS, CHUNK_DIM))
        og.summation(og.mul(sampler.forward(noise), upstream)).backward()
        for param in sampler.named_tensors().values():
            assert param.grad is not None and param.grad.shape == param.data.shape
            assert np.any(param.grad)

    def test_theta_gradient_is_the_shift_rule_jacobian_vjp(self):
        """Backward gives theta the adjoint sweep's gradient, the vjp of the
        shift-rule Jacobian to rounding, and the same bits as
        ``_quantum_theta_grad``."""
        sampler = make_quantum_sampler(4, Architecture.MATIC_II)
        rng = np.random.default_rng(31)
        noise = sample_noise_block(rng, sampler.noise_law, N_CHUNKS)
        upstream = rng.normal(size=(N_CHUNKS, CHUNK_DIM))
        og.summation(og.mul(sampler.forward(noise), upstream)).backward()
        np.testing.assert_allclose(sampler.theta.grad,
                                   np.einsum("cq,cqp->p", upstream, sampler.jacobian(noise)),
                                   rtol=0, atol=1e-12)
        leaf = ad.Tensor(sampler.expectations(noise), requires_grad=True)
        leaf.grad = upstream
        assert np.array_equal(sampler.theta.grad,
                              _quantum_theta_grad(sampler, [noise], [leaf]))


class TestDiscriminator:
    def test_zero_weights_output_half(self):
        disc = Discriminator(np.random.default_rng(0))
        for p in disc.named_tensors().values():
            p.data = np.zeros_like(p.data)
        assert disc.forward(np.array([[0.3, -0.1, 0.9, 0.0]]))[0][0, 0] == pytest.approx(0.5)

    def test_output_clamped(self):
        disc = Discriminator(np.random.default_rng(1))
        disc.w2.data = np.full_like(disc.w2.data, 1e4)
        disc.b2.data = np.array([1e4])
        p = disc.forward(np.ones((1, 4)))[0][0, 0]
        assert p == pytest.approx(1.0 - 1e-7)
        disc.b2.data = np.array([-1e6])
        disc.w2.data = np.zeros_like(disc.w2.data)
        assert disc.forward(np.ones((1, 4)))[0][0, 0] == pytest.approx(1e-7)

    def test_gradient_matches_finite_differences(self):
        disc = Discriminator(np.random.default_rng(2))
        chunks = np.random.default_rng(3).uniform(-1, 1, size=(8, 4))

        def loss_fn():
            return float(np.log(disc.forward(chunks)[0]).sum())

        probs, vjp, _ = disc.forward(chunks)
        got = vjp(1.0 / probs)[0]

        def loss_of_w1(value):
            saved = disc.w1.data
            disc.w1.data = value
            out = loss_fn()
            disc.w1.data = saved
            return out

        fd = finite_difference_grad(loss_of_w1, disc.w1.data)
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)


class TestLogit:
    def test_half(self):
        assert logit(0.5) == 0.0

    def test_inverse_sigmoid(self):
        p = 1.0 / (1.0 + math.exp(-1.0))
        assert logit(p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_boundary(self, p):
        with pytest.raises(ValueError):
            logit(p)
