import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcbnn import autodiff as ad
from qcbnn import experiment
from qcbnn import statevector as sv
from qcbnn import training as tr
from qcbnn.circuits import Architecture
from qcbnn.config import RunConfig, format_config
from qcbnn.samplers import (
    Discriminator,
    NoiseLaw,
    PriorSpec,
    QuantumWeightSampler,
    WeightSample,
    prior_sample_block,
    sample_noise_block,
)
from qcbnn.seeding import stream

import graph_oracle as og
from conftest import finite_difference_grad, per_draw_samples


def zero_discriminator():
    disc = Discriminator(np.random.default_rng(0))
    for p in disc.named_tensors().values():
        p.data = np.zeros_like(p.data)
    return disc


def quantum_model(seed=0, arch=Architecture.CIRCUIT_III, **kw):
    cfg = tr.TrainConfig(epochs=2, seed=seed, sampler="quantum", arch=arch, **kw)
    return tr.build_model(cfg, (28, 28))


def _np_disc_forward(disc, chunks):
    """Independent numpy re-implementation of the discriminator forward."""
    h = chunks @ disc.w1.data.T + disc.b1.data
    h = np.where(h > 0, h, 0.01 * h)
    logits = h @ disc.w2.data.T + disc.b2.data
    p = 1.0 / (1.0 + np.exp(-logits))
    return np.clip(p, 1e-7, 1 - 1e-7)[:, 0]


def gaussian_kl(mu_q, sigma_q, mu_p=0.0, sigma_p=1.0):
    """Closed-form KL(N(mu_q, sigma_q^2) || N(mu_p, sigma_p^2))."""
    if sigma_q <= 0 or sigma_p <= 0:
        raise ValueError("standard deviations must be positive")
    return (
        math.log(sigma_p / sigma_q)
        + (sigma_q**2 + (mu_q - mu_p) ** 2) / (2 * sigma_p**2)
        - 0.5
    )


def einsum_forward_probs(model, images, kernels):
    """Numpy oracle of the classifier forward: windowed einsum conv, relu,
    and dense over features flattened in (f, x, y) order, the layout that
    stored ``dense_w`` checkpoints were trained against."""
    stride = tr.CONV_STRIDE
    windows = np.lib.stride_tricks.sliding_window_view(images, (2, 2), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    feats = np.maximum(np.einsum("bxykl,fkl->bfxy", windows, kernels), 0.0)
    flat = feats.reshape(images.shape[0], -1)
    logits = flat @ model.dense_w.data.T + model.dense_b.data
    return og.softmax_np(logits)


def discriminator_loss(disc, prior_chunks, generated_chunks) -> float:
    """Cross-entropy objective the discriminator ascends:
    mean log d(generated) + mean log(1 - d(prior))."""
    prior_chunks = np.atleast_2d(np.asarray(prior_chunks, dtype=np.float64))
    generated_chunks = np.atleast_2d(np.asarray(generated_chunks, dtype=np.float64))
    if prior_chunks.size == 0 or generated_chunks.size == 0:
        raise ValueError("chunk sets must be non-empty")
    return -float(tr._disc_loss(disc, prior_chunks, generated_chunks).data)


@dataclass
class EnsemblePrediction:
    class_probabilities: np.ndarray
    predicted: int
    member_votes: np.ndarray
    ensemble_size: int


def predict_ensemble(model, image, n_members, stream_tag=("predict",)):
    """Averaged prediction for one image over ``n_members`` weight draws."""
    probs, votes = tr.ensemble_outputs(model, image[None], n_members, stream_tag)
    return EnsemblePrediction(
        class_probabilities=probs[0],
        predicted=int(probs[0].argmax()),
        member_votes=votes[:, 0],
        ensemble_size=n_members,
    )


def generator_loss(model, weight_samples, images, labels, data_scale=1.0):
    """Numpy oracle of the adversarial-KL objective for given weight draws:
    mean over draws of [chunk-averaged logit(d) - log p(D|w)]."""
    total = 0.0
    for ws in weight_samples:
        d = model.disc.forward(ws.chunks)[0][:, 0]
        logit_mean = float(np.mean(np.log(d) - np.log(1.0 - d)))
        log_p = 0.0
        if images is not None:
            probs = tr.forward_probs_np(model, images, ws.kernels[None])[0]
            log_p = data_scale * float(
                np.sum(np.log(probs[np.arange(len(labels)), labels]))
            )
        total += logit_mean - log_p
    return total / len(weight_samples)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [-0.5, -1.0, -2.0])
    def test_negative_loss_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            tr.TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_zero_loss_weight_accepted(self, name):
        assert getattr(tr.TrainConfig(**{name: 0.0}), name) == 0.0


class TestDiscriminatorLoss:
    def test_constant_half_classifier(self):
        disc = zero_discriminator()
        rng = np.random.default_rng(1)
        value = discriminator_loss(disc, rng.uniform(-1, 1, (16, 4)),
                                   rng.uniform(-1, 1, (16, 4)))
        assert value == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_perfect_discrimination_clamps_below_zero(self):
        disc = zero_discriminator()
        disc.w1.data = np.vstack([np.full((1, 4), 50.0), np.zeros((15, 4))])
        disc.w2.data = np.hstack([np.full((1, 1), 1e4), np.zeros((1, 15))])
        gen = np.full((8, 4), 1.0)    # drives d -> 1 (clamped)
        prior = np.full((8, 4), -1.0)  # drives d -> 0 (clamped)
        value = discriminator_loss(disc, prior, gen)
        assert -1e-5 < value < 0.0

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(2)
        disc = Discriminator(rng)
        gen = rng.uniform(-1, 1, (10, 4))
        prior = rng.uniform(-1, 1, (12, 4))
        expected = float(
            np.mean(np.log(_np_disc_forward(disc, gen)))
            + np.mean(np.log(1 - _np_disc_forward(disc, prior)))
        )
        assert discriminator_loss(disc, prior, gen) == pytest.approx(expected, abs=1e-12)

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError, match="non-empty"):
            discriminator_loss(zero_discriminator(), np.zeros((0, 4)), np.zeros((1, 4)))


class TestGeneratorLoss:
    def test_half_classifier_reduces_to_likelihood(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model()
        model.disc = zero_discriminator()
        ws = per_draw_samples(model.sampler, 1, np.random.default_rng(0))[0]
        images, labels = train.images[:4], train.labels[:4]
        value = generator_loss(model, [ws], images, labels, data_scale=1.0)
        probs = tr.forward_probs_np(model, images, ws.kernels[None])[0]
        expected = -float(np.sum(np.log(probs[np.arange(4), labels])))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_single_sample_single_datum_hand_computed(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=3)
        ws = per_draw_samples(model.sampler, 1, np.random.default_rng(1))[0]
        image, label = train.images[:1], train.labels[:1]
        value = generator_loss(model, [ws], image, label, data_scale=2.5)
        d = _np_disc_forward(model.disc, ws.chunks)
        logit_mean = float(np.mean(np.log(d) - np.log(1 - d)))
        probs = tr.forward_probs_np(model, image, ws.kernels[None])[0]
        expected = logit_mean - 2.5 * math.log(probs[0, label[0]])
        assert value == pytest.approx(expected, rel=1e-10)

    def test_beta_zero_reduces_to_pure_likelihood(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=4, beta=0.0)
        noise = sample_noise_block(np.random.default_rng(2),
                                   model.sampler.noise_law, 16)
        chunks = ad.Tensor(model.sampler.expectations(noise), requires_grad=True)
        combined, breakdown = tr.combined_loss_graph(
            model, [chunks], train.images[:4], train.labels[:4], 1.0
        )
        assert breakdown.combined == model.config.alpha * breakdown.likelihood

    def test_breakdown_reassembles_bitwise(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=5, alpha=1.3, beta=0.7)
        noise = sample_noise_block(np.random.default_rng(3),
                                   model.sampler.noise_law, 16)
        chunks = ad.Tensor(model.sampler.expectations(noise), requires_grad=True)
        _, b = tr.combined_loss_graph(model, [chunks], train.images[:4],
                                      train.labels[:4], 1.5)
        cfg = model.config
        assert b.combined == cfg.alpha * b.likelihood + cfg.beta * b.kl

    def test_graph_and_value_paths_agree(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=6)
        noise = sample_noise_block(np.random.default_rng(4),
                                   model.sampler.noise_law, 16)
        chunk_values = model.sampler.expectations(noise)
        chunks = ad.Tensor(chunk_values, requires_grad=True)
        _, b = tr.combined_loss_graph(model, [chunks], train.images[:6],
                                      train.labels[:6], 2.0)
        ws = WeightSample(chunk_values, noise)
        value = generator_loss(model, [ws], train.images[:6], train.labels[:6], 2.0)
        assert b.kl == pytest.approx(value, rel=1e-12)


class TestLogitTermSanity:
    def test_optimal_half_discriminator_gives_zero_mean(self):
        model = quantum_model(seed=7)
        model.disc = zero_discriminator()
        samples = tr.draw_weight_samples(model, 70, np.random.default_rng(5))
        pooled = np.concatenate([ws.chunks for ws in samples])  # > 10^3 chunks
        d = _np_disc_forward(model.disc, pooled)
        logits = np.log(d) - np.log(1 - d)
        stderr = logits.std(ddof=1) / math.sqrt(len(logits))
        assert abs(logits.mean()) <= 3 * stderr

    def test_matched_distributions_after_brief_training(self):
        rng = np.random.default_rng(6)
        disc = Discriminator(rng)
        opt = ad.Adam(disc.named_tensors().values(), lr=0.005)
        spec = PriorSpec()
        for _ in range(100):
            a = prior_sample_block(spec, rng, 64)
            b = prior_sample_block(spec, rng, 64)
            loss = tr._disc_loss(disc, a, b)
            opt.zero_grad()
            loss.backward()
            opt.step()
        eval_chunks = prior_sample_block(spec, np.random.default_rng(7), 4000)
        d = _np_disc_forward(disc, eval_chunks)
        logits = np.log(d) - np.log(1 - d)
        assert abs(logits.mean()) < 0.15


class TestTrainStepAndEpoch:
    def test_smoke_pure_likelihood_classical(self, tiny_split):
        train, _ = tiny_split
        cfg = tr.TrainConfig(epochs=8, seed=1, sampler="classical", beta=0.0,
                             batch_size=7, eval_ensemble=6)
        model = tr.build_model(cfg, train.images.shape[1:])
        history = tr.train_model(model, train.images, train.labels)
        assert history[-1]["train_accuracy"] > history[0]["train_accuracy"] or \
            history[-1]["train_accuracy"] >= 0.9

    def test_identical_seeds_identical_traces(self, tiny_split):
        train, _ = tiny_split

        def run():
            cfg = tr.TrainConfig(epochs=2, seed=11, sampler="quantum",
                                 batch_size=7, eval_ensemble=4)
            model = tr.build_model(cfg, train.images.shape[1:])
            return tr.train_model(model, train.images, train.labels)

        a, b = run(), run()
        assert a == b

    def test_likelihood_scaling_factor(self, tiny_split):
        train, _ = tiny_split
        images, labels = train.images[:5], train.labels[:5]

        def breakdown_with(scale):
            model = quantum_model(seed=12)
            noise = sample_noise_block(np.random.default_rng(9),
                                       model.sampler.noise_law, 16)
            chunks = ad.Tensor(model.sampler.expectations(noise))
            _, b = tr.combined_loss_graph(model, [chunks], images, labels, scale)
            return b.likelihood

        assert breakdown_with(4.0) == pytest.approx(4.0 * breakdown_with(1.0), rel=1e-12)

    def test_divergence_guard(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=13)
        model.dense_w.data = np.full_like(model.dense_w.data, np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(tr.DivergenceError):
            tr.train_step(model, train.images[:4], train.labels[:4], 1.0,
                          stream(0, "n"), stream(0, "p"))

    def test_divergence_names_seed_epoch_batch_and_term(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=14, batch_size=4)
        model.dense_w.data = np.full_like(model.dense_w.data, np.nan)
        with pytest.raises(tr.DivergenceError) as caught:
            tr.train_epoch(model, train.images[:12], train.labels[:12], epoch=5)
        assert str(caught.value) == "seed 14, epoch 5, batch 0: non-finite likelihood term (nan)"

    def test_nan_theta_gradient_names_the_generator(self, tiny_split, monkeypatch):
        # the losses of the step stay finite; only the descent turns theta NaN
        train, _ = tiny_split
        model = quantum_model(seed=15, batch_size=4)
        theta = model.sampler.theta
        monkeypatch.setattr(model.sampler, "theta_vjp",
                            lambda noise, grad, tape=None: np.full(theta.data.shape, np.nan))
        with pytest.raises(tr.DivergenceError) as caught:
            tr.train_epoch(model, train.images[:12], train.labels[:12], epoch=3)
        assert str(caught.value) == "seed 15, epoch 3, batch 0: non-finite generator parameters"
        assert np.isnan(theta.data).all()

    def test_nan_mlp_gradient_names_the_generator(self, tiny_split, monkeypatch):
        train, _ = tiny_split
        model = tr.build_model(tr.TrainConfig(seed=16, sampler="classical", batch_size=4),
                               (28, 28))
        sampler = model.sampler
        forward = sampler.forward

        def nan_w1_gradient(noise):  # the MLP's chunks; w1 gets a NaN gradient
            return ad._node(forward(noise).data, (sampler.w1,),
                            lambda g: (np.full(sampler.w1.data.shape, np.nan),))

        monkeypatch.setattr(sampler, "forward", nan_w1_gradient)
        with pytest.raises(tr.DivergenceError) as caught:
            tr.train_epoch(model, train.images[:12], train.labels[:12], epoch=1)
        assert str(caught.value) == "seed 16, epoch 1, batch 0: non-finite generator parameters"

    def test_discriminator_only_phase_increases_objective(self):
        # frozen generator stuck in a corner vs uniform prior
        rng = np.random.default_rng(10)
        disc = Discriminator(rng)
        opt = ad.Adam(disc.named_tensors().values(), lr=0.01)
        gen_eval = 0.75 + 0.05 * np.random.default_rng(11).uniform(-1, 1, (256, 4))
        prior_eval = prior_sample_block(PriorSpec(), np.random.default_rng(12), 256)
        values = [discriminator_loss(disc, prior_eval, gen_eval)]
        train_rng = np.random.default_rng(13)
        for _ in range(10):
            gen_batch = 0.75 + 0.05 * train_rng.uniform(-1, 1, (64, 4))
            prior_batch = prior_sample_block(PriorSpec(), train_rng, 64)
            opt.zero_grad()
            tr._disc_loss(disc, prior_batch, gen_batch).backward()
            opt.step()
            values.append(discriminator_loss(disc, prior_eval, gen_eval))
        increases = sum(b >= a for a, b in zip(values, values[1:]))
        assert increases >= 8

    def test_toy_mode_leaves_classifier_untouched(self):
        cfg = tr.TrainConfig(epochs=1, seed=2, sampler="classical", alpha=0.0)
        model = tr.build_model(cfg, (28, 28))
        dense_before = model.dense_w.data.copy()
        tr.train_prior_matching(model, 5)
        np.testing.assert_array_equal(model.dense_w.data, dense_before)

    def test_prior_matching_rejects_vi_posterior(self):
        cfg = tr.TrainConfig(epochs=1, seed=2, sampler="vi")
        model = tr.build_model(cfg, (28, 28))
        with pytest.raises(TypeError, match="unsupported sampler"):
            tr.train_prior_matching(model, 2)


class TestEndToEndGradient:
    def test_theta_gradient_matches_finite_differences(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=21)
        sampler = model.sampler
        images, labels = train.images[:2], train.labels[:2]
        noise = sample_noise_block(np.random.default_rng(20),
                                   sampler.noise_law, 16)
        data_scale = 3.0

        chunks = ad.Tensor(sampler.expectations(noise), requires_grad=True)
        combined, _ = tr.combined_loss_graph(model, [chunks], images, labels, data_scale)
        model.opt_generator.zero_grad()
        model.opt_classifier.zero_grad()
        combined.backward()
        grad = tr._quantum_theta_grad(sampler, [noise], [chunks])

        theta0 = sampler.theta.data.copy()

        def loss_of_theta(theta):
            sampler.theta.data = theta
            c = ad.Tensor(sampler.expectations(noise))
            value, _ = tr.combined_loss_graph(model, [c], images, labels, data_scale)
            sampler.theta.data = theta0
            return value.item()

        h = 1e-4
        fd = np.zeros_like(theta0)
        for j in range(len(theta0)):
            up, down = theta0.copy(), theta0.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (loss_of_theta(up) - loss_of_theta(down)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


class TestForwardProbs:
    def test_matches_einsum_feature_layout_oracle(self, tiny_split):
        train, _ = tiny_split
        model = tr.build_model(tr.TrainConfig(seed=5, sampler="classical"), (28, 28))
        kernels = np.random.default_rng(2).normal(size=(16, 2, 2))
        images = train.images[:12]
        np.testing.assert_allclose(tr.forward_probs_np(model, images, kernels[None])[0],
                                   einsum_forward_probs(model, images, kernels),
                                   rtol=0, atol=1e-15)


def per_member_probs(model, images, kernel_stack):
    """Oracle: the op-by-op classifier graph, one member at a time."""
    return np.stack([
        og.softmax_np(og.classifier_logits(model, images, ad.Tensor(k)).data)
        for k in kernel_stack
    ])


def classical_model_with_bias(seed):
    model = tr.build_model(tr.TrainConfig(seed=seed, sampler="classical"), (28, 28))
    model.dense_b.data = np.array([0.3, -0.2])  # a fresh model's bias is zero
    return model


def images_per_block():
    hp, wp = tr.conv_output_shape((28, 28))
    return max(1, tr.EVAL_BLOCK_FLOATS // (16 * hp * wp))


class TestMemberBlockedForward:
    @pytest.mark.parametrize("n_members", [1, 9])
    @pytest.mark.parametrize("n_images", ["1", "7", "block+1"])
    def test_stacked_matches_per_member_oracle(self, tiny_split, n_images, n_members):
        train, _ = tiny_split
        count = images_per_block() + 1 if n_images == "block+1" else int(n_images)
        assert count <= len(train.images)
        model = classical_model_with_bias(6)
        kernels = np.random.default_rng(n_members).normal(size=(n_members, 16, 2, 2))
        images = train.images[:count]
        got = tr.forward_probs_np(model, images, kernels)
        want = per_member_probs(model, images, kernels)
        assert got.shape == (n_members, count, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(got.argmax(axis=2), want.argmax(axis=2))

    def test_single_and_stacked_forms_agree(self, tiny_split):
        train, _ = tiny_split
        model = classical_model_with_bias(7)
        kernels = np.random.default_rng(3).normal(size=(4, 16, 2, 2))
        images = train.images[:images_per_block() + 3]
        stacked = tr.forward_probs_np(model, images, kernels)
        for k, member in zip(kernels, stacked):
            single = tr.forward_probs_np(model, images, k[None])[0]
            assert single.shape == (len(images), 2)
            np.testing.assert_array_equal(single, member)

    def test_bitwise_equal_to_member_loop(self):
        """The hashed eval CSVs need bits, not a tolerance.  The calls run
        back to back with other image and member counts, so a workspace or
        zero operand kept from an earlier call would show."""
        model = classical_model_with_bias(10)
        block = images_per_block()
        rng = np.random.default_rng(2)
        for count in (2 * block + 3, 1, block + 1, block):
            for n_members in (9, 1):
                images = rng.random((count, 28, 28))
                kernels = rng.normal(size=(n_members, 16, 2, 2))
                got = tr.forward_probs_np(model, images, kernels)
                assert got.shape == (n_members, count, 2)
                np.testing.assert_array_equal(got, og.member_loop_probs(model, images, kernels))

    def test_repeat_calls_bit_identical(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=8)
        first = tr.ensemble_outputs(model, train.images, 11, stream_tag=("again",))
        second = tr.ensemble_outputs(model, train.images, 11, stream_tag=("again",))
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    def test_peak_memory_at_100_members_200_images(self, synth_split):
        import tracemalloc

        train, _ = synth_split
        model = quantum_model(seed=9)
        images = train.images[:200]
        assert len(images) == 200
        tr.ensemble_outputs(model, images, 100)  # warm caches outside the trace
        tracemalloc.start()
        try:
            tr.ensemble_outputs(model, images, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("n_members", [0, -3])
    def test_rejects_non_positive_member_count(self, tiny_split, n_members):
        train, _ = tiny_split
        model = quantum_model(seed=10)
        with pytest.raises(ValueError, match=f"got {n_members}"):
            tr.ensemble_outputs(model, train.images[:3], n_members)

    def test_rejects_empty_image_batch(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=10)
        with pytest.raises(ValueError, match="at least one image"):
            tr.ensemble_outputs(model, train.images[:0], 4)


class TestCheckpointArrays:
    def test_quantum_checkpoint_under_classical_config_rejected(self):
        arrays = quantum_model(seed=11).named_arrays()
        classical = tr.build_model(tr.TrainConfig(seed=11, sampler="classical"), (28, 28))
        with pytest.raises(ValueError, match=r"\['theta'\].*'classical' sampler"):
            classical.load_arrays(arrays)

    def test_extra_tensor_rejected(self):
        model = quantum_model(seed=13)
        arrays = dict(model.named_arrays(), stray=np.zeros(3))
        with pytest.raises(ValueError, match=r"\['stray'\].*'quantum' sampler"):
            model.load_arrays(arrays)

    def test_every_truncation_is_a_value_error(self, tmp_path):
        model = quantum_model(seed=14)
        cut = tmp_path / "cut.qckpt"
        ad.save_checkpoint(cut, model.named_arrays())
        whole_blocks = 0
        for size in reversed(range(cut.stat().st_size)):
            os.truncate(cut, size)
            try:
                arrays = ad.load_checkpoint(cut)
            except ValueError:
                continue
            whole_blocks += 1
            with pytest.raises(ValueError, match="missing tensor"):
                model.load_arrays(arrays)
        # a cut on a block boundary is a well-formed shorter container
        assert whole_blocks == len(model.named_arrays())

    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_block_prefix_is_a_missing_tensor(self, tmp_path, sampler):
        model = tr.build_model(tr.TrainConfig(seed=15, sampler=sampler), (28, 28))
        arrays = model.named_arrays()
        path = tmp_path / "prefix.qckpt"
        for k in range(len(arrays)):
            ad.save_checkpoint(path, dict(list(arrays.items())[:k]))
            prefix = ad.load_checkpoint(path)
            with pytest.raises(ValueError, match=f"missing tensor {list(arrays)[k]!r}"):
                model.load_arrays(prefix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_before_any_write(self, bad):
        model = tr.build_model(tr.TrainConfig(seed=16, sampler="classical"), (28, 28))
        before = {name: a.copy() for name, a in model.named_arrays().items()}
        arrays = {name: a + 1.0 for name, a in before.items()}
        last = list(arrays)[-1]  # every other tensor passes its checks first
        arrays[last][0] = bad
        with pytest.raises(ValueError, match=f"checkpoint tensor {last!r} has a non-finite value"):
            model.load_arrays(arrays)
        for name, a in model.named_arrays().items():
            np.testing.assert_array_equal(a, before[name])


OPTIMIZERS = ("opt_generator", "opt_classifier", "opt_discriminator")


def assert_one_home(model):
    """Every named tensor is a view into exactly one optimizer's ``values``,
    and the views tile each buffer: the buffers hold exactly those tensors."""
    buffers = [getattr(model, name).values for name in OPTIMIZERS]
    tensors = model.named_tensors()
    for name, tensor in tensors.items():
        assert [np.shares_memory(tensor.data, b) for b in buffers].count(True) == 1, name
    for values in buffers:
        base = values.__array_interface__["data"][0]
        spans = sorted((t.data.__array_interface__["data"][0] - base, t.data.nbytes)
                       for t in tensors.values() if np.shares_memory(t.data, values))
        ends = [start + size for start, size in spans]
        assert [start for start, _ in spans] == [0] + ends[:-1]
        assert ends[-1] == values.nbytes


def array_bytes(model) -> dict:
    return {name: value.tobytes() for name, value in model.named_arrays().items()}


class TestOneHome:
    """Each optimizer owns its group's values in one flat buffer; the
    model's tensors are views of it from build to checkpoint load."""

    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_tensors_are_views_of_the_optimizers(self, tiny_split, tmp_path, sampler):
        train, _ = tiny_split
        config = RunConfig(sampler=sampler, seeds=[21], batch_size=7)
        model = tr.build_model(config.train_config(*config.cells()[0]),
                               train.images.shape[1:])
        assert_one_home(model)
        tr.train_epoch(model, train.images, train.labels, 0)
        assert_one_home(model)
        ad.save_checkpoint(tmp_path / "checkpoint.qckpt", model.named_arrays())
        (tmp_path / "config.cfg").write_text(format_config(config))
        loaded, _ = experiment.load_run(str(tmp_path), train.images.shape[1:])
        assert_one_home(loaded)
        assert array_bytes(loaded) == array_bytes(model)

    @pytest.mark.parametrize("fault", ["missing", "mis-shaped"])
    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_failed_load_writes_nothing(self, sampler, fault):
        model = tr.build_model(tr.TrainConfig(seed=22, sampler=sampler), (28, 28))
        arrays = tr.build_model(tr.TrainConfig(seed=23, sampler=sampler), (28, 28)).named_arrays()
        last = list(arrays)[-1]  # every other tensor passes its checks first
        if fault == "missing":
            del arrays[last]
        else:
            arrays[last] = np.zeros(arrays[last].size + 1)
        before = array_bytes(model)
        with pytest.raises(ValueError, match=repr(last)):
            model.load_arrays(arrays)
        assert array_bytes(model) == before

    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_step_after_load_moves_the_loaded_values(self, tiny_split, sampler):
        train, _ = tiny_split
        shape = train.images.shape[1:]
        model = tr.build_model(tr.TrainConfig(seed=24, sampler=sampler), shape)
        other = tr.build_model(tr.TrainConfig(seed=25, sampler=sampler), shape)
        loaded = {name: value.copy() for name, value in other.named_arrays().items()}
        model.load_arrays(loaded)
        tr.train_step(model, train.images[:7], train.labels[:7], 4.0, *step_streams(0))
        unmoved = [name for name, tensor in model.named_tensors().items()
                   if np.array_equal(tensor.data, loaded[name])]
        # the plain-VI step runs no discriminator ascent
        assert unmoved == (list(model.disc.named_tensors()) if sampler == "vi" else [])


class TestEnsemblePrediction:
    def test_single_member_equals_its_softmax(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=30)
        image = train.images[0]
        pred = predict_ensemble(model, image, 1, stream_tag=("check",))
        ws = tr.draw_weight_samples(model, 1, stream(model.config.seed, "check"))[0]
        member = tr.forward_probs_np(model, image[None], ws.kernels[None])[0, 0]
        np.testing.assert_allclose(pred.class_probabilities, member, atol=1e-15)
        assert pred.member_votes.shape == (1,)

    def test_zero_variance_noise_gives_unanimous_votes(self, tiny_split):
        train, _ = tiny_split
        law = NoiseLaw("gaussian", mu=1.0, sigma=0.0)
        model = quantum_model(seed=31, noise=law)
        pred = predict_ensemble(model, train.images[0], 12)
        assert len(set(pred.member_votes.tolist())) == 1
        assert (pred.member_votes == pred.predicted).mean() == 1.0

    def test_replay_average_oracle(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=32)
        probs, votes = tr.ensemble_outputs(model, train.images[:5], 9,
                                           stream_tag=("replay", 0))
        samples = tr.draw_weight_samples(model, 9, stream(model.config.seed, "replay", 0))
        members = np.stack([
            tr.forward_probs_np(model, train.images[:5], ws.kernels[None])[0] for ws in samples
        ])
        np.testing.assert_allclose(probs, members.mean(axis=0), atol=1e-15)
        np.testing.assert_array_equal(votes, members.argmax(axis=2))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6), st.just(2)),
                      elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan])))
    def test_votes_match_argmax(self, members):
        """Ties, NaNs and NaN pairs included: the drawn values are few."""
        votes = tr._votes(members)
        assert votes.dtype == np.intp
        np.testing.assert_array_equal(votes, members.argmax(axis=2))

    def test_probabilities_sum_to_one(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=33)
        pred = predict_ensemble(model, train.images[1], 7)
        assert pred.class_probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert pred.predicted == int(pred.class_probabilities.argmax())

    def test_requires_positive_ensemble(self, tiny_split):
        train, _ = tiny_split
        model = quantum_model(seed=34)
        with pytest.raises(ValueError):
            predict_ensemble(model, train.images[0], 0)


class TestPlainVi:
    def test_gaussian_kl_closed_forms(self):
        assert gaussian_kl(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert gaussian_kl(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError):
            gaussian_kl(0.0, 0.0)

    def test_posterior_kl_graph_matches_closed_form(self):
        posterior = tr.GaussianPosterior(np.random.default_rng(0))
        value = posterior.kl_to_standard_normal().item()
        mu, sigma = posterior.mu.data, np.exp(posterior.log_sigma.data)
        expected = np.sum([gaussian_kl(m, s) for m, s in
                           zip(mu.reshape(-1), sigma.reshape(-1))])
        assert value == pytest.approx(float(expected), rel=1e-12)

    def test_vi_training_learns(self, tiny_split):
        train, _ = tiny_split
        cfg = tr.TrainConfig(epochs=10, seed=3, sampler="vi", batch_size=7,
                             eval_ensemble=6)
        model = tr.build_model(cfg, train.images.shape[1:])
        history = tr.train_model(model, train.images, train.labels)
        assert history[-1]["train_accuracy"] >= 0.75

    def test_reparameterized_sampling(self):
        posterior = tr.GaussianPosterior(np.random.default_rng(1))
        ws = per_draw_samples(posterior, 1, np.random.default_rng(2))[0]
        np.testing.assert_array_equal(
            ws.noise, np.random.default_rng(2).standard_normal((16, 4)))
        expected = posterior.mu.data + np.exp(posterior.log_sigma.data) * ws.noise
        np.testing.assert_allclose(ws.chunks, expected, atol=1e-15)


class TestDrawWeightSamples:
    @pytest.mark.parametrize("count", [1, 7])
    @pytest.mark.parametrize("sampler", ["quantum", "classical", "vi"])
    def test_one_block_equals_per_draw_oracle(self, sampler, count):
        model = tr.build_model(tr.TrainConfig(seed=4, sampler=sampler), (28, 28))
        got = tr.draw_weight_samples(model, count, np.random.default_rng(count))
        want = per_draw_samples(model.sampler, count, np.random.default_rng(count))
        assert len(got) == count
        for a, b in zip(got, want):
            assert a.chunks.shape == (16, 4)
            assert a.chunks.tobytes() == b.chunks.tobytes()
            assert a.noise.tobytes() == b.noise.tobytes()


class TestPriorMatching:
    def test_ks_improves_with_training(self):
        cfg = tr.TrainConfig(epochs=1, seed=3, sampler="classical", alpha=0.0,
                             beta=1.0, lr_generator=0.002, lr_discriminator=0.01,
                             disc_steps=2)
        model = tr.build_model(cfg, (28, 28))
        before = tr.prior_matching_ks(model, 400)
        tr.train_prior_matching(model, 600)
        after = tr.prior_matching_ks(model, 400)
        assert after < before

    def test_consecutive_calls_draw_fresh_noise(self, monkeypatch):
        cfg = tr.TrainConfig(epochs=1, seed=3, sampler="classical", alpha=0.0)
        model = tr.build_model(cfg, (28, 28))
        blocks = []
        draw = tr.sample_noise_block

        def recording(*args, **kwargs):
            blocks.append(draw(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(tr, "sample_noise_block", recording)
        tr.train_prior_matching(model, 3)
        first = blocks[:]
        blocks.clear()
        tr.train_prior_matching(model, 3)
        assert len(first) == len(blocks) > 0
        for a, b in zip(first, blocks):
            assert not np.array_equal(a, b)

    def test_ks_rows_fall_on_every_eval_every_th_step(self):
        """Exactly the steps whose count is a multiple of ``eval_every``
        carry ``ks``; the last is the trained model's ``TOY_DRAWS`` KS."""
        cfg = tr.TrainConfig(epochs=1, seed=3, sampler="classical", alpha=0.0)
        model = tr.build_model(cfg, (28, 28))
        trace = tr.train_prior_matching(model, 6, eval_every=3)
        assert [row["step"] for row in trace] == list(range(6))
        assert [row["step"] for row in trace if "ks" in row] == [2, 5]
        assert trace[-1]["ks"] == tr.prior_matching_ks(model, tr.TOY_DRAWS)


# --- the fused training step against the op-by-op graph -----------------------------

STEP_CELLS = {
    "circuit_iii_L1": dict(sampler="quantum"),
    "circuit_iii_L2re": dict(sampler="quantum", layers=2, reupload=True),
    "classical": dict(sampler="classical"),
    "vi": dict(sampler="vi"),
}
# nodes one train_step may build (disc_steps = 1); the op-by-op graph
# built 43 (quantum), 50 (classical) and 24 (vi)
MAX_STEP_NODES = 12


def cell_model(cell, image_shape=(28, 28), **kw):
    cfg = tr.TrainConfig(seed=5, arch=Architecture.CIRCUIT_III, **STEP_CELLS[cell], **kw)
    return tr.build_model(cfg, image_shape)


def take_grads(model) -> dict:
    """Every named tensor's gradient, cleared on the model."""
    out = {}
    for name, tensor in model.named_tensors().items():
        out[name], tensor.grad = tensor.grad, None
    return out


def assert_grads_equal(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name in got:
        assert (got[name] is None) == (want[name] is None), name
        if got[name] is not None:
            assert np.array_equal(got[name], want[name]), name


def assert_matches_central_differences(value, tensors, grads, h=1e-6):
    """``value()`` rebuilds a scalar from the tensors' current data; each
    gradient must match central differences of it."""
    for tensor, grad in zip(tensors, grads):
        saved = tensor.data

        def at(x, tensor=tensor, saved=saved):
            tensor.data = x
            try:
                return value()
            finally:
                tensor.data = saved

        fd = finite_difference_grad(at, saved, h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)


def step_streams(step):
    return stream(1, "noise", step), stream(1, "prior", step)


class TestClosedFormStep:
    @pytest.mark.parametrize("cell", list(STEP_CELLS))
    def test_train_step_matches_oracle_graph_bitwise(self, tiny_split, cell):
        train, _ = tiny_split
        fused, oracle = cell_model(cell), og.use_list_adams(cell_model(cell))
        images, labels = train.images[:7], train.labels[:7]
        for step in range(3):
            got = tr.train_step(fused, images, labels, 4.0, *step_streams(step))
            want = og.train_step(oracle, images, labels, 4.0, *step_streams(step))
            assert repr(got) == repr(want)
        want = oracle.named_arrays()
        for name, value in fused.named_arrays().items():
            assert np.array_equal(value, want[name]), name

    @pytest.mark.parametrize("cell", ["circuit_iii_L1", "classical"])
    def test_descent_leaves_discriminator_gradients_unset(self, tiny_split, cell):
        train, _ = tiny_split
        model = cell_model(cell)
        noise = sample_noise_block(np.random.default_rng(0), model.sampler.noise_law, 16)
        combined, _ = tr.combined_loss_graph(model, [model.sampler.forward(noise)],
                                             train.images[:5], train.labels[:5], 2.0)
        combined.backward()
        assert all(p.grad is not None for p in model.sampler.named_tensors().values())
        assert [p.grad for p in model.disc.named_tensors().values()] == [None] * 4

    @pytest.mark.parametrize("cell", list(STEP_CELLS))
    def test_step_graph_stays_small(self, tiny_split, cell, monkeypatch):
        train, _ = tiny_split
        model = cell_model(cell)
        built = []
        node = ad._node

        def counting(*args):
            built.append(args[0].shape)
            return node(*args)

        monkeypatch.setattr(ad, "_node", counting)
        tr.train_step(model, train.images[:7], train.labels[:7], 4.0, *step_streams(0))
        assert 0 < len(built) <= MAX_STEP_NODES

    @pytest.mark.parametrize("cell, n_trainable", [("circuit_iii_L1", 1),
                                                   ("circuit_iii_L2re", 2)])
    def test_step_builds_each_trainable_block_once(self, tiny_split, cell, n_trainable,
                                                   monkeypatch):
        """The discriminator's chunks, the generator forward and the
        adjoint sweep of one step share each trainable block's build,
        and a block with no trainable gate builds at most once in all."""
        train, _ = tiny_split
        model = cell_model(cell)
        fused = [b for b in model.sampler.template.blocks if isinstance(b, sv._FusedUnitary)]
        trainable = [b for b in fused if b.groups]
        constant = [b for b in fused if not b.groups]
        assert len(trainable) == n_trainable and constant
        builds = []
        build = sv._FusedUnitary.build

        def counting(block, params):  # a call that returns the compiled build builds nothing
            prefix = build(block, params)
            if prefix is not block.fixed:
                builds.append(block)
            return prefix

        monkeypatch.setattr(sv._FusedUnitary, "build", counting)
        constant_builds = [0] * len(constant)
        for step in range(2):  # theta moves between the steps
            builds.clear()
            tr.train_step(model, train.images[:7], train.labels[:7], 4.0, *step_streams(step))
            assert [sum(b is block for b in builds) for block in trainable] == \
                [1] * n_trainable
            constant_builds = [n + sum(b is block for b in builds)
                               for n, block in zip(constant_builds, constant)]
        assert max(constant_builds) <= 1

    @pytest.mark.parametrize("cell, disc_steps", [(cell, n) for cell in STEP_CELLS
                                                  for n in (1, 3)])
    def test_step_runs_the_generator_forward_once(self, tiny_split, cell, disc_steps,
                                                  monkeypatch):
        """One generator forward serves the discriminator's ascent and the
        descent, and the PQC's adjoint sweep reads the forward's tape, so a
        quantum step runs the circuit once whatever the ascent steps."""
        train, _ = tiny_split
        model = cell_model(cell, disc_steps=disc_steps)
        if isinstance(model.sampler, QuantumWeightSampler):
            owner, name = sv, "_run_blocks"
        else:
            owner, name = type(model.sampler), "forward"
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for step in range(2):
            calls.clear()
            tr.train_step(model, train.images[:7], train.labels[:7], 4.0, *step_streams(step))
            assert calls == [name]


NODE_SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def random_batch(rng, count, image_shape):
    return rng.uniform(0.0, 1.0, (count,) + image_shape), rng.integers(0, 2, count)


class TestFusedNodeVjps:
    @NODE_SETTINGS
    @given(cell=st.sampled_from(["circuit_iii_L1", "classical", "vi"]),
           batch=st.integers(1, 6), height=st.integers(2, 9), width=st.integers(2, 9),
           data_scale=st.floats(0.05, 50.0), alpha=st.floats(0.0, 3.0),
           beta=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_combined_loss_matches_oracle_graph(self, cell, batch, height, width,
                                                data_scale, alpha, beta, seed):
        model = cell_model(cell, (height, width), alpha=alpha, beta=beta)
        rng = np.random.default_rng(seed)
        images, labels = random_batch(rng, batch, (height, width))
        noise = sample_noise_block(rng, model.sampler.noise_law, 16)
        if cell == "circuit_iii_L1":
            leaves = [ad.Tensor(model.sampler.expectations(noise), requires_grad=True)
                      for _ in range(2)]
            fused_chunks, oracle_chunks = leaves
        else:
            fused_chunks = model.sampler.forward(noise)
            oracle_chunks = og.sampler_forward(model.sampler, noise)
        combined, got = tr.combined_loss_graph(model, [fused_chunks], images, labels,
                                               data_scale)
        combined.backward()
        fused_grads = take_grads(model)
        combined, want = og.combined_loss(model, oracle_chunks, images, labels, data_scale)
        combined.backward()
        oracle_grads = take_grads(model)
        assert repr(got) == repr(want)
        if cell != "vi":  # the oracle graph also fills the discriminator's
            for name in model.disc.named_tensors():
                assert fused_grads[name] is None
                fused_grads[name] = oracle_grads[name]
        assert_grads_equal(fused_grads, oracle_grads)
        if cell == "circuit_iii_L1":
            assert np.array_equal(fused_chunks.grad, oracle_chunks.grad)

    @NODE_SETTINGS
    @given(n_gen=st.integers(1, 40), n_prior=st.integers(1, 40),
           weight_scale=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_disc_loss_matches_oracle_graph(self, n_gen, n_prior, weight_scale, seed):
        rng = np.random.default_rng(seed)
        disc = Discriminator(rng)
        for p in disc.named_tensors().values():
            p.data = p.data * weight_scale + rng.normal(0.0, 0.1, p.data.shape)
        gen, prior = rng.uniform(-1, 1, (n_gen, 4)), rng.uniform(-1, 1, (n_prior, 4))
        loss = tr._disc_loss(disc, prior, gen)
        loss.backward()
        got = [p.grad for p in disc.named_tensors().values()]
        for p in disc.named_tensors().values():
            p.grad = None
        oracle = og.mul(og.disc_objective(disc, prior, gen), -1.0)
        oracle.backward()
        assert loss.data.tobytes() == oracle.data.tobytes()
        for a, p in zip(got, disc.named_tensors().values()):
            assert np.array_equal(a, p.grad)

    @NODE_SETTINGS
    @given(rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_disc_nodes_match_central_differences(self, rows, seed):
        rng = np.random.default_rng(seed)
        disc = Discriminator(rng)
        gen, prior = rng.uniform(-1, 1, (rows, 4)), rng.uniform(-1, 1, (rows + 3, 4))
        pre = np.vstack([gen, prior]) @ disc.w1.data.T + disc.b1.data
        assume(np.abs(pre).min() > 1e-4)  # away from the leaky-relu kinks
        loss = tr._disc_loss(disc, prior, gen)
        loss.backward()
        assert_matches_central_differences(
            lambda: tr._disc_loss(disc, prior, gen).item(), disc.named_tensors().values(),
            [p.grad for p in disc.named_tensors().values()])
        chunks = ad.Tensor(gen, requires_grad=True)
        tr._logit_mean(disc, chunks).backward()
        assert_matches_central_differences(lambda: tr._logit_mean(disc, chunks).item(),
                                           [chunks], [chunks.grad])

    @NODE_SETTINGS
    @given(batch=st.integers(1, 5), height=st.integers(2, 8), width=st.integers(2, 8),
           data_scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_nll_matches_central_differences(self, batch, height, width, data_scale, seed):
        model = cell_model("classical", (height, width))
        rng = np.random.default_rng(seed)
        hp, wp = tr.conv_output_shape((height, width))
        z = rng.normal(size=(batch, 16, hp, wp))
        z += np.copysign(1e-3, z)  # away from the relu kinks
        model.dense_b.data = rng.normal(size=2)
        labels = rng.integers(0, 2, batch)
        conv = ad.Tensor(z, requires_grad=True)
        tr._nll(model, conv, labels, data_scale).backward()
        assert_matches_central_differences(
            lambda: tr._nll(model, conv, labels, data_scale).item(),
            [conv, model.dense_w, model.dense_b],
            [conv.grad, model.dense_w.grad, model.dense_b.grad])

    @NODE_SETTINGS
    @given(cell=st.sampled_from(["classical", "vi"]), draws=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_generator_nodes_match_central_differences(self, cell, draws, seed):
        model = cell_model(cell)
        sampler = model.sampler
        rng = np.random.default_rng(seed)
        noise = sample_noise_block(rng, sampler.noise_law, 16 * draws)
        upstream = rng.normal(size=(16 * draws, 4))

        def value():
            total = float((sampler.forward(noise).data * upstream).sum())
            return total + (sampler.kl_to_standard_normal().item() if cell == "vi" else 0.0)

        loss = og.summation(og.mul(sampler.forward(noise), upstream))
        if cell == "vi":
            loss = og.add(loss, sampler.kl_to_standard_normal())
        loss.backward()
        params = sampler.named_tensors().values()
        assert_matches_central_differences(value, params, [p.grad for p in params])


class TestForwardProbsOracle:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(batch=st.integers(1, 6), height=st.integers(2, 12), width=st.integers(2, 12),
           members=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_op_by_op_classifier(self, batch, height, width, members, seed):
        model = cell_model("classical", (height, width))
        rng = np.random.default_rng(seed)
        model.dense_b.data = rng.normal(size=2)
        images, _ = random_batch(rng, batch, (height, width))
        kernels = rng.normal(size=(members, 16, 2, 2))
        np.testing.assert_allclose(tr.forward_probs_np(model, images, kernels),
                                   per_member_probs(model, images, kernels),
                                   rtol=0, atol=1e-15)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(batch=st.integers(1, 12), height=st.integers(2, 30), width=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_training_loss_reads_the_evaluation_features(self, batch, height, width, seed):
        model = cell_model("classical", (height, width))
        rng = np.random.default_rng(seed)
        model.dense_b.data = rng.normal(size=2)
        images, labels = random_batch(rng, batch, (height, width))
        kernels = rng.normal(size=(16, 2, 2))
        conv = ad.conv2d(images, ad.Tensor(kernels), tr.CONV_STRIDE)
        probs = tr.forward_probs_np(model, images, kernels[None])[0]
        np.testing.assert_allclose(tr._nll(model, conv, labels, 1.0).item(),
                                   -np.log(probs[np.arange(batch), labels]).sum(),
                                   rtol=1e-12)
