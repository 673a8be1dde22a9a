"""Adversarial variational-inference training and ensemble prediction.

One training step draws stochastic convolution weights from the
generator in one forward, lets the discriminator take a maximization step
on its cross-entropy objective (those generated chunks vs prior chunks),
then descends the combined loss

    L = alpha * (-log p(D|w))  +  beta * (logit(d(w)) - log p(D|w)),

where the second bracket is the adversarial estimate of the KL
divergence from the generator distribution to the prior.  The plain
variational-inference baseline (Gaussian weight posterior) skips the
discriminator and puts its analytic KL in that bracket instead.

Every generator is drawn from and evaluated through the same contract
(``noise_law``, ``expectations``, ``forward``; ``N_CHUNKS`` rows a draw),
and every step builds its loss with ``combined_loss_graph``, so one
``backward`` reaches all trainable tensors.  A step's graph is a handful
of fused nodes with closed-form vjps: the generator, the convolution,
the classifier head (relu, dense, softmax cross-entropy), the KL term and
the weighted sum.  The discriminator's logit term has the chunks as its
only parent, so the descent leaves the discriminator's gradients alone.
The PQC generator's node keeps its forward's tape, so a quantum step runs
the circuit once: the adjoint sweep of its backward reads the block input
states that forward recorded and contracts them against the prefix
products each fused block kept from its build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import _aligned_empty
from .circuits import CR_AXES, EMBEDDING_PAIRS, Architecture, assemble_pqc
from .samplers import (
    CHUNK_DIM,
    KERNEL_SHAPE,
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
from .seeding import stream


class DivergenceError(RuntimeError):
    """Raised when a loss term or the generator turns non-finite during
    training; the message names it, and each caller up the loop adds where."""


def _check_finite(terms: dict[str, float]):
    for name, value in terms.items():
        if not math.isfinite(value):
            raise DivergenceError(f"non-finite {name} ({value})")


@dataclass
class LossBreakdown:
    """Loss terms of one step, named as the ``epochs.csv`` columns; combined =
    alpha*likelihood + beta*kl, disc is the discriminator objective (nan for VI)."""

    likelihood: float
    kl: float
    disc: float
    combined: float


LOSS_COLUMNS = tuple(f.name for f in fields(LossBreakdown))


@dataclass
class TrainSettings:
    """Training knobs shared by every run of a sweep, with their defaults
    and validation; the run and sweep configs both extend this."""

    epochs: int = 50
    batch_size: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    lr_generator: float = 0.005
    lr_discriminator: float = 0.01
    lr_classifier: float = 0.002
    disc_steps: int = 1
    n_ensemble: int = 100
    eval_ensemble: int = 8
    sampler: str = "quantum"  # quantum | classical | vi
    embedding_pairs: str = "adjacent"
    cr_axis: str = "X"

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr_generator", "lr_discriminator",
                     "lr_classifier", "disc_steps", "n_ensemble", "eval_ensemble"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for f in fields(TrainSettings):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.sampler not in ("quantum", "classical", "vi"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.embedding_pairs not in EMBEDDING_PAIRS:
            raise ValueError(f"embedding_pairs must be one of {', '.join(EMBEDDING_PAIRS)}, "
                             f"got {self.embedding_pairs!r}")
        if self.cr_axis.upper() not in CR_AXES:
            raise ValueError(f"cr_axis must be one of {', '.join(CR_AXES)}, "
                             f"got {self.cr_axis!r}")


@dataclass
class TrainConfig(TrainSettings):
    """Everything a seeded training run depends on."""

    seed: int = 0
    arch: Architecture = Architecture.CIRCUIT_III
    layers: int = 1
    reupload: bool = False
    noise: NoiseLaw = field(default_factory=NoiseLaw)
    prior: PriorSpec = field(default_factory=PriorSpec)

    def __post_init__(self):
        super().__post_init__()
        if self.layers <= 0:
            raise ValueError("layers must be positive")


# --- model assembly -----------------------------------------------------------


@dataclass
class ModelState:
    """Trainable state: weight generator, classifier head, discriminator,
    and one optimizer per learning-rate group."""

    sampler: object
    dense_w: ad.Tensor
    dense_b: ad.Tensor
    disc: Discriminator
    opt_generator: ad.Adam
    opt_classifier: ad.Adam
    opt_discriminator: ad.Adam
    config: TrainConfig

    def named_tensors(self) -> dict[str, ad.Tensor]:
        """Every trainable tensor by checkpoint name: the generator's, the
        classifier head's and the discriminator's, in that order."""
        return {**self.sampler.named_tensors(), "dense_w": self.dense_w,
                "dense_b": self.dense_b, **self.disc.named_tensors()}

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Each tensor's values by name: views that the next step moves."""
        return {name: t.data for name, t in self.named_tensors().items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        """Restore parameters from a checkpoint dictionary; it must hold
        exactly this model's tensors, with matching shapes and finite
        values.  Every array is checked before any is written, and each is
        written in place into its tensor's view of the optimizer's buffer."""
        named = self.named_tensors()
        unknown = sorted(set(arrays) - set(named))
        if unknown:
            raise ValueError(f"checkpoint has tensors {unknown} that a model with the "
                             f"{self.config.sampler!r} sampler does not have")
        for name, tensor in named.items():
            if name not in arrays:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            if arrays[name].shape != tensor.data.shape:
                raise ValueError(f"checkpoint tensor {name!r} has shape "
                                 f"{arrays[name].shape}, expected {tensor.data.shape}")
            if not np.isfinite(arrays[name]).all():
                raise ValueError(f"checkpoint tensor {name!r} has a non-finite value")
        for name, tensor in named.items():
            tensor.data[...] = arrays[name]


CONV_STRIDE = 2  # the classifier's convolution stride, in both image axes


def conv_output_shape(image_shape: tuple[int, int]) -> tuple[int, int]:
    """Feature-map (H', W') of the classifier's convolution on images of
    ``image_shape``; images smaller than the kernel are refused."""
    h = (image_shape[0] - KERNEL_SHAPE[1]) // CONV_STRIDE + 1
    w = (image_shape[1] - KERNEL_SHAPE[2]) // CONV_STRIDE + 1
    if h < 1 or w < 1:
        raise ValueError(f"images of {image_shape[0]}x{image_shape[1]} are smaller than the "
                         f"{KERNEL_SHAPE[1]}x{KERNEL_SHAPE[2]} convolution kernel")
    return h, w


def build_model(config: TrainConfig, image_shape: tuple[int, int]) -> ModelState:
    """Freshly initialized model for a config; all draws come from
    purpose-tagged streams of config.seed."""
    seed = config.seed
    if config.sampler == "quantum":
        template = assemble_pqc(config.arch, CHUNK_DIM, config.layers,
                                config.reupload, config.embedding_pairs, config.cr_axis)
        theta0 = stream(seed, "init-theta").uniform(0, 2 * math.pi, template.param_slots)
        sampler = QuantumWeightSampler(template, theta0, config.noise)
    elif config.sampler == "classical":
        sampler = ClassicalWeightSampler(stream(seed, "init-gen"), config.noise)
    else:
        sampler = GaussianPosterior(stream(seed, "init-vi"))
    hp, wp = conv_output_shape(image_shape)
    n_features = KERNEL_SHAPE[0] * hp * wp
    rng = stream(seed, "init-dense")
    dense_w = ad.Tensor(rng.normal(0.0, 1.0 / math.sqrt(n_features), size=(2, n_features)),
                        requires_grad=True)
    dense_b = ad.Tensor(np.zeros(2), requires_grad=True)
    disc = Discriminator(stream(seed, "init-disc"))
    return ModelState(
        sampler=sampler,
        dense_w=dense_w,
        dense_b=dense_b,
        disc=disc,
        opt_generator=ad.Adam(sampler.named_tensors().values(), lr=config.lr_generator),
        opt_classifier=ad.Adam([dense_w, dense_b], lr=config.lr_classifier),
        opt_discriminator=ad.Adam(disc.named_tensors().values(), lr=config.lr_discriminator),
        config=config,
    )


# --- forward passes ------------------------------------------------------------


# Images per block of the graph-free forward are chosen so that one
# member's (b, F, H'*W') activation holds about this many floats (512 kB).
# The evaluation bytes depend on it: the dense GEMM's result can change in
# its last bits with the number of images it is given, so another value
# moves the hashed eval CSVs.
EVAL_BLOCK_FLOATS = 1 << 16


def forward_probs_np(model: ModelState, images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Softmax probabilities of the classifier (conv -> relu -> dense) for
    fixed kernels, computed without an autodiff graph.

    A stacked (M, F, kh, kw) kernel array gives (M, B, 2), one row per
    member.  Per cache-sized image block, the block's patch matrix of
    ``ad.conv_patches`` is built once, as in ``ad.conv2d``; per member,
    ``K_m @ patches`` is the (b, F, H'*W') activation that training
    computes, written into one workspace, so the dense layer reads it
    without a copy.

    Every loop runs on contiguous operands of one shape.  The workspace and
    the zero array come from ``_aligned_empty``, so each starts on a 64-byte
    cache line: glibc's malloc aligns numpy's arrays only to 16 bytes, and
    at 16, 32 or 48 bytes past a line every 64-byte vector access of the
    member loop straddles two lines.  A misaligned workspace made a member
    step 10-25% slower (``tools/workspace_alignment.py`` prints the table).
    The dense product reads ``model.dense_w.data`` in place: it is the first
    tensor of the classifier's ``ad.Adam``, whose flat buffer starts on a
    cache line too (misaligned, the weights made the forward about 3%
    slower).  Relu takes its maximum against that zero array: on the
    aligned workspace, one member step on a 20-image block took 37-41 us,
    against 39-43 us with a scalar 0.0 and 50-54 us with a broadcast
    (1, F, H'*W') zero row (numpy 2.4.6, OpenBLAS 0.3.31, 1 thread, an idle
    AVX-512 host).  The logits are kept as (C, M, B) class planes, so the
    softmax over the two classes is a few whole-plane passes in place
    instead of reductions over a trailing axis of length 2.  The last pass,
    the division, writes a C-contiguous (M, B, C) array: a reduction over
    members of a transposed view would add in another order (pairwise, for
    one image).
    """
    stack = np.asarray(kernels, dtype=np.float64)
    m, f, kh, kw = stack.shape
    _, (hp, wp) = ad.conv_patches(images[:1], (kh, kw), CONV_STRIDE)  # checks the shapes
    b = len(images)
    flat_kernels = stack.reshape(m, f, kh * kw)
    dense_w = model.dense_w.data
    planes = np.empty((dense_w.shape[0], m, b))
    block = max(1, EVAL_BLOCK_FLOATS // (f * hp * wp))
    work = _aligned_empty((min(block, b), f, hp * wp))
    zero = _aligned_empty(work.shape)
    zero[...] = 0.0
    for start in range(0, b, block):
        stop = min(start + block, b)
        z, z0 = work[: stop - start], zero[: stop - start]
        flat_t = z.reshape(len(z), -1).T
        patches, _ = ad.conv_patches(images[start:stop], (kh, kw), CONV_STRIDE)
        for i in range(m):
            np.matmul(flat_kernels[i], patches, out=z)
            np.maximum(z, z0, out=z)
            np.matmul(dense_w, flat_t, out=planes[:, i, start:stop])
    planes += model.dense_b.data[:, None, None]
    planes -= planes.max(axis=0)
    np.exp(planes, out=planes)
    probs = np.empty((m, b, len(planes)))
    np.divide(planes, planes.sum(axis=0), out=probs.transpose(2, 0, 1))
    return probs


# --- loss surfaces ---------------------------------------------------------------


def _disc_loss(disc: Discriminator, prior_chunks: np.ndarray,
               generated_chunks: np.ndarray) -> ad.Tensor:
    """Minus the objective the discriminator ascends, mean log d(generated)
    + mean log(1 - d(prior)), as one node over its four tensors."""
    d_gen, gen_vjp, _ = disc.forward(generated_chunks)
    d_prior, prior_vjp, _ = disc.forward(prior_chunks)
    one_minus_prior = 1.0 - d_prior
    gen_scale, prior_scale = 1.0 / d_gen.size, 1.0 / d_prior.size
    objective = np.log(d_gen).sum() * gen_scale + np.log(one_minus_prior).sum() * prior_scale

    def vjp(g):
        return tuple(a + b for a, b in zip(gen_vjp(-g * gen_scale / d_gen),
                                           prior_vjp(g * prior_scale / one_minus_prior)))

    return ad._node(-objective, tuple(disc.named_tensors().values()), vjp)


def _logit_mean(disc: Discriminator, chunks: ad.Tensor) -> ad.Tensor:
    """Mean of logit(d) over the chunk rows, as one node whose only parent
    is ``chunks``: the discriminator is a constant of the descent."""
    d, _, d_vjp = disc.forward(chunks.data)
    one_minus = 1.0 - d
    logits = np.log(d) - np.log(one_minus)
    scale = 1.0 / logits.size

    def vjp(g):
        g_rows = g * scale
        return (d_vjp(g_rows / d + g_rows / one_minus),)

    return ad._node(logits.sum() * scale, (chunks,), vjp)


def _nll(model: ModelState, conv: ad.Tensor, labels: np.ndarray,
         data_scale: float) -> ad.Tensor:
    """``data_scale`` times the summed softmax cross-entropy of the dense
    head on relu(conv), as one node over the conv output and the head.
    Relu of ``conv2d``'s C-contiguous (B, F, H', W') output flattens without
    a copy into (f, x, y) feature order, the layout of ``dense_w``."""
    z = conv.data
    active = z > 0
    flat = (z * active).reshape(len(z), -1)
    dense_w = model.dense_w.data
    logits = flat @ dense_w.T + model.dense_b.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    rows = np.arange(len(labels))
    losses = np.log(exp.sum(axis=1)) - shifted[rows, labels]

    def vjp(g):
        g_logits = exp / exp.sum(axis=1, keepdims=True)
        g_logits[rows, labels] -= 1.0
        g_logits *= g * data_scale
        g_conv = np.empty(z.shape)  # owns its data, so backward keeps it
        np.matmul(g_logits, dense_w, out=g_conv.reshape(len(z), -1))
        g_conv *= active
        return g_conv, g_logits.T @ flat, g_logits.sum(axis=0)

    return ad._node(losses.sum() * data_scale, (conv, model.dense_w, model.dense_b), vjp)


def combined_loss_graph(model: ModelState, chunk_tensors: list[ad.Tensor],
                        images, labels, data_scale: float = 1.0,
                        ) -> tuple[ad.Tensor, LossBreakdown]:
    """alpha * likelihood + beta * kl for one weight draw, and its breakdown.

    ``chunk_tensors`` holds the draw's (16, 4) chunk tensor.  The kl term
    is the plain-VI posterior's analytic KL, or else the discriminator's
    logit estimate plus the likelihood.  With no data (images None) the
    likelihood term vanishes.  The discriminator objective is filled in
    by the step that ran it.
    """
    (chunks,) = chunk_tensors
    if images is None:
        likelihood = ad.Tensor(0.0)
    else:
        conv = ad.conv2d(images, ad.reshape(chunks, KERNEL_SHAPE), CONV_STRIDE)
        likelihood = _nll(model, conv, labels, data_scale)
    if isinstance(model.sampler, GaussianPosterior):
        kl_terms = (model.sampler.kl_to_standard_normal(),)
    elif images is None:
        kl_terms = (_logit_mean(model.disc, chunks),)
    else:
        kl_terms = (_logit_mean(model.disc, chunks), likelihood)
    kl = sum((t.data for t in kl_terms[1:]), kl_terms[0].data)
    alpha, beta = model.config.alpha, model.config.beta
    # the likelihood is a parent twice when the adversarial kl includes it
    combined = ad._node(likelihood.data * alpha + kl * beta, (likelihood,) + kl_terms,
                        lambda g: (g * alpha,) + (g * beta,) * len(kl_terms))
    breakdown = LossBreakdown(
        likelihood=float(likelihood.data),
        kl=float(kl),
        disc=float("nan"),
        combined=float(combined.data),
    )
    return combined, breakdown


# --- training loop ----------------------------------------------------------------


def _quantum_theta_grad(sampler: QuantumWeightSampler, noise_blocks, chunk_tensors) -> np.ndarray:
    """theta's gradient for one draw, from the gradient that backward left
    on its chunk tensor; the vjp of ``QuantumWeightSampler.forward``."""
    (noise,), (chunks,) = noise_blocks, chunk_tensors
    return sampler.theta_vjp(noise, chunks.grad)


def train_step(model: ModelState, images, labels, data_scale: float,
               rng_noise: np.random.Generator, rng_prior: np.random.Generator,
               ) -> LossBreakdown:
    """One training step: discriminator ascent for the adversarial
    generators, then combined descent on ``combined_loss_graph``."""
    cfg = model.config
    sampler = model.sampler

    noise = sample_noise_block(rng_noise, sampler.noise_law, N_CHUNKS)
    # the ascent moves no generator tensor and forward draws no random
    # number, so one forward serves the discriminator and the descent
    chunks = sampler.forward(noise)
    disc_value = float("nan")
    if not isinstance(sampler, GaussianPosterior):  # the plain-VI KL is analytic
        for _ in range(cfg.disc_steps):
            prior_chunks = prior_sample_block(cfg.prior, rng_prior, N_CHUNKS)
            loss_d = _disc_loss(model.disc, prior_chunks, chunks.data)
            disc_value = -float(loss_d.data)
            _check_finite({"discriminator objective": disc_value})
            model.opt_discriminator.zero_grad()
            loss_d.backward()
            model.opt_discriminator.step()

    combined, breakdown = combined_loss_graph(model, [chunks], images, labels, data_scale)
    breakdown.disc = disc_value
    _check_finite({"likelihood term": breakdown.likelihood,
                   "kl term": breakdown.kl, "combined loss": breakdown.combined})
    model.opt_generator.zero_grad()
    model.opt_classifier.zero_grad()
    combined.backward()
    model.opt_generator.step()
    if images is not None:
        model.opt_classifier.step()
    if not np.isfinite(model.opt_generator.values).all():
        raise DivergenceError("non-finite generator parameters")
    return breakdown


def train_epoch(model: ModelState, images: np.ndarray, labels: np.ndarray,
                epoch: int) -> list[LossBreakdown]:
    """All batches of one epoch in a deterministic shuffled order."""
    cfg = model.config
    n = len(images)
    order = stream(cfg.seed, "batch-order", epoch).permutation(n)
    rng_noise = stream(cfg.seed, "noise", epoch)
    rng_prior = stream(cfg.seed, "prior", epoch)
    trace = []
    for batch, start in enumerate(range(0, n, cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        try:
            trace.append(
                train_step(model, images[idx], labels[idx], n / len(idx), rng_noise, rng_prior)
            )
        except DivergenceError as err:
            raise DivergenceError(f"seed {cfg.seed}, epoch {epoch}, batch {batch}: {err}") from None
    return trace


def train_model(model: ModelState, train_images, train_labels,
                val_images=None, val_labels=None,
                progress: bool = False) -> list[dict]:
    """Run the configured number of epochs; returns one history row per
    epoch with mean loss terms and ensemble train/validation accuracy."""
    cfg = model.config
    history = []
    for epoch in range(cfg.epochs):
        trace = train_epoch(model, train_images, train_labels, epoch)
        row = {"epoch": epoch, **{name: float(np.mean([getattr(t, name) for t in trace]))
                                  for name in LOSS_COLUMNS}}
        probs, _ = ensemble_outputs(model, train_images, cfg.eval_ensemble,
                                    stream_tag=("eval-train", epoch))
        row["train_accuracy"] = float((probs.argmax(axis=1) == train_labels).mean())
        if val_images is not None and len(val_images):
            vprobs, _ = ensemble_outputs(model, val_images, cfg.eval_ensemble,
                                         stream_tag=("eval-val", epoch))
            row["val_accuracy"] = float((vprobs.argmax(axis=1) == val_labels).mean())
        history.append(row)
        if progress:
            print(f"epoch {epoch:3d}  combined {row['combined']:10.3f}  "
                  f"train acc {row['train_accuracy']:.3f}")
    return history


# --- ensemble prediction -----------------------------------------------------------


def draw_chunks(model: ModelState, count: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent weight draws from one noise block and one
    generator call: the (count, N_CHUNKS, CHUNK_DIM) chunks and the
    (count, N_CHUNKS, I) noise behind them, draw i being noise rows
    [i * N_CHUNKS, (i + 1) * N_CHUNKS)."""
    sampler = model.sampler
    noise = sample_noise_block(rng, sampler.noise_law, count * N_CHUNKS)
    chunks = sampler.expectations(noise).reshape(count, N_CHUNKS, CHUNK_DIM)
    return chunks, noise.reshape(count, N_CHUNKS, -1)


def draw_weight_samples(model: ModelState, count: int,
                        rng: np.random.Generator) -> list[WeightSample]:
    """The draws of ``draw_chunks``, one ``WeightSample`` view each."""
    chunks, noise = draw_chunks(model, count, rng)
    return [WeightSample(c, n) for c, n in zip(chunks, noise)]


def ensemble_outputs(model: ModelState, images: np.ndarray, n_members: int,
                     stream_tag=("eval",)) -> tuple[np.ndarray, np.ndarray]:
    """Averaged probabilities (N, 2) and member votes (M, N) on a batch of
    N images, from one ``forward_probs_np`` call over all M members."""
    if n_members < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n_members}")
    if len(images) == 0:
        raise ValueError("ensemble evaluation needs at least one image, got 0")
    rng = stream(model.config.seed, *stream_tag)
    chunks, _ = draw_chunks(model, n_members, rng)
    members = forward_probs_np(model, images, chunks.reshape(n_members, *KERNEL_SHAPE))
    return members.sum(axis=0) / n_members, _votes(members)


def _votes(members: np.ndarray) -> np.ndarray:
    """``members.argmax(axis=2)`` over the two classes without argmax's
    generic loop: class 1 where it is larger, or where it alone is NaN
    (argmax takes the first NaN)."""
    p0, p1 = members[..., 0], members[..., 1]
    return ((p1 > p0) | (np.isnan(p1) & ~np.isnan(p0))).astype(np.intp)


# --- toy prior-matching run ----------------------------------------------------------

TOY_DRAWS = 1000  # weight draws behind each toy KS statistic


def train_prior_matching(model: ModelState, steps: int,
                         eval_every: int = 0) -> list[dict]:
    """Adversarial distribution matching without data (likelihood off).

    Drives the generator toward the prior; the trace records the
    discriminator objective and generator logit term per step.  A
    ``DivergenceError`` names the seed and the step.
    """
    if isinstance(model.sampler, GaussianPosterior):
        raise TypeError("unsupported sampler for adversarial training: the "
                        "plain-VI posterior has no adversarial loop")
    cfg = model.config
    # keyed by the generator's step count, so a further call draws fresh
    # batches; step 0 gives the same streams as stream(seed, tag)
    start = model.opt_generator.step_count
    rng_noise = stream(cfg.seed, "toy-noise", start)
    rng_prior = stream(cfg.seed, "toy-prior", start)
    trace = []
    for step in range(steps):
        try:
            breakdown = train_step(model, None, None, 1.0, rng_noise, rng_prior)
        except DivergenceError as err:
            raise DivergenceError(f"seed {cfg.seed}, step {step}: {err}") from None
        row = {"step": step, "logit_term": breakdown.kl, "disc": breakdown.disc}
        if eval_every and (step + 1) % eval_every == 0:
            row["ks"] = prior_matching_ks(model, TOY_DRAWS)
        trace.append(row)
    return trace


def prior_matching_ks(model: ModelState, n_draws: int) -> float:
    """Two-sample KS statistic between pooled generated and prior values."""
    from .metrics import ks_statistic

    cfg = model.config
    rng_gen = stream(cfg.seed, "toy-eval", 1)
    rng_prior = stream(cfg.seed, "toy-eval", 2)
    chunks, _ = draw_chunks(model, n_draws, rng_gen)
    generated = chunks.reshape(-1)
    prior = prior_sample_block(cfg.prior, rng_prior, n_draws * N_CHUNKS).reshape(-1)
    return ks_statistic(generated, prior)
