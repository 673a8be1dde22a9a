"""Stochastic-weight generators and their trainer networks.

The convolution weights of the classifier are never trained directly:
each forward pass draws them from a generator.  Three generators share
one contract: ``noise_law`` says what to draw, ``N_CHUNKS`` rows per
draw, ``expectations(noise)`` maps (rows, dim) noise to (rows, 4) chunk values,
``forward(noise)`` is the same map as an autodiff node whose backward
reaches every tensor of ``named_tensors()``, which lists the trainable
state once, by checkpoint name.  The discriminator lists its tensors the
same way.  The model's optimizers train exactly those tensors: each
tensor's ``data`` is then a view of its optimizer's flat ``values``
buffer, so it changes in place at every step, and rebinding ``data`` to
a new array detaches the tensor from its optimizer.

* ``QuantumWeightSampler`` feeds each noise vector into a parametrized
  circuit and reads the per-qubit expectations; an adjoint sweep trains it;
* ``ClassicalWeightSampler``, the benchmark, is a 4-8-4 MLP fed with the
  same kind of noise;
* ``GaussianPosterior``, the plain-VI baseline, reparameterizes a
  factorized Gaussian over the chunk matrix with standard-normal noise.

Each draw is 16 chunks of 4 values (one circuit pass each), which
assemble the 16 2x2 kernels; k draws are one block of 16k noise rows.

The trainers are a prior over chunks and a discriminator that learns to
tell generated chunks from prior chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .statevector import (CircuitTemplate, Tape, adjoint_vjp, parameter_shift_grad,
                          run_circuit_batch)

N_CHUNKS = 16
CHUNK_DIM = 4
KERNEL_SHAPE = (16, 2, 2)

# --- noise and prior ---------------------------------------------------------


def _check_location_scale(what: str, mu: float, sigma: float):
    if not math.isfinite(mu):
        raise ValueError(f"{what} mu must be finite, got {mu}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"{what} sigma must be finite and >= 0, got {sigma}")


@dataclass(frozen=True)
class NoiseLaw:
    """Distribution of the embedding angles: uniform on [0, 2pi) or
    gaussian(mu, sigma)."""

    kind: str = "uniform"
    mu: float = math.pi
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"unknown noise law {self.kind!r}")
        _check_location_scale("noise", self.mu, self.sigma)


def sample_noise_block(rng: np.random.Generator, law: NoiseLaw, count: int) -> np.ndarray:
    """``count`` i.i.d. noise vectors as a (count, CHUNK_DIM) array."""
    if law.kind == "uniform":
        return rng.uniform(0.0, 2.0 * math.pi, size=(count, CHUNK_DIM))
    return rng.normal(law.mu, law.sigma, size=(count, CHUNK_DIM))


@dataclass(frozen=True)
class PriorSpec:
    """Chunk prior: uniform on [-1, 1] or a gaussian clipped into it."""

    law: str = "uniform"
    mu: float = 0.0
    sigma: float = 0.5

    def __post_init__(self):
        if self.law not in ("uniform", "clipped-gaussian"):
            raise ValueError(f"unknown prior law {self.law!r}")
        _check_location_scale("prior", self.mu, self.sigma)


def prior_sample_block(spec: PriorSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    if spec.law == "uniform":
        return rng.uniform(-1.0, 1.0, size=(count, CHUNK_DIM))
    raw = rng.normal(spec.mu, spec.sigma, size=(count, CHUNK_DIM))
    return np.clip(raw, -1.0, 1.0)


# --- weight samples ----------------------------------------------------------


@dataclass
class WeightSample:
    """One draw of all stochastic convolution weights.

    ``chunks`` holds the raw per-pass generator outputs, row k being the
    4 values of pass k; ``noise`` the noise vectors that produced them.
    """

    chunks: np.ndarray
    noise: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.chunks.reshape(-1)

    @property
    def kernels(self) -> np.ndarray:
        return self.chunks.reshape(KERNEL_SHAPE)


# --- generators ---------------------------------------------------------------


class QuantumWeightSampler:
    """Noise -> PQC -> per-qubit expectations, one chunk per circuit pass.

    All stochasticity lives in the noise source: for fixed angles and
    fixed noise the output is deterministic, so ``theta_vjp``, one adjoint
    sweep, differentiates it exactly; ``jacobian`` is its shift-rule check.
    """

    def __init__(self, template: CircuitTemplate, theta: np.ndarray,
                 noise_law: NoiseLaw | None = None):
        if template.n_qubits != CHUNK_DIM or template.input_slots != CHUNK_DIM:
            raise ValueError(f"sampler template must read {CHUNK_DIM} noise inputs "
                             f"and have {CHUNK_DIM} outputs")
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (template.param_slots,):
            raise ValueError(
                f"theta must have {template.param_slots} entries, got {theta.shape}"
            )
        self.template = template
        self.theta = ad.Tensor(theta, requires_grad=True)
        self.noise_law = noise_law or NoiseLaw()

    def expectations(self, noise: np.ndarray, tape: Tape | None = None) -> np.ndarray:
        """Chunk matrix for given noise rows, shape (rows, 4); ``tape``, if
        given, records the circuit run for ``theta_vjp``."""
        return run_circuit_batch(self.template, self.theta.data, noise, tape)

    def forward(self, noise: np.ndarray) -> ad.Tensor:
        """Chunk matrix as a graph node over theta.  The node keeps the
        forward's tape, so the adjoint sweep, run only when backward
        reaches the node, runs no circuit forward of its own."""
        tape = Tape()
        return ad._node(self.expectations(noise, tape), (self.theta,),
                        lambda g: (self.theta_vjp(noise, g, tape),))

    def theta_vjp(self, noise: np.ndarray, grad: np.ndarray,
                  tape: Tape | None = None) -> np.ndarray:
        """theta's gradient from the (rows, 4) gradient of the chunks, from
        the ``tape`` of the forward at this theta if one is given."""
        return adjoint_vjp(self.template, self.theta.data, noise, grad, tape)

    def jacobian(self, noise: np.ndarray) -> np.ndarray:
        """d(chunk)/d(theta) for every noise row: (rows, 4, param_slots),
        the template's shift-rule gradient at theta; the reference for
        ``theta_vjp``, which training uses instead."""
        return parameter_shift_grad(self.template, self.theta.data, noise)

    def named_tensors(self) -> dict[str, ad.Tensor]:
        return {"theta": self.theta}


def _init_dense(rng: np.random.Generator, out_dim: int,
                in_dim: int) -> tuple[ad.Tensor, ad.Tensor]:
    w = ad.Tensor(rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(out_dim, in_dim)),
                  requires_grad=True)
    b = ad.Tensor(np.zeros(out_dim), requires_grad=True)
    return w, b


class ClassicalWeightSampler:
    """Benchmark generator: a 4 -> 8 -> 4 MLP with tanh squashing.

    Mirrors the quantum sampler's geometry exactly (16 chunks of 4) so
    the two are interchangeable behind the same training loop.
    """

    def __init__(self, rng: np.random.Generator, noise_law: NoiseLaw | None = None):
        self.noise_law = noise_law or NoiseLaw()
        self.w1, self.b1 = _init_dense(rng, 8, CHUNK_DIM)
        self.w2, self.b2 = _init_dense(rng, CHUNK_DIM, 8)

    def forward(self, noise: np.ndarray) -> ad.Tensor:
        """Differentiable chunk matrix for given noise rows: one node over
        (w1, b1, w2, b2) whose vjp is the MLP's backward written out."""
        w1, w2 = self.w1.data, self.w2.data
        hidden = np.tanh(noise @ w1.T + self.b1.data)
        out = np.tanh(hidden @ w2.T + self.b2.data)

        def vjp(g):
            g2 = g * (1.0 - out**2)
            g1 = (g2 @ w2) * (1.0 - hidden**2)
            return g1.T @ noise, g1.sum(axis=0), g2.T @ hidden, g2.sum(axis=0)

        return ad._node(out, (self.w1, self.b1, self.w2, self.b2), vjp)

    def expectations(self, noise: np.ndarray) -> np.ndarray:
        return self.forward(noise).data

    def named_tensors(self) -> dict[str, ad.Tensor]:
        return {"gen_w1": self.w1, "gen_b1": self.b1,
                "gen_w2": self.w2, "gen_b2": self.b2}


class GaussianPosterior:
    """Plain-VI baseline: a factorized Gaussian over the chunk matrix,
    trained by reparameterization with an analytic KL to a standard
    normal prior.  Its noise is the standard-normal ``eps``."""

    noise_law = NoiseLaw("gaussian", 0.0, 1.0)

    def __init__(self, rng: np.random.Generator):
        self.mu = ad.Tensor(rng.normal(0.0, 0.1, size=(N_CHUNKS, CHUNK_DIM)),
                            requires_grad=True)
        self.log_sigma = ad.Tensor(np.full((N_CHUNKS, CHUNK_DIM), -2.0),
                                   requires_grad=True)

    def forward(self, eps: np.ndarray) -> ad.Tensor:
        """Differentiable mu + sigma * eps for k draws' (k * N_CHUNKS, 4) eps,
        as one node over (mu, log_sigma)."""
        sigma = np.exp(self.log_sigma.data)
        eps3 = eps.reshape(-1, N_CHUNKS, CHUNK_DIM)
        out = (self.mu.data + sigma * eps3).reshape(eps.shape)

        def vjp(g):
            g3 = g.reshape(eps3.shape)
            return g3.sum(axis=0), (g3 * eps3).sum(axis=0) * sigma

        return ad._node(out, (self.mu, self.log_sigma), vjp)

    def expectations(self, eps: np.ndarray) -> np.ndarray:
        return self.forward(eps).data

    def kl_to_standard_normal(self) -> ad.Tensor:
        """Analytic KL to N(0, 1) summed over the chunk matrix, as one node.
        mu and log_sigma are parents twice, one per gradient term, so
        backward adds the terms one at a time, as an op-by-op graph would."""
        mu, log_sigma = self.mu.data, self.log_sigma.data
        sigma_sq = np.exp(log_sigma * 2.0)
        per_element = (sigma_sq + mu * mu) * 0.5 + (-log_sigma - 0.5)

        def vjp(g):
            half = g * 0.5
            return half * mu, half * mu, half * sigma_sq * 2.0, np.full(mu.shape, -g)

        return ad._node(per_element.sum(), (self.mu, self.mu, self.log_sigma, self.log_sigma),
                        vjp)

    def named_tensors(self) -> dict[str, ad.Tensor]:
        return {"vi_mu": self.mu, "vi_log_sigma": self.log_sigma}


# --- discriminator -------------------------------------------------------------


LEAKY_SLOPE = 0.01
# sigmoid outputs are clipped into (eps, 1 - eps), so log(d) and log(1 - d)
# stay finite
SIGMOID_EPS = 1e-7


class Discriminator:
    """Binary classifier on 4-value chunks: 4 -> 16 -> 1, sigmoid output.

    Outputs are clamped into (1e-7, 1 - 1e-7) so log(d) - log(1 - d)
    stays finite.  ``forward`` builds no graph; the loss nodes that use it
    call the vjps it returns.
    """

    def __init__(self, rng: np.random.Generator):
        self.w1, self.b1 = _init_dense(rng, 16, CHUNK_DIM)
        self.w2, self.b2 = _init_dense(rng, 1, 16)

    def forward(self, chunks: np.ndarray):
        """Probabilities (B, 1) for (B, 4) chunk rows, and two vjps: from
        the probabilities' gradient to those of (w1, b1, w2, b2), and to
        that of the chunk rows."""
        x = np.asarray(chunks, dtype=np.float64)
        w1, w2 = self.w1.data, self.w2.data
        pre = x @ w1.T + self.b1.data
        slope = np.where(pre > 0, 1.0, LEAKY_SLOPE)
        hidden = pre * slope
        logits = hidden @ w2.T + self.b2.data
        tail = np.exp(-np.abs(logits))
        sigmoid = np.where(logits >= 0, 1.0 / (1.0 + tail), tail / (1.0 + tail))
        unclipped = (sigmoid > SIGMOID_EPS) & (sigmoid < 1.0 - SIGMOID_EPS)

        def pre_activation_grads(g):
            g_out = g * sigmoid * (1.0 - sigmoid) * unclipped
            return g_out, (g_out @ w2) * slope

        def weights_vjp(g):
            g_out, g_hidden = pre_activation_grads(g)
            return g_hidden.T @ x, g_hidden.sum(axis=0), g_out.T @ hidden, g_out.sum(axis=0)

        def chunks_vjp(g):
            return pre_activation_grads(g)[1] @ w1

        return np.clip(sigmoid, SIGMOID_EPS, 1.0 - SIGMOID_EPS), weights_vjp, chunks_vjp

    def named_tensors(self) -> dict[str, ad.Tensor]:
        return {"disc_w1": self.w1, "disc_b1": self.b1,
                "disc_w2": self.w2, "disc_b2": self.b2}

