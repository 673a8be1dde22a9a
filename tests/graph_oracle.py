"""Op-by-op autodiff graphs that pin the training step's fused nodes.

The step builds a few nodes whose vjps are written out in numpy
(``samplers`` and ``training``).  This module keeps the broadcasting
arithmetic, elementwise, dense and cross-entropy ops those nodes
replaced, and rebuilds every loss term, generator forward and the whole
training step from them, in the operation order the fused vjps follow.
Tests compare the two bit for bit.  It also keeps ``patch_matrix_conv2d``,
the (b, x, y, f)-layout convolution that ``ad.conv2d`` replaced; the
rebuilt step calls ``ad.conv2d`` itself.  ``member_loop_probs`` is the
evaluation forward as it was before ``training.forward_probs_np`` kept its
logits as class planes, with ``softmax_np``, the row softmax of the oracles.
"""

from __future__ import annotations

import numpy as np

from qcbnn import autodiff as ad
from qcbnn.samplers import (
    CHUNK_DIM,
    KERNEL_SHAPE,
    LEAKY_SLOPE,
    N_CHUNKS,
    SIGMOID_EPS,
    ClassicalWeightSampler,
    GaussianPosterior,
    prior_sample_block,
    sample_noise_block,
)
from qcbnn.training import CONV_STRIDE, EVAL_BLOCK_FLOATS, LossBreakdown

# -- arithmetic, elementwise, dense and loss ops ---------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _coerce(value) -> ad.Tensor:
    return value if isinstance(value, ad.Tensor) else ad.Tensor(value)


def add(a, b) -> ad.Tensor:
    a, b = _coerce(a), _coerce(b)
    return ad._node(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def mul(a, b) -> ad.Tensor:
    a, b = _coerce(a), _coerce(b)
    return ad._node(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def summation(a: ad.Tensor) -> ad.Tensor:
    """Sum of all entries, a scalar."""
    shape = a.data.shape
    return ad._node(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def mean(a: ad.Tensor) -> ad.Tensor:
    """Mean of all entries, a scalar."""
    return mul(summation(a), 1.0 / a.data.size)


def log(a: ad.Tensor) -> ad.Tensor:
    return ad._node(np.log(a.data), (a,), lambda g: (g / a.data,))


def exp(a: ad.Tensor) -> ad.Tensor:
    out = np.exp(a.data)
    return ad._node(out, (a,), lambda g: (g * out,))


def tanh(a: ad.Tensor) -> ad.Tensor:
    out = np.tanh(a.data)
    return ad._node(out, (a,), lambda g: (g * (1.0 - out**2),))


def relu(a: ad.Tensor) -> ad.Tensor:
    mask = a.data > 0
    return ad._node(a.data * mask, (a,), lambda g: (g * mask,))


def leaky_relu(a: ad.Tensor) -> ad.Tensor:
    factor = np.where(a.data > 0, 1.0, LEAKY_SLOPE)
    return ad._node(a.data * factor, (a,), lambda g: (g * factor,))


def sigmoid(a: ad.Tensor) -> ad.Tensor:
    """Logistic function clipped into (SIGMOID_EPS, 1 - SIGMOID_EPS), with
    zero gradient where clipped."""
    x = a.data
    raw = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = np.clip(raw, SIGMOID_EPS, 1.0 - SIGMOID_EPS)
    mask = (raw > SIGMOID_EPS) & (raw < 1.0 - SIGMOID_EPS)
    return ad._node(out, (a,), lambda g: (g * raw * (1.0 - raw) * mask,))


def dense(x: ad.Tensor, weights: ad.Tensor, bias: ad.Tensor) -> ad.Tensor:
    """Affine map ``x @ W.T + b`` for a (B, n) batch x and W (m, n)."""
    xd, wd, bd = x.data, weights.data, bias.data
    if wd.ndim != 2 or bd.shape != (wd.shape[0],):
        raise ValueError("weights must be (m, n) with bias (m,)")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ValueError(f"input shape {xd.shape} does not match weights {wd.shape}")
    out = xd @ wd.T + bd
    return ad._node(out, (x, weights, bias), lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))


def softmax_cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Per-example negative log softmax probability of the true class for
    (B, C) logits and (B,) labels, stabilized by max subtraction."""
    x = logits.data
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"expected (B, C) logits with (B,) labels, got logits "
                         f"{x.shape} and labels {y.shape}")
    if np.any(y < 0) or np.any(y >= x.shape[1]):
        raise ValueError("label out of range")
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(len(y)), y]
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

    def vjp(g):
        onehot = np.zeros_like(x)
        onehot[np.arange(len(y)), y] = 1.0
        return ((probs - onehot) * g[:, None],)

    return ad._node(losses, (logits,), vjp)


def patch_matrix_conv2d(images: np.ndarray, kernels: ad.Tensor, stride: int = 2) -> ad.Tensor:
    """``ad.conv2d`` in the (b, x, y, f) layout: one (B*H'*W', kh*kw) patch
    matrix from ``sliding_window_view``, ``patches @ K^T`` viewed as
    (B, F, H', W'), and the kernel gradient as one ``g_flat^T @ patches``."""
    k = kernels.data
    f, kh, kw = k.shape
    windows = np.lib.stride_tricks.sliding_window_view(
        np.asarray(images, dtype=np.float64), (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    b, hp, wp = windows.shape[:3]
    patches = windows.reshape(b * hp * wp, kh * kw)
    out = (patches @ k.reshape(f, -1).T).reshape(b, hp, wp, f).transpose(0, 3, 1, 2)

    def vjp(g):
        g_flat = g.transpose(0, 2, 3, 1).reshape(-1, f)
        return ((g_flat.T @ patches).reshape(k.shape),)

    return ad._node(out, (kernels,), vjp)


def softmax_np(logits: np.ndarray) -> np.ndarray:
    """Plain softmax over the last axis (no graph); sums to 1 per row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# -- model pieces ------------------------------------------------------------------


def member_loop_probs(model, images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """(M, B, 2) probabilities of a stacked (M, F, kh, kw) ensemble: per
    image block of ``EVAL_BLOCK_FLOATS`` and member, a fresh ``K_m @
    patches`` activation, relu against the scalar 0, (b, C) logit rows,
    then ``softmax_np`` over the trailing class axis."""
    m, f, kh, kw = kernels.shape
    patches, (hp, wp) = ad.conv_patches(images, (kh, kw), CONV_STRIDE)
    b = len(patches)
    flat_kernels = kernels.reshape(m, f, kh * kw)
    dense_wt = model.dense_w.data.T
    logits = np.empty((m, b, dense_wt.shape[1]))
    block = max(1, EVAL_BLOCK_FLOATS // (f * hp * wp))
    for start in range(0, b, block):
        patches_blk = patches[start : start + block]
        for i in range(m):
            z = flat_kernels[i] @ patches_blk
            np.maximum(z, 0.0, out=z)
            logits[i, start : start + block] = z.reshape(len(z), -1) @ dense_wt
    logits += model.dense_b.data
    return softmax_np(logits)


def classifier_logits(model, images: np.ndarray, kernels: ad.Tensor) -> ad.Tensor:
    """Conv -> relu -> dense logits for a (B, H, W) batch.  Features
    flatten in (f, x, y) order, the layout of ``dense_w``."""
    feats = relu(ad.conv2d(images, kernels, CONV_STRIDE))
    flat = ad.reshape(feats, (images.shape[0], -1))
    return dense(flat, model.dense_w, model.dense_b)


def disc_forward(disc, chunks) -> ad.Tensor:
    """Discriminator probabilities (B, 1) as a graph of dense, leaky relu
    and sigmoid nodes."""
    x = chunks if isinstance(chunks, ad.Tensor) else ad.Tensor(chunks)
    h = leaky_relu(dense(x, disc.w1, disc.b1))
    return sigmoid(dense(h, disc.w2, disc.b2))


def disc_objective(disc, prior_chunks, generated_chunks) -> ad.Tensor:
    """mean log d(generated) + mean log(1 - d(prior))."""
    d_gen = disc_forward(disc, generated_chunks)
    d_prior = disc_forward(disc, prior_chunks)
    one_minus_prior = add(mul(d_prior, -1.0), 1.0)
    return add(mean(log(d_gen)), mean(log(one_minus_prior)))


def logit_mean(disc, chunks: ad.Tensor) -> ad.Tensor:
    d = disc_forward(disc, chunks)
    return mean(add(log(d), mul(log(add(mul(d, -1.0), 1.0)), -1.0)))


def classical_forward(sampler: ClassicalWeightSampler, noise: np.ndarray) -> ad.Tensor:
    h = tanh(dense(ad.Tensor(noise), sampler.w1, sampler.b1))
    return tanh(dense(h, sampler.w2, sampler.b2))


def posterior_forward(posterior: GaussianPosterior, eps: np.ndarray) -> ad.Tensor:
    sigma = exp(posterior.log_sigma)
    draws = mul(sigma, eps.reshape(-1, N_CHUNKS, CHUNK_DIM))
    return ad.reshape(add(posterior.mu, draws), eps.shape)


def posterior_kl(posterior: GaussianPosterior) -> ad.Tensor:
    sigma_sq = exp(mul(posterior.log_sigma, 2.0))
    per_element = add(
        mul(add(sigma_sq, mul(posterior.mu, posterior.mu)), 0.5),
        add(mul(posterior.log_sigma, -1.0), -0.5),
    )
    return summation(per_element)


def sampler_forward(sampler, noise: np.ndarray) -> ad.Tensor:
    if isinstance(sampler, ClassicalWeightSampler):
        return classical_forward(sampler, noise)
    if isinstance(sampler, GaussianPosterior):
        return posterior_forward(sampler, noise)
    return sampler.forward(noise)


def likelihood(model, chunks: ad.Tensor, images, labels, data_scale: float) -> ad.Tensor:
    logits = classifier_logits(model, images, ad.reshape(chunks, KERNEL_SHAPE))
    return mul(summation(softmax_cross_entropy(logits, labels)), data_scale)


def combined_loss(model, chunks: ad.Tensor, images, labels,
                  data_scale: float = 1.0) -> tuple[ad.Tensor, LossBreakdown]:
    """The op-by-op ``combined_loss_graph`` for one draw."""
    if images is None:
        lik = ad.Tensor(0.0)
    else:
        lik = likelihood(model, chunks, images, labels, data_scale)
    if isinstance(model.sampler, GaussianPosterior):
        kl = posterior_kl(model.sampler)
    else:
        kl = logit_mean(model.disc, chunks)
        if images is not None:
            kl = add(kl, lik)
    cfg = model.config
    combined = add(mul(lik, cfg.alpha), mul(kl, cfg.beta))
    return combined, LossBreakdown(float(lik.data), float(kl.data), float("nan"),
                                   float(combined.data))


# -- optimizer and step --------------------------------------------------------------


class ListAdam:
    """Adam with one moment array per parameter."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g**2
            m_hat = self.m[i] / (1 - self.beta1**t)
            v_hat = self.v[i] / (1 - self.beta2**t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def use_list_adams(model):
    """Give ``model`` fresh per-parameter optimizers with the same rates."""
    for name in ("opt_generator", "opt_classifier", "opt_discriminator"):
        opt = getattr(model, name)
        setattr(model, name, ListAdam(opt.params, opt.lr, opt.beta1, opt.beta2, opt.eps))
    return model


def train_step(model, images, labels, data_scale, rng_noise, rng_prior) -> LossBreakdown:
    """``training.train_step`` on the op-by-op graph."""
    cfg = model.config
    sampler = model.sampler
    noise = sample_noise_block(rng_noise, sampler.noise_law, N_CHUNKS)
    disc_value = float("nan")
    if not isinstance(sampler, GaussianPosterior):
        chunk_values = sampler_forward(sampler, noise).data
        for _ in range(cfg.disc_steps):
            prior_chunks = prior_sample_block(cfg.prior, rng_prior, N_CHUNKS)
            objective = disc_objective(model.disc, prior_chunks, chunk_values)
            disc_value = float(objective.data)
            model.opt_discriminator.zero_grad()
            mul(objective, -1.0).backward()
            model.opt_discriminator.step()
    combined, breakdown = combined_loss(model, sampler_forward(sampler, noise), images,
                                        labels, data_scale)
    breakdown.disc = disc_value
    model.opt_generator.zero_grad()
    model.opt_classifier.zero_grad()
    combined.backward()
    model.opt_generator.step()
    if images is not None:
        model.opt_classifier.step()
    return breakdown
