"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just what the training step needs: ``reshape``, a strided 2-D
convolution with externally injected weights (``K @ patches`` over the
``(B, kh*kw, H'*W')`` patch matrix of ``conv_patches``, which the
graph-free ensemble forward in ``training`` multiplies by its kernels too,
with a gradient for the kernels only), Adam, and the binary checkpoint
container.  The rest of a step is a few fused nodes built with ``_node``
in ``samplers`` and ``training``, each with its vjp written out in numpy.

Every operation builds a fresh graph node; calling ``backward`` on a
scalar loss walks the graph once in reverse topological order and
accumulates gradients into ``Tensor.grad``.  Forward passes are pure
functions of the tensor values.
"""

from __future__ import annotations

import struct

import numpy as np

from .files import write_file


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None  # maps output grad -> tuple of parent grads

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        backward(self)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(node) into ``grad`` for every reachable node."""
    if loss.data.size != 1:
        raise ValueError("backward needs a scalar loss")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        pgrads = node._vjp(node.grad)
        for parent, pgrad in zip(node._parents, pgrads):
            if parent.grad is None:
                # a vjp may return a view of its own gradient, or one array
                # for several parents: those are copied (order K keeps the
                # layout); an array the vjp allocated for one parent is kept
                fresh = (pgrad.flags.owndata and pgrad is not node.grad
                         and sum(p is pgrad for p in pgrads) == 1)
                parent.grad = pgrad if fresh else pgrad.copy(order="K")
            else:
                parent.grad += pgrad


# -- primitive operations -----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def conv_patches(images: np.ndarray, kernel_hw: tuple[int, int],
                 stride: int) -> tuple[np.ndarray, tuple[int, int]]:
    """The (B, kh*kw, H'*W') patch matrix of the valid stride-``stride``
    windows of a (B, H, W) image batch, and (H', W'), H' = (H - kh)//stride + 1.

    Row ``i*kw + j`` of image b holds the pixels at window offset (i, j),
    so ``K.reshape(F, kh*kw) @ patches`` is the convolution in the (f, x, y)
    order of the dense layer's features.  It is one copy of a read-only
    (B, kh, kw, H', W') strided view of the images.
    """
    x = np.asarray(images, dtype=np.float64)
    kh, kw = kernel_hw
    if x.ndim != 3:
        raise ValueError(f"convolution expects (B, H, W) images, got shape {x.shape}")
    b, h, w = x.shape
    if h < kh or w < kw:
        raise ValueError("image smaller than kernel")
    hp, wp = (h - kh) // stride + 1, (w - kw) // stride + 1
    sb, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (b, kh, kw, hp, wp), (sb, sh, sw, sh * stride, sw * stride), writeable=False)
    return windows.reshape(b, kh * kw, hp * wp), (hp, wp)


def conv2d(images: np.ndarray, kernels: Tensor, stride: int = 2) -> Tensor:
    """Valid cross-correlation with F kernels, no padding, no bias.

    ``images`` is a plain (B, H, W) array and ``kernels`` is (F, kh, kw);
    the output is a C-contiguous (B, F, H', W') with H' = (H - kh)//stride + 1,
    the batched product ``K @ patches`` of ``conv_patches``.  The kernel
    gradient is ``g @ patches^T`` summed over the batch.  Images are data:
    only the kernels receive a gradient.
    """
    k = kernels.data
    if k.ndim != 3:
        raise ValueError(f"conv2d expects (F, kh, kw) kernels, got shape {k.shape}")
    f, kh, kw = k.shape
    patches, (hp, wp) = conv_patches(images, (kh, kw), stride)
    b = len(patches)
    out = (k.reshape(f, kh * kw) @ patches).reshape(b, f, hp, wp)

    def vjp(g):
        g_rows = g.reshape(b, f, hp * wp)
        return ((g_rows @ patches.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape),)

    return _node(out, (kernels,), vjp)


# -- optimizer -----------------------------------------------------------------


class Adam:
    """Standard Adam with bias correction over a list of parameter tensors.

    The optimizer owns its tensors' values: they are copied into one flat
    ``values`` buffer, and each tensor's ``data`` becomes a reshaped view
    of its part.  The moments live in one flat buffer each, so a step is
    one set of elementwise operations over the concatenated gradient,
    ending in one in-place ``values -= update``.  A tensor whose ``data``
    is rebound to another array is detached: the optimizer no longer
    moves it.  Write restored values in place (``data[...] = x``).
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.values = np.concatenate([np.ravel(p.data) for p in self.params])
        ends = np.cumsum([p.data.size for p in self.params])
        for p, part in zip(self.params, np.split(self.values, ends[:-1])):
            p.data = part.reshape(p.data.shape)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update from the gradients currently stored on the params."""
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([np.zeros(p.data.size) if p.grad is None else np.ravel(p.grad)
                            for p in self.params])
        # in place, in the operation order of the textbook update, so the
        # values are the same bits: lr * m_hat / (sqrt(v_hat) + eps)
        self.m *= self.beta1
        self.m += (1 - self.beta1) * g
        self.v *= self.beta2
        g *= g
        g *= 1 - self.beta2
        self.v += g
        update = np.divide(self.m, 1 - self.beta1**t)
        update *= self.lr
        denom = np.divide(self.v, 1 - self.beta2**t, out=g)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self.values -= update


# -- checkpoint container ------------------------------------------------------

CHECKPOINT_MAGIC = b"QBNNCKPT"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray]):
    """Write named float64 arrays: magic, version, then one block per array
    (name length u32, utf-8 name, rank u32, dims u32 each, f64 LE values)."""
    with write_file(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name, arr in tensors.items():
            # asarray keeps rank 0 (ascontiguousarray makes it rank 1); tobytes
            # writes C order whatever the strides
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_checkpoint``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    pos, out = 12, {}
    try:
        (version,) = struct.unpack_from("<I", blob, 8)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            if len(name.encode("utf-8")) != name_len:
                raise struct.error("short name")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            end = pos + 8 * count
            if end > len(blob):
                raise struct.error("short data")
            out[name] = np.frombuffer(blob[pos:end], dtype="<f8").reshape(dims).copy()
            pos = end
    except struct.error as err:
        raise ValueError("truncated checkpoint") from err
    return out
