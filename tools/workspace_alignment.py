"""Time one ensemble member step at every 16-byte offset of its workspaces.

Usage, from the repository root::

    PYTHONPATH=src python tools/workspace_alignment.py [--rounds 30] [--members 100]

A member step of ``training.forward_probs_np`` on one image block is the
conv ``matmul`` into the ``work`` buffer, the relu ``maximum`` against the
``zero`` buffer and the dense ``matmul`` that reads ``work``.  The script
builds a default classical model on the 28x28 synthetic set, so the block
and the buffers have the shapes that evaluation uses, and times that step
with ``work`` and ``zero`` placed at 0, 16, 32 and 48 bytes past a 64-byte
boundary: 16 placements.  Each round times every placement once, in a
shuffled order, over ``--members`` member steps; the table gives the
median and the quartiles over rounds, in microseconds per member step.
The dense weights sit on a cache line throughout, as the model's own do:
they are the first tensor of the classifier's optimizer, whose flat buffer
``autodiff.Adam`` aligns, and ``forward_probs_np`` reads them in place.  It
takes the other two buffers from ``_aligned_empty``, on a line as well.
Rerun it after a numpy, BLAS or host change to see whether that still
matters.  BLAS runs on one thread, as in the benchmark.  Standard library
and numpy only; it is not part of the test suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import math
import random
import statistics
import time

import numpy as np

from qcbnn import autodiff as ad
from qcbnn.data import SynthSpec, synth_generate
from qcbnn.seeding import stream
from qcbnn.samplers import KERNEL_SHAPE
from qcbnn.training import CONV_STRIDE, EVAL_BLOCK_FLOATS, TrainConfig, build_model, draw_chunks

OFFSETS = (0, 16, 32, 48)  # bytes past a 64-byte boundary


def placed(shape: tuple[int, ...], offset: int) -> np.ndarray:
    """A float64 array of ``shape`` whose data starts ``offset`` bytes past
    a 64-byte boundary."""
    n = math.prod(shape)
    raw = np.empty(n + 16)
    start = (-raw.ctypes.data % 64 + offset) // 8
    out = raw[start:start + n].reshape(shape)
    assert out.ctypes.data % 64 == offset
    return out


def member_steps(flat_kernels, patches, dense_w, work, zero, planes) -> float:
    """Seconds for one member step per kernel set, as ``forward_probs_np``
    runs it."""
    flat_t = work.reshape(len(work), -1).T
    t0 = time.perf_counter()
    for i in range(len(flat_kernels)):
        np.matmul(flat_kernels[i], patches, out=work)
        np.maximum(work, zero, out=work)
        np.matmul(dense_w, flat_t, out=planes[:, i])
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--members", type=int, default=100)
    args = parser.parse_args()

    spec = SynthSpec()
    model = build_model(TrainConfig(sampler="classical"), (spec.height, spec.width))
    chunks, _ = draw_chunks(model, args.members, stream(0, "align"))
    m = args.members
    f, kh, kw = KERNEL_SHAPE
    flat_kernels = chunks.reshape(m, f, kh * kw)
    images = synth_generate(spec).images
    _, (hp, wp) = ad.conv_patches(images[:1], (kh, kw), CONV_STRIDE)
    block = max(1, EVAL_BLOCK_FLOATS // (f * hp * wp))
    patches, _ = ad.conv_patches(images[:block], (kh, kw), CONV_STRIDE)
    dense_w = model.dense_w.data
    assert dense_w.ctypes.data % 64 == 0
    planes = np.empty((dense_w.shape[0], m, block))
    shape = (block, f, hp * wp)
    buffers = {}
    for w_off in OFFSETS:
        for z_off in OFFSETS:
            zero = placed(shape, z_off)
            zero[...] = 0.0
            buffers[w_off, z_off] = placed(shape, w_off), zero

    times = {key: [] for key in buffers}
    rng = random.Random(0)
    order = list(buffers)
    for _ in range(args.rounds):
        rng.shuffle(order)
        for key in order:
            seconds = member_steps(flat_kernels, patches, dense_w, *buffers[key], planes)
            times[key].append(seconds / m * 1e6)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, 1 BLAS thread; "
          f"{block}-image block, work {shape} = {math.prod(shape) * 8} bytes; "
          f"{args.members} members x {args.rounds} rounds")
    print("work  zero   median us   quartiles us")
    for w_off, z_off in buffers:
        q1, med, q3 = statistics.quantiles(times[w_off, z_off], n=4, method="inclusive")
        print(f"{w_off:4d}  {z_off:4d}   {med:9.1f}   {q1:.1f}-{q3:.1f}")


if __name__ == "__main__":
    main()
