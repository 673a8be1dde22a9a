"""Dataset container, loaders, splits, and a synthetic image generator
for desk-scale experiments.

Images are grayscale H x W grids stored as floats in [0, 1] with an
underlying 0..255 byte quantization, so the binary container round-trips
losslessly.  Labels are binary; class 1 is the positive (malignant-like)
class throughout the package.

The synthetic generator draws its random numbers image by image, in one
fixed stream order, and does all pixel work as in-place passes over
blocks of images.  A dataset file is one binary container (see
``save_dataset``); its image shape can be read from its header without
loading the images.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .files import write_file
from .seeding import stream

DATASET_MAGIC = b"QBNNDATA"
DATASET_VERSION = 1

SPLIT_TAGS = ("train", "validation", "test")


@dataclass
class Dataset:
    """Images (N, H, W) in [0, 1], binary labels (N,), optional split tags."""

    images: np.ndarray
    labels: np.ndarray
    tags: np.ndarray | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise ValueError("images must be (N, H, W)")
        if len(self.labels) != len(self.images):
            raise ValueError("image count != label count")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        # written so that a NaN, whose comparisons are all false, fails too
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("pixels must be finite and lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, tag: str) -> "Dataset":
        if self.tags is None:
            raise ValueError("dataset has no split tags")
        mask = self.tags == tag
        return Dataset(self.images[mask], self.labels[mask])


# --- binary container ---------------------------------------------------------


def save_dataset(path, dataset: Dataset):
    """Write the binary container: magic, version, count, H, W, labels,
    then raw 0..255 pixel bytes."""
    n, h, w = dataset.images.shape
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    with write_file(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIII", DATASET_VERSION, n, h, w))
        fh.write(dataset.labels.astype(np.uint8).tobytes())
        fh.write(pixels.tobytes())


def _container_header(fh) -> tuple[int, int, int]:
    """Image count, height and width from a binary container's header,
    checked against the file's size, which must be exactly the header's
    24 bytes, one label byte per image and H * W pixel bytes per image."""
    head = fh.read(24)
    if len(head) < 24:
        raise ValueError("truncated container")
    if head[:8] != DATASET_MAGIC:
        raise ValueError("bad dataset magic")
    version, n, h, w = struct.unpack_from("<IIII", head, 8)
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {version}")
    size = os.fstat(fh.fileno()).st_size
    expected = 24 + n + n * h * w
    if size != expected:
        what = "truncated container" if size < expected else "container has trailing bytes"
        raise ValueError(f"{what}: {size} bytes, but a header of {n} images of "
                         f"{h}x{w} needs {expected}")
    return n, h, w


def load_dataset(path) -> Dataset:
    """Load a binary container written by ``save_dataset``."""
    with open(path, "rb") as fh:
        n, h, w = _container_header(fh)
        body = fh.read()
    labels = np.frombuffer(body, dtype=np.uint8, count=n)
    if labels.size and labels.max() > 1:
        raise ValueError("label outside {0, 1}")
    pixels = np.frombuffer(body, dtype=np.uint8, count=n * h * w, offset=n)
    images = pixels.reshape(n, h, w).astype(np.float64) / 255.0
    return Dataset(images, labels.astype(np.int64))


def read_image_shape(path) -> tuple[int, int]:
    """Image (H, W) of a binary container, read from its header alone; the
    file's length is checked against the header from the file's size."""
    with open(path, "rb") as fh:
        return _container_header(fh)[1:]


def convert_breastmnist_npz(npz_path, out_dir):
    """Convert the public breast-ultrasound npz archive (not bundled) into
    one binary container per split.  Returns the written paths.  Every
    split is checked before any container is written."""
    archive = np.load(npz_path)
    splits = {
        tag: Dataset(np.asarray(archive[f"{key}_images"], dtype=np.float64) / 255.0,
                     np.asarray(archive[f"{key}_labels"]).reshape(-1))
        for tag, key in (("train", "train"), ("validation", "val"), ("test", "test"))
    }
    written = {}
    for tag, dataset in splits.items():
        written[tag] = os.path.join(out_dir, f"{tag}.qbnn")
        save_dataset(written[tag], dataset)
    return written


# --- synthetic data ----------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic two-class image set with tunable class overlap.

    Class 0 is a centered Gaussian blob, class 1 the same blob with a
    diagonal stripe pattern on top.  The noise model has two parts:
    i.i.d. pixel noise and a faint stripe texture whose amplitude range
    (``texture_amp``) overlaps the weak end of the positive-class stripe
    amplitudes (``stripe_amp``), so the task has a controlled Bayes
    error instead of being trivially separable.
    """

    n_samples: int = 250
    height: int = 28
    width: int = 28
    imbalance: float = 0.27  # fraction of stripe (positive) samples
    noise_scale: float = 0.12
    blob_amp: tuple[float, float] = (0.45, 0.85)
    stripe_amp: tuple[float, float] = (0.12, 0.7)
    texture_amp: tuple[float, float] = (0.0, 0.18)
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(
                f"synthetic noise_scale must be finite and >= 0, got {self.noise_scale}")
        if not math.isfinite(self.imbalance):
            raise ValueError(f"synthetic imbalance must be finite, got {self.imbalance}")
        n_pos = int(round(self.n_samples * self.imbalance))
        if self.n_samples < 2 or n_pos < 1 or n_pos >= self.n_samples:
            raise ValueError("degenerate synthetic spec: need both classes present")


SYNTH_BLOCK = 32  # images per in-place pixel pass of ``synth_generate``


def _uniform(unit, low, high):
    """``Generator.uniform(low, high)`` of a unit draw: low + (high - low) * u."""
    return low + (high - low) * unit


def synth_generate(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset; pixels quantized to 0..255 levels.

    Only the random draws run per image, in stream order: five unit
    uniforms (blob width, blob amplitude, stripe period, stripe phase,
    stripe amplitude), then ``H * W`` standard normals written straight
    into the output array.  They are scaled afterwards with the
    arithmetic of ``Generator.uniform`` and ``Generator.normal``.  The
    pixel work (blob ``exp``, stripes, noise, clip, 0..255 quantization)
    runs in place over blocks of ``SYNTH_BLOCK`` images, and the stripe
    sine, which depends on ``y + x`` only, is taken once per diagonal.
    Each pixel gets the same floating-point operations on the same
    operands as when every image was built by its own ``rng.uniform``
    and ``rng.normal`` calls, so the images are bit-identical to that
    loop whatever the block size.
    """
    rng = stream(spec.seed, "synth")
    n, h, w = spec.n_samples, spec.height, spec.width
    n_pos = int(round(n * spec.imbalance))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    rng.shuffle(labels)

    unit = np.empty((n, 5))
    images = np.empty((n, h, w))
    for i in range(n):
        rng.random(out=unit[i])
        rng.standard_normal(out=images[i])
    sigma = _uniform(unit[:, 0], 0.16, 0.26) * h
    spread = 2 * sigma**2
    blob_amp = _uniform(unit[:, 1], *spec.blob_amp)
    period = _uniform(unit[:, 2], 3.5, 6.0)
    phase = _uniform(unit[:, 3], 0.0, 2 * math.pi)
    stripe_amp = np.where(labels == 1, _uniform(unit[:, 4], *spec.stripe_amp),
                          _uniform(unit[:, 4], *spec.texture_amp))

    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    neg_d2 = -((yy - cy) ** 2 + (xx - cx) ** 2)
    diagonals = 2 * math.pi * np.arange(h + w - 1)
    stripes = stripe_amp[:, None] * (np.sin(diagonals / period[:, None] + phase[:, None]) / 2.0)
    # a read-only (N, H, W) view whose [i, y, x] is stripes[i, y + x]
    stripes = np.lib.stride_tricks.sliding_window_view(stripes, w, axis=1)
    blob = np.empty((min(n, SYNTH_BLOCK), h, w))
    for start in range(0, n, SYNTH_BLOCK):
        block = slice(start, start + SYNTH_BLOCK)
        out = images[block]
        buf = blob[: len(out)]
        np.divide(neg_d2, spread[block, None, None], out=buf)
        np.exp(buf, out=buf)
        np.multiply(blob_amp[block, None, None], buf, out=buf)
        buf += stripes[block]
        out *= spec.noise_scale
        out += 0.0  # Generator.normal(0, s) is 0 + s * z, which makes -0.0 into 0.0
        np.add(buf, out, out=out)
        np.clip(out, 0.0, 1.0, out=out)
        out *= 255.0
        np.rint(out, out=out)
        out /= 255.0
    return Dataset(images, labels)


# --- splits ----------------------------------------------------------------------


def split(dataset: Dataset, fractions, seed: int) -> Dataset:
    """Deterministic shuffled partition into train/validation/test tags.

    ``fractions`` has two entries (train, test) or three (train,
    validation, test) and must sum to 1; boundaries are placed by
    cumulative rounding so sizes match the fractions within rounding.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) not in (2, 3):
        raise ValueError("need 2 or 3 split fractions")
    if not all(f >= 0 for f in fractions):  # a zero fraction is an empty partition
        raise ValueError(f"split fractions must be non-negative, got {list(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    names = ("train", "test") if len(fractions) == 2 else SPLIT_TAGS
    n = len(dataset)
    bounds = [int(round(sum(fractions[: i + 1]) * n)) for i in range(len(fractions))]
    sizes = np.diff([0] + bounds)
    if (sizes == 0).any():
        raise ValueError("empty partition")
    order = stream(seed, "split").permutation(n)
    tags = np.empty(n, dtype=object)
    start = 0
    for name, size in zip(names, sizes):
        tags[order[start : start + size]] = name
        start += size
    return replace(dataset, tags=tags.astype(str))
