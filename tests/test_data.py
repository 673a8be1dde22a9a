import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcbnn import autodiff as ad
from qcbnn import data as dio
from qcbnn.seeding import stream

import graph_oracle as og


# --- local oracles: writers and checks the package itself does not need ---------


def normalize(dataset, per_image=True):
    """Min-max scale pixels to [0, 1]; constant images map to all zeros.

    ``per_image=False`` scales with the global min/max of the whole set.
    """
    images = dataset.images
    if per_image:
        lo = images.min(axis=(1, 2), keepdims=True)
        hi = images.max(axis=(1, 2), keepdims=True)
    else:
        lo = images.min()
        hi = images.max()
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scaled = np.where(hi - lo > 0, (images - lo) / span, 0.0)
    return replace(dataset, images=scaled)


_FEATURE_KERNELS = np.array(
    [
        [[0.25, 0.25], [0.25, 0.25]],  # local mean
        [[0.5, 0.5], [-0.5, -0.5]],  # horizontal edge
        [[0.5, -0.5], [0.5, -0.5]],  # vertical edge
        [[0.5, -0.5], [-0.5, 0.5]],  # checkerboard / diagonal texture
    ]
)


def patch_features(images):
    """Four fixed 2x2 patch statistics per image: mean response magnitude
    of a mean, horizontal-edge, vertical-edge and checkerboard kernel."""
    windows = np.lib.stride_tricks.sliding_window_view(images, (2, 2), axis=(1, 2))[:, ::2, ::2]
    responses = np.einsum("bxykl,fkl->bfxy", windows, _FEATURE_KERNELS)
    return np.abs(responses).mean(axis=(2, 3))


def reference_classifier_accuracy(dataset, epochs=50, seed=0, lr=0.05):
    """Train accuracy of a tiny fixed-feature 4 -> 8 -> 2 classifier.

    Serves as the learnability check for generated datasets: if this
    model cannot fit the training set, the convolutional models have no
    chance either.
    """
    feats = patch_features(dataset.images)
    feats = (feats - feats.mean(axis=0)) / (feats.std(axis=0) + 1e-9)
    labels = dataset.labels
    rng = stream(seed, "reference")
    w1 = ad.Tensor(rng.normal(0, 0.5, size=(8, 4)), requires_grad=True)
    b1 = ad.Tensor(np.zeros(8), requires_grad=True)
    w2 = ad.Tensor(rng.normal(0, 0.5, size=(2, 8)), requires_grad=True)
    b2 = ad.Tensor(np.zeros(2), requires_grad=True)
    opt = ad.Adam([w1, b1, w2, b2], lr=lr)
    for _ in range(epochs):
        hidden = og.tanh(og.dense(ad.Tensor(feats), w1, b1))
        loss = og.mean(og.softmax_cross_entropy(og.dense(hidden, w2, b2), labels))
        opt.zero_grad()
        loss.backward()
        opt.step()
    hidden = np.tanh(feats @ w1.data.T + b1.data)
    logits = hidden @ w2.data.T + b2.data
    return float((logits.argmax(axis=1) == labels).mean())


def per_image_synth(spec):
    """The synthetic generator one image at a time, each by its own scalar
    ``rng.uniform`` calls and one ``rng.normal`` noise draw: the oracle of
    ``synth_generate``'s whole-array passes."""
    rng = stream(spec.seed, "synth")
    n_pos = int(round(spec.n_samples * spec.imbalance))
    labels = np.zeros(spec.n_samples, dtype=np.int64)
    labels[:n_pos] = 1
    rng.shuffle(labels)

    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    cy, cx = (spec.height - 1) / 2.0, (spec.width - 1) / 2.0
    images = np.empty((spec.n_samples, spec.height, spec.width))
    for i, label in enumerate(labels):
        sigma = rng.uniform(0.16, 0.26) * spec.height
        blob = rng.uniform(*spec.blob_amp) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)
        )
        period = rng.uniform(3.5, 6.0)
        phase = rng.uniform(0, 2 * math.pi)
        stripes = np.sin(2 * math.pi * (yy + xx) / period + phase) / 2.0
        amp_range = spec.stripe_amp if label == 1 else spec.texture_amp
        img = blob + rng.uniform(*amp_range) * stripes
        img = img + rng.normal(0.0, spec.noise_scale, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    images = np.rint(images * 255.0) / 255.0
    return dio.Dataset(images, labels)


def small_dataset(seed=0, n=12):
    return dio.synth_generate(dio.SynthSpec(n_samples=n, imbalance=0.3, seed=seed))


class TestContainer:
    def test_round_trip_bytes(self, tmp_path):
        dataset = small_dataset()
        first = tmp_path / "a.qbnn"
        second = tmp_path / "b.qbnn"
        dio.save_dataset(first, dataset)
        loaded = dio.load_dataset(first)
        np.testing.assert_array_equal(loaded.images, dataset.images)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        dio.save_dataset(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qbnn"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            dio.load_dataset(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.qbnn"
        dio.save_dataset(path, small_dataset())
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ValueError, match="truncated"):
            dio.load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.qbnn"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="truncated container"):
            dio.load_dataset(path)

    def test_image_shape_from_header(self, tmp_path):
        path = tmp_path / "rect.qbnn"
        dio.save_dataset(path, dio.synth_generate(dio.SynthSpec(n_samples=4, imbalance=0.5,
                                                                height=5, width=9)))
        assert dio.read_image_shape(path) == (5, 9)
        path.write_bytes(path.read_bytes()[:23])
        with pytest.raises(ValueError, match="truncated container"):
            dio.read_image_shape(path)

    def test_nan_pixels_rejected(self):
        images = np.full((2, 3, 3), 0.5)
        images[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="pixels must be finite"):
            dio.Dataset(images, np.array([0, 1]))

    def test_label_outside_binary(self, tmp_path):
        path = tmp_path / "label.qbnn"
        dio.save_dataset(path, small_dataset(n=4))
        blob = bytearray(path.read_bytes())
        blob[24] = 7  # first label byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="label"):
            dio.load_dataset(path)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6), h=st.integers(2, 9), w=st.integers(2, 9))
    def test_any_shape_round_trips_and_any_other_length_is_refused(self, data, n, h, w,
                                                                   tmp_path_factory):
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        pixels = np.frombuffer(data.draw(st.binary(min_size=n * h * w, max_size=n * h * w)),
                               dtype=np.uint8)
        dataset = dio.Dataset(pixels.reshape(n, h, w) / 255.0, labels)
        path = tmp_path_factory.mktemp("prop") / "d.qbnn"
        dio.save_dataset(path, dataset)
        loaded = dio.load_dataset(path)
        np.testing.assert_array_equal(loaded.images, dataset.images)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert dio.read_image_shape(path) == (h, w)

        blob = path.read_bytes()
        assert len(blob) == 24 + n + n * h * w
        extra = data.draw(st.integers(1, 8))
        cut = data.draw(st.integers(1, min(8, len(blob))))
        for wrong in (blob + bytes(extra), blob[:-cut]):
            path.write_bytes(wrong)
            for read in (dio.load_dataset, dio.read_image_shape):
                with pytest.raises(ValueError, match="truncated container|trailing bytes"):
                    read(path)


class TestNormalize:
    def test_full_range_scaling(self):
        img = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
        ds = dio.Dataset(img[None] * 0.5, np.array([0]))  # half-range pixels
        normalized = normalize(ds)
        assert normalized.images.min() == 0.0 and normalized.images.max() == 1.0

    def test_constant_image_maps_to_zeros(self):
        ds = dio.Dataset(np.full((1, 4, 4), 0.7), np.array([1]))
        np.testing.assert_array_equal(normalize(ds).images, np.zeros((1, 4, 4)))

    def test_idempotent(self):
        ds = small_dataset()
        once = normalize(ds)
        twice = normalize(once)
        np.testing.assert_allclose(twice.images, once.images, atol=1e-12)

    def test_global_mode(self):
        images = np.stack([np.full((2, 2), 0.2), np.full((2, 2), 0.8)])
        ds = dio.Dataset(images, np.array([0, 1]))
        out = normalize(ds, per_image=False)
        np.testing.assert_allclose(out.images[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.images[1], 1.0, atol=1e-12)


class TestSynth:
    def test_deterministic(self):
        spec = dio.SynthSpec(n_samples=30, seed=5)
        a, b = dio.synth_generate(spec), dio.synth_generate(spec)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_imbalance_fraction(self):
        spec = dio.SynthSpec(n_samples=200, imbalance=0.27, seed=1)
        ds = dio.synth_generate(spec)
        assert abs(ds.labels.mean() - 0.27) <= 1.0 / 200

    def test_learnable_by_reference_classifier(self):
        ds = dio.synth_generate(dio.SynthSpec(n_samples=250, imbalance=0.27, seed=7))
        assert reference_classifier_accuracy(ds, epochs=50) >= 0.90

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            dio.SynthSpec(n_samples=10, imbalance=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("noise_scale", math.nan, "noise_scale must be finite and >= 0, got nan"),
        ("noise_scale", math.inf, "noise_scale must be finite and >= 0, got inf"),
        ("noise_scale", -0.1, "noise_scale must be finite and >= 0, got -0.1"),
        ("imbalance", math.nan, "imbalance must be finite, got nan"),
        ("imbalance", -math.inf, "imbalance must be finite, got -inf"),
    ])
    def test_non_finite_or_negative_setting_named(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dio.SynthSpec(**{field: value})

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_samples=st.sampled_from([2, dio.SYNTH_BLOCK - 5, dio.SYNTH_BLOCK,
                                      2 * dio.SYNTH_BLOCK + 7]),
           height=st.integers(1, 30), width=st.integers(1, 30),
           imbalance=st.floats(0.0, 1.0),
           noise_scale=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    def test_matches_per_image_oracle(self, seed, n_samples, height, width, imbalance,
                                      noise_scale):
        try:
            spec = dio.SynthSpec(n_samples=n_samples, height=height, width=width,
                                 imbalance=imbalance, noise_scale=noise_scale, seed=seed)
        except ValueError:
            assume(False)  # one class would be empty
        got, want = dio.synth_generate(spec), per_image_synth(spec)
        assert np.array_equal(got.images, want.images)
        assert got.images.tobytes() == want.images.tobytes()  # signed zeros too
        assert np.array_equal(got.labels, want.labels)

    def test_peak_memory_within_twice_the_images(self):
        tracemalloc.start()
        try:
            dataset = dio.synth_generate(dio.SynthSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dataset.images.nbytes


class TestSplit:
    def test_published_split_sizes(self):
        ds = dio.synth_generate(dio.SynthSpec(n_samples=780, seed=0))
        tagged = dio.split(ds, (0.7, 0.1, 0.2), seed=0)
        sizes = {t: int((tagged.tags == t).sum()) for t in ("train", "validation", "test")}
        assert sizes == {"train": 546, "validation": 78, "test": 156}

    def test_same_seed_same_partition(self):
        ds = small_dataset(n=40)
        a = dio.split(ds, (0.5, 0.5), seed=9)
        b = dio.split(ds, (0.5, 0.5), seed=9)
        np.testing.assert_array_equal(a.tags, b.tags)

    def test_empty_partition_rejected(self):
        ds = small_dataset(n=20)
        with pytest.raises(ValueError, match="empty partition"):
            dio.split(ds, (1.0, 0.0, 0.0), seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dio.split(small_dataset(), (0.5, 0.4), seed=0)

    def test_disjoint_and_exhaustive(self):
        ds = small_dataset(n=41)
        tagged = dio.split(ds, (0.6, 0.2, 0.2), seed=2)
        counts = sum((tagged.tags == t).sum() for t in ("train", "validation", "test"))
        assert counts == 41
        train = tagged.subset("train")
        assert len(train) + len(tagged.subset("validation")) + len(tagged.subset("test")) == 41


class TestFullScaleContainer:
    def test_780_sample_round_trip(self, tmp_path):
        dataset = dio.synth_generate(dio.SynthSpec(n_samples=780, seed=2))
        path = tmp_path / "full.qbnn"
        dio.save_dataset(path, dataset)
        loaded = dio.load_dataset(path)
        assert len(loaded) == 780
        assert loaded.images.shape == (780, 28, 28)


class TestConverter:
    def test_npz_conversion(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {}
        for tag, n in (("train", 8), ("val", 4), ("test", 4)):
            arrays[f"{tag}_images"] = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8)
            arrays[f"{tag}_labels"] = rng.integers(0, 2, size=(n, 1)).astype(np.uint8)
        npz_path = tmp_path / "archive.npz"
        np.savez(npz_path, **arrays)
        written = dio.convert_breastmnist_npz(npz_path, tmp_path)
        assert set(written) == {"train", "validation", "test"}
        loaded = dio.load_dataset(written["train"])
        assert len(loaded) == 8 and loaded.images.shape[1:] == (28, 28)

    @pytest.mark.parametrize("key, value, message", [
        ("test_images", np.zeros((4, 28, 28, 3), np.uint8), "images must be (N, H, W)"),
        ("test_labels", np.zeros((3, 1), np.uint8), "image count != label count"),
        ("test_labels", np.full((4, 1), 2, np.uint8), "labels must be 0 or 1"),
    ], ids=["rgb-images", "label-count", "label-2"])
    def test_bad_archive_writes_nothing(self, key, value, message, tmp_path):
        """A bad last split fails before the first split is written."""
        arrays = {f"{tag}_{kind}": np.zeros((4, 28, 28) if kind == "images" else (4, 1),
                                            np.uint8)
                  for tag in ("train", "val", "test") for kind in ("images", "labels")}
        arrays[key] = value
        np.savez(tmp_path / "archive.npz", **arrays)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dio.convert_breastmnist_npz(tmp_path / "archive.npz", out)
        assert not list(out.iterdir())
