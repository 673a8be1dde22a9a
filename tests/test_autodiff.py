import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal

from qcbnn import autodiff as ad

import graph_oracle as og
from conftest import finite_difference_grad


def grad_of(fn, x0, h=1e-4):
    """Finite-difference gradient of a scalar-valued tensor function."""
    return finite_difference_grad(lambda x: fn(ad.Tensor(x)).item(), x0, h)


def backward_grad(fn, x0):
    leaf = ad.Tensor(x0, requires_grad=True)
    fn(leaf).backward()
    return leaf.grad


def check_op(fn, x0, rtol=1e-4):
    got = backward_grad(fn, x0)
    fd = grad_of(fn, np.asarray(x0, dtype=np.float64))
    np.testing.assert_allclose(got, fd, rtol=rtol, atol=1e-7)


class TestElementwiseGradients:
    def test_square(self):
        x = ad.Tensor(3.0, requires_grad=True)
        og.mul(x, x).backward()
        assert x.grad == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: og.summation(og.tanh(t)),
            lambda t: og.summation(og.exp(t)),
            lambda t: og.summation(og.sigmoid(t)),
            lambda t: og.summation(og.leaky_relu(t)),
            lambda t: og.mean(og.mul(t, t)),
            lambda t: og.summation(og.mul(og.relu(t), 2.0)),
        ],
    )
    def test_against_finite_differences(self, fn):
        x0 = np.array([[0.4, -1.2, 2.0], [-0.3, 1.5, 0.7]])  # away from kinks
        check_op(fn, x0)

    def test_log_positive_domain(self):
        check_op(lambda t: og.summation(og.log(t)), np.array([0.5, 1.4, 3.0]))

    def test_clamp_passthrough_region(self):
        check_op(lambda t: og.summation(og.sigmoid(t)), np.array([0.2, -0.7]))
        x = ad.Tensor(np.array([40.0, -40.0]), requires_grad=True)
        og.summation(og.sigmoid(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_broadcast_add(self):
        a = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        b = ad.Tensor(np.ones(2), requires_grad=True)
        og.summation(og.add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(b.grad, [3.0, 3.0])


class TestDense:
    def test_identity(self):
        x = ad.Tensor([[1.0, 2.0, 3.0]])
        out = og.dense(x, ad.Tensor(np.eye(3)), ad.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, [[1, 2, 3]])

    def test_zero_weights_give_bias(self):
        out = og.dense(ad.Tensor([[1.0, 2.0]]), ad.Tensor(np.zeros((3, 2))),
                       ad.Tensor([5.0, 6.0, 7.0]))
        np.testing.assert_array_equal(out.data, [[5, 6, 7]])

    def test_random_case_matches_manual_product(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(1, 2)), rng.normal(size=(3, 2)), rng.normal(size=3)
        out = og.dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        manual = np.array([[w[i, 0] * x[0, 0] + w[i, 1] * x[0, 1] + b[i] for i in range(3)]])
        np.testing.assert_allclose(out.data, manual, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            og.dense(ad.Tensor(np.zeros((1, 3))), ad.Tensor(np.zeros((2, 4))),
                     ad.Tensor(np.zeros(2)))

    def test_rejects_single_vector(self):
        with pytest.raises(ValueError, match="does not match"):
            og.dense(ad.Tensor([1.0, 2.0]), ad.Tensor(np.zeros((3, 2))),
                     ad.Tensor(np.zeros(3)))

    def test_batched_gradients(self):
        rng = np.random.default_rng(5)
        x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=2)
        w = ad.Tensor(w0, requires_grad=True)
        b = ad.Tensor(b0, requires_grad=True)
        og.summation(og.tanh(og.dense(ad.Tensor(x0), w, b))).backward()
        fd_w = grad_of(
            lambda t: og.summation(og.tanh(og.dense(ad.Tensor(x0), t, ad.Tensor(b0)))), w0
        )
        np.testing.assert_allclose(w.grad, fd_w, rtol=1e-4, atol=1e-7)


class TestConv2d:
    def test_paper_geometry(self):
        out = ad.conv2d(np.zeros((3, 28, 28)), ad.Tensor(np.zeros((16, 2, 2))), stride=2)
        assert out.shape == (3, 16, 14, 14)

    def test_all_ones(self):
        out = ad.conv2d(np.ones((1, 2, 2)), ad.Tensor(np.ones((1, 2, 2))), stride=1)
        assert out.data.reshape(-1)[0] == pytest.approx(4.0)

    def test_zero_kernel(self):
        rng = np.random.default_rng(1)
        out = ad.conv2d(rng.normal(size=(2, 5, 5)), ad.Tensor(np.zeros((3, 2, 2))), stride=1)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3, 4, 4)))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_scipy_correlate(self, stride):
        rng = np.random.default_rng(stride)
        images = rng.normal(size=(3, 9, 7))
        kernels = rng.normal(size=(4, 2, 2))
        out = ad.conv2d(images, ad.Tensor(kernels), stride=stride).data
        for b in range(3):
            for f in range(4):
                full = signal.correlate2d(images[b], kernels[f], mode="valid")
                np.testing.assert_allclose(out[b, f], full[::stride, ::stride], atol=1e-12)

    def test_rejects_single_image(self):
        with pytest.raises(ValueError, match="expects"):
            ad.conv2d(np.zeros((28, 28)), ad.Tensor(np.zeros((16, 2, 2))))

    def test_image_smaller_than_kernel(self):
        with pytest.raises(ValueError, match="smaller"):
            ad.conv2d(np.zeros((1, 1, 1)), ad.Tensor(np.zeros((1, 2, 2))))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_finite_differences(self, stride):
        rng = np.random.default_rng(6)
        images = rng.normal(size=(2, 6, 6))
        kernels0 = rng.normal(size=(3, 2, 2))

        def loss_k(k):
            return og.summation(og.relu(ad.conv2d(images, k, stride)))

        k = ad.Tensor(kernels0, requires_grad=True)
        loss_k(k).backward()
        np.testing.assert_allclose(k.grad, grad_of(loss_k, kernels0), rtol=1e-4, atol=1e-7)

    def test_constant_images_get_no_gradient(self):
        rng = np.random.default_rng(8)
        images = rng.normal(size=(2, 6, 6))
        kernels = ad.Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
        og.summation(ad.conv2d(images, kernels)).backward()
        # d(sum of outputs)/dk[f, i, j] sums the pixels at window offset (i, j)
        offsets = [[images[:, i::2, j::2].sum() for j in range(2)] for i in range(2)]
        np.testing.assert_allclose(kernels.grad, np.broadcast_to(offsets, (3, 2, 2)),
                                   atol=1e-12)


CONV_SHAPES = dict(batch=st.integers(1, 12), height=st.integers(2, 30),
                   width=st.integers(2, 30), stride=st.integers(1, 3),
                   seed=st.integers(0, 2**32 - 1))


class TestConvPatchLayout:
    """``conv2d`` in the evaluation layout against the (b, x, y, f)
    patch-matrix convolution it replaced."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(features=st.integers(1, 16), **CONV_SHAPES)
    @example(features=16, batch=3, height=9, width=8, stride=3, seed=0)
    def test_matches_patch_matrix_oracle(self, features, batch, height, width, stride, seed):
        rng = np.random.default_rng(seed)
        images = rng.uniform(0.0, 1.0, (batch, height, width))
        kernels0 = rng.normal(size=(features, 2, 2))
        hp, wp = (height - 2) // stride + 1, (width - 2) // stride + 1
        upstream = rng.normal(size=(batch, features, hp, wp))
        results = []
        for conv in (ad.conv2d, og.patch_matrix_conv2d):
            kernels = ad.Tensor(kernels0, requires_grad=True)
            out = conv(images, kernels, stride)
            og.summation(og.mul(out, upstream)).backward()
            results.append((out.data, kernels.grad))
        (got, got_grad), (want, want_grad) = results
        assert got.shape == (batch, features, hp, wp)
        assert got.flags.c_contiguous
        if features > 1 and hp * wp > 1:
            assert np.array_equal(got, want)
        else:  # numpy takes a matrix-vector path, which may round differently
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=0)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(kh=st.integers(1, 4), kw=st.integers(1, 4), **CONV_SHAPES)
    def test_patches_come_from_a_read_only_window_view(self, batch, height, width, kh, kw,
                                                       stride, seed):
        assume(kh <= height and kw <= width)
        images = np.random.default_rng(seed).uniform(0.0, 1.0, (batch, height, width))
        strided, views = np.lib.stride_tricks.as_strided, []

        def recording(*args, **kwargs):
            views.append(strided(*args, **kwargs))
            return views[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.lib.stride_tricks, "as_strided", recording)
            patches, (hp, wp) = ad.conv_patches(images, (kh, kw), stride)
        (view,) = views
        windows = np.lib.stride_tricks.sliding_window_view(images, (kh, kw), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        assert not view.flags.writeable
        assert np.array_equal(view.transpose(0, 3, 4, 1, 2), windows)
        assert patches.shape == (batch, kh * kw, hp * wp)
        assert np.array_equal(patches, view.reshape(batch, kh * kw, hp * wp))
        assert not np.shares_memory(patches, images) or not patches.flags.writeable


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = og.softmax_cross_entropy(ad.Tensor([[0.0, 0.0]]), [0]).data
        assert loss.shape == (1,)
        assert loss[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct(self):
        loss = og.softmax_cross_entropy(ad.Tensor([[10.0, -10.0]]), [0]).data[0]
        assert loss == pytest.approx(math.log1p(math.exp(-20.0)), rel=1e-6)

    def test_confident_wrong(self):
        loss = og.softmax_cross_entropy(ad.Tensor([[10.0, -10.0]]), [1]).data[0]
        assert loss == pytest.approx(20.0, rel=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            og.softmax_cross_entropy(ad.Tensor([[0.0, 0.0]]), [2])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(2)
        probs = og.softmax_np(rng.normal(scale=10, size=(50, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_dense_softmax_ce_gradient(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(5, 3))
        labels = np.array([0, 1, 1, 0, 1])

        def loss(t):
            return og.mean(og.softmax_cross_entropy(t, labels))

        check_op(loss, x0)

    def test_composite_conv_dense_ce_gradient(self):
        rng = np.random.default_rng(9)
        images = rng.normal(size=(3, 6, 6))
        w0 = rng.normal(size=(2, 2 * 3 * 3)) * 0.3
        labels = np.array([1, 0, 1])

        def loss(kern):
            feats = og.relu(ad.conv2d(images, kern, 2))
            flat = ad.reshape(feats, (3, -1))
            logits = og.dense(flat, ad.Tensor(w0), ad.Tensor(np.zeros(2)))
            return og.mean(og.softmax_cross_entropy(logits, labels))

        check_op(loss, rng.normal(size=(2, 2, 2)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = ad.Adam([p])
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_is_signed_rate(self):
        p = ad.Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = ad.Adam([p], lr=1e-3)
        p.grad = np.array([2.5, -0.3])
        opt.step()
        np.testing.assert_allclose(p.data, [-1e-3, 1e-3], rtol=1e-6)

    def test_deterministic_trajectories(self):
        def trajectory():
            rng = np.random.default_rng(13)
            p = ad.Tensor(rng.normal(size=4), requires_grad=True)
            opt = ad.Adam([p], lr=0.05)
            for _ in range(25):
                loss = og.summation(og.mul(p, p))
                opt.zero_grad()
                loss.backward()
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(trajectory(), trajectory())

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
                           min_size=1, max_size=5),
           lr=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_flat_buffer_matches_per_tensor_adam(self, shapes, lr, seed):
        rng = np.random.default_rng(seed)
        start = [rng.normal(size=shape) for shape in shapes]
        flat = [ad.Tensor(x, requires_grad=True) for x in start]
        listed = [ad.Tensor(x, requires_grad=True) for x in start]
        opt_flat, opt_list = ad.Adam(flat, lr=lr), og.ListAdam(listed, lr=lr)
        for _ in range(4):
            for a, b in zip(flat, listed):
                # some parameters get no gradient in a step
                a.grad = b.grad = None if rng.random() < 0.3 else rng.normal(size=a.shape)
            opt_flat.step()
            opt_list.step()
        for a, b in zip(flat, listed):
            assert a.data.shape == b.data.shape
            assert a.data.tobytes() == b.data.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        tensors = {
            "theta": rng.normal(size=7),
            "dense_w": rng.normal(size=(2, 4)),
            "scalar": np.array(3.5),
        }
        path = tmp_path / "model.qckpt"
        ad.save_checkpoint(path, tensors)
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            ad.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.qckpt"
        ad.save_checkpoint(path, {"x": np.arange(10.0)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-12])
        with pytest.raises(ValueError, match="truncated"):
            ad.load_checkpoint(path)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(tensors=st.dictionaries(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=5),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
                   elements=st.floats(width=64)),
        max_size=4))
    def test_random_dicts_round_trip_and_truncate(self, tensors, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "t.qckpt"
        names = list(tensors)
        ends = []  # file size after each whole block, the header first
        for k in range(len(names) + 1):
            ad.save_checkpoint(path, {n: tensors[n] for n in names[:k]})
            ends.append(path.stat().st_size)
        blob = path.read_bytes()
        loaded = ad.load_checkpoint(path)
        assert list(loaded) == names
        for name in names:
            assert loaded[name].shape == tensors[name].shape
            assert loaded[name].tobytes() == tensors[name].tobytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            if cut in ends:
                # a cut at a block boundary is a well-formed shorter container
                assert list(ad.load_checkpoint(path)) == names[:ends.index(cut)]
            else:
                with pytest.raises(ValueError):
                    ad.load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.qckpt"
        path.write_bytes(ad.CHECKPOINT_MAGIC + (99).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="version"):
            ad.load_checkpoint(path)
