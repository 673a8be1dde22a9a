import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qcbnn import metrics as mt


class TestClassificationScores:
    def test_all_correct(self):
        s = mt.classification_scores([1, 0, 1], [1, 0, 1])
        assert (s.accuracy, s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_confusion_example(self):
        # TP=2, FP=1, FN=1, TN=6
        predictions = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        labels = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        s = mt.classification_scores(predictions, labels)
        assert s.accuracy == pytest.approx(0.8)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        s = mt.classification_scores([0, 0, 0], [0, 1, 0])
        assert s.precision is None
        assert s.f1 is None
        assert s.recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mt.classification_scores([0, 1], [0])


class TestConfidenceError:
    def test_calibrated(self):
        assert mt.confidence_error(0.8, 0.8) == 0.0

    def test_underconfident(self):
        assert mt.confidence_error(0.6, 0.8) == pytest.approx(-0.2)

    def test_overconfident(self):
        assert mt.confidence_error(0.9, 0.7) == pytest.approx(0.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            mt.confidence_error(1.2, 0.5)


class TestEnsembleFraction:
    def test_unanimous(self):
        assert mt.ensemble_fraction([1] * 10, 1) == 1.0

    def test_partial(self):
        votes = [1] * 60 + [0] * 40
        assert mt.ensemble_fraction(votes, 1) == pytest.approx(0.6)

    def test_single_member(self):
        assert mt.ensemble_fraction([0], 0) == 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            mt.ensemble_fraction([], 1)

    def test_class_fractions_partition_unity(self):
        rng = np.random.default_rng(7)
        votes = rng.integers(0, 2, 50)
        total = mt.ensemble_fraction(votes, 0) + mt.ensemble_fraction(votes, 1)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mt.ensemble_fraction(votes, 1) <= 1.0

    def test_votes_of_many_images_average_each_image_share(self):
        """(M, N) votes against N predictions give the mean of the N
        one-image fractions, bit for bit; the flat mean of all six
        matches, 5/6, lies one bit above it here."""
        votes = np.array([[0, 1], [0, 0], [0, 0]])
        final = np.array([0, 0])
        per_image = np.mean([mt.ensemble_fraction(votes[:, j], final[j]) for j in range(2)])
        assert mt.ensemble_fraction(votes, final) == per_image
        assert np.mean(votes == final) != per_image


class TestDifferenceMetric:
    def test_arithmetic(self):
        assert mt.difference_metric(0.9, 0.8, 0.6, 0.2) == pytest.approx(0.60)

    def test_symmetric_zero(self):
        assert mt.difference_metric(0.7, 0.5, 0.7, 0.5) == 0.0

    def test_ideal_separation(self):
        assert mt.difference_metric(1.0, 1.0, None, None) == 1.0

    def test_antisymmetric(self):
        a = mt.difference_metric(0.9, 0.8, 0.6, 0.2)
        b = mt.difference_metric(0.6, 0.2, 0.9, 0.8)
        assert a == pytest.approx(-b)


class TestCalibrationCurve:
    def test_synthetic_calibrated_data(self):
        rng = np.random.default_rng(0)
        confidences = rng.uniform(0, 1, 20_000)
        correctness = (rng.uniform(0, 1, 20_000) < confidences).astype(float)
        bins = mt.calibration_curve(confidences, correctness, n_bins=10)
        for b in bins:
            assert b.count > 0
            assert abs(b.mean_confidence - b.accuracy) < 3 / np.sqrt(b.count)

    def test_all_confident_correct(self):
        bins = mt.calibration_curve([1.0] * 5, [1.0] * 5, n_bins=10)
        top = bins[-1]
        assert (top.mean_confidence, top.accuracy, top.count) == (1.0, 1.0, 5)
        assert all(b.count == 0 and b.mean_confidence is None for b in bins[:-1])

    def test_all_confident_wrong(self):
        bins = mt.calibration_curve([1.0] * 5, [0.0] * 5, n_bins=10)
        assert (bins[-1].mean_confidence, bins[-1].accuracy) == (1.0, 0.0)

    def test_bins_partition_unit_interval(self):
        bins = mt.calibration_curve([0.05, 0.55, 0.999], [1, 0, 1], n_bins=10)
        assert bins[0].low == 0.0 and bins[-1].high == 1.0
        assert all(a.high == b.low for a, b in zip(bins, bins[1:]))
        assert sum(b.count for b in bins) == 3

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            mt.calibration_curve([0.5], [1.0], n_bins=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_rejected(self, bad):
        with pytest.raises(ValueError, match=r"confidences must lie in \[0, 1\]"):
            mt.calibration_curve([0.5, bad], [1, 0], n_bins=10)


class TestKsStatistic:
    def test_matches_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=500)
        b = rng.normal(0.3, 1.2, size=700)
        ours = mt.ks_statistic(a, b)
        assert ours == pytest.approx(stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_identical_samples(self):
        x = np.arange(10.0)
        assert mt.ks_statistic(x, x) == 0.0


class TestKde:
    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=20_000)
        est = mt.kde_density(samples, grid=np.array([0.0]))
        assert est.density[0] == pytest.approx(1 / np.sqrt(2 * np.pi), abs=0.03)

    def test_matches_scipy_gaussian_kde(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=400)
        grid = np.linspace(-3, 3, 50)
        ours = mt.kde_density(samples, grid)
        theirs = stats.gaussian_kde(samples)(grid)
        np.testing.assert_allclose(ours.density, theirs, rtol=1e-10)

    def test_symmetric_samples_give_symmetric_density(self):
        rng = np.random.default_rng(4)
        half = rng.normal(size=500)
        samples = np.concatenate([half, -half])
        grid = np.linspace(-4, 4, 81)
        est = mt.kde_density(samples, grid)
        np.testing.assert_allclose(est.density, est.density[::-1], atol=1e-6)

    def test_two_point_bimodal(self):
        # Scott bandwidth of two samples over-smooths; a sub-unit bandwidth
        # resolves the two modes, which must be equal by symmetry.
        grid = np.array([-1.0, 0.0, 1.0])
        est = mt.kde_density(np.array([-1.0, 1.0]), grid=grid, bandwidth=0.5)
        assert est.density[0] == pytest.approx(est.density[2], abs=1e-12)
        assert est.density[1] < est.density[0]
        default_bw = mt.kde_density(np.array([-1.0, 1.0]), grid=grid)
        assert default_bw.density[0] == pytest.approx(default_bw.density[2], abs=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(-1, 1, 400)
        grid = np.linspace(-2, 2, 400)
        est = mt.kde_density(samples, grid)
        assert abs(np.trapezoid(est.density, grid) - 1.0) < 1e-2

    def test_zero_variance_flags_point_mass(self):
        est = mt.kde_density(np.full(10, 0.25))
        assert est.point_mass and est.location == 0.25
        assert not est.density.any()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            mt.kde_density(np.array([1.0]))

    def test_scott_bandwidth(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=1000)
        expected = samples.std(ddof=1) * 1000 ** (-0.2)
        assert mt.kde_density(samples).bandwidth == pytest.approx(expected)

    # The block boundaries are drawn at two budgets: the module's own, and
    # one that puts a single grid row in each block of 256 samples.
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(budget=st.sampled_from([mt.KDE_BLOCK_FLOATS, 256]),
           n=st.sampled_from([2, 255, 256, 257, 25_600]),
           grid_len=st.sampled_from([1, 241, 257, None]),
           bandwidth=st.one_of(st.none(), st.floats(0.01, 2.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_sum_matches_one_shot_oracle(self, budget, n, grid_len, bandwidth, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.01, 1.0), n)
        grid = None if grid_len is None else np.linspace(-1.2, 1.2, grid_len)
        want_grid, want_density, want_bw = kde_oracle(samples, grid, bandwidth)
        with mock.patch.object(mt, "KDE_BLOCK_FLOATS", budget):
            est = mt.kde_density(samples, grid, bandwidth)
        assert np.array_equal(est.grid, want_grid)
        assert np.array_equal(est.density, want_density)
        assert est.bandwidth == want_bw

    def test_memory_is_linear_in_samples(self):
        """The report's pooled weight density: at 25,600 samples on its
        241-point grid the one-shot sum peaked at 141 MB."""
        samples = np.random.default_rng(7).normal(0.0, 0.3, 25_600)
        grid = np.linspace(-1.2, 1.2, 241)
        tracemalloc.start()
        try:
            mt.kde_density(samples, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def kde_oracle(samples, grid=None, bandwidth=None):
    """The Gaussian KDE as one (grid, samples) matrix expression, with
    Scott's bandwidth; returns (grid, density, bandwidth)."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if bandwidth is None:
        bandwidth = float(samples.std(ddof=1) * len(samples) ** (-1 / 5))
    if grid is None:
        grid = np.linspace(samples.min() - 3 * bandwidth, samples.max() + 3 * bandwidth, 256)
    grid = np.asarray(grid, dtype=np.float64)
    z = (grid[:, None] - samples[None, :]) / bandwidth
    density = np.exp(-0.5 * z**2).sum(axis=1) / (len(samples) * bandwidth * np.sqrt(2 * np.pi))
    return grid, density, bandwidth


def synthetic_outputs(seed=0, m=40, n=25):
    rng = np.random.default_rng(seed)
    probs1 = rng.uniform(0.05, 0.95, m)
    class_probs = np.stack([1 - probs1, probs1], axis=1)
    votes = (rng.uniform(size=(n, m)) < probs1[None, :]).astype(np.int64)
    labels = rng.integers(0, 2, m)
    return class_probs, votes, labels


class TestEvalReport:
    def test_replay_is_bit_exact(self):
        class_probs, votes, labels = synthetic_outputs()
        a = mt.build_eval_report(class_probs, votes, labels)
        b = mt.build_eval_report(class_probs.copy(), votes.copy(), labels.copy())
        assert a == b

    def test_member_order_invariance(self):
        class_probs, votes, labels = synthetic_outputs(1)
        base = mt.build_eval_report(class_probs, votes, labels)
        shuffled = mt.build_eval_report(
            class_probs, votes[::-1].copy(), labels
        )
        assert base == shuffled

    def test_no_incorrect_flag(self):
        class_probs = np.array([[0.1, 0.9], [0.8, 0.2]])
        votes = np.array([[1, 0], [1, 0]])
        labels = np.array([1, 0])
        report = mt.build_eval_report(class_probs, votes, labels)
        assert report.no_incorrect_samples
        assert report.difference == report.mean_confidence_correct * report.ensemble_fraction_correct

    def test_difference_consistency(self):
        class_probs, votes, labels = synthetic_outputs(2)
        r = mt.build_eval_report(class_probs, votes, labels)
        expected = mt.difference_metric(
            r.mean_confidence_correct, r.ensemble_fraction_correct,
            r.mean_confidence_incorrect, r.ensemble_fraction_incorrect,
        )
        assert r.difference == pytest.approx(expected)

    def test_subset_confidence_errors_subtract_overall_accuracy(self):
        class_probs, votes, labels = synthetic_outputs(3)
        report = mt.build_eval_report(class_probs, votes, labels)
        assert report.confidence_error_correct == pytest.approx(
            report.mean_confidence_correct - report.accuracy
        )
        assert report.confidence_error_incorrect == pytest.approx(
            report.mean_confidence_incorrect - report.accuracy
        )

    def test_bin_counts_sum_to_samples(self):
        class_probs, votes, labels = synthetic_outputs(4)
        report = mt.build_eval_report(class_probs, votes, labels)
        assert sum(b.count for b in report.calibration_bins) == len(labels)

    def test_calibration_bin_names_stay_distinct_up_to_the_cap(self):
        class_probs, votes, labels = synthetic_outputs(6)
        report = mt.build_eval_report(class_probs, votes, labels, n_bins=100)
        names = {m for m, _, _ in mt.report_rows(report) if m.startswith("calibration_bin_")}
        assert len(names) == 100
        with pytest.raises(ValueError, match="at most 100 bins"):
            mt.build_eval_report(class_probs, votes, labels, n_bins=101)

    def test_subset_statistics_come_from_the_metric_helpers(self):
        class_probs, votes, labels = synthetic_outputs(7)
        report = mt.build_eval_report(class_probs, votes, labels)
        predicted = class_probs.argmax(axis=1)
        for mask, subset in ((predicted == labels, "correct"), (predicted != labels, "incorrect")):
            assert getattr(report, f"ensemble_fraction_{subset}") == \
                mt.ensemble_fraction(votes[:, mask], predicted[mask])
            assert getattr(report, f"confidence_error_{subset}") == mt.confidence_error(
                getattr(report, f"mean_confidence_{subset}"), report.accuracy)

    def test_report_rows_follow_the_fields(self):
        """The CSV layout: the report's fields in order, a ``_correct`` or
        ``_incorrect`` suffix naming the subset, a bool as an int, then
        three rows per calibration bin."""
        class_probs = np.array([[0.1, 0.9], [0.8, 0.2]])
        report = mt.build_eval_report(class_probs, np.array([[1, 0], [1, 1]]),
                                      np.array([1, 0]), n_bins=2)
        rows = mt.report_rows(report)
        assert [(m, s) for m, s, _ in rows] == [
            ("n_samples", "all"), ("n_members", "all"), ("accuracy", "all"),
            ("precision", "all"), ("recall", "all"), ("f1", "all"),
            ("mean_confidence", "all"), ("confidence_error", "all"),
            ("mean_confidence", "correct"), ("mean_confidence", "incorrect"),
            ("confidence_error", "correct"), ("confidence_error", "incorrect"),
            ("ensemble_fraction", "correct"), ("ensemble_fraction", "incorrect"),
            ("difference", "all"), ("no_incorrect_samples", "all"),
            ("calibration_bin_0.00_0.50", "count"), ("calibration_bin_0.00_0.50", "confidence"),
            ("calibration_bin_0.00_0.50", "accuracy"), ("calibration_bin_0.50_1.00", "count"),
            ("calibration_bin_0.50_1.00", "confidence"), ("calibration_bin_0.50_1.00", "accuracy"),
        ]
        values = dict(((m, s), v) for m, s, v in rows)
        assert values["no_incorrect_samples", "all"] == 1
        assert type(values["no_incorrect_samples", "all"]) is int
        assert values["ensemble_fraction", "correct"] == 0.75
        assert values["mean_confidence", "incorrect"] is None
        assert values["calibration_bin_0.00_0.50", "confidence"] is None

    def test_report_rows_cover_headline_metrics(self):
        class_probs, votes, labels = synthetic_outputs(5)
        rows = mt.report_rows(mt.build_eval_report(class_probs, votes, labels))
        metrics = {r[0] for r in rows}
        assert {"accuracy", "precision", "recall", "f1", "difference"} <= metrics
