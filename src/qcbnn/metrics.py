"""Predictive and uncertainty metrics for ensemble classifiers.

Covers the headline scores (accuracy, precision, recall, F1), the
confidence-error and ensemble-fraction statistics split by correct and
incorrect predictions, equal-width calibration curves, the ensemble
weighted confidence difference, and Gaussian kernel density estimates of
pooled weight samples.

Everything here is a pure function of logged evaluation outputs, so a
report can be rebuilt bit-exactly from recorded predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass(frozen=True)
class Scores:
    """Confusion-matrix summary; entries are None when the defining ratio
    has a zero denominator (e.g. precision with no positive predictions)."""

    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


def classification_scores(predictions, labels) -> Scores:
    """Binary scores with class 1 as the positive class."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1 or len(labels) == 0:
        raise ValueError("predictions and labels must be equal-length 1-D arrays")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    accuracy = float(np.mean(predictions == labels))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return Scores(accuracy, precision, recall, f1)


def confidence_error(mean_confidence: float, accuracy: float) -> float:
    """Mean confidence minus accuracy; negative values mean underconfidence."""
    if not (0.0 <= mean_confidence <= 1.0 and 0.0 <= accuracy <= 1.0):
        raise ValueError("confidence and accuracy must lie in [0, 1]")
    return mean_confidence - accuracy


def ensemble_fraction(votes, final) -> float:
    """Share of ensemble members whose argmax matches the final prediction;
    for (M, N) votes of N images, the mean of the N images' shares (the
    flat mean of all M * N matches can differ from it in the last bit)."""
    votes = np.asarray(votes)
    if votes.size == 0:
        raise ValueError("votes must be non-empty")
    return float(np.mean(np.mean(votes == final, axis=0)))


def difference_metric(conf_correct, frac_correct, conf_incorrect, frac_incorrect) -> float:
    """Ensemble-weighted confidence gap between correct and incorrect sets.

    The incorrect-side product is defined as 0 when that subset is empty
    (pass None for its statistics); callers should flag that case.
    """
    correct_term = conf_correct * frac_correct
    if conf_incorrect is None or frac_incorrect is None:
        return correct_term
    return correct_term - conf_incorrect * frac_incorrect


@dataclass(frozen=True)
class CalibrationBin:
    low: float
    high: float
    count: int
    mean_confidence: float | None  # None flags an empty bin
    accuracy: float | None


# Report rows name a bin by its edges at two decimals; up to 100 bins the
# edges are at least 0.01 apart, so every name is distinct.
MAX_CALIBRATION_BINS = 100


def calibration_curve(confidences, correctness, n_bins: int = 10) -> list[CalibrationBin]:
    """Equal-width reliability bins over predicted-class confidence.

    Bins are half-open [low, high) with the top bin closed at 1.0.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    if n_bins > MAX_CALIBRATION_BINS:
        raise ValueError(f"at most {MAX_CALIBRATION_BINS} bins, got {n_bins}")
    # written so that a NaN, whose comparisons are all false, fails too
    if confidences.size and not (confidences.min() >= 0 and confidences.max() <= 1):
        raise ValueError("confidences must lie in [0, 1]")
    idx = np.minimum((confidences * n_bins).astype(np.int64), n_bins - 1)
    bins = []
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        bins.append(
            CalibrationBin(
                low=b / n_bins,
                high=(b + 1) / n_bins,
                count=count,
                mean_confidence=float(confidences[mask].mean()) if count else None,
                accuracy=float(correctness[mask].mean()) if count else None,
            )
        )
    return bins


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be non-empty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


# --- kernel density -------------------------------------------------------------


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    point_mass: bool = False
    location: float | None = None


# Grid rows per block of the kernel sum are chosen so that the block's
# (rows, N) kernel values hold about this many floats (512 kB).
KDE_BLOCK_FLOATS = 1 << 16


def kde_density(samples, grid=None, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian-kernel density of 1-D samples on ``grid``.

    The bandwidth defaults to Scott's rule, the sample standard deviation
    times n^(-1/5), and the default grid spans the samples plus three
    bandwidths of margin.  Zero-variance inputs cannot be smoothed and
    come back flagged as a point mass at their common value, with an
    all-zero density.

    The kernel sum runs over blocks of grid rows in one reused buffer, so
    memory is linear in the sample count; each row gets the same
    elementwise steps and the same pairwise sum as the whole
    (grid, samples) matrix would.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples")
    std = samples.std(ddof=1)
    if std == 0.0:
        location = float(samples[0])
        grid = np.asarray(grid) if grid is not None else np.array([location])
        return DensityEstimate(grid, np.zeros_like(grid, dtype=np.float64), 0.0,
                               point_mass=True, location=location)
    bw = bandwidth if bandwidth is not None else float(std * n ** (-1 / 5))
    if grid is None:
        grid = np.linspace(samples.min() - 3 * bw, samples.max() + 3 * bw, 256)
    grid = np.asarray(grid, dtype=np.float64)
    density = np.empty(len(grid))
    rows = max(1, KDE_BLOCK_FLOATS // n)
    buf = np.empty((min(rows, len(grid)), n))
    for start in range(0, len(grid), rows):
        grid_blk = grid[start : start + rows]
        z = buf[: len(grid_blk)]
        np.subtract(grid_blk[:, None], samples, out=z)
        z /= bw
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=density[start : start + rows])
    density /= n * bw * np.sqrt(2 * np.pi)
    return DensityEstimate(grid, density, bw)


# --- evaluation report ------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """All per-run test metrics, derived purely from logged predictions;
    the fields are the report CSV's rows, in order (see ``report_rows``)."""

    n_samples: int
    n_members: int
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    mean_confidence: float
    confidence_error: float
    mean_confidence_correct: float | None
    mean_confidence_incorrect: float | None
    confidence_error_correct: float | None
    confidence_error_incorrect: float | None
    ensemble_fraction_correct: float | None
    ensemble_fraction_incorrect: float | None
    difference: float
    no_incorrect_samples: bool
    calibration_bins: list[CalibrationBin] = field(repr=False)


def build_eval_report(class_probs, votes, labels, n_bins: int = 10) -> EvalReport:
    """Assemble the report from ensemble outputs.

    ``class_probs`` is (N, C) probabilities of N images averaged over M
    members, ``votes`` (M, N) per-member argmax classes, ``labels`` (N,).
    The per-subset confidence error subtracts the overall accuracy on both
    the correct and the incorrect subset.
    """
    class_probs = np.asarray(class_probs, dtype=np.float64)
    votes = np.asarray(votes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if class_probs.shape[0] != n or votes.shape[1] != n:
        raise ValueError("prediction, vote and label counts disagree")
    predicted = class_probs.argmax(axis=1)
    confidence = class_probs[np.arange(n), predicted]
    correct = predicted == labels

    scores = classification_scores(predicted, labels)
    accuracy = scores.accuracy

    def subset_stats(mask):
        if not mask.any():
            return None, None, None
        conf = float(confidence[mask].mean())
        return (conf, ensemble_fraction(votes[:, mask], predicted[mask]),
                confidence_error(conf, accuracy))

    conf_c, frac_c, err_c = subset_stats(correct)
    conf_i, frac_i, err_i = subset_stats(~correct)

    no_incorrect = conf_i is None
    return EvalReport(
        n_samples=n,
        n_members=votes.shape[0],
        accuracy=accuracy,
        precision=scores.precision,
        recall=scores.recall,
        f1=scores.f1,
        mean_confidence=float(confidence.mean()),
        confidence_error=confidence_error(float(confidence.mean()), accuracy),
        mean_confidence_correct=conf_c,
        mean_confidence_incorrect=conf_i,
        confidence_error_correct=err_c,
        confidence_error_incorrect=err_i,
        ensemble_fraction_correct=frac_c,
        ensemble_fraction_incorrect=frac_i,
        difference=difference_metric(conf_c or 0.0, frac_c or 0.0, conf_i, frac_i),
        no_incorrect_samples=no_incorrect,
        calibration_bins=calibration_curve(confidence, correct.astype(float), n_bins),
    )


def report_rows(report: EvalReport) -> list[tuple[str, str, object]]:
    """Flatten a report into (metric, subset, value) CSV rows: one per field
    in field order, a ``_correct`` or ``_incorrect`` suffix naming the subset
    (else ``all``) and a bool written as an int, then three per calibration bin."""
    rows: list[tuple[str, str, object]] = []
    for f in fields(report):
        if f.name == "calibration_bins":
            continue
        value = getattr(report, f.name)
        metric, _, subset = f.name.rpartition("_")
        if subset not in ("correct", "incorrect"):
            metric, subset = f.name, "all"
        rows.append((metric, subset, int(value) if isinstance(value, bool) else value))
    for b in report.calibration_bins:
        name = f"calibration_bin_{b.low:.2f}_{b.high:.2f}"
        rows += [(name, "count", b.count), (name, "confidence", b.mean_confidence),
                 (name, "accuracy", b.accuracy)]
    return rows
