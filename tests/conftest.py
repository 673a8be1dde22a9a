import os
import pathlib

import numpy as np
import pytest

from qcbnn import data as dio
from qcbnn.samplers import N_CHUNKS, WeightSample, sample_noise_block
from qcbnn.statevector import run_circuit

# pytest's ``pythonpath`` setting reaches only this process; subprocesses
# that import qcbnn from an uninstalled checkout find it through this.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def per_draw_samples(sampler, count, rng):
    """Oracle of ``draw_weight_samples``: ``count`` draws, each from its
    own ``N_CHUNKS``-row noise block and its own generator call."""
    out = []
    for _ in range(count):
        noise = sample_noise_block(rng, sampler.noise_law, N_CHUNKS)
        out.append(WeightSample(sampler.expectations(noise), noise))
    return out


def shift_rule_oracle(template, params, inputs) -> np.ndarray:
    """Oracle of ``parameter_shift_grad`` and ``adjoint_vjp`` on one input
    vector, (n, P): the gate-by-gate ``run_circuit`` at every row
    ``params + offsets`` of the template's shift plan, contracted with the
    shift-rule weights."""
    grid = np.asarray(params, dtype=np.float64) + template.shift_plan[0]
    rows = np.reshape([run_circuit(template, row, inputs) for row in grid],
                      (-1, template.n_qubits))
    return np.einsum("rq,rp->qp", rows, template.shift_plan[1])


def finite_difference_grad(fn, x0: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar or vector function of x."""
    x0 = np.asarray(x0, dtype=np.float64)
    probe = np.asarray(fn(x0))
    grad = np.zeros(probe.shape + x0.shape)
    for j in np.ndindex(*x0.shape):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        grad[(...,) + j] = (np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2 * h)
    return grad


@pytest.fixture(scope="session")
def synth_split():
    """The desk-scale 200/50 dataset used across training tests."""
    dataset = dio.synth_generate(dio.SynthSpec(n_samples=250, imbalance=0.27, seed=7))
    tagged = dio.split(dataset, (0.8, 0.2), seed=7)
    return tagged.subset("train"), tagged.subset("test")


@pytest.fixture(scope="session")
def tiny_split():
    """A very small split for fast CLI and loop tests."""
    dataset = dio.synth_generate(dio.SynthSpec(n_samples=40, imbalance=0.3, seed=3))
    tagged = dio.split(dataset, (0.7, 0.3), seed=3)
    return tagged.subset("train"), tagged.subset("test")


def write_report_results(root: pathlib.Path) -> pathlib.Path:
    """A finished sweep written by hand, no training: labels ``alpha`` and
    ``beta`` with seeds 0-2, validation rows for ``alpha`` only, a
    correct-subset confidence error that ``beta`` shares across its seeds
    (a point mass), an empty calibration bin, and weight dumps."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "summary.csv").write_text("label\n")  # a file beside the labels
    for k, label in enumerate(("alpha", "beta")):
        for seed in range(3):
            run = root / label / f"seed{seed}"
            run.mkdir(parents=True)
            lines = ["epoch,split,likelihood,kl,disc,combined,accuracy"]
            for epoch in range(3):
                acc = 0.5 + 0.1 * epoch + 0.03 * seed - 0.05 * k
                lines.append(f"{epoch},train,{1.5 - 0.25 * epoch!r},{0.125 * seed!r},"
                             f"1.375,{2.0 - 0.25 * epoch!r},{acc!r}")
                if label == "alpha":
                    lines.append(f"{epoch},validation,,,,,{acc - 0.02 * (seed + 1)!r}")
            (run / "epochs.csv").write_text("\n".join(lines) + "\n")
            acc = 0.75 + 0.05 * seed - 0.1 * k
            err_correct = 0.125 if label == "beta" else 0.1 + 0.02 * seed
            rows = [
                ("n_samples", "all", "50"), ("accuracy", "all", repr(acc)),
                ("f1", "all", "" if label == "beta" else repr(acc - 0.1)),
                ("confidence_error", "correct", repr(err_correct)),
                ("confidence_error", "incorrect", repr(0.3 + 0.04 * seed + 0.01 * k)),
                ("ensemble_fraction", "correct", repr(0.9 - 0.01 * seed)),
                ("ensemble_fraction", "incorrect", repr(0.6 + 0.05 * seed * seed)),
                ("difference", "all", repr(0.2 - 0.03 * seed + 0.05 * k)),
            ]
            for low, conf, hit in ((0.5, 0.6, 0.55), (0.7, "", ""), (0.9, 0.95, 0.9)):
                name = f"calibration_bin_{low:.2f}_{low + 0.1:.2f}"
                shift = 0.01 * seed if conf != "" else 0.0
                rows += [(name, "count", "0" if conf == "" else "10"),
                         (name, "confidence", conf if conf == "" else repr(conf + shift)),
                         (name, "accuracy", hit if hit == "" else repr(hit - shift))]
            (run / "eval_test.csv").write_text(
                "metric,subset,value\n" + "".join(f"{m},{s},{v}\n" for m, s, v in rows))
            values = [((p * 4 + q) * 37 % 101) / 50.0 - 1.0 + 0.01 * seed + 0.1 * k
                      for p in range(8) for q in range(4)]
            (run / "weight_samples.csv").write_text(
                "pass_index,qubit,value\n"
                + "".join(f"{i // 4},{i % 4},{v!r}\n" for i, v in enumerate(values)))
    return root


@pytest.fixture
def report_results(tmp_path):
    """A hand-written results directory for report tests (see
    ``write_report_results``)."""
    return write_report_results(tmp_path / "results")
