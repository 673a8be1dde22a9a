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
