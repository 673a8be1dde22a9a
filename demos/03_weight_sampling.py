"""Stochastic convolution weights from the three weight generators.

The quantum, classical and plain-VI generators share one contract: a
noise law, and ``expectations(noise)`` mapping noise rows to chunks of 4
values.  A draw is 16 chunks, reshaped into the 16 2x2 convolution
kernels; many draws are one noise block and one generator call.  A
quick pooled-density comparison shows how architecture choice shapes
the weight distribution even before training.
"""

import numpy as np

from qcbnn.circuits import Architecture, assemble_pqc
from qcbnn.metrics import kde_density
from qcbnn.samplers import (
    N_CHUNKS,
    ClassicalWeightSampler,
    GaussianPosterior,
    QuantumWeightSampler,
    WeightSample,
    sample_noise_block,
)
from qcbnn.seeding import stream

rng = stream(7, "demo")


def draw(sampler, draws=1):
    """(draws * 16, 4) chunk rows and the noise that produced them."""
    noise = sample_noise_block(rng, sampler.noise_law, draws * N_CHUNKS)
    return sampler.expectations(noise), noise


def show(name, sampler, draws=200):
    pooled = draw(sampler, draws)[0].reshape(-1)
    grid = np.linspace(-1.1, 1.1, 45)
    density = kde_density(pooled, grid).density
    bar = "".join(" .:-=+*#%@"[min(int(d * 4), 9)] for d in density)
    print(f"{name:12s} std {pooled.std():.3f} |{bar}|")


for arch in (Architecture.MATIC_I, Architecture.CIRCUIT_III):
    template = assemble_pqc(arch, 4)
    theta = stream(7, "theta", arch.value).uniform(0, 2 * np.pi, template.param_slots)
    show(arch.value, QuantumWeightSampler(template, theta))

classical = ClassicalWeightSampler(stream(7, "gen"))
show("classical", classical)
show("vi", GaussianPosterior(stream(7, "vi")))

ws = WeightSample(*draw(classical))
print("\none draw: chunks", ws.chunks.shape, "-> kernels", ws.kernels.shape,
      "noise", ws.noise.shape)
print("first kernel:\n", np.round(ws.kernels[0], 4))
