"""Time ``experiment.dump_weight_samples`` for each sampler at two draw counts.

Usage, from the repository root::

    PYTHONPATH=src python tools/dump_timing.py [--rounds 20] [--draws 100 1000]

The script builds a default quantum, classical and plain-VI model for the
28x28 synthetic images and times one weight-sample dump of each at each
draw count: 100 is what every sweep cell writes, 1000 is one dump of the
benchmark's evaluate-checkpoints workload.  Each model dumps once before
timing, so the quantum circuit's lazy compile is outside the timed region.
Each round times every (sampler, draws) case once, the order reversed on
every other round, so a slow spell on the host falls on every case alike.
The table gives the median and the quartiles over rounds, in milliseconds
per dump.  A dump draws its weights and formats them, so the figures size a
change to either without running the whole benchmark.  BLAS runs on one
thread, as in the benchmark.  Standard library and numpy only; it is not
part of the test suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import statistics
import tempfile
import time

import numpy as np

from qcbnn.data import SynthSpec
from qcbnn.experiment import dump_weight_samples
from qcbnn.training import TrainConfig, build_model

SAMPLERS = ("quantum", "classical", "vi")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--draws", type=int, nargs="+", default=[100, 1000])
    args = parser.parse_args()
    if args.rounds < 2 or min(args.draws) < 1:
        parser.error("--rounds must be at least 2 and every --draws count positive")

    spec = SynthSpec()
    models = {name: build_model(TrainConfig(sampler=name), (spec.height, spec.width))
              for name in SAMPLERS}
    cases = [(name, draws) for name in SAMPLERS for draws in args.draws]
    times = {case: [] for case in cases}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weight_samples.csv")
        for name, model in models.items():
            dump_weight_samples(model, 1, path)  # compiles the circuit, warms the caches
        for r in range(args.rounds):
            for name, draws in (cases if r % 2 == 0 else cases[::-1]):
                t0 = time.perf_counter()
                dump_weight_samples(models[name], draws, path)
                times[name, draws].append((time.perf_counter() - t0) * 1e3)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, 1 BLAS thread; "
          f"{args.rounds} rounds")
    print("sampler     draws   median ms   quartiles ms")
    for name, draws in cases:
        q1, med, q3 = statistics.quantiles(times[name, draws], n=4, method="inclusive")
        print(f"{name:10s}  {draws:5d}   {med:9.2f}   {q1:.2f}-{q3:.2f}")


if __name__ == "__main__":
    main()
