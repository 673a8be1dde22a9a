"""Train the hybrid model end to end on the synthetic ultrasound stand-in.

A quantum sampler (circuit_iii) draws the convolution weights, the
discriminator keeps the weight distribution honest against the uniform
prior, and the classifier head is trained jointly.  Finishes with the
full uncertainty report on the held-out test split.

Takes a second or two on one core.
"""

import numpy as np

from qcbnn.circuits import Architecture
from qcbnn.data import SynthSpec, split, synth_generate
from qcbnn.metrics import build_eval_report
from qcbnn.training import TrainConfig, build_model, ensemble_outputs, train_model

dataset = split(synth_generate(SynthSpec(n_samples=250, imbalance=0.27, seed=7)),
                (0.8, 0.2), seed=7)
train_set, test_set = dataset.subset("train"), dataset.subset("test")
print(f"train {len(train_set)} / test {len(test_set)}, "
      f"positive fraction {train_set.labels.mean():.2f}")

config = TrainConfig(epochs=25, seed=1, sampler="quantum",
                     arch=Architecture.CIRCUIT_III)
model = build_model(config, train_set.images.shape[1:])
history = train_model(model, train_set.images, train_set.labels, progress=True)

probs, votes = ensemble_outputs(model, test_set.images, config.n_ensemble,
                                ("eval-test",))
report = build_eval_report(probs, votes, test_set.labels)
print(f"\ntest accuracy {report.accuracy:.3f}  precision {report.precision}  "
      f"recall {report.recall}  f1 {report.f1}")
print(f"mean confidence: correct {report.mean_confidence_correct:.3f}, "
      f"incorrect {report.mean_confidence_incorrect}")
print(f"ensemble agreement: correct {report.ensemble_fraction_correct:.3f}, "
      f"incorrect {report.ensemble_fraction_incorrect}")
print(f"confidence difference (ensemble weighted): {report.difference:.3f}")

occupied = [b for b in report.calibration_bins if b.count]
print("\ncalibration bins (confidence -> accuracy):")
for b in occupied:
    print(f"  [{b.low:.1f}, {b.high:.1f}): {b.mean_confidence:.3f} -> "
          f"{b.accuracy:.3f}  (n={b.count})")
