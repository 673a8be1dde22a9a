"""The eight sampler architectures and their depth variants.

Prints the trainable-parameter budget of every calculation layer, shows
the textual dump of one template, and assembles the deeper re-uploading
variants.
"""

import numpy as np

from qcbnn.circuits import Architecture, assemble_pqc, format_template
from qcbnn.statevector import run_circuit

print(f"{'architecture':14s} {'params':>6s} {'gates':>6s}")
for arch in Architecture:
    template = assemble_pqc(arch, 4)
    print(f"{arch.value:14s} {template.param_slots:6d} {len(template.gates):6d}")

print("\ncircuit_iii, one layer, adjacent-pair embedding:")
print(format_template(assemble_pqc(Architecture.CIRCUIT_III, 4)))

for layers, reupload, name in ((1, False, "L1"), (2, False, "L2"), (2, True, "L2 Re")):
    template = assemble_pqc(Architecture.CIRCUIT_III, 4, layers, reupload)
    print(f"{name}: {template.param_slots} trainable angles, "
          f"{sum(g.kind == 'H' for g in template.gates) // 4} embedding block(s)")

# every template executes on |0000> and lands in [-1, 1]^4
rng = np.random.default_rng(0)
template = assemble_pqc(Architecture.ROMERO, 4)
out = run_circuit(template,
                  rng.uniform(0, 2 * np.pi, template.param_slots),
                  rng.uniform(0, 2 * np.pi, template.input_slots))
print("romero sample output:", np.round(out, 4))
