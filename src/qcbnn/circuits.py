"""Circuit gallery: the noise-embedding layer and eight calculation layers.

Each architecture is an embedding block (Hadamards, single-feature phase
rotations and pairwise feature interactions) followed by one or more
calculation layers.  The calculation layers differ in their rotation
freedom (RX only, RY only, or full U3) and entangling strategy (CNOT
ring, CNOT chain, or trainable controlled rotations).

Canonical single-layer contents on n wires:

=============  =======================  =========================  ======
architecture   rotations                entanglers                 params
=============  =======================  =========================  ======
matic_i        RX per wire              CNOT ring (n gates)        n
matic_ii       U3 per wire              CNOT ring                  3n
nikoloska      RX then PHASE per wire   CNOT chain (n-1 gates)     2n
romero         RY per wire              CNOT chain                 n
circuit_i      U3 per wire              CNOT chain                 3n
circuit_ii     U3 per wire              CR chain (trainable)       4n-1
circuit_iii    RY per wire              CR chain                   2n-1
circuit_iv     RY per wire              CR chain + CR(0, n-1)      2n
=============  =======================  =========================  ======

The controlled-rotation axis defaults to X and is configurable.
"""

from __future__ import annotations

import enum
import itertools

from .statevector import GATE_SIGNATURES, CircuitTemplate, Gate

# Accepted controlled-rotation axes and embedding pair topologies.
CR_AXES = ("X", "Y", "Z")
EMBEDDING_PAIRS = ("adjacent", "all")


class Architecture(enum.Enum):
    """The eight supported calculation-layer designs."""

    MATIC_I = "matic_i"
    MATIC_II = "matic_ii"
    NIKOLOSKA = "nikoloska"
    ROMERO = "romero"
    CIRCUIT_I = "circuit_i"
    CIRCUIT_II = "circuit_ii"
    CIRCUIT_III = "circuit_iii"
    CIRCUIT_IV = "circuit_iv"

    @classmethod
    def parse(cls, text: str) -> "Architecture":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ValueError(f"unknown architecture {text!r}; valid: {valid}") from None


# Per architecture, the table above: the rotation kinds laid on every wire
# in turn, the entangling gate ("CR" is the trainable controlled rotation on
# the configured axis) and its topology on n wires ("chain" couples
# (i, i+1), "ring" adds (n-1, 0), "chain+ends" adds (0, n-1)).
_CALCULATION_LAYERS = {
    Architecture.MATIC_I: (("RX",), "CNOT", "ring"),
    Architecture.MATIC_II: (("U3",), "CNOT", "ring"),
    Architecture.NIKOLOSKA: (("RX", "PHASE"), "CNOT", "chain"),
    Architecture.ROMERO: (("RY",), "CNOT", "chain"),
    Architecture.CIRCUIT_I: (("U3",), "CNOT", "chain"),
    Architecture.CIRCUIT_II: (("U3",), "CR", "chain"),
    Architecture.CIRCUIT_III: (("RY",), "CR", "chain"),
    Architecture.CIRCUIT_IV: (("RY",), "CR", "chain+ends"),
}


def build_embedding(n_qubits: int, pairs: str = "adjacent") -> tuple[Gate, ...]:
    """Higher-order noise embedding: H + RZ(2 z_i) + pairwise interactions.

    Each pair (i, j) contributes CNOT(i,j), RZ(2 (pi-z_i)(pi-z_j)) on j,
    CNOT(i,j).  ``pairs`` selects the interaction topology: "adjacent"
    couples neighbours (i, i+1) and is the default because the full
    pairwise form saturates entanglement on few qubits, flattening the
    architecture differences downstream; "all" couples every i < j.
    """
    if n_qubits < 2:
        raise ValueError("embedding needs at least 2 qubits")
    if pairs not in EMBEDDING_PAIRS:
        raise ValueError(f"unknown pair topology {pairs!r}")
    pair_list = [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)
                 if pairs == "all" or j == i + 1]
    gates = [Gate("H", (q,)) for q in range(n_qubits)]
    gates += [Gate("RZ", (q,), (("enc1", q),)) for q in range(n_qubits)]
    for i, j in pair_list:
        gates.append(Gate("CNOT", (i, j)))
        gates.append(Gate("RZ", (j,), (("enc2", i, j),)))
        gates.append(Gate("CNOT", (i, j)))
    return tuple(gates)


def build_calculation_layer(
    arch: Architecture, n_qubits: int, param_offset: int = 0, cr_axis: str = "X"
) -> tuple[tuple[Gate, ...], int]:
    """Gate list of one calculation layer and its trainable-slot count.

    Trainable slots are numbered from ``param_offset`` so layers can be
    stacked with independent parameters.
    """
    if n_qubits < 2:
        raise ValueError("calculation layer needs at least 2 qubits")
    if cr_axis.upper() not in CR_AXES:
        raise ValueError(f"unsupported controlled-rotation axis {cr_axis!r}")
    rotations, entangler, topology = _CALCULATION_LAYERS[arch]
    if entangler == "CR":
        entangler += cr_axis.upper()
    chain = [(i, i + 1) for i in range(n_qubits - 1)]
    pairs = chain + {"chain": [], "ring": [(n_qubits - 1, 0)],
                     "chain+ends": [(0, n_qubits - 1)]}[topology]
    slots = itertools.count(param_offset)

    def angles(kind: str) -> tuple:
        return tuple(("p", next(slots)) for _ in range(GATE_SIGNATURES[kind][1]))

    gates = [Gate(kind, (q,), angles(kind)) for kind in rotations for q in range(n_qubits)]
    gates += [Gate(entangler, pair, angles(entangler)) for pair in pairs]
    return tuple(gates), next(slots) - param_offset


def assemble_pqc(
    arch: Architecture,
    n_qubits: int,
    layers: int = 1,
    reupload: bool = False,
    pairs: str = "adjacent",
    cr_axis: str = "X",
) -> CircuitTemplate:
    """Full sampler circuit: embedding plus ``layers`` calculation layers.

    Without re-uploading, a single embedding is followed by the stacked
    calculation layers.  With re-uploading, every calculation layer is
    preceded by its own embedding block consuming the same noise inputs.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    embedding = build_embedding(n_qubits, pairs=pairs)
    gates: list[Gate] = []
    offset = 0
    for layer in range(layers):
        if layer == 0 or reupload:
            gates.extend(embedding)
        calc, used = build_calculation_layer(arch, n_qubits, offset, cr_axis)
        gates.extend(calc)
        offset += used
    return CircuitTemplate(
        n_qubits=n_qubits,
        gates=tuple(gates),
        param_slots=offset,
        input_slots=n_qubits,
        name=pqc_label(arch, layers, reupload),
    )


def pqc_label(arch: Architecture, layers: int, reupload: bool) -> str:
    """Name of a sampler circuit, and of its sweep cell: ``circuit_iii_L2re``
    is circuit_iii with two calculation layers and re-uploading."""
    return f"{arch.value}_L{layers}" + ("re" if reupload else "")


def _format_ref(ref: tuple) -> str:
    tag = ref[0]
    if tag == "p":
        return f"t{ref[1]}"
    if tag == "enc1":
        return f"z{ref[1]}"
    return f"zz({ref[1]},{ref[2]})"


def format_template(template: CircuitTemplate) -> str:
    """Textual dump, one gate per line: KIND targets angle-refs."""
    lines = []
    for gate in template.gates:
        parts = [gate.kind] + [str(q) for q in gate.targets]
        parts += [_format_ref(ref) for ref in gate.angles]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
