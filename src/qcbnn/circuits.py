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

from .statevector import CircuitTemplate, Gate


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
    if pairs == "all":
        pair_list = [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    elif pairs == "adjacent":
        pair_list = [(i, i + 1) for i in range(n_qubits - 1)]
    else:
        raise ValueError(f"unknown pair topology {pairs!r}")
    gates = [Gate("H", (q,)) for q in range(n_qubits)]
    gates += [Gate("RZ", (q,), (("enc1", q),)) for q in range(n_qubits)]
    for i, j in pair_list:
        gates.append(Gate("CNOT", (i, j)))
        gates.append(Gate("RZ", (j,), (("enc2", i, j),)))
        gates.append(Gate("CNOT", (i, j)))
    return tuple(gates)


def _ring(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _rot_layer(kind: str, n: int, offset: int) -> tuple[list[Gate], int]:
    """One rotation per wire; returns gates and the number of slots used."""
    per = 3 if kind == "U3" else 1
    gates = [
        Gate(kind, (q,), tuple(("p", offset + per * q + a) for a in range(per)))
        for q in range(n)
    ]
    return gates, per * n


def build_calculation_layer(
    arch: Architecture, n_qubits: int, param_offset: int = 0, cr_axis: str = "X"
) -> tuple[tuple[Gate, ...], int]:
    """Gate list of one calculation layer and its trainable-slot count.

    Trainable slots are numbered from ``param_offset`` so layers can be
    stacked with independent parameters.
    """
    if n_qubits < 2:
        raise ValueError("calculation layer needs at least 2 qubits")
    cr = "CR" + cr_axis.upper()
    if cr not in ("CRX", "CRY", "CRZ"):
        raise ValueError(f"unsupported controlled-rotation axis {cr_axis!r}")
    k = param_offset
    if arch is Architecture.MATIC_I:
        gates, used = _rot_layer("RX", n_qubits, k)
        gates += [Gate("CNOT", pair) for pair in _ring(n_qubits)]
    elif arch is Architecture.MATIC_II:
        gates, used = _rot_layer("U3", n_qubits, k)
        gates += [Gate("CNOT", pair) for pair in _ring(n_qubits)]
    elif arch is Architecture.NIKOLOSKA:
        rx, used_rx = _rot_layer("RX", n_qubits, k)
        ph, used_ph = _rot_layer("PHASE", n_qubits, k + used_rx)
        gates, used = rx + ph, used_rx + used_ph
        gates += [Gate("CNOT", pair) for pair in _chain(n_qubits)]
    elif arch is Architecture.ROMERO:
        gates, used = _rot_layer("RY", n_qubits, k)
        gates += [Gate("CNOT", pair) for pair in _chain(n_qubits)]
    elif arch is Architecture.CIRCUIT_I:
        gates, used = _rot_layer("U3", n_qubits, k)
        gates += [Gate("CNOT", pair) for pair in _chain(n_qubits)]
    elif arch is Architecture.CIRCUIT_II:
        gates, used = _rot_layer("U3", n_qubits, k)
        for pair in _chain(n_qubits):
            gates.append(Gate(cr, pair, (("p", k + used),)))
            used += 1
    elif arch is Architecture.CIRCUIT_III:
        gates, used = _rot_layer("RY", n_qubits, k)
        for pair in _chain(n_qubits):
            gates.append(Gate(cr, pair, (("p", k + used),)))
            used += 1
    elif arch is Architecture.CIRCUIT_IV:
        gates, used = _rot_layer("RY", n_qubits, k)
        for pair in _chain(n_qubits) + [(0, n_qubits - 1)]:
            gates.append(Gate(cr, pair, (("p", k + used),)))
            used += 1
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return tuple(gates), used


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
    tag = f"{arch.value}_L{layers}" + ("re" if reupload else "")
    return CircuitTemplate(
        n_qubits=n_qubits,
        gates=tuple(gates),
        param_slots=offset,
        input_slots=n_qubits,
        layers=layers,
        reupload=reupload,
        name=tag,
    )


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
