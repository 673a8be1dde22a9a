"""Dense statevector simulation of few-qubit circuits.

Conventions, fixed across the package:

* Qubit 0 is the most significant bit of the computational-basis index,
  so |q0 q1 .. q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
* Angles are radians; amplitudes are complex128 (gradient tolerances
  demand double precision).
* Every operation is pure: states are never mutated in place, identical
  inputs give bit-identical outputs, and no function touches global state.

Circuit templates carry symbolic angle references that are resolved
against a trainable-parameter vector and a noise-input vector at run
time.  Supported reference forms::

    ("p", k)         params[k]                    trainable slot
    ("enc1", i)      2 * inputs[i]                single-feature encoding
    ("enc2", i, j)   2 * (pi - z_i) * (pi - z_j)  pairwise feature encoding
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_QUBITS = 12

# kind -> (number of target wires, number of angles)
GATE_SIGNATURES = {
    "H": (1, 0),
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "PHASE": (1, 1),
    "U3": (1, 3),
    "CNOT": (2, 0),
    "CRX": (2, 1),
    "CRY": (2, 1),
    "CRZ": (2, 1),
    "ZZ": (2, 1),
}

_ANGLE_REF_TAGS = {"p": 1, "enc1": 1, "enc2": 2}


@dataclass(frozen=True)
class Gate:
    """One circuit element: a gate kind, its target wires and angle refs."""

    kind: str
    targets: tuple[int, ...]
    angles: tuple[tuple, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_SIGNATURES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_targets, n_angles = GATE_SIGNATURES[self.kind]
        if len(self.targets) != n_targets:
            raise ValueError(
                f"{self.kind} takes {n_targets} target(s), got {len(self.targets)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct: {self.targets}")
        if len(self.angles) != n_angles:
            raise ValueError(
                f"{self.kind} takes {n_angles} angle(s), got {len(self.angles)}"
            )
        for ref in self.angles:
            tag = ref[0]
            if tag not in _ANGLE_REF_TAGS or len(ref) != 1 + _ANGLE_REF_TAGS[tag]:
                raise ValueError(f"malformed angle reference {ref!r}")


@dataclass(frozen=True)
class CircuitTemplate:
    """Ordered gate list with symbolic trainable/input angle slots.

    Each trainable slot must be referenced by exactly one gate (the
    parameter-shift rule differentiates a slot by shifting its single
    occurrence); input slots may be referenced any number of times.
    """

    n_qubits: int
    gates: tuple[Gate, ...]
    param_slots: int
    input_slots: int
    layers: int = 1
    reupload: bool = False
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError("qubit budget exceeded")
        seen_params: list[int] = []
        seen_inputs: set[int] = set()
        for gate in self.gates:
            for q in gate.targets:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate target {q} out of range")
            for ref in gate.angles:
                if ref[0] == "p":
                    seen_params.append(ref[1])
                else:
                    seen_inputs.update(ref[1:])
        if sorted(seen_params) != list(range(self.param_slots)):
            raise ValueError(
                "trainable slots must each be referenced exactly once, "
                f"expected 0..{self.param_slots - 1}, saw {sorted(seen_params)}"
            )
        if seen_inputs and not seen_inputs <= set(range(self.input_slots)):
            raise ValueError(f"input reference out of range: {sorted(seen_inputs)}")

    @cached_property
    def shift_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Parameter-shift offsets and weights, both (R, param_slots).

        Row r shifts one trainable slot by the shift rule of the gate that
        holds it, so that for every output f,
        df/dtheta = sum_r weights[r] * f(theta + offsets[r]).
        """
        slot_kind = {ref[1]: gate.kind for gate in self.gates
                     for ref in gate.angles if ref[0] == "p"}
        terms = [(j, shift, weight) for j in range(self.param_slots)
                 for shift, weight in _shift_terms(slot_kind[j])]
        offsets = np.zeros((len(terms), self.param_slots))
        weights = np.zeros((len(terms), self.param_slots))
        for r, (j, shift, weight) in enumerate(terms):
            offsets[r, j] = shift
            weights[r, j] = weight
        return offsets, weights


class StateVector:
    """An n-qubit pure state as a dense complex amplitude array."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (2**n_qubits,):
            raise ValueError(
                f"expected {2**n_qubits} amplitudes, got {amplitudes.shape}"
            )
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def __repr__(self):
        return f"StateVector(n_qubits={self.n_qubits})"


def init_state(n_qubits: int) -> StateVector:
    """Computational basis state |0...0> on ``n_qubits`` wires."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError("qubit budget exceeded")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(int(n_qubits), amps)


# --- gate matrices (batched over a leading axis of angle values) -----------

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def _rx(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = c
    m[..., 0, 1] = -1j * s
    m[..., 1, 0] = -1j * s
    m[..., 1, 1] = c
    return m


def _ry(theta: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def _rz(theta: np.ndarray) -> np.ndarray:
    m = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = np.exp(-1j * theta / 2)
    m[..., 1, 1] = np.exp(1j * theta / 2)
    return m


def _phase(theta: np.ndarray) -> np.ndarray:
    m = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = np.exp(1j * theta)
    return m


def _u3(theta: np.ndarray, phi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = c
    m[..., 0, 1] = -np.exp(1j * lam) * s
    m[..., 1, 0] = np.exp(1j * phi) * s
    m[..., 1, 1] = np.exp(1j * (phi + lam)) * c
    return m


def _controlled(sub: np.ndarray) -> np.ndarray:
    """Block-diagonal lift of a batch of 2x2 matrices to control+target."""
    m = np.zeros(sub.shape[:-2] + (4, 4), dtype=np.complex128)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0
    m[..., 2:, 2:] = sub
    return m


def _zz(theta: np.ndarray) -> np.ndarray:
    m = np.zeros(theta.shape + (4, 4), dtype=np.complex128)
    minus, plus = np.exp(-1j * theta / 2), np.exp(1j * theta / 2)
    m[..., 0, 0] = minus
    m[..., 1, 1] = plus
    m[..., 2, 2] = plus
    m[..., 3, 3] = minus
    return m


def gate_matrix(kind: str, angles: np.ndarray) -> np.ndarray:
    """Unitary for ``kind`` as a (..., d, d) array batched over angle rows.

    ``angles`` has shape (..., n_angles); d is 2 for single-qubit kinds and
    4 for two-qubit kinds with basis order (control, target).
    """
    angles = np.asarray(angles, dtype=np.float64)
    if kind == "H":
        return np.broadcast_to(_H_MATRIX, angles.shape[:-1] + (2, 2))
    if kind == "CNOT":
        return np.broadcast_to(_CNOT_MATRIX, angles.shape[:-1] + (4, 4))
    if kind == "RX":
        return _rx(angles[..., 0])
    if kind == "RY":
        return _ry(angles[..., 0])
    if kind == "RZ":
        return _rz(angles[..., 0])
    if kind == "PHASE":
        return _phase(angles[..., 0])
    if kind == "U3":
        return _u3(angles[..., 0], angles[..., 1], angles[..., 2])
    if kind == "CRX":
        return _controlled(_rx(angles[..., 0]))
    if kind == "CRY":
        return _controlled(_ry(angles[..., 0]))
    if kind == "CRZ":
        return _controlled(_rz(angles[..., 0]))
    if kind == "ZZ":
        return _zz(angles[..., 0])
    raise ValueError(f"unknown gate kind {kind!r}")


# --- state updates ----------------------------------------------------------


def _apply_matrix(
    amps: np.ndarray, mat: np.ndarray, targets: tuple[int, ...], n: int
) -> np.ndarray:
    """Apply a (B,d,d) or (d,d) matrix on ``targets`` of (B,2^n) or (2^n,) amps."""
    batched = amps.ndim == 2
    lead = 1 if batched else 0
    t = amps.reshape(amps.shape[:lead] + (2,) * n)
    axes = tuple(lead + q for q in targets)
    dest = tuple(range(t.ndim - len(targets), t.ndim))
    t = np.moveaxis(t, axes, dest)
    head = t.shape[: t.ndim - len(targets)]
    d = 2 ** len(targets)
    t = t.reshape(head + (d,))
    if mat.ndim == 2:
        t = t @ mat.T
    else:
        t = np.einsum("bij,b...j->b...i", mat, t)
    t = t.reshape(head + (2,) * len(targets))
    t = np.moveaxis(t, dest, axes)
    return t.reshape(amps.shape)


def apply_gate(
    state: StateVector, gate: Gate, resolved_angles: list[float] | tuple | np.ndarray
) -> StateVector:
    """Return the state after applying ``gate`` with concrete angle values."""
    _, n_angles = GATE_SIGNATURES[gate.kind]
    angles = np.asarray(resolved_angles, dtype=np.float64)
    if angles.shape != (n_angles,):
        raise ValueError(
            f"{gate.kind} needs {n_angles} angle(s), got {angles.shape}"
        )
    for q in gate.targets:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"gate target {q} out of range")
    mat = gate_matrix(gate.kind, angles)
    return StateVector(
        state.n_qubits, _apply_matrix(state.amplitudes, mat, gate.targets, state.n_qubits)
    )


def born_probabilities(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amp_b|^2 over the computational basis."""
    return np.abs(state.amplitudes) ** 2


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z> on one wire: +1 weight for bit 0, -1 for bit 1."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    probs = born_probabilities(state).reshape((2,) * state.n_qubits)
    others = tuple(i for i in range(state.n_qubits) if i != qubit)
    marginal = probs.sum(axis=others)
    # clip float dust: the exact value lies in [-1, 1] by construction
    return float(np.clip(marginal[0] - marginal[1], -1.0, 1.0))


def _all_z_expectations(amps: np.ndarray, n: int) -> np.ndarray:
    """Per-qubit <Z> for (B, 2^n) amplitude rows; returns (B, n)."""
    probs = (np.abs(amps) ** 2).reshape((-1,) + (2,) * n)
    out = np.empty((probs.shape[0], n))
    for q in range(n):
        others = tuple(i + 1 for i in range(n) if i != q)
        marginal = probs.sum(axis=others)
        out[:, q] = marginal[:, 0] - marginal[:, 1]
    return np.clip(out, -1.0, 1.0)


# --- template execution -----------------------------------------------------


def resolve_angles(gate: Gate, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Concrete angle values for one gate; batched when params/inputs are 2-D."""
    cols = []
    for ref in gate.angles:
        tag = ref[0]
        if tag == "p":
            cols.append(params[..., ref[1]])
        elif tag == "enc1":
            cols.append(2.0 * inputs[..., ref[1]])
        else:  # enc2
            zi, zj = inputs[..., ref[1]], inputs[..., ref[2]]
            cols.append(2.0 * (math.pi - zi) * (math.pi - zj))
    return np.stack(cols, axis=-1) if cols else np.zeros(params.shape[:-1] + (0,))


def _check_slots(template: CircuitTemplate, params, inputs) -> tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if params.shape[-1:] != (template.param_slots,):
        raise ValueError(
            f"expected {template.param_slots} params, got {params.shape[-1:]}"
        )
    if inputs.shape[-1:] != (template.input_slots,):
        raise ValueError(
            f"expected {template.input_slots} inputs, got {inputs.shape[-1:]}"
        )
    return params, inputs


def run_circuit(template: CircuitTemplate, params, inputs) -> np.ndarray:
    """Execute the template on |0..0> and return per-qubit <Z>, shape (n,)."""
    params, inputs = _check_slots(template, params, inputs)
    if params.ndim != 1 or inputs.ndim != 1:
        raise ValueError("run_circuit takes single parameter/input vectors")
    state = init_state(template.n_qubits)
    for gate in template.gates:
        state = apply_gate(state, gate, resolve_angles(gate, params, inputs))
    return np.array(
        [expectation_z(state, q) for q in range(template.n_qubits)]
    )


def run_circuit_batch(template: CircuitTemplate, params, inputs) -> np.ndarray:
    """Vectorized execution over B rows of params/inputs; returns (B, n).

    Either argument may be a single vector, which is broadcast across the
    other's rows.  Row b of the result equals run_circuit on row b.
    """
    params, inputs = _check_slots(template, params, inputs)
    if params.ndim == 1:
        params = params[None, :]
    if inputs.ndim == 1:
        inputs = inputs[None, :]
    b = max(params.shape[0], inputs.shape[0])
    params = np.broadcast_to(params, (b, params.shape[1]))
    inputs = np.broadcast_to(inputs, (b, inputs.shape[1]))

    n = template.n_qubits
    amps = np.zeros((b, 2**n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for gate in template.gates:
        angles = resolve_angles(gate, params, inputs)
        mat = gate_matrix(gate.kind, angles)
        if gate.kind in ("H", "CNOT"):
            mat = mat[0] if mat.ndim == 3 else mat  # angle-free: one shared matrix
        amps = _apply_matrix(amps, mat, gate.targets, n)
    return _all_z_expectations(amps, n)


# --- parameter-shift gradients ----------------------------------------------

# Two-term kinds: generator eigenvalues +-1/2, shift pi/2, coefficient 1/2.
_TWO_TERM_KINDS = {"RX", "RY", "RZ", "PHASE", "U3", "ZZ"}
# Four-term kinds: generator eigenvalues {0, +-1/2}.
_FOUR_TERM_KINDS = {"CRX", "CRY", "CRZ"}

_C_PLUS = (math.sqrt(2) + 1) / (4 * math.sqrt(2))
_C_MINUS = (math.sqrt(2) - 1) / (4 * math.sqrt(2))


def _shift_terms(kind: str) -> list[tuple[float, float]]:
    """(shift, weight) pairs such that df/dt = sum_k w_k f(t + s_k)."""
    if kind in _TWO_TERM_KINDS:
        return [(math.pi / 2, 0.5), (-math.pi / 2, -0.5)]
    if kind in _FOUR_TERM_KINDS:
        return [
            (math.pi / 2, _C_PLUS),
            (-math.pi / 2, -_C_PLUS),
            (3 * math.pi / 2, -_C_MINUS),
            (-3 * math.pi / 2, _C_MINUS),
        ]
    raise ValueError(f"gate kind {kind!r} has no parameter-shift rule")


def parameter_shift_grad(template: CircuitTemplate, params, inputs) -> np.ndarray:
    """Analytic gradient of every <Z_q> w.r.t. every trainable angle.

    Returns a (n_qubits, param_slots) matrix with entry (q, j) equal to
    d<Z_q>/d theta_j, evaluated via exact shift rules.
    """
    params, inputs = _check_slots(template, params, inputs)
    if params.ndim != 1 or inputs.ndim != 1:
        raise ValueError("parameter_shift_grad takes single vectors")
    offsets, weights = template.shift_plan
    if not len(offsets):
        return np.zeros((template.n_qubits, 0))
    evals = run_circuit_batch(template, params + offsets, inputs)
    return np.einsum("rq,rp->qp", evals, weights)
