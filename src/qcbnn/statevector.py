"""Dense statevector simulation of few-qubit circuits.

Conventions, fixed across the package:

* Qubit 0 is the most significant bit of the computational-basis index,
  so |q0 q1 .. q_{n-1}> lives at index q0*2^(n-1) + q1*2^(n-2) + ... + q_{n-1}.
* Angles are radians; amplitudes are complex128 (gradient tolerances
  demand double precision).
* Every operation is pure: states are never mutated in place (the
  executor updates only buffers it allocated itself), identical inputs
  give bit-identical outputs, and no function touches global state.  A
  compiled block keeps no state: running a template changes none of its
  blocks.  What a forward builds at one params vector rides on its
  ``Tape``; a block that reads no params is built once, when compiled.
* The executor's states are plain (B or 1, 2^n) arrays: one row per input
  row once an input-reading block has run, one shared row before that.

Circuit templates carry symbolic angle references that are resolved
against a trainable-parameter vector and a noise-input vector at run
time.  Supported reference forms::

    ("p", k)         params[k]                    trainable slot
    ("enc1", i)      2 * inputs[i]                single-feature encoding
    ("enc2", i, j)   2 * (pi - z_i) * (pi - z_j)  pairwise feature encoding

Each gate kind is one row of a private table: its target-wire count, one
family per angle and its matrix.  A family says how its angle enters the
matrix (as e^(+-ia/2), as e^(ia), or as a half angle beside an identity
block), and fixes both that angle's shift rule and its exact matrix
derivative.  A diagonal kind's matrix is its phase row, exp(i * angle *
phases), the same row that a compiled phase block multiplies; CNOT's row is
its permutation.  ``GATE_SIGNATURES`` is the table's (wires, angles) view.

Two executors share the gate matrices.  ``run_circuit`` applies one gate
at a time to a ``StateVector``; it is the reference path that tests
compare against.  ``run_circuit_batch`` runs one params vector on a batch
of input rows, ``result[b] = run_circuit(template, params, inputs[b])``,
from the template's compiled ``blocks``, computed once per template:

* a run of gates that read no input (constant and trainable gates, H
  included) becomes one 2^n x 2^n unitary.  Its compiled template holds
  the run's constant factors, and a build copies it, scatters the
  trainable gates in and multiplies it out in place into the prefix
  stack, once per forward, or once when compiled if no gate of the run
  reads params;
* a run of input-reading diagonal gates and angle-free permutations (every
  embedding gate: RZ(enc1) and CNOT.RZ(enc2).CNOT) becomes one fixed index
  permutation and one coefficient matrix A, applied per input row as
  ``amps[..., perm] * exp(i * angles @ A)``;
* a template with any other input-reading gate, or wider than
  ``_FUSE_MAX_QUBITS``, does not compile: ``blocks`` raises a ``ValueError``.

Identical gate runs compile to one shared block object: a re-uploaded
embedding is one phase block, repeated.  So the input-only blocks run once
per input row and the params-only blocks once per params vector, whatever
the batch size, and a run computes a repeated phase block's phases once
per row block (and tapes their conjugate once), applying them at every
occurrence.  A run without a tape takes its input rows through the blocks
in row blocks of ``RUN_BLOCK_AMPLITUDES`` amplitudes; a taped run keeps its
whole-batch states for the sweep.  <Z> is read as ``|psi|^2 @ zsign``, one
product over all rows.

``adjoint_vjp``, which training uses, gives the params gradient of
``sum(grad * <Z>)`` by one backward sweep over the blocks, reading the
states and builds on the ``Tape`` that a ``run_circuit_batch`` forward
recorded (or running that forward itself).  ``parameter_shift_grad``, its
reference, contracts ``run_circuit_batch`` at every row of the shift plan
with the shift-rule weights.
"""

from __future__ import annotations

import math
import string
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

MAX_QUBITS = 12

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

        Row r shifts one trainable slot by the shift rule of its angle's
        family, so that for every output f,
        df/dtheta = sum_r weights[r] * f(theta + offsets[r]).
        """
        slot_family = {ref[1]: _KINDS[gate.kind].families[a] for gate in self.gates
                       for a, ref in enumerate(gate.angles) if ref[0] == "p"}
        terms = [(j, shift, weight) for j in range(self.param_slots)
                 for shift, weight in slot_family[j].shifts]
        offsets = np.zeros((len(terms), self.param_slots))
        weights = np.zeros((len(terms), self.param_slots))
        for r, (j, shift, weight) in enumerate(terms):
            offsets[r, j] = shift
            weights[r, j] = weight
        return offsets, weights

    @cached_property
    def blocks(self) -> tuple:
        """The gate list split into fused blocks, in circuit order; a
        ``ValueError`` for a template that does not compile.  Identical gate
        runs, such as a re-uploaded embedding, are one shared block object."""
        if self.n_qubits > _FUSE_MAX_QUBITS:
            raise ValueError(f"cannot compile a {self.n_qubits}-qubit template: "
                             f"fused blocks take at most {_FUSE_MAX_QUBITS} qubits")
        runs: list[tuple[type, list[Gate]]] = []
        for gate in self.gates:
            reads_input = any(ref[0] != "p" for ref in gate.angles)
            if reads_input and _KINDS[gate.kind].phases is None:
                diagonal = sorted(k for k, row in _KINDS.items() if row.phases is not None)
                raise ValueError(f"cannot compile {gate.kind} on {gate.targets} reading "
                                 f"{gate.angles}: only {diagonal} read inputs")
            if reads_input or (_KINDS[gate.kind].perm is not None and runs
                               and runs[-1][0] is _PhasePermutation):
                kind = _PhasePermutation
            else:
                kind = _FusedUnitary
            if runs and runs[-1][0] is kind:
                runs[-1][1].append(gate)
            else:
                runs.append((kind, [gate]))
        keys = [(kind, tuple(gates)) for kind, gates in runs]
        compiled = {(kind, gates): kind(gates, self.n_qubits)
                    for kind, gates in dict.fromkeys(keys)}
        return tuple(compiled[key] for key in keys)

    @cached_property
    def zsign(self) -> np.ndarray:
        """(2^n, n) sign of Z on each wire in each basis state: <Z> = |psi|^2 @ zsign."""
        n = self.n_qubits
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return 1.0 - 2.0 * bits


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


# --- gate kinds (matrices batched over a leading axis of angle values) --------


@dataclass(frozen=True)
class _Family:
    """How one angle a enters its gate's matrix, read off the spectrum of its
    generator (Wierichs et al. 2022, arXiv:2107.12390).  ``steps`` and
    ``weight`` give the exact matrix derivative,
    dG/da = weight * (G(a + steps[0]) - G(a + steps[1])), which the +-pi/2
    shift rule is not; ``shifts`` holds the (shift, weight) terms of the
    shift rule for expectations, df/da = sum_k w_k f(a + s_k)."""

    steps: tuple[float, float]
    weight: complex
    shifts: tuple[tuple[float, float], ...]


_TWO_TERMS = ((math.pi / 2, 0.5), (-math.pi / 2, -0.5))
_C_PLUS = (math.sqrt(2) + 1) / (4 * math.sqrt(2))
_C_MINUS = (math.sqrt(2) - 1) / (4 * math.sqrt(2))
# e^(+-ia/2), period 4pi: every entry is u e^(ia/2) + v e^(-ia/2), so
# G' = (G(a + pi) - G(a - pi)) / 4
_HALF = _Family((math.pi, -math.pi), 0.25, _TWO_TERMS)
# e^(ia), period 2pi: every entry is c + u e^(ia), so G' = i (G(a) - G(a + pi)) / 2
_FULL = _Family((0.0, math.pi), 0.5j, _TWO_TERMS)
# a half angle beside an identity block: generator eigenvalues {0, +-1/2},
# so the matrix derivative of _HALF and a four-term shift rule
_CONTROLLED = _Family((math.pi, -math.pi), 0.25,
                      ((math.pi / 2, _C_PLUS), (-math.pi / 2, -_C_PLUS),
                       (3 * math.pi / 2, -_C_MINUS), (-3 * math.pi / 2, _C_MINUS)))


@dataclass(frozen=True)
class _Kind:
    """One gate kind: its target-wire count, one family per angle, and its
    matrix.  A diagonal kind declares ``phases``, the phase of each diagonal
    entry per unit angle, and its matrix is diag(exp(i * angle * phases)); an
    angle-free permutation declares ``perm``, the column holding the 1 of
    each matrix row; any other kind declares its matrix ``build``, from a
    (..., n_angles) angle array.  Basis order is (control, target)."""

    wires: int
    families: tuple[_Family, ...] = ()
    build: Callable[[np.ndarray], np.ndarray] | None = None
    phases: np.ndarray | None = None
    perm: np.ndarray | None = None

    @cached_property
    def fixed(self) -> np.ndarray:
        """The matrix of a permutation kind."""
        return np.eye(len(self.perm), dtype=np.complex128)[self.perm]


def _rx(angles: np.ndarray) -> np.ndarray:
    half = angles[..., 0] / 2
    c, s = np.cos(half), np.sin(half)
    m = np.zeros(half.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = c
    m[..., 0, 1] = -1j * s
    m[..., 1, 0] = -1j * s
    m[..., 1, 1] = c
    return m


def _ry(angles: np.ndarray) -> np.ndarray:
    half = angles[..., 0] / 2
    c, s = np.cos(half), np.sin(half)
    m = np.zeros(half.shape + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


def _u3(angles: np.ndarray) -> np.ndarray:
    theta, phi, lam = angles[..., 0], angles[..., 1], angles[..., 2]
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


_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)

_KINDS = {
    "H": _Kind(1, build=lambda angles: np.broadcast_to(_H_MATRIX, angles.shape[:-1] + (2, 2))),
    "RX": _Kind(1, (_HALF,), build=_rx),
    "RY": _Kind(1, (_HALF,), build=_ry),
    "RZ": _Kind(1, (_HALF,), phases=np.array([-0.5, 0.5])),
    "PHASE": _Kind(1, (_FULL,), phases=np.array([0.0, 1.0])),
    "U3": _Kind(1, (_HALF, _FULL, _FULL), build=_u3),
    "CNOT": _Kind(2, perm=np.array([0, 1, 3, 2])),
    "CRX": _Kind(2, (_CONTROLLED,), build=lambda angles: _controlled(_rx(angles))),
    "CRY": _Kind(2, (_CONTROLLED,), build=lambda angles: _controlled(_ry(angles))),
    "CRZ": _Kind(2, (_CONTROLLED,), phases=np.array([0.0, 0.0, -0.5, 0.5])),
    "ZZ": _Kind(2, (_HALF,), phases=np.array([-0.5, 0.5, 0.5, -0.5])),
}

# kind -> (number of target wires, number of angles)
GATE_SIGNATURES = {kind: (row.wires, len(row.families)) for kind, row in _KINDS.items()}


def gate_matrix(kind: str, angles: np.ndarray) -> np.ndarray:
    """Unitary for ``kind`` as a (..., d, d) array batched over angle rows.

    ``angles`` has shape (..., n_angles); d is 2 for single-qubit kinds and
    4 for two-qubit kinds with basis order (control, target).
    """
    row = _KINDS.get(kind)
    if row is None:
        raise ValueError(f"unknown gate kind {kind!r}")
    angles = np.asarray(angles, dtype=np.float64)
    if row.phases is not None:
        d = len(row.phases)
        m = np.zeros(angles.shape[:-1] + (d * d,), dtype=np.complex128)
        m[..., :: d + 1] = np.exp(1j * (angles[..., :1] * row.phases))
        return m.reshape(angles.shape[:-1] + (d, d))
    if row.perm is not None:
        return np.broadcast_to(row.fixed, angles.shape[:-1] + row.fixed.shape)
    return row.build(angles)


def _derivative_rule(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Angle steps (n_angles, 2, 1, n_angles) and weights (n_angles, 1, 1, 1)
    with dG/da = weights[a] * (G(angles + steps[a, 0]) - G(angles + steps[a, 1])),
    from the family of each angle."""
    families = _KINDS[kind].families
    shifts = np.array([family.steps for family in families]).reshape(-1, 2)
    steps = shifts[:, :, None, None] * np.eye(len(families))[:, None, None, :]
    weights = np.array([family.weight for family in families], dtype=np.complex128)
    return steps, weights.reshape(-1, 1, 1, 1)


# --- state updates ----------------------------------------------------------


@lru_cache(maxsize=None)
def _gate_subscripts(n: int, targets: tuple[int, ...]) -> str:
    """``np.einsum`` subscripts applying a gate tensor, axes (out..., in...)
    over ``targets`` in order, to a (2,)*n state."""
    state = string.ascii_letters[:n]
    out = dict(zip(targets, string.ascii_letters[n:]))
    return (f"{''.join(out.values())}{''.join(state[q] for q in targets)},{state}->"
            + "".join(out.get(q, state[q]) for q in range(n)))


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
    n, k = state.n_qubits, len(gate.targets)
    amps = np.einsum(_gate_subscripts(n, gate.targets),
                     gate_matrix(gate.kind, angles).reshape((2,) * (2 * k)),
                     state.amplitudes.reshape((2,) * n))
    return StateVector(n, amps.reshape(-1))


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


# --- template execution -----------------------------------------------------


def resolve_angles(gate: Gate, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Concrete angle values for one gate, shape (n_angles,)."""
    values = []
    for ref in gate.angles:
        tag = ref[0]
        if tag == "p":
            values.append(params[ref[1]])
        elif tag == "enc1":
            values.append(2.0 * inputs[ref[1]])
        else:  # enc2
            zi, zj = inputs[ref[1]], inputs[ref[2]]
            values.append(2.0 * (math.pi - zi) * (math.pi - zj))
    return np.array(values, dtype=np.float64)


def _check_slots(template: CircuitTemplate, params, inputs) -> tuple[np.ndarray, np.ndarray]:
    """One params vector and 1-D or 2-D inputs, as float arrays."""
    params = np.asarray(params, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if params.ndim != 1 or inputs.ndim > 2:
        raise ValueError("a circuit run takes one params vector and 1-D or 2-D inputs, "
                         f"got shapes {params.shape} and {inputs.shape}")
    if params.shape != (template.param_slots,):
        raise ValueError(
            f"expected {template.param_slots} params, got {params.shape[-1:]}"
        )
    if inputs.shape[-1:] != (template.input_slots,):
        raise ValueError(
            f"expected {template.input_slots} inputs, got {inputs.shape[-1:]}"
        )
    return params, inputs


def run_circuit(template: CircuitTemplate, params, inputs) -> np.ndarray:
    """Execute the template on |0..0> one gate at a time and return
    per-qubit <Z>, shape (n,): the reference oracle, sharing only
    ``gate_matrix`` with the compiled path and running any template."""
    params, inputs = _check_slots(template, params, inputs)
    if inputs.ndim != 1:
        raise ValueError("run_circuit takes a single input vector")
    n = template.n_qubits
    state = init_state(n)
    for gate in template.gates:
        state = apply_gate(state, gate, resolve_angles(gate, params, inputs))
    probs = born_probabilities(state).reshape((2,) * n)
    # sign[q] is +1 where wire q reads 0 and -1 where it reads 1; clip float dust
    sign = 1 - 2 * np.indices((2,) * n)
    return np.clip((sign * probs).reshape(n, -1).sum(axis=1), -1.0, 1.0)


@dataclass
class Tape:
    """What one ``run_circuit_batch`` forward keeps for ``adjoint_vjp``: the
    bytes of the params it ran at, one record per block in block order (a
    fused block's (B or 1, 2^n) input state and its prefix stack, whose last
    entry is its matrix; a phase block's (B, 2^n) conjugate phases, one
    array for all its occurrences) and the
    final (B or 1, 2^n) state.  A forward's builds live here and nowhere
    else, so the sweep reads the very matrices the forward multiplied by."""

    key: bytes | None = None
    kept: list = field(default_factory=list)
    psi: np.ndarray | None = None


def run_circuit_batch(template: CircuitTemplate, params, inputs,
                      tape: Tape | None = None) -> np.ndarray:
    """``run_circuit(template, params, inputs[b])`` for every input row.

    ``params`` is one (P,) vector and ``inputs`` is (B, I), giving (B, n),
    or (I,), giving (n,).  A ``tape``, if given, records the run for
    ``adjoint_vjp`` in place of what it held; the outputs are the same bits
    either way.  Without a tape the rows run in equal blocks of at most
    ``RUN_BLOCK_AMPLITUDES`` amplitudes, each block's |psi|^2 written into
    one (B, 2^n) array, so no (B, 2^n) complex state is ever held.
    """
    params, inputs = _check_slots(template, params, inputs)
    grid_inputs = np.atleast_2d(inputs)
    builds = _builds(template, params)
    # A state that reads no input is one row shared by every input row.  The
    # probabilities are C-ordered whatever the layout of the states, which a
    # gather can leave transposed: <Z>'s bits depend on the product's layout.
    reads_inputs = any(build is None for build in builds)
    probs = np.empty((len(grid_inputs) if reads_inputs else 1, 2**template.n_qubits))
    if tape is not None:
        tape.key = params.tobytes()
        _born(_run_blocks(template, builds, grid_inputs, tape), probs)
    else:
        # blocks of equal size, so that none has one row unless the run has:
        # numpy multiplies a one-row matrix as a vector, to other bits
        blocks = max(1, -(-len(probs) // (RUN_BLOCK_AMPLITUDES >> template.n_qubits)))
        step = max(1, -(-len(probs) // blocks))
        for start in range(0, len(probs), step):
            rows = slice(start, start + step)
            _born(_run_blocks(template, builds, grid_inputs[rows]), probs[rows])
    # One product over all rows: its last bits can depend on how many rows
    # it is given, so a product per block would tie <Z> to the block size.
    z = probs @ template.zsign
    np.clip(z, -1.0, 1.0, out=z)
    z = np.broadcast_to(z, (len(grid_inputs), template.n_qubits))
    return np.ascontiguousarray(z[0] if inputs.ndim == 1 else z)


def adjoint_vjp(template: CircuitTemplate, params, inputs, grad,
                tape: Tape | None = None) -> np.ndarray:
    """``sum(grad * d run_circuit_batch(template, params, inputs) / d params)``,
    (P,), for ``grad`` of the output's shape, by one adjoint sweep (Jones &
    Gacon 2020, arXiv:2009.02823) over the ``tape`` of that forward, or of
    one it runs itself; a tape recorded at other params is a ``ValueError``.
    lam = (grad @ zsign.T) * psi runs back through the blocks' adjoints, and
    each fused block of matrix M adds ``slot_grads`` at lam_in = lam @ M^H."""
    params, inputs = _check_slots(template, params, inputs)
    shape = inputs.shape[:-1] + (template.n_qubits,)
    if np.shape(grad) != shape:
        raise ValueError(f"grad must have the output's shape {shape}, got {np.shape(grad)}")
    if tape is None:
        tape = Tape(params.tobytes())
        _run_blocks(template, _builds(template, params), np.atleast_2d(inputs), tape)
    elif tape.key != params.tobytes():
        raise ValueError("the tape was recorded at other params; run the forward again")
    lam = (np.atleast_2d(grad) @ template.zsign.T) * tape.psi
    out = np.zeros(template.param_slots)
    for block, saved in zip(reversed(template.blocks), reversed(tape.kept)):
        if isinstance(block, _PhasePermutation):
            lam = lam * saved
            lam = lam if block.perm is None else lam[:, block.inverse]
            continue
        psi_in, prefix = saved
        lam = lam @ prefix[-1].conj().T
        if len(block.slots):
            out[block.slots] = block.slot_grads(params, psi_in, prefix, lam)
    return out


# Rows of a run without a tape go through the blocks this many amplitudes at
# a time (1024 rows of 4 qubits, 256 kB of complex state), so its complex
# temporaries stay that size however many rows it has.  The bits do not
# depend on it: every step before |psi|^2 gives each row the same bits in
# any block of two or more rows.
RUN_BLOCK_AMPLITUDES = 1 << 14


def _builds(template: CircuitTemplate, params: np.ndarray) -> list:
    """Per block in block order: a fused block's prefix stack at ``params``,
    None for a phase block."""
    return [None if isinstance(block, _PhasePermutation) else block.build(params)
            for block in template.blocks]


def _run_blocks(template: CircuitTemplate, builds: list, inputs: np.ndarray,
                tape: Tape | None = None) -> np.ndarray:
    """The (B or 1, 2^n) state for 2-D ``inputs``, from the template's
    ``_builds`` at one params vector, recorded on ``tape``.  A phase block
    that recurs (a re-uploaded embedding) computes its phases, and its
    taped conjugate, once, and they are kept until its last occurrence."""
    psi = np.zeros((1, 2**template.n_qubits), dtype=np.complex128)
    psi[0, 0] = 1.0
    if tape is not None:
        tape.kept = []
    computed: dict = {}  # phase block -> (phases, taped conjugate or None)
    for at, (block, prefix) in enumerate(zip(template.blocks, builds)):
        if prefix is None:
            if block not in computed:
                phase = block.phases(inputs)
                computed[block] = phase, None if tape is None else phase.conj()
            if block in template.blocks[at + 1:]:
                phase, conj = computed[block]
                if psi.shape != phase.shape:
                    phase = phase.copy()  # ``apply`` would write into it
            else:
                phase, conj = computed.pop(block)
            if tape is not None:
                tape.kept.append(conj)
            psi = block.apply(psi, phase)
            del phase  # or the applied phases stay alive through the next product
        else:
            if tape is not None:
                tape.kept.append((psi, prefix))
            psi = psi @ prefix[-1]
    if tape is not None:
        tape.psi = psi
    return psi


def _born(psi: np.ndarray, out: np.ndarray):
    """|psi|^2 into ``out``."""
    np.square(psi.real, out=out)
    out += np.square(psi.imag)


# --- compiled blocks ----------------------------------------------------------

# Fused unitaries are dense 2^n x 2^n matrices per params row, so their cost
# grows as 4^n; past this width a template does not compile.
_FUSE_MAX_QUBITS = 5


def _split_index(n: int, targets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """For every basis index: its gate-local index on ``targets`` and the
    index with the target bits cleared."""
    index = np.arange(2**n)
    local = np.zeros(2**n, dtype=np.intp)
    for q in targets:
        local = 2 * local + ((index >> (n - 1 - q)) & 1)
    mask = sum(1 << (n - 1 - q) for q in targets)
    return local, index & ~mask


def _spread(n: int, targets: tuple[int, ...], local: np.ndarray) -> np.ndarray:
    """Basis-index bits of gate-local indices (inverse of the local part)."""
    out = np.zeros_like(local)
    for m, q in enumerate(targets):
        out |= ((local >> (len(targets) - 1 - m)) & 1) << (n - 1 - q)
    return out


def _scatter_index(n: int, targets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat (dest, src) indices, each (2^n * k,), that place a gate's k x k
    matrix M on ``targets`` into the transposed 2^n x 2^n factor T:
    ``T.ravel()[dest] = M.ravel()[src]`` sets T[j, i] = M[local(i), local(j)]
    where i and j agree off the targets; every other entry of T is zero."""
    d, k = 2**n, 2 ** len(targets)
    local, rest = _split_index(n, targets)
    col = np.arange(k)
    j = rest[:, None] | _spread(n, targets, col)[None, :]  # (d, k)
    return (j * d + np.arange(d)[:, None]).ravel(), (local[:, None] * k + col).ravel()


@dataclass(frozen=True)
class _KindGroup:
    """The trainable gates of one kind in a fused block, in block order:
    their factor numbers, their params slots and their scatter indices."""

    kind: str
    seq: np.ndarray  # (g,)
    params: np.ndarray  # (g, n_angles)
    dest: np.ndarray  # (g, 2^n * k), into one transposed factor
    src: np.ndarray  # (g, 2^n * k), into one k x k matrix

    def scatter(self, members: np.ndarray, targets: np.ndarray,
                d2: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat (dest, src) indices placing the matrices of gates ``members``,
        stacked as (m, k, k), into matrices ``targets`` of a flat stack of
        d2-entry matrices."""
        k2 = 4 ** _KINDS[self.kind].wires
        return ((targets[:, None] * d2 + self.dest[members]).ravel(),
                (np.arange(len(members))[:, None] * k2 + self.src[members]).ravel())


class _FusedUnitary:
    """Consecutive gates that read no input, multiplied into one transposed
    unitary (``psi @ build(params)[-1]``).

    The product runs over F factors: each merged run of angle-free gates is
    one constant matrix, and each trainable gate one factor.  The compiled
    read-only (F + 1, 2^n, 2^n) ``template`` holds the identity, then the
    factors in order, with zeros where a trainable gate goes.  A build
    copies it, scatters the trainable gates in with one gather, one
    ``gate_matrix`` call and one scatter per gate kind, and multiplies the
    copy out in place into the product's prefix stack, which a forward's
    tape keeps for the adjoint sweep.  A block that reads no params is
    built here, once; nothing of a block changes after it is compiled.
    """

    def __init__(self, gates: list[Gate], n: int):
        d = self.dim = 2**n
        factors: list[np.ndarray | None] = []  # constant (d, d) matrices, None if trainable
        found: dict[str, list] = {}
        for gate in gates:
            dest, src = _scatter_index(n, gate.targets)
            if gate.angles:
                found.setdefault(gate.kind, []).append(
                    (len(factors), [ref[1] for ref in gate.angles], dest, src))
                factors.append(None)
                continue
            const = np.zeros(d * d, dtype=np.complex128)
            const[dest] = gate_matrix(gate.kind, np.zeros(0)).ravel()[src]
            const = const.reshape(d, d)
            if factors and factors[-1] is not None:
                const = factors.pop() @ const
            factors.append(const)
        self.template = np.array([np.eye(d)] + [np.zeros((d, d)) if f is None else f
                                                for f in factors], dtype=np.complex128)
        self.template.flags.writeable = False
        self.groups = [_KindGroup(kind, *(np.array(column) for column in zip(*members)))
                       for kind, members in found.items()]
        self.builds = [g.scatter(np.arange(len(g.seq)), g.seq + 1, d * d) for g in self.groups]
        # per trainable angle, angle-major in each kind: slot, position, rule, scatter
        slots, seq, self.derivative_builds = [], [], []
        for g in self.groups:
            members = np.tile(np.arange(len(g.seq)), g.params.shape[1])
            self.derivative_builds.append((*_derivative_rule(g.kind), *g.scatter(
                members, len(slots) + np.arange(len(members)), d * d)))
            slots.extend(g.params.T.ravel())
            seq.extend(g.seq[members])
        self.slots = np.array(slots, dtype=np.intp)
        self.slot_seq = np.array(seq, dtype=np.intp)
        self.fixed = None  # the build of a block that reads no params
        if not self.groups:
            self.fixed = self.build(np.zeros(0))

    def build(self, params: np.ndarray) -> np.ndarray:
        """The read-only (F + 1, d, d) prefix stack P of the F factors at
        ``params``: P[0] = I, P[1] = factor 0, P[s + 1] = P[s] @ factor s, so
        P[-1] is their product, the block's transposed unitary."""
        if self.fixed is not None:
            return self.fixed
        prefix = self.template.copy()
        flat = prefix.reshape(-1)
        for g, (dest, src) in zip(self.groups, self.builds):
            flat[dest] = gate_matrix(g.kind, params[g.params]).ravel()[src]
        # each factor moves to one scratch matrix first: a product whose output
        # overlaps an operand makes numpy allocate a copy of that operand
        factor = np.empty_like(prefix[0])
        for s in range(2, len(prefix)):
            factor[...] = prefix[s]
            np.matmul(prefix[s - 1], factor, out=prefix[s])
        prefix.flags.writeable = False
        return prefix

    def slot_grads(self, params: np.ndarray, psi_in: np.ndarray, prefix: np.ndarray,
                   lam_in: np.ndarray) -> np.ndarray:
        """(m,) gradient for ``slots`` from the (B or 1, d) input state, the
        block's ``build(params)`` P and the (B, d) cotangent ``lam_in`` =
        lam_out @ P[-1]^H: per slot at factor s,
        ``2 Re sum((psi_in @ P[s] @ dF) * conj(lam_in @ P[s + 1]))`` with dF
        the exact derivative of factor s, scattered as it is built."""
        d = self.dim
        moved = np.zeros(len(self.slots) * d * d, dtype=np.complex128)
        for g, (steps, weights, dest, src) in zip(self.groups, self.derivative_builds):
            pair = gate_matrix(g.kind, params[g.params] + steps)  # (angles, 2, g, k, k)
            moved[dest] = (weights * (pair[:, 0] - pair[:, 1])).ravel()[src]
        left = (psi_in @ prefix[self.slot_seq]) @ moved.reshape(-1, d, d)
        right = lam_in @ prefix[self.slot_seq + 1]
        return 2.0 * (left * right.conj()).real.sum(axis=(1, 2))


class _PhasePermutation:
    """Input-reading diagonal gates and angle-free permutations, fused into
    ``amps[..., perm] * exp(i * angles @ coeffs)``; the adjoint sweep gathers
    by ``inverse``, the inverse of ``perm``."""

    def __init__(self, gates: list[Gate], n: int):
        perm = np.arange(2**n)
        rows: list[np.ndarray] = []
        refs: list[tuple] = []
        for gate in gates:
            local, rest = _split_index(n, gate.targets)
            kind = _KINDS[gate.kind]
            if kind.perm is not None:
                source = rest | _spread(n, gate.targets, kind.perm[local])
                perm = perm[source]
                rows = [row[source] for row in rows]
            else:
                rows.append(kind.phases[local])
                refs.append(gate.angles[0])
        self.perm = None if np.array_equal(perm, np.arange(2**n)) else perm
        self.inverse = None if self.perm is None else np.argsort(self.perm)
        self.coeffs = np.array(rows)  # (angles, 2^n)
        # (angle column, input index...) of each encoding form, as index rows
        self.enc1 = np.array([(c, ref[1]) for c, ref in enumerate(refs) if ref[0] == "enc1"],
                             dtype=np.intp).reshape(-1, 2).T
        self.enc2 = np.array([(c, *ref[1:]) for c, ref in enumerate(refs) if ref[0] == "enc2"],
                             dtype=np.intp).reshape(-1, 3).T

    def phases(self, inputs: np.ndarray) -> np.ndarray:
        """(B, 2^n): ``exp(i * angles @ coeffs)`` for each input row."""
        angles = np.empty((len(inputs), len(self.coeffs)))
        col, i = self.enc1
        angles[:, col] = 2.0 * inputs[:, i]
        col, i, j = self.enc2
        angles[:, col] = 2.0 * (math.pi - inputs[:, i]) * (math.pi - inputs[:, j])
        phase = (angles @ self.coeffs) * 1j
        np.exp(phase, out=phase)
        return phase

    def apply(self, psi: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """``psi[:, perm] * phase`` for a (B or 1, 2^n) ``psi`` and a (B, 2^n)
        ``phase`` from ``phases``."""
        if self.perm is not None:
            psi = psi[:, self.perm]
        # Multiply into whichever operand already has the (B, 2^n) result's
        # shape: every psi a block receives was allocated by the current run
        # and no tape holds it, so the update is invisible to callers and
        # keeps the peak near two states.
        if psi.shape == phase.shape:
            psi *= phase
            return psi
        phase *= psi
        return phase


# --- parameter-shift gradients ----------------------------------------------

def parameter_shift_grad(template: CircuitTemplate, params, inputs) -> np.ndarray:
    """Analytic gradient of every <Z_q> w.r.t. every trainable angle.

    Returns (n_qubits, param_slots) with entry (q, j) equal to
    d<Z_q>/d theta_j for (I,) inputs, or (B, n_qubits, param_slots) for
    (B, I) inputs: ``run_circuit_batch`` at every row ``params + offsets``
    of ``template.shift_plan``, contracted with its weights.
    """
    params, inputs = _check_slots(template, params, inputs)
    template.blocks  # a template that does not compile raises, even with no rows
    offsets, weights = template.shift_plan
    rows = [run_circuit_batch(template, params + offset, inputs) for offset in offsets]
    shape = (len(offsets),) + inputs.shape[:-1] + (template.n_qubits,)
    return np.einsum("r...q,rp->...qp", np.reshape(rows, shape), weights)
