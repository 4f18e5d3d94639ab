"""Product-state simulation of single-qubit encoding circuits.

The circuit family is deliberately small: per re-uploading layer, a Hadamard
on every qubit, a data-dependent phase exp(+i * x_i * Z_i) on qubit i, and an
optional trainable RZ/RY pair per qubit.  There are no entangling gates, so
every state is a product of one-qubit states: `encode` folds each qubit's
gates over many feature rows at once, and `apply_circuit` builds the dense
statevector with `kron`.  Observables H = a*I + sum_{i,P} b_{i,P} * P_i are
read off each qubit's Bloch vector r_i: <H> = a + sum_i b_i . r_i and
Var(H) = sum_i (|b_i|^2 - (b_i . r_i)^2).  Each sampled Pauli term counts
Binomial(shots, (1 - r_{i,P}) / 2) outcomes -1.  Gate noise (a uniformly
random Pauli after each gate with probability p) is the depolarizing channel,
which shrinks r_i by (1 - 4p/3) per gate on qubit i, so noisy sampling draws
the same outcome law as simulating the noise shot by shot.  `expectation` and
`variance` stay exact for any `Statevector`, product or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

AXES = "XYZ"

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"X": _X, "Y": _Y, "Z": _Z}


def _gate_matrix(name: str, angle) -> np.ndarray:
    """2x2 matrix of gate `name`, batched over the shape of `angle`: (..., 2, 2).

    zphase(x) = diag(e^{ix}, e^{-ix}), rz(t) = diag(e^{-it/2}, e^{it/2}),
    ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]].
    """
    angle = np.asarray(angle, dtype=float)
    if name == "h":
        return np.broadcast_to(_H, angle.shape + (2, 2))
    if name in ("zphase", "rz"):
        phase = np.exp(1j * angle) if name == "zphase" else np.exp(-0.5j * angle)
        out = np.zeros(angle.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = phase
        out[..., 1, 1] = np.conj(phase)
        return out
    if name == "ry":
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)
    raise ValueError(f"unknown gate {name!r}")


@dataclass(frozen=True)
class GateOp:
    """One single-qubit gate: name in {h, zphase, rz, ry}, target qubit, angle."""

    name: str
    qubit: int
    angle: float = 0.0


@dataclass(frozen=True)
class Statevector:
    """Normalized complex amplitudes over the 2**n_qubits basis states.

    Qubit 0 is the least significant bit of the basis index.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: sum |a|^2 = {norm!r}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class EncodingCircuit:
    """Layered angle-encoding circuit.

    Per layer: H on every qubit, then the phase exp(+i * x_i * Z_i) on qubit i,
    then (when `variational_angles` is given) an RZ and an RY on each qubit.
    `variational_angles` is laid out layer-major, qubit-minor, (rz, ry) last:
    index = layer*2n + 2*qubit + {0: rz, 1: ry}.

    `include_hadamards=False` is a degenerate test-only mode that drops the
    Hadamards so an all-zero circuit acts as the identity.
    """

    n_qubits: int
    layers: int
    feature_angles: np.ndarray
    variational_angles: np.ndarray | None = None
    include_hadamards: bool = True

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        feat = np.array(self.feature_angles, dtype=float)
        if feat.shape != (self.n_qubits,):
            raise ValueError("feature_angles length must equal n_qubits")
        if not np.all(np.isfinite(feat)):
            raise ValueError("feature_angles must be finite")
        feat.flags.writeable = False
        object.__setattr__(self, "feature_angles", feat)
        if self.variational_angles is not None:
            var = np.array(self.variational_angles, dtype=float)
            expected = 2 * self.n_qubits * self.layers
            if var.shape != (expected,):
                raise ValueError(
                    f"variational_angles must have length {expected}, got {var.shape}"
                )
            if not np.all(np.isfinite(var)):
                raise ValueError("variational_angles must be finite")
            var.flags.writeable = False
            object.__setattr__(self, "variational_angles", var)

    def gate_ops(self) -> list[GateOp]:
        """Lower to the flat gate sequence the circuit applies, in order."""
        ops: list[GateOp] = []
        n = self.n_qubits
        for layer in range(self.layers):
            if self.include_hadamards:
                ops.extend(GateOp("h", q) for q in range(n))
            ops.extend(
                GateOp("zphase", q, float(self.feature_angles[q])) for q in range(n)
            )
            if self.variational_angles is not None:
                base = layer * 2 * n
                for q in range(n):
                    ops.append(GateOp("rz", q, float(self.variational_angles[base + 2 * q])))
                    ops.append(GateOp("ry", q, float(self.variational_angles[base + 2 * q + 1])))
        return ops


def build_feature_map(
    x: Sequence[float],
    layers: int = 1,
    variational: Sequence[float] | None = None,
) -> EncodingCircuit:
    """Encoding circuit for feature vector `x` (one qubit per feature)."""
    feat = np.asarray(x, dtype=float)
    if feat.ndim != 1 or feat.size == 0:
        raise ValueError("x must be a non-empty 1-d sequence")
    var = None if variational is None else np.asarray(variational, dtype=float)
    return EncodingCircuit(feat.size, layers, feat, var)


@dataclass(frozen=True)
class PauliSumObservable:
    """a*I + sum of b_{i,P} * P_i with P in {X, Y, Z}."""

    identity_coeff: float
    pauli_coeffs: Mapping[tuple[int, str], float] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.identity_coeff):
            raise ValueError("identity coefficient must be finite")
        coeffs = {}
        for (qubit, axis), value in dict(self.pauli_coeffs).items():
            if axis not in AXES:
                raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
            if qubit < 0:
                raise ValueError("qubit index must be nonnegative")
            if not np.isfinite(value):
                raise ValueError("Pauli coefficients must be finite")
            coeffs[(int(qubit), axis)] = float(value)
        object.__setattr__(self, "pauli_coeffs", coeffs)

    def terms(self) -> list[tuple[int, str, float]]:
        """Pauli terms sorted by (qubit, axis X<Y<Z); the canonical order."""
        return [
            (q, ax, self.pauli_coeffs[(q, ax)])
            for q, ax in sorted(self.pauli_coeffs, key=lambda k: (k[0], AXES.index(k[1])))
        ]

    def max_qubit(self) -> int:
        return max((q for q, _ in self.pauli_coeffs), default=-1)

    def coefficient_matrix(self, n_qubits: int) -> np.ndarray:
        """b as an (n_qubits, 3) matrix, columns in AXES order."""
        _check_bounds(self, n_qubits)
        b = np.zeros((n_qubits, 3))
        for (qubit, axis), value in self.pauli_coeffs.items():
            b[qubit, AXES.index(axis)] = value
        return b


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic Pauli channel: per-gate depolarizing + readout bit flips."""

    depolarizing_prob: float = 0.0
    readout_flip_prob: float = 0.0

    def __post_init__(self):
        for name in ("depolarizing_prob", "readout_flip_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


def _check_bounds(obs: PauliSumObservable, n: int) -> None:
    if obs.max_qubit() >= n:
        raise ValueError(
            f"observable touches qubit {obs.max_qubit()} but the state has {n} qubits"
        )


# ---------------------------------------------------------------------------
# product-state core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductStates:
    """One product state per row.

    `amplitudes` holds each qubit's one-qubit state, shape (rows, n_qubits, 2);
    `gate_counts` holds the number of gates applied to each qubit, which sets
    how far gate noise shrinks its Bloch vector.
    """

    amplitudes: np.ndarray
    gate_counts: np.ndarray

    def bloch(self) -> np.ndarray:
        """Bloch vectors (<X>, <Y>, <Z>) per row and qubit: (rows, n_qubits, 3)."""
        a0, a1 = self.amplitudes[..., 0], self.amplitudes[..., 1]
        cross = 2.0 * np.conj(a0) * a1
        return np.stack([cross.real, cross.imag, np.abs(a0) ** 2 - np.abs(a1) ** 2], axis=-1)

    def dense(self) -> np.ndarray:
        """The 2**n amplitudes of the first row; qubit 0 is the least significant bit."""
        return reduce(np.kron, self.amplitudes[0, ::-1], np.ones(1))

    def expectation(self, obs: PauliSumObservable) -> np.ndarray:
        """Exact <H> per row."""
        b = obs.coefficient_matrix(self.amplitudes.shape[1])
        return obs.identity_coeff + np.einsum("rqp,qp->r", self.bloch(), b)

    def variance(self, obs: PauliSumObservable) -> np.ndarray:
        """Exact Var(H) per row: qubits are independent and (b . sigma)^2 = |b|^2 I."""
        b = obs.coefficient_matrix(self.amplitudes.shape[1])
        along = np.einsum("rqp,qp->rq", self.bloch(), b)
        return np.maximum(np.sum(b * b) - np.sum(along * along, axis=1), 0.0)

    def sample(
        self, obs: PauliSumObservable, shots: int, rng: np.random.Generator,
        noise: NoiseModel = NoiseModel(),
    ) -> np.ndarray:
        """Shot estimate of <H> per row, each nonzero Pauli term measured `shots` times.

        All rows x terms are drawn in one binomial call on `rng`, terms in the
        canonical order of `PauliSumObservable.terms`.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        b = obs.coefficient_matrix(self.amplitudes.shape[1])
        qubits, axes = np.nonzero(b)
        shrink = (1.0 - 4.0 * noise.depolarizing_prob / 3.0) ** self.gate_counts[qubits]
        p1 = np.clip((1.0 - shrink * self.bloch()[:, qubits, axes]) / 2.0, 0.0, 1.0)
        flip = noise.readout_flip_prob
        ones = rng.binomial(shots, p1 * (1.0 - flip) + (1.0 - p1) * flip)
        return obs.identity_coeff + (1.0 - 2.0 * ones / shots) @ b[qubits, axes]


def _fold(ops: Iterable[tuple], n_qubits: int, rows: int) -> ProductStates:
    """Apply (name, qubits, angle) gate ops to |0...0> for all rows at once.

    `qubits` is one index or a slice; `angle` broadcasts against the selected
    (rows, qubits) amplitudes.
    """
    amps = np.zeros((rows, n_qubits, 2), dtype=complex)
    amps[..., 0] = 1.0
    counts = np.zeros(n_qubits, dtype=int)
    for name, qubits, angle in ops:
        amps[:, qubits] = (_gate_matrix(name, angle) @ amps[:, qubits, :, None])[..., 0]
        counts[qubits] += 1
    return ProductStates(amps, counts)


def encode(
    X, layers: int = 1, variational=None, include_hadamards: bool = True
) -> ProductStates:
    """States of the layered encoding circuit for every feature row of X.

    X is (rows, n_qubits).  `variational` is either one angle vector shared by
    all rows, laid out as `EncodingCircuit.variational_angles`, or one such
    vector per row, shape (rows, 2 * n_qubits * layers).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"X must be a (rows, n_qubits) matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature angles must be finite")
    rows, n = X.shape
    angles = None
    if variational is not None:
        var = np.asarray(variational, dtype=float)
        if var.shape not in ((2 * n * layers,), (rows, 2 * n * layers)):
            raise ValueError(
                f"variational angles must have {2 * n * layers} entries per row, got {var.shape}"
            )
        if not np.all(np.isfinite(var)):
            raise ValueError("variational angles must be finite")
        angles = var.reshape(var.shape[:-1] + (layers, n, 2))

    def ops():
        every = slice(None)
        for layer in range(layers):
            if include_hadamards:
                yield "h", every, 0.0
            yield "zphase", every, X
            if angles is not None:
                yield "rz", every, angles[..., layer, :, 0]
                yield "ry", every, angles[..., layer, :, 1]

    return _fold(ops(), n, rows)


def _circuit_states(circuit: EncodingCircuit) -> ProductStates:
    return encode(
        circuit.feature_angles[None, :],
        circuit.layers,
        circuit.variational_angles,
        circuit.include_hadamards,
    )


def _gate_states(gates: Iterable[GateOp], n_qubits: int) -> ProductStates:
    gates = list(gates)
    for op in gates:
        if not 0 <= op.qubit < n_qubits:
            raise ValueError(f"gate qubit {op.qubit} out of range for {n_qubits} qubits")
    return _fold(((op.name, op.qubit, op.angle) for op in gates), n_qubits, 1)


def run_gates(gates: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Run a gate sequence on |0...0> and return raw amplitudes."""
    return _gate_states(gates, n_qubits).dense()


def apply_circuit(circuit: EncodingCircuit) -> Statevector:
    """Statevector produced by the circuit from the all-zeros state."""
    return Statevector(circuit.n_qubits, _circuit_states(circuit).dense())


def sample_expectation(
    circuit: EncodingCircuit, obs: PauliSumObservable, shots: int, seed
) -> float:
    """Monte-Carlo estimate of <H>: each Pauli term measured with `shots` shots.

    Deterministic for a fixed (circuit, obs, shots, seed).
    """
    return sample_noisy_expectation(circuit, obs, NoiseModel(), shots, seed)


def sample_noisy_expectation_from_gates(
    gates: list[GateOp], n_qubits: int, obs: PauliSumObservable,
    noise: NoiseModel, shots: int, seed,
) -> float:
    """Noisy estimate for an explicit gate sequence (exposed for oracles)."""
    rng = np.random.default_rng(seed)
    return float(_gate_states(gates, n_qubits).sample(obs, shots, rng, noise)[0])


def sample_noisy_expectation(
    circuit: EncodingCircuit, obs: PauliSumObservable,
    noise: NoiseModel, shots: int, seed,
) -> float:
    """Shot estimate of <H> under the depolarizing + readout-flip channel.

    With all noise probabilities zero this is `sample_expectation`.
    """
    rng = np.random.default_rng(seed)
    return float(_circuit_states(circuit).sample(obs, shots, rng, noise)[0])


# ---------------------------------------------------------------------------
# exact observables on a general statevector
# ---------------------------------------------------------------------------


def _apply_matrix(states: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Apply a 2x2 matrix to `qubit` of states shaped (..., 2**n)."""
    lead = states.shape[:-1]
    v = states.reshape(lead + (2,) * n)
    ax = v.ndim - 1 - qubit  # qubit 0 is the least significant bit
    v = np.moveaxis(v, ax, -1)
    v = v @ mat.T
    v = np.moveaxis(v, -1, ax)
    return v.reshape(lead + (2**n,))


def apply_observable(amps: np.ndarray, n: int, obs: PauliSumObservable) -> np.ndarray:
    """H|psi> for the Pauli-sum observable."""
    out = obs.identity_coeff * amps
    for qubit, axis, coeff in obs.terms():
        out = out + coeff * _apply_matrix(amps, _PAULI[axis], qubit, n)
    return out


def expectation(state: Statevector, obs: PauliSumObservable) -> float:
    """<H> = <psi| H |psi>, computed exactly from amplitudes."""
    _check_bounds(obs, state.n_qubits)
    hpsi = apply_observable(state.amplitudes, state.n_qubits, obs)
    return float(np.real(np.vdot(state.amplitudes, hpsi)))


def variance(state: Statevector, obs: PauliSumObservable) -> float:
    """Var(H) = <H^2> - <H>^2 >= 0.

    Computed as ||(H - <H>) psi||^2 by applying H to the state, which is exact
    up to rounding, avoids the cancellation of the naive two-term form, and
    needs no symbolic expansion of the squared operator.
    """
    _check_bounds(obs, state.n_qubits)
    hpsi = apply_observable(state.amplitudes, state.n_qubits, obs)
    e1 = np.real(np.vdot(state.amplitudes, hpsi))
    resid = hpsi - e1 * state.amplitudes
    return float(np.real(np.vdot(resid, resid)))

