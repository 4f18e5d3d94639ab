"""Product-state simulation of single-qubit encoding circuits.

The circuit family is deliberately small: per re-uploading layer, a Hadamard
on every qubit, a data-dependent phase exp(+i * x_i * Z_i) on qubit i, and an
optional trainable RZ/RY pair per qubit.  There are no entangling gates, so
every state is a product of one-qubit states: `encode` folds each qubit's
gates over many feature rows at once, and `apply_circuit` is its one-row case,
which `expectation` and `variance` read; only this single-circuit API takes a
`PauliSumObservable`.  `ProductStates` reads H = a*I + sum_{i,P} b[i, P] * P_i
as the scalar a and the (n_qubits, 3) matrix b, columns X, Y, Z: with each
qubit's Bloch vector r_i, <H> = a + sum_i b_i . r_i and
Var(H) = sum_i (|b_i|^2 - (b_i . r_i)^2).  Each sampled Pauli term counts
Binomial(shots, (1 - r_{i,P}) / 2) outcomes -1.  Gate noise (a uniformly
random Pauli after each gate with probability p) is the depolarizing channel,
which shrinks r_i by (1 - 4p/3) per gate on qubit i, so noisy sampling draws
the same outcome law as simulating the noise shot by shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

AXES = "XYZ"

_SQRT2_INV = 1.0 / math.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV


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
class EncodingCircuit:
    """Layered angle-encoding circuit; `_layer_ops` gives each layer's gates.

    `variational_angles` is laid out layer-major, qubit-minor, (rz, ry) last:
    index = layer*2n + 2*qubit + {0: rz, 1: ry}.
    """

    n_qubits: int
    layers: int
    feature_angles: np.ndarray
    variational_angles: np.ndarray | None = None

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
        """Lower to the flat per-qubit gate sequence the circuit applies, in order."""
        n = self.n_qubits
        ops = _layer_ops(self.feature_angles, self.layers, self.variational_angles)
        return [
            GateOp(name, q, float(np.broadcast_to(angle, (n,))[q]))
            for name, _, angle in ops
            for q in range(n)
        ]


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
    """a*I + sum of b_{i,P} * P_i with P in {X, Y, Z}, keyed by (qubit, axis)."""

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

    def coefficient_matrix(self, n_qubits: int) -> np.ndarray:
        """b as an (n_qubits, 3) matrix, columns in AXES order."""
        top = max((q for q, _ in self.pauli_coeffs), default=-1)
        if top >= n_qubits:
            raise ValueError(f"observable touches qubit {top} but the state has {n_qubits} qubits")
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

    @cached_property
    def bloch(self) -> np.ndarray:
        """Bloch vectors (<X>, <Y>, <Z>) per row and qubit: (rows, n_qubits, 3),
        computed on first use and read-only."""
        a0, a1 = self.amplitudes[..., 0], self.amplitudes[..., 1]
        cross = 2.0 * np.conj(a0) * a1
        vectors = np.stack([cross.real, cross.imag, np.abs(a0) ** 2 - np.abs(a1) ** 2], axis=-1)
        vectors.flags.writeable = False
        return vectors

    def expectation(self, a: float, b: np.ndarray) -> np.ndarray:
        """Exact <H> per row, H = a*I + sum_{i,P} b[i, P] * P_i."""
        return a + np.einsum("rqp,qp->r", self.bloch, b)

    def variance(self, b: np.ndarray) -> np.ndarray:
        """Exact Var(H) per row: qubits are independent and (b . sigma)^2 = |b|^2 I."""
        along = np.einsum("rqp,qp->rq", self.bloch, b)
        return np.maximum(np.sum(b * b) - np.sum(along * along, axis=1), 0.0)

    def sample(
        self, a: float, b: np.ndarray, shots: int, rng: np.random.Generator,
        noise: NoiseModel = NoiseModel(),
    ) -> np.ndarray:
        """Shot estimate of <H> per row, each nonzero Pauli term measured `shots` times.

        All rows x terms are drawn in one binomial call on `rng`, terms ordered
        by qubit, then axis X < Y < Z.
        """
        if shots < 1:
            raise ValueError("shots must be >= 1")
        qubits, axes = np.nonzero(b)
        shrink = (1.0 - 4.0 * noise.depolarizing_prob / 3.0) ** self.gate_counts[qubits]
        p1 = np.clip((1.0 - shrink * self.bloch[:, qubits, axes]) / 2.0, 0.0, 1.0)
        flip = noise.readout_flip_prob
        ones = rng.binomial(shots, p1 * (1.0 - flip) + (1.0 - p1) * flip)
        return a + (1.0 - 2.0 * ones / shots) @ b[qubits, axes]


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


def _layer_ops(features, layers: int, variational=None):
    """The encoding circuit as register-wide (name, qubits, angle) gate ops.

    Per layer: H, the feature phase exp(+i * x_i * Z_i), then, when trained
    angles are given, RZ and RY.  `features` is (..., n_qubits); `variational`
    is (..., 2 * n_qubits * layers), laid out as
    `EncodingCircuit.variational_angles`.
    """
    n = features.shape[-1]
    angles = None
    if variational is not None:
        angles = variational.reshape(variational.shape[:-1] + (layers, n, 2))
    every = slice(None)
    for layer in range(layers):
        yield "h", every, 0.0
        yield "zphase", every, features
        if angles is not None:
            yield "rz", every, angles[..., layer, :, 0]
            yield "ry", every, angles[..., layer, :, 1]


def encode(X, layers: int = 1, variational=None) -> ProductStates:
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
    var = None
    if variational is not None:
        var = np.asarray(variational, dtype=float)
        if var.shape not in ((2 * n * layers,), (rows, 2 * n * layers)):
            raise ValueError(
                f"variational angles must have {2 * n * layers} entries per row, got {var.shape}"
            )
        if not np.all(np.isfinite(var)):
            raise ValueError("variational angles must be finite")
    return _fold(_layer_ops(X, layers, var), n, rows)


def apply_circuit(circuit: EncodingCircuit) -> ProductStates:
    """The one-row product state the circuit produces from the all-zeros state."""
    return encode(circuit.feature_angles[None, :], circuit.layers, circuit.variational_angles)


def _one_row_coefficients(state: ProductStates, obs: PauliSumObservable) -> np.ndarray:
    """The coefficient matrix of `obs` for the one-row state of a single circuit."""
    rows, n_qubits = state.amplitudes.shape[:2]
    if rows != 1:
        raise ValueError(f"expected the one-row state of a single circuit, got {rows} rows")
    return obs.coefficient_matrix(n_qubits)


def expectation(state: ProductStates, obs: PauliSumObservable) -> float:
    """Exact <H> of a one-row state, such as `apply_circuit` returns."""
    return float(state.expectation(obs.identity_coeff, _one_row_coefficients(state, obs))[0])


def variance(state: ProductStates, obs: PauliSumObservable) -> float:
    """Exact Var(H) of a one-row state, such as `apply_circuit` returns."""
    return float(state.variance(_one_row_coefficients(state, obs))[0])


def sample_expectation(
    circuit: EncodingCircuit, obs: PauliSumObservable, shots: int, seed
) -> float:
    """Monte-Carlo estimate of <H>: each Pauli term measured with `shots` shots.

    Deterministic for a fixed (circuit, obs, shots, seed).
    """
    return sample_noisy_expectation(circuit, obs, NoiseModel(), shots, seed)


def sample_noisy_expectation(
    circuit: EncodingCircuit, obs: PauliSumObservable,
    noise: NoiseModel, shots: int, seed,
) -> float:
    """Shot estimate of <H> under the depolarizing + readout-flip channel.

    With all noise probabilities zero this is `sample_expectation`.
    """
    rng = np.random.default_rng(seed)
    b = obs.coefficient_matrix(circuit.n_qubits)
    return float(apply_circuit(circuit).sample(obs.identity_coeff, b, shots, rng, noise)[0])
