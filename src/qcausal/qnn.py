"""Quantum-circuit regressor for treatment-probability estimation.

The prediction is the expectation of a trainable Pauli-sum observable over the
encoded state, f(x, theta) = <psi(x, phi)| H(a, b) |psi(x, phi)>.  Training
minimizes a weighted squared loss plus an optional variance-regularization
term,

    L(theta) = sum_i w_i (f(x_i, theta) - y_i)^2 + alpha * sum_i Var_f(x_i),

with the gradient-free CMA-ES loop from `qcausal.cmaes`.  Parameter-shift
gradients are provided as a verification tool for the exact evaluation mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import cmaes
from .quantum import AXES, NoiseModel, PauliSumObservable, ProductStates, encode

# The single-circuit API, bound here as well: perfbench/child.py wraps these
# names in this module when it traces a run.
from .quantum import apply_circuit, expectation, sample_noisy_expectation, variance  # noqa: F401


@dataclass(frozen=True)
class EvalMode:
    """How observable expectations are evaluated: exact, sampled, or noisy."""

    kind: str  # "exact" | "shots" | "noisy"
    shots: int | None = None
    noise: NoiseModel | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "shots", "noisy"):
            raise ValueError(f"unknown eval mode {self.kind!r}")
        if self.kind != "exact":
            if self.shots is None or self.shots < 1:
                raise ValueError("shot count must be >= 1")
        if self.kind == "noisy" and self.noise is None:
            raise ValueError("noisy mode requires a NoiseModel")

    @classmethod
    def exact(cls) -> "EvalMode":
        return cls("exact")

    @classmethod
    def sampled(cls, shots: int) -> "EvalMode":
        return cls("shots", shots=shots)

    @classmethod
    def noisy(cls, noise: NoiseModel, shots: int) -> "EvalMode":
        return cls("noisy", shots=shots, noise=noise)


@dataclass(frozen=True)
class QnnConfig:
    n_qubits: int
    layers: int = 1
    variational_enabled: bool = False
    eval_mode: EvalMode = EvalMode.exact()
    alpha: float = 1e-3
    clip_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0.0 < self.clip_epsilon < 0.5:
            raise ValueError("clip_epsilon must lie in (0, 0.5)")

    @property
    def n_circuit_angles(self) -> int:
        return 2 * self.n_qubits * self.layers if self.variational_enabled else 0

    @property
    def n_params(self) -> int:
        return 1 + 3 * self.n_qubits + self.n_circuit_angles


def _coeff_keys(n_qubits: int) -> list[tuple[int, str]]:
    return [(q, ax) for q in range(n_qubits) for ax in AXES]


@dataclass(frozen=True)
class QnnParams:
    """Trainable parameters; packed order is (a, b by (qubit, X<Y<Z), angles)."""

    identity_coeff: float
    pauli_coeffs: Mapping[tuple[int, str], float]
    circuit_angles: np.ndarray | None = None

    def __post_init__(self):
        coeffs = {k: float(v) for k, v in dict(self.pauli_coeffs).items()}
        object.__setattr__(self, "pauli_coeffs", coeffs)
        if self.circuit_angles is not None:
            angles = np.array(self.circuit_angles, dtype=float)
            angles.flags.writeable = False
            object.__setattr__(self, "circuit_angles", angles)

    def observable(self) -> PauliSumObservable:
        return PauliSumObservable(self.identity_coeff, self.pauli_coeffs)

    def pack(self) -> np.ndarray:
        n = 1 + max(q for q, _ in self.pauli_coeffs)
        flat = [self.identity_coeff]
        flat.extend(self.pauli_coeffs[key] for key in _coeff_keys(n))
        if self.circuit_angles is not None:
            flat.extend(self.circuit_angles)
        return np.array(flat, dtype=float)


def unpack_params(vector: Sequence[float], config: QnnConfig) -> QnnParams:
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (config.n_params,):
        raise ValueError(f"expected {config.n_params} packed parameters, got {vector.shape}")
    keys = _coeff_keys(config.n_qubits)
    coeffs = dict(zip(keys, vector[1 : 1 + len(keys)]))
    angles = vector[1 + len(keys) :].copy() if config.variational_enabled else None
    return QnnParams(float(vector[0]), coeffs, angles)


def initial_params(config: QnnConfig) -> QnnParams:
    """Start near the class-balance midpoint: a = 0.5, small random b, zero angles."""
    rng = np.random.default_rng(config.seed)
    coeffs = {key: float(rng.uniform(-0.1, 0.1)) for key in _coeff_keys(config.n_qubits)}
    angles = np.zeros(config.n_circuit_angles) if config.variational_enabled else None
    return QnnParams(0.5, coeffs, angles)


def _states(params: QnnParams, X, config: QnnConfig) -> ProductStates:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0 or X.shape[1] != config.n_qubits:
        raise ValueError(f"expected rows of {config.n_qubits} features, got shape {X.shape}")
    variational = params.circuit_angles if config.variational_enabled else None
    return encode(X, config.layers, variational)


def _predict_rows(params: QnnParams, X, config: QnnConfig, seed=None) -> np.ndarray:
    """f(x_i) for every row of X under the configured evaluation mode.

    Stochastic modes draw every row and term from one generator seeded with
    `seed`, which defaults to config.seed.
    """
    states = _states(params, X, config)
    obs = params.observable()
    mode = config.eval_mode
    if mode.kind == "exact":
        return states.expectation(obs)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return states.sample(obs, mode.shots, rng, mode.noise or NoiseModel())


def predict(params: QnnParams, x: Sequence[float], config: QnnConfig, seed=None) -> float:
    """Observable expectation under the configured evaluation mode.

    `seed` overrides the sampling seed for stochastic modes; it defaults to
    config.seed so repeated calls are reproducible.
    """
    return float(_predict_rows(params, np.asarray(x, dtype=float)[None], config, seed)[0])


def predict_propensity(params: QnnParams, x, config: QnnConfig, seed=None) -> float:
    """Raw output clamped to [eps, 1 - eps]; keeps scores usable as probabilities."""
    eps = config.clip_epsilon
    return float(np.clip(predict(params, x, config, seed), eps, 1.0 - eps))


def _check_training_arrays(X, y, w):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d row matrix")
    if len(y) != len(X) or len(w) != len(X):
        raise ValueError("X, y, w must have equal row counts")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return X, y, w


def loss_fit(params: QnnParams, X, y, w, config: QnnConfig, seed=None) -> float:
    """sum_i w_i (f(x_i) - y_i)^2 on raw (unclipped) predictions."""
    X, y, w = _check_training_arrays(X, y, w)
    residual = _predict_rows(params, X, config, seed) - y
    return float(np.sum(w * residual * residual))


def loss_variance(params: QnnParams, X, config: QnnConfig) -> float:
    """Sum of exact observable variances at the training points.

    Always evaluated exactly on the noiseless states, independent of the
    configured eval mode.
    """
    return float(np.sum(_states(params, X, config).variance(params.observable())))


def total_loss(params: QnnParams, X, y, w, config: QnnConfig, seed=None) -> float:
    """The training objective: loss_fit + alpha * loss_variance."""
    value = loss_fit(params, X, y, w, config, seed=seed)
    if config.alpha > 0:
        value += config.alpha * loss_variance(params, X, config)
    return float(value)


def gradient_parameter_shift(params: QnnParams, x, config: QnnConfig) -> np.ndarray:
    """Exact-mode gradient of f(x, theta) in packed parameter order.

    df/da = 1, df/db_{i,P} = <P_i> (the Bloch vectors), and circuit angles via
    the +-pi/2 shift rule (f(t + pi/2) - f(t - pi/2)) / 2.  The unshifted and
    all shifted circuits are evaluated as rows of one batch.
    """
    if config.eval_mode.kind != "exact":
        raise ValueError("parameter-shift gradients are defined for exact mode only")
    m = config.n_circuit_angles
    if config.variational_enabled:
        shifts = np.vstack([np.zeros(m), np.eye(m), -np.eye(m)]) * (math.pi / 2.0)
        # one angle vector per row: unshifted, then each angle +pi/2, then each -pi/2
        params = replace(params, circuit_angles=params.circuit_angles + shifts)
    states = _states(params, np.repeat(np.asarray(x, dtype=float)[None], 1 + 2 * m, axis=0), config)
    f = states.expectation(params.observable())
    return np.concatenate([[1.0], states.bloch()[0].ravel(), (f[1 : 1 + m] - f[1 + m :]) / 2.0])


@dataclass(frozen=True)
class FittedQnn:
    config: QnnConfig
    params: QnnParams
    trace: tuple[float, ...] = field(default=())  # best loss per generation
    evaluations: int = 0


def fit(
    X,
    y,
    w=None,
    config: QnnConfig | None = None,
    cmaes_config: cmaes.CmaesConfig | None = None,
) -> FittedQnn:
    """Train by minimizing total_loss with CMA-ES; deterministic per config.seed.

    Stochastic eval modes seed one generator per objective evaluation with
    (seed, evaluation counter), so the objective is noisy but the whole run
    replays exactly.
    """
    if config is None:
        raise ValueError("a QnnConfig is required")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 2:
        raise ValueError("need at least two training rows")
    if w is None:
        w = np.ones(len(X))
    classes = set(np.unique(y))
    if not classes == {0.0, 1.0}:
        raise ValueError("labels must contain both classes 0 and 1")

    if cmaes_config is None:
        cmaes_config = cmaes.CmaesConfig(max_evaluations=4000, seed=config.seed)

    stochastic = config.eval_mode.kind != "exact"
    counter = 0

    def objective(vector):
        nonlocal counter
        counter += 1
        seed = (config.seed, counter) if stochastic else None
        return total_loss(unpack_params(vector, config), X, y, w, config, seed=seed)

    result = cmaes.minimize(objective, initial_params(config).pack(), cmaes_config)
    return FittedQnn(
        config=config,
        params=unpack_params(result.best_point, config),
        trace=tuple(result.trace),
        evaluations=result.evaluations,
    )


def predict_propensities(fitted: FittedQnn, X, seed=None) -> np.ndarray:
    """Clipped scores for every row of X, evaluated as one batch.

    Stochastic modes draw all rows from one generator seeded with `seed`
    (default config.seed), so identical rows still get independent draws.
    """
    eps = fitted.config.clip_epsilon
    return np.clip(_predict_rows(fitted.params, X, fitted.config, seed), eps, 1.0 - eps)
