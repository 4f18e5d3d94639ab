"""Quantum-circuit regressor for treatment-probability estimation.

The prediction is the expectation of a trainable Pauli-sum observable over the
encoded state, f(x, theta) = <psi(x, phi)| H(a, b) |psi(x, phi)>, evaluated
exactly or from `shots` shots per Pauli term under a noise model (`EvalMode`).
H = a*I + sum_{i,P} b[i, P] * P_i trains every term, so b is one (n_qubits, 3)
matrix, packed for CMA-ES as (a, b row by row, angles) and read as is.
Training minimizes the objective L(theta) that `_loss` defines, with the
gradient-free CMA-ES loop from `qcausal.cmaes`.  Parameter-shift gradients
are provided as a verification tool for exact evaluation.

Without trained circuit angles the encoded states do not depend on theta, so
`fit` encodes the training rows once and every objective evaluation reads f
and Var_f off those states; with trained angles each evaluation encodes anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import cmaes
from .metrics import has_both_classes
from .quantum import NoiseModel, ProductStates, encode

# The single-circuit API, bound here as well: perfbench/child.py wraps these
# names in this module when it traces a run.
from .quantum import apply_circuit, expectation, sample_noisy_expectation, variance  # noqa: F401


@dataclass(frozen=True)
class EvalMode:
    """How observable expectations are evaluated: exactly when `shots` is
    None, else from `shots` shots per Pauli term under `noise`."""

    shots: int | None = None
    noise: NoiseModel = NoiseModel()

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ValueError("shot count must be >= 1")

    @classmethod
    def exact(cls) -> "EvalMode":
        return cls()

    @classmethod
    def sampled(cls, shots: int) -> "EvalMode":
        return cls(shots)

    @classmethod
    def noisy(cls, noise: NoiseModel, shots: int) -> "EvalMode":
        return cls(shots, noise)


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
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 < self.clip_epsilon < 0.5:
            raise ValueError("clip_epsilon must lie in (0, 0.5)")

    @property
    def n_circuit_angles(self) -> int:
        return 2 * self.n_qubits * self.layers if self.variational_enabled else 0

    @property
    def n_params(self) -> int:
        return 1 + 3 * self.n_qubits + self.n_circuit_angles


@dataclass(frozen=True)
class QnnParams:
    """a, b and the circuit angles, with b = `pauli_coeffs` an (n_qubits, 3)
    matrix (columns X, Y, Z); arrays are held as read-only float copies."""

    identity_coeff: float
    pauli_coeffs: np.ndarray
    circuit_angles: np.ndarray | None = None

    def __post_init__(self):
        for name in ("pauli_coeffs", "circuit_angles"):
            values = getattr(self, name)
            if values is not None:
                values = np.array(values, dtype=float)
                values.flags.writeable = False
                object.__setattr__(self, name, values)
        if self.pauli_coeffs.ndim != 2 or self.pauli_coeffs.shape[1] != 3:
            raise ValueError(f"expected (n_qubits, 3) coefficients, got {self.pauli_coeffs.shape}")

    def pack(self) -> np.ndarray:
        angles = () if self.circuit_angles is None else self.circuit_angles
        return np.concatenate(([self.identity_coeff], self.pauli_coeffs.ravel(), angles))


def unpack_params(vector: Sequence[float], config: QnnConfig) -> QnnParams:
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (config.n_params,):
        raise ValueError(f"expected {config.n_params} packed parameters, got {vector.shape}")
    n = config.n_qubits
    angles = vector[1 + 3 * n :] if config.variational_enabled else None
    return QnnParams(float(vector[0]), vector[1 : 1 + 3 * n].reshape(n, 3), angles)


def initial_params(config: QnnConfig) -> QnnParams:
    """Start near the class-balance midpoint: a = 0.5, small random b, zero angles."""
    rng = np.random.default_rng(config.seed)
    coeffs = rng.uniform(-0.1, 0.1, (config.n_qubits, 3))
    angles = np.zeros(config.n_circuit_angles) if config.variational_enabled else None
    return QnnParams(0.5, coeffs, angles)


def _states(params: QnnParams, X, config: QnnConfig) -> ProductStates:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) == 0 or X.shape[1] != config.n_qubits:
        raise ValueError(f"expected rows of {config.n_qubits} features, got shape {X.shape}")
    variational = params.circuit_angles if config.variational_enabled else None
    return encode(X, config.layers, variational)


def _outputs(states: ProductStates, params: QnnParams, config: QnnConfig, seed) -> np.ndarray:
    """f per row of `states` under the configured evaluation mode.

    Stochastic modes draw every row and term from one generator seeded with
    `seed`, which defaults to config.seed.
    """
    mode = config.eval_mode
    if mode.shots is None:
        return states.expectation(params.identity_coeff, params.pauli_coeffs)
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return states.sample(params.identity_coeff, params.pauli_coeffs, mode.shots, rng, mode.noise)


def _predict_rows(params: QnnParams, X, config: QnnConfig, seed=None) -> np.ndarray:
    """f(x_i) for every row of X under the configured evaluation mode."""
    return _outputs(_states(params, X, config), params, config, seed)


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
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    return X, y, w


def _loss(params: QnnParams, states: ProductStates, y, w, config: QnnConfig, seed) -> float:
    """The objective on the states of the training rows,

        L(theta) = sum_i w_i (f(x_i, theta) - y_i)^2 + alpha * sum_i Var_f(x_i),

    with f raw (unclipped) under the configured eval mode and Var_f exact in
    every mode.
    """
    residual = _outputs(states, params, config, seed) - y
    value = float(np.sum(w * residual * residual))
    if config.alpha > 0:
        value += config.alpha * float(np.sum(states.variance(params.pauli_coeffs)))
    return value


def total_loss(params: QnnParams, X, y, w, config: QnnConfig, seed=None) -> float:
    """The objective `_loss` at `params`, from one encoding of X."""
    X, y, w = _check_training_arrays(X, y, w)
    return _loss(params, _states(params, X, config), y, w, config, seed)


def gradient_parameter_shift(params: QnnParams, x, config: QnnConfig) -> np.ndarray:
    """Exact-mode gradient of f(x, theta) in packed parameter order.

    df/da = 1, df/db_{i,P} = <P_i> (the Bloch vectors), and circuit angles via
    the +-pi/2 shift rule (f(t + pi/2) - f(t - pi/2)) / 2.  The unshifted and
    all shifted circuits are evaluated as rows of one batch.
    """
    if config.eval_mode.shots is not None:
        raise ValueError("parameter-shift gradients are defined for exact mode only")
    m = config.n_circuit_angles
    if config.variational_enabled:
        shifts = np.vstack([np.zeros(m), np.eye(m), -np.eye(m)]) * (math.pi / 2.0)
        # one angle vector per row: unshifted, then each angle +pi/2, then each -pi/2
        params = replace(params, circuit_angles=params.circuit_angles + shifts)
    states = _states(params, np.repeat(np.asarray(x, dtype=float)[None], 1 + 2 * m, axis=0), config)
    f = states.expectation(params.identity_coeff, params.pauli_coeffs)
    return np.concatenate([[1.0], states.bloch[0].ravel(), (f[1 : 1 + m] - f[1 + m :]) / 2.0])


@dataclass(frozen=True)
class FittedQnn:
    config: QnnConfig
    params: QnnParams
    trace: tuple[float, ...] = field(default=())  # best loss per generation
    evaluations: int = 0
    generations: int = 0
    stop_reason: str = ""  # why CMA-ES stopped; see cmaes.minimize


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
    replays exactly.  X, y and w are checked once.  Without trained angles
    the rows are encoded once, before CMA-ES starts; with them, once per
    evaluation.  Each evaluation equals total_loss at its parameters.
    """
    if config is None:
        raise ValueError("a QnnConfig is required")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 2:
        raise ValueError("need at least two training rows")
    if w is None:
        w = np.ones(len(X))
    if not has_both_classes(y):
        raise ValueError("labels must contain both classes 0 and 1")
    X, y, w = _check_training_arrays(X, y, w)

    if cmaes_config is None:
        cmaes_config = cmaes.CmaesConfig(max_evaluations=4000, seed=config.seed)

    start = initial_params(config)
    fixed = None if config.variational_enabled else _states(start, X, config)
    stochastic = config.eval_mode.shots is not None
    counter = 0

    def objective(vector):
        nonlocal counter
        counter += 1
        seed = (config.seed, counter) if stochastic else None
        params = unpack_params(vector, config)
        states = _states(params, X, config) if fixed is None else fixed
        return _loss(params, states, y, w, config, seed)

    result = cmaes.minimize(objective, start.pack(), cmaes_config)
    return FittedQnn(
        config=config,
        params=unpack_params(result.best_point, config),
        trace=tuple(result.trace),
        evaluations=result.evaluations,
        generations=result.generations,
        stop_reason=result.stop_reason,
    )


def predict_propensities(fitted: FittedQnn, X, seed=None) -> np.ndarray:
    """Clipped scores for every row of X, evaluated as one batch.

    Stochastic modes draw all rows from one generator seeded with `seed`
    (default config.seed), so identical rows still get independent draws.
    """
    eps = fitted.config.clip_epsilon
    return np.clip(_predict_rows(fitted.params, X, fitted.config, seed), eps, 1.0 - eps)
