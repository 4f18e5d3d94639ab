"""Covariance matrix adaptation evolution strategy, written from scratch.

The strategy is fixed, as circuit training uses it: initial step size
`SIGMA0` = 0.15, population `default_population(m)` = ceil(4 + 3*ln(m)) for
m parameters, the best half of it as parents, mean learning rate 1, and the
canonical step-size damping.  These are constants of this module, not
options; `CmaesConfig` holds only the budget, the target and the seed.
Remaining learning rates (c_sigma, c_c, c_1, c_mu) use the canonical
dimension-dependent defaults with log-rank recombination weights.

The eigendecomposition of the covariance is computed once per generation:
`ask` and `tell` share it through `CmaesState.eigen`, which `tell` clears
when it replaces the covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

SIGMA0 = 0.15
EIGEN_FLOOR = 1e-14
SIGMA_COLLAPSE = 1e-12
SIGMA_BLOWUP_FACTOR = 1e7


def default_population(m: int) -> int:
    """ceil(4 + 3*ln m); natural logarithm."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.ceil(4.0 + 3.0 * math.log(m))


@dataclass
class CmaesConfig:
    max_evaluations: int
    target_loss: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")


@lru_cache(maxsize=None)
def _strategy(m: int, lam: int):
    """Selection weights and learning rates for dimension m, population lam."""
    mu = max(1, lam // 2)
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = float(weights.sum() ** 2 / np.sum(weights**2))
    cs = (mueff + 2.0) / (m + mueff + 5.0)
    cc = (4.0 + mueff / m) / (m + 4.0 + 2.0 * mueff / m)
    c1 = 2.0 / ((m + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((m + 2.0) ** 2 + mueff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (m + 1.0)) - 1.0) + cs
    chi_m = math.sqrt(m) * (1.0 - 1.0 / (4.0 * m) + 1.0 / (21.0 * m * m))
    return weights, mueff, cs, cc, c1, cmu, damps, chi_m, mu


@dataclass
class CmaesState:
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_cov: np.ndarray
    generation: int = 0
    best_point: np.ndarray | None = None
    best_value: float = math.inf
    evaluations: int = 0
    # _decompose(cov), cached; whatever replaces cov must reset this to None
    eigen: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def init_state(x0: Sequence[float]) -> CmaesState:
    mean = np.asarray(x0, dtype=float).copy()
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError("x0 must be a non-empty 1-d sequence")
    m = mean.size
    return CmaesState(
        mean=mean,
        sigma=SIGMA0,
        cov=np.eye(m),
        path_sigma=np.zeros(m),
        path_cov=np.zeros(m),
    )


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with the floor repair for numerical breakdowns."""
    sym = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if not np.all(np.isfinite(eigvals)):
        raise FloatingPointError("covariance decomposition produced non-finite eigenvalues")
    return np.maximum(eigvals, EIGEN_FLOOR), eigvecs


def _eigen(state: CmaesState) -> tuple[np.ndarray, np.ndarray]:
    if state.eigen is None:
        state.eigen = _decompose(state.cov)
    return state.eigen


def ask(state: CmaesState, config: CmaesConfig) -> np.ndarray:
    """Sample the population for this generation; deterministic per (seed, generation)."""
    m = state.mean.size
    lam = default_population(m)
    eigvals, eigvecs = _eigen(state)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, state.generation)))
    z = rng.standard_normal((lam, m))
    return state.mean + state.sigma * (z * np.sqrt(eigvals)) @ eigvecs.T


def tell(
    state: CmaesState,
    candidates: np.ndarray,
    values: Sequence[float],
) -> CmaesState:
    """Rank candidates and update mean, step size, covariance, and paths."""
    candidates = np.asarray(candidates, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(values) != len(candidates):
        raise ValueError("values and candidates must have equal length")
    if not np.all(np.isfinite(values)):
        raise ValueError("objective returned a non-finite value")

    m = state.mean.size
    lam = len(candidates)
    weights, mueff, cs, cc, c1, cmu, damps, chi_m, mu = _strategy(m, lam)

    order = np.argsort(values, kind="stable")
    if values[order[0]] < state.best_value:
        state.best_value = float(values[order[0]])
        state.best_point = candidates[order[0]].copy()

    parents = candidates[order[:mu]]
    old_mean = state.mean
    shift = weights @ (parents - old_mean)
    state.mean = old_mean + shift

    eigvals, eigvecs = _eigen(state)
    inv_sqrt = eigvecs @ ((eigvecs / np.sqrt(eigvals)).T)
    z = inv_sqrt @ shift / state.sigma
    state.path_sigma = (1.0 - cs) * state.path_sigma + math.sqrt(
        cs * (2.0 - cs) * mueff
    ) * z

    gen1 = state.generation + 1
    ps_norm2 = float(state.path_sigma @ state.path_sigma)
    hsig = ps_norm2 / m / (1.0 - (1.0 - cs) ** (2 * gen1)) < 2.0 + 4.0 / (m + 1.0)
    state.path_cov = (1.0 - cc) * state.path_cov + hsig * math.sqrt(
        cc * (2.0 - cc) * mueff
    ) * shift / state.sigma

    c1a = c1 * (1.0 - (not hsig) * cc * (2.0 - cc))
    y = (parents - old_mean) / state.sigma
    rank_mu = (weights[:, None] * y).T @ y
    cov = (
        (1.0 - c1a - cmu) * state.cov
        + c1 * np.outer(state.path_cov, state.path_cov)
        + cmu * rank_mu
    )
    state.cov = (cov + cov.T) / 2.0
    state.eigen = None

    state.sigma *= math.exp(
        min(1.0, (cs / damps) * (math.sqrt(ps_norm2) / chi_m - 1.0))
    )
    state.generation = gen1
    state.evaluations += lam
    return state


@dataclass
class MinimizeResult:
    best_point: np.ndarray
    best_value: float
    trace: list[float] = field(default_factory=list)  # best-so-far per generation
    evaluations: int = 0
    generations: int = 0
    stop_reason: str = ""


def minimize(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    config: CmaesConfig,
) -> MinimizeResult:
    """Minimize `objective` by looping ask/tell until the budget or target is hit."""
    state = init_state(x0)
    lam = default_population(state.mean.size)

    state.best_point = state.mean.copy()
    state.best_value = float(objective(state.mean.copy()))
    if not math.isfinite(state.best_value):
        raise ValueError("objective returned a non-finite value")
    state.evaluations = 1
    trace = [state.best_value]
    stop = ""

    while True:
        if config.target_loss is not None and state.best_value <= config.target_loss:
            stop = "target_loss"
            break
        if state.evaluations + lam > config.max_evaluations:
            stop = "max_evaluations"
            break
        if state.sigma > SIGMA_BLOWUP_FACTOR * SIGMA0:
            stop = "sigma_blowup"
            break
        if state.sigma < SIGMA_COLLAPSE:
            stop = "sigma_collapse"
            break
        candidates = ask(state, config)
        values = [float(objective(c.copy())) for c in candidates]
        tell(state, candidates, values)
        trace.append(state.best_value)

    return MinimizeResult(
        best_point=state.best_point.copy(),
        best_value=state.best_value,
        trace=trace,
        evaluations=state.evaluations,
        generations=state.generation,
        stop_reason=stop,
    )
