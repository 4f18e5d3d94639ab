import numpy as np
import pytest

import oracles
from qcausal import cmaes
from qcausal.cmaes import (
    CmaesConfig,
    ask,
    default_population,
    init_state,
    minimize,
    tell,
)


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestDefaultPopulation:
    def test_spot_values(self):
        assert default_population(1) == 4
        assert default_population(13) == 12
        assert default_population(20) == 13

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            default_population(0)


class TestAsk:
    def test_sigma_to_zero_limit_collapses_to_mean(self):
        config = CmaesConfig(sigma0=1e-12, seed=1)
        state = init_state([1.0, -2.0], config)
        candidates = ask(state, config)
        assert np.allclose(candidates, state.mean, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        config = CmaesConfig(seed=5)
        a = ask(init_state([0.0, 0.0, 0.0], config), config)
        b = ask(init_state([0.0, 0.0, 0.0], config), config)
        assert np.array_equal(a, b)

    def test_distinct_generations_differ(self):
        config = CmaesConfig(seed=5)
        state = init_state([0.0, 0.0], config)
        a = ask(state, config)
        state.generation = 1
        b = ask(state, config)
        assert not np.array_equal(a, b)

    def test_sample_mean_matches_state_mean(self):
        config = CmaesConfig(sigma0=0.5, population=100_000, seed=3)
        state = init_state([2.0, -1.0], config)
        candidates = ask(state, config)
        se = 0.5 / np.sqrt(len(candidates))
        assert np.all(np.abs(candidates.mean(axis=0) - state.mean) < 3 * se)


class TestTell:
    def test_all_values_equal_gives_plain_recombination_and_keeps_best(self):
        config = CmaesConfig(seed=0)
        state = init_state([0.0, 0.0], config)
        state.best_value = -1.0
        state.best_point = np.array([9.0, 9.0])
        candidates = ask(state, config)
        tell(state, candidates, [3.0] * len(candidates), config)
        mu = len(candidates) // 2
        from qcausal.cmaes import _strategy

        weights = _strategy(2, len(candidates), 0.5, 1.0)[0]
        expected = weights @ candidates[:mu]
        assert np.allclose(state.mean, expected)
        assert state.best_value == -1.0  # tie never improves best-ever

    def test_improving_candidate_updates_best(self):
        config = CmaesConfig(seed=2)
        state = init_state([1.0, 1.0], config)
        candidates = ask(state, config)
        values = [sphere(c) for c in candidates]
        tell(state, candidates, values, config)
        assert state.best_value == min(values)

    def test_nan_value_rejected(self):
        config = CmaesConfig(seed=2)
        state = init_state([1.0], config)
        candidates = ask(state, config)
        values = [np.nan] * len(candidates)
        with pytest.raises(ValueError):
            tell(state, candidates, values, config)

    def test_quadratic_progress_over_50_generations(self):
        config = CmaesConfig(sigma0=0.3, seed=7, max_evaluations=10**9)
        state = init_state([1.0, 1.0], config)
        first_best = None
        for _ in range(50):
            candidates = ask(state, config)
            values = [sphere(c) for c in candidates]
            tell(state, candidates, values, config)
            if first_best is None:
                first_best = state.best_value
        assert state.best_value <= first_best / 1e6

    def test_covariance_stays_symmetric(self):
        config = CmaesConfig(seed=9)
        state = init_state([0.5, -0.5, 1.5], config)
        for _ in range(30):
            candidates = ask(state, config)
            tell(state, candidates, [rosenbrock(c) for c in candidates], config)
            assert np.max(np.abs(state.cov - state.cov.T)) < 1e-12


class TestMinimize:
    def test_sphere_10d(self):
        result = minimize(
            sphere,
            np.ones(10),
            CmaesConfig(max_evaluations=20_000, target_loss=1e-12, seed=1),
        )
        assert result.best_value <= 1e-10
        assert result.evaluations <= 20_000

    def test_rosenbrock_5d(self):
        result = minimize(
            rosenbrock,
            np.zeros(5),
            CmaesConfig(max_evaluations=100_000, target_loss=1e-8, seed=1),
        )
        assert result.best_value <= 1e-6
        assert result.evaluations <= 100_000

    def test_already_optimal_start_returned_immediately(self):
        result = minimize(
            sphere, np.zeros(3), CmaesConfig(max_evaluations=200, target_loss=0.0, seed=0)
        )
        assert result.best_value == 0.0
        assert result.evaluations == 1
        assert np.array_equal(result.best_point, np.zeros(3))

    def test_trace_monotone_nonincreasing(self):
        result = minimize(sphere, np.ones(4), CmaesConfig(max_evaluations=2000, seed=3))
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) <= 0)

    def test_full_trace_bit_identical_across_runs(self):
        config = CmaesConfig(max_evaluations=1500, seed=11)
        a = minimize(rosenbrock, np.zeros(3), config)
        b = minimize(rosenbrock, np.zeros(3), config)
        assert a.trace == b.trace
        assert np.array_equal(a.best_point, b.best_point)

    def test_shift_invariance_on_sphere(self):
        shift = np.array([0.7, -1.3, 0.2])
        config = CmaesConfig(max_evaluations=30_000, target_loss=1e-16, seed=4)
        plain = minimize(sphere, np.ones(3), config)
        moved = minimize(lambda x: sphere(x - shift), np.ones(3) + shift, config)
        assert np.allclose(moved.best_point - plain.best_point, shift, atol=1e-6)

    def test_objective_exception_propagates(self):
        def broken(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            minimize(broken, np.ones(2), CmaesConfig(seed=0))


class TestOneDecompositionPerGeneration:
    """ask and tell share the covariance's eigendecomposition; minimize stays
    bit-identical to the earlier ask/tell, which decomposed it twice."""

    @pytest.mark.parametrize("dim, seed", [(1, 0), (3, 5), (7, 2), (13, 11)])
    def test_minimize_matches_the_two_decomposition_oracle(self, monkeypatch, dim, seed):
        config = CmaesConfig(max_evaluations=1200, seed=seed)
        x0 = np.linspace(-1.0, 1.5, dim)
        got = minimize(rosenbrock, x0, config)
        monkeypatch.setattr(cmaes, "ask", oracles.ask)
        monkeypatch.setattr(cmaes, "tell", oracles.tell)
        want = minimize(rosenbrock, x0, config)
        assert got.best_point.tobytes() == want.best_point.tobytes()
        assert got.trace == want.trace
        assert (got.evaluations, got.generations, got.stop_reason) == (
            want.evaluations, want.generations, want.stop_reason,
        )

    def test_one_decomposition_per_generation(self, monkeypatch):
        calls = []
        real = cmaes._decompose
        monkeypatch.setattr(cmaes, "_decompose", lambda cov: calls.append(1) or real(cov))
        result = minimize(sphere, np.ones(4), CmaesConfig(max_evaluations=300, seed=1))
        assert len(calls) == result.generations > 0

    def test_tell_clears_the_cached_decomposition(self):
        config = CmaesConfig(seed=3)
        state = init_state([0.2, -0.4], config)
        candidates = ask(state, config)
        assert state.eigen is not None
        tell(state, candidates, [sphere(c) for c in candidates], config)
        assert state.eigen is None
