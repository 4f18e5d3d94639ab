import math

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
        config = CmaesConfig(max_evaluations=100, seed=1)
        state = init_state([1.0, -2.0])
        state.sigma = 1e-12
        candidates = ask(state, config)
        assert np.allclose(candidates, state.mean, atol=1e-9)

    def test_fixed_seed_reproducible(self):
        config = CmaesConfig(max_evaluations=100, seed=5)
        a = ask(init_state([0.0, 0.0, 0.0]), config)
        b = ask(init_state([0.0, 0.0, 0.0]), config)
        assert np.array_equal(a, b)

    def test_distinct_generations_differ(self):
        config = CmaesConfig(max_evaluations=100, seed=5)
        state = init_state([0.0, 0.0])
        a = ask(state, config)
        state.generation = 1
        b = ask(state, config)
        assert not np.array_equal(a, b)

    def test_sample_mean_matches_state_mean(self):
        config = CmaesConfig(max_evaluations=100, seed=3)
        state = init_state([2.0, -1.0])
        state.sigma = 0.5
        candidates = []
        for generation in range(15_000):
            state.generation = generation
            candidates.append(ask(state, config))
        candidates = np.concatenate(candidates)
        se = 0.5 / np.sqrt(len(candidates))
        assert np.all(np.abs(candidates.mean(axis=0) - state.mean) < 3 * se)


class TestTell:
    def test_all_values_equal_gives_plain_recombination_and_keeps_best(self):
        config = CmaesConfig(max_evaluations=100, seed=0)
        state = init_state([0.0, 0.0])
        state.best_value = -1.0
        state.best_point = np.array([9.0, 9.0])
        candidates = ask(state, config)
        tell(state, candidates, [3.0] * len(candidates))
        mu = len(candidates) // 2
        from qcausal.cmaes import _strategy

        weights = _strategy(2, len(candidates))[0]
        expected = weights @ candidates[:mu]
        assert np.allclose(state.mean, expected)
        assert state.best_value == -1.0  # tie never improves best-ever

    def test_improving_candidate_updates_best(self):
        config = CmaesConfig(max_evaluations=100, seed=2)
        state = init_state([1.0, 1.0])
        candidates = ask(state, config)
        values = [sphere(c) for c in candidates]
        tell(state, candidates, values)
        assert state.best_value == min(values)

    def test_nan_value_rejected(self):
        config = CmaesConfig(max_evaluations=100, seed=2)
        state = init_state([1.0])
        candidates = ask(state, config)
        values = [np.nan] * len(candidates)
        with pytest.raises(ValueError):
            tell(state, candidates, values)

    def test_quadratic_progress_over_50_generations(self):
        config = CmaesConfig(seed=7, max_evaluations=10**9)
        state = init_state([1.0, 1.0])
        state.sigma = 0.3
        first_best = None
        for _ in range(50):
            candidates = ask(state, config)
            values = [sphere(c) for c in candidates]
            tell(state, candidates, values)
            if first_best is None:
                first_best = state.best_value
        assert state.best_value <= first_best / 1e6

    def test_covariance_stays_symmetric(self):
        config = CmaesConfig(max_evaluations=100, seed=9)
        state = init_state([0.5, -0.5, 1.5])
        for _ in range(30):
            candidates = ask(state, config)
            tell(state, candidates, [rosenbrock(c) for c in candidates])
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
            minimize(broken, np.ones(2), CmaesConfig(max_evaluations=100, seed=0))

    def test_non_finite_value_at_x0_rejected(self):
        calls = []

        def nan_first(x):
            calls.append(1)
            return math.nan if len(calls) == 1 else sphere(x)

        with pytest.raises(ValueError, match="non-finite"):
            minimize(nan_first, np.ones(2), CmaesConfig(max_evaluations=200, seed=0))
        assert len(calls) == 1


class TestFixedStrategy:
    """minimize's results for three short runs, recorded when sigma0,
    population, parent fraction, mean rate and damping were config fields at
    their defaults; the ask/tell oracle reads the same constants, so only
    these numbers catch a drift in them.  rtol 1e-12 leaves room for another
    LAPACK build."""

    RECORDED = {
        (3, 5): (
            [267.453125, 162.73475065471553, 133.74780834093076,
             63.57548663993724, 29.674214493451196],
            [0.2602964124482098, 0.49299004954224795, 0.5714816212238958],
        ),
        (5, 2): (  # an odd population: 9
            [316.673828125, 195.33441207090232, 155.94759163578388,
             116.22265957464725, 85.8876158908433],
            [-0.43510046201148733, -0.06406229483082258, -0.14609203670441884,
             0.8253650287990766, 0.9646163881061294],
        ),
        (13, 11): (
            [618.5612220293209, 510.611610962706, 452.49075989037385,
             322.3880192191522, 294.0990441438037],
            [-0.7271654326406767, -0.604301482236359, 0.03627907100806382,
             -0.44890572444382226, -0.06209150633164377, 0.14497421992447068,
             0.36825649160978224, 0.44078683005831504, 0.5986642821562879,
             0.9220956206776978, 0.917270073343852, 1.0312323469289546,
             1.7022232130134485],
        ),
    }

    @pytest.mark.parametrize("dim, seed", sorted(RECORDED))
    def test_four_generations_of_rosenbrock_match_the_record(self, dim, seed):
        trace, best_point = self.RECORDED[(dim, seed)]
        budget = 1 + 4 * default_population(dim)
        result = minimize(
            rosenbrock, np.linspace(-1.0, 1.5, dim), CmaesConfig(max_evaluations=budget, seed=seed)
        )
        assert (result.generations, result.evaluations) == (4, budget)
        assert result.best_value == pytest.approx(trace[-1], rel=1e-12)
        np.testing.assert_allclose(result.trace, trace, rtol=1e-12)
        np.testing.assert_allclose(result.best_point, best_point, rtol=1e-12)


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
        config = CmaesConfig(max_evaluations=100, seed=3)
        state = init_state([0.2, -0.4])
        candidates = ask(state, config)
        assert state.eigen is not None
        tell(state, candidates, [sphere(c) for c in candidates])
        assert state.eigen is None
