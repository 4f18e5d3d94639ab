import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcausal.qnn import (
    EvalMode,
    FittedQnn,
    QnnConfig,
    QnnParams,
    fit,
    gradient_parameter_shift,
    initial_params,
    predict,
    predict_propensity,
    predict_propensities,
    total_loss,
    unpack_params,
)
from qcausal.quantum import EncodingCircuit, NoiseModel, PauliSumObservable


def loss_fit(params, X, y, w, config, seed=None):
    """The squared-error term of the objective: total_loss at alpha 0."""
    return total_loss(params, X, y, w, replace(config, alpha=0.0), seed)


def loss_variance(params, X, config):
    """The variance term of the objective: total_loss at alpha 1 minus alpha 0."""
    X = np.asarray(X, dtype=float)
    y, w = np.zeros(len(X)), np.ones(len(X))
    both = total_loss(params, X, y, w, replace(config, alpha=1.0))
    return both - loss_fit(params, X, y, w, config)


def axis_params(axis, a=0.0):
    """One qubit whose only Pauli term is `axis` with coefficient 1."""
    b = np.zeros((1, 3))
    b[0, "XYZ".index(axis)] = 1.0
    return QnnParams(a, b)


class TestConfig:
    def test_alpha_range_accepted(self):
        for alpha in (1e-4, 1e-3, 1e-2):
            assert QnnConfig(n_qubits=1, alpha=alpha).alpha == alpha

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            QnnConfig(n_qubits=1, alpha=-1e-3)

    def test_clip_epsilon_range(self):
        with pytest.raises(ValueError):
            QnnConfig(n_qubits=1, clip_epsilon=0.5)
        with pytest.raises(ValueError):
            QnnConfig(n_qubits=1, clip_epsilon=0.0)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            EvalMode.sampled(0)
        for shots in (0, -1):
            with pytest.raises(ValueError, match="shot count must be >= 1"):
                EvalMode(shots=shots)
            with pytest.raises(ValueError, match="shot count must be >= 1"):
                EvalMode.noisy(NoiseModel(), shots)


class TestEvalMode:
    """The evaluation mode is the pair (shots, noise): no shot count is exact,
    and zero noise is plain sampling."""

    def test_default_is_exact(self):
        assert EvalMode() == EvalMode.exact()
        assert EvalMode().shots is None and EvalMode().noise == NoiseModel()

    def test_zero_noise_is_plain_sampling(self):
        X, y, w = small_task()
        sampled = QnnConfig(n_qubits=2, seed=6, eval_mode=EvalMode.sampled(32))
        noiseless = replace(sampled, eval_mode=EvalMode.noisy(NoiseModel(), 32))
        params = initial_params(sampled)
        a = predict_propensities(FittedQnn(sampled, params), X, seed=11)
        b = predict_propensities(FittedQnn(noiseless, params), X, seed=11)
        assert a.tobytes() == b.tobytes()
        loss = [total_loss(params, X, y, w, config, seed=4) for config in (sampled, noiseless)]
        assert loss[0] == loss[1]


class TestPacking:
    def test_param_count(self):
        assert QnnConfig(n_qubits=4).n_params == 13
        assert QnnConfig(n_qubits=2, layers=2, variational_enabled=True).n_params == 15

    @settings(max_examples=40, deadline=None)
    @given(
        n_qubits=st.integers(1, 3),
        layers=st.integers(1, 2),
        variational=st.booleans(),
        data=st.data(),
    )
    def test_pack_unpack_roundtrip(self, n_qubits, layers, variational, data):
        config = QnnConfig(n_qubits=n_qubits, layers=layers, variational_enabled=variational)
        vector = np.array(
            data.draw(
                st.lists(
                    st.floats(-5, 5, allow_nan=False),
                    min_size=config.n_params,
                    max_size=config.n_params,
                )
            )
        )
        params = unpack_params(vector, config)
        assert np.array_equal(params.pack(), vector)

    def test_unpack_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            unpack_params(np.zeros(5), QnnConfig(n_qubits=4))

    @pytest.mark.parametrize("n_qubits", [1, 4])
    def test_initial_params_draw_the_scalar_stream(self, n_qubits):
        config = QnnConfig(n_qubits=n_qubits, seed=11)
        rng = np.random.default_rng(config.seed)
        want = np.array([0.5, *(rng.uniform(-0.1, 0.1) for _ in range(3 * n_qubits))])
        assert initial_params(config).pack().tobytes() == want.tobytes()

    @pytest.mark.parametrize("variational", [False, True])
    def test_unpacked_params_are_read_only_copies(self, variational):
        config = QnnConfig(n_qubits=2, variational_enabled=variational)
        vector = np.arange(config.n_params, dtype=float)
        params = unpack_params(vector, config)
        assert params.pauli_coeffs.shape == (2, 3)
        assert params.pauli_coeffs[1].tolist() == [4.0, 5.0, 6.0]
        vector[:] = -1.0
        assert np.array_equal(params.pack(), np.arange(config.n_params))
        arrays = [params.pauli_coeffs] + ([params.circuit_angles] if variational else [])
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7.0

    def test_coefficients_must_be_a_three_column_matrix(self):
        with pytest.raises(ValueError, match=r"\(n_qubits, 3\)"):
            QnnParams(0.5, np.zeros(6))


class TestPredict:
    def test_identity_only_observable_is_constant(self):
        config = QnnConfig(n_qubits=2)
        params = QnnParams(0.3, np.zeros((config.n_qubits, 3)))
        for x in ([0.1, 0.5], [2.0, -1.0]):
            assert predict(params, x, config) == pytest.approx(0.3, abs=1e-14)

    def test_z_term_invisible_under_pure_feature_map(self):
        config = QnnConfig(n_qubits=1)
        params = axis_params("Z")
        for x in ([0.0], [0.7], [2.5]):
            assert predict(params, x, config) == pytest.approx(0.0, abs=1e-12)

    def test_x_term_analytic_value(self):
        config = QnnConfig(n_qubits=1)
        params = axis_params("X")
        assert predict(params, [0.7], config) == pytest.approx(math.cos(1.4), abs=1e-12)

    def test_dimension_mismatch(self):
        config = QnnConfig(n_qubits=2)
        with pytest.raises(ValueError):
            predict(initial_params(config), [0.1], config)


class TestPropensityClipping:
    def setup_method(self):
        self.config = QnnConfig(n_qubits=1, clip_epsilon=0.01)

    def test_upper_clamp(self):
        params = QnnParams(1.7, np.zeros((self.config.n_qubits, 3)))
        assert predict_propensity(params, [0.3], self.config) == 0.99

    def test_lower_clamp(self):
        params = QnnParams(-0.2, np.zeros((self.config.n_qubits, 3)))
        assert predict_propensity(params, [0.3], self.config) == 0.01

    def test_interior_passthrough(self):
        params = QnnParams(0.42, np.zeros((self.config.n_qubits, 3)))
        assert predict_propensity(params, [0.3], self.config) == pytest.approx(0.42, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-3, 3, allow_nan=False), x=st.floats(0, math.pi, allow_nan=False))
    def test_always_inside_clip_band(self, a, x):
        params = QnnParams(a, np.zeros((self.config.n_qubits, 3)))
        p = predict_propensity(params, [x], self.config)
        assert 0.01 <= p <= 0.99


class TestLosses:
    def test_perfect_predictions_zero_loss(self):
        config = QnnConfig(n_qubits=1)
        params = QnnParams(1.0, np.zeros((config.n_qubits, 3)))
        X = np.array([[0.2], [1.2]])
        assert loss_fit(params, X, [1, 1], [1, 1], config) == 0.0

    def test_single_row_weighted_value(self):
        # f = 0.5, y = 1, w = 2 -> 2 * 0.25 = 0.5
        config = QnnConfig(n_qubits=1)
        params = QnnParams(0.5, np.zeros((config.n_qubits, 3)))
        assert loss_fit(params, [[0.4]], [1.0], [2.0], config) == pytest.approx(0.5, abs=1e-14)

    def test_loss_linear_in_weights(self):
        config = QnnConfig(n_qubits=2, seed=3)
        params = initial_params(config)
        X = np.array([[0.1, 0.9], [1.0, 0.3], [2.0, 2.0]])
        y = [0, 1, 1]
        base = loss_fit(params, X, y, [1, 1, 1], config)
        assert loss_fit(params, X, y, [2, 2, 2], config) == pytest.approx(2 * base, rel=1e-12)

    def test_nonpositive_weight_rejected(self):
        config = QnnConfig(n_qubits=1)
        with pytest.raises(ValueError):
            loss_fit(initial_params(config), [[0.1]], [1.0], [0.0], config)

    @pytest.mark.parametrize("loss", [loss_fit, total_loss])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_or_label_rejected(self, loss, bad):
        config = QnnConfig(n_qubits=1)
        params = initial_params(config)
        with pytest.raises(ValueError, match="weights must be finite"):
            loss(params, [[0.1], [0.2]], [1, 0], [bad, 1], config)
        with pytest.raises(ValueError, match="labels must be finite"):
            loss(params, [[0.1], [0.2]], [bad, 0], [1, 1], config)

    def test_length_mismatch_rejected(self):
        config = QnnConfig(n_qubits=1)
        with pytest.raises(ValueError):
            loss_fit(initial_params(config), [[0.1]], [1.0, 0.0], [1.0], config)

    def test_variance_zero_for_identity_observable(self):
        config = QnnConfig(n_qubits=2)
        params = QnnParams(0.7, np.zeros((config.n_qubits, 3)))
        assert loss_variance(params, [[0.1, 0.2]], config) == pytest.approx(0.0, abs=1e-15)

    def test_variance_of_z_on_equator_is_one(self):
        config = QnnConfig(n_qubits=1)
        params = axis_params("Z")
        assert loss_variance(params, [[0.4]], config) == pytest.approx(1.0, abs=1e-12)

    def test_variance_nonnegative_for_random_params(self):
        rng = np.random.default_rng(0)
        config = QnnConfig(n_qubits=2, variational_enabled=True)
        for _ in range(20):
            params = unpack_params(rng.uniform(-2, 2, config.n_params), config)
            assert loss_variance(params, rng.uniform(0, math.pi, (3, 2)), config) >= 0.0

    def test_empty_x_rejected(self):
        config = QnnConfig(n_qubits=1)
        with pytest.raises(ValueError):
            loss_variance(initial_params(config), np.empty((0, 1)), config)

    def test_total_loss_alpha_zero_equals_fit(self):
        config = QnnConfig(n_qubits=1, alpha=0.0, seed=5)
        params = initial_params(config)
        X, y, w = [[0.3]], [1.0], [1.0]
        assert total_loss(params, X, y, w, config) == loss_fit(params, X, y, w, config)

    def test_total_loss_arithmetic(self):
        # Z term is invisible, so f = a = 0.5: L_fit = 2*(0.5)^2, L_var = Var(Z) = 1
        config = QnnConfig(n_qubits=1, alpha=1e-2)
        params = axis_params("Z", a=0.5)
        X, y, w = [[0.4]], [1.0], [2.0]
        assert total_loss(params, X, y, w, config) == pytest.approx(0.51, abs=1e-12)

    def test_exact_total_loss_ignores_shot_configuration(self):
        X, y, w = [[0.3], [1.1]], [0, 1], [1, 1]
        base = QnnConfig(n_qubits=1, alpha=0.0, seed=2)
        params = initial_params(base)
        exact = total_loss(params, X, y, w, base)
        sampled_cfg = QnnConfig(n_qubits=1, alpha=0.0, seed=2, eval_mode=EvalMode.sampled(64))
        exact_again = total_loss(params, X, y, w, base)
        assert exact == exact_again
        assert sampled_cfg.eval_mode.shots == 64


class TestGradient:
    def test_identity_derivative_is_one(self):
        config = QnnConfig(n_qubits=2, variational_enabled=True)
        grad = gradient_parameter_shift(initial_params(config), [0.3, 0.8], config)
        assert grad[0] == 1.0

    def test_z_coefficient_gradient_zero_under_pure_feature_map(self):
        config = QnnConfig(n_qubits=1)
        grad = gradient_parameter_shift(initial_params(config), [0.9], config)
        # packed order: a, (0,X), (0,Y), (0,Z)
        assert grad[3] == pytest.approx(0.0, abs=1e-12)

    def test_matches_central_finite_differences(self):
        config = QnnConfig(n_qubits=2, layers=2, variational_enabled=True, seed=8)
        rng = np.random.default_rng(8)
        for _ in range(10):
            vector = rng.uniform(-1.5, 1.5, config.n_params)
            params = unpack_params(vector, config)
            x = rng.uniform(0, math.pi, 2)
            grad = gradient_parameter_shift(params, x, config)
            h = 1e-5
            for j in range(config.n_params):
                up = unpack_params(vector + h * np.eye(config.n_params)[j], config)
                down = unpack_params(vector - h * np.eye(config.n_params)[j], config)
                fd = (predict(up, x, config) - predict(down, x, config)) / (2 * h)
                assert grad[j] == pytest.approx(fd, abs=1e-6)

    def test_rejected_in_sampling_mode(self):
        config = QnnConfig(n_qubits=1, eval_mode=EvalMode.sampled(128))
        with pytest.raises(ValueError):
            gradient_parameter_shift(initial_params(config), [0.1], config)


class TestFit:
    def test_single_class_rejected(self):
        config = QnnConfig(n_qubits=1)
        with pytest.raises(ValueError):
            fit([[0.1], [0.2], [0.3]], [1, 1, 1], config=config)

    def test_too_few_rows_rejected(self):
        config = QnnConfig(n_qubits=1)
        with pytest.raises(ValueError):
            fit([[0.1]], [1], config=config)

    def test_separable_1d_task_reaches_auc(self):
        from qcausal.cmaes import CmaesConfig
        from qcausal.metrics import roc_and_auc

        rng = np.random.default_rng(12)
        raw = rng.uniform(-1, 1, 60)
        y = (raw > 0).astype(float)
        X = (math.pi * (raw - raw.min()) / (raw.max() - raw.min())).reshape(-1, 1)
        config = QnnConfig(n_qubits=1, alpha=1e-3, seed=12)
        fitted = fit(X, y, config=config, cmaes_config=CmaesConfig(max_evaluations=1500, seed=12))
        scores = [predict(fitted.params, row, config) for row in X]
        _, auc = roc_and_auc(scores, y)
        assert auc >= 0.9

    def test_fixed_seed_reproducible_trace(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, math.pi, (12, 1))
        y = (rng.uniform(size=12) > 0.5).astype(float)
        y[:2] = [0, 1]
        config = QnnConfig(n_qubits=1, seed=7, eval_mode=EvalMode.sampled(64))
        from qcausal.cmaes import CmaesConfig

        kw = dict(config=config, cmaes_config=CmaesConfig(max_evaluations=300, seed=7))
        a = fit(X, y, **kw)
        b = fit(X, y, **kw)
        assert a.trace == b.trace
        assert np.array_equal(a.params.pack(), b.params.pack())

    def test_trace_monotone_nonincreasing(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, math.pi, (10, 1))
        y = np.array([0, 1] * 5, dtype=float)
        config = QnnConfig(n_qubits=1, seed=1)
        from qcausal.cmaes import CmaesConfig

        fitted = fit(X, y, config=config, cmaes_config=CmaesConfig(max_evaluations=400, seed=1))
        assert all(b <= a + 1e-15 for a, b in zip(fitted.trace, fitted.trace[1:]))


class TestNoisyMode:
    def test_noisy_predict_runs_and_is_deterministic(self):
        noise = NoiseModel(depolarizing_prob=0.02, readout_flip_prob=0.01)
        config = QnnConfig(n_qubits=1, eval_mode=EvalMode.noisy(noise, 128), seed=5)
        params = initial_params(config)
        assert predict(params, [0.4], config) == predict(params, [0.4], config)


class TestBatchedEngine:
    """All rows evaluated at once against per-row sums of the dense oracle."""

    @pytest.mark.parametrize("variational, layers", [(False, 1), (False, 2), (True, 1), (True, 2)])
    def test_matches_dense_oracle(self, variational, layers):
        rng = np.random.default_rng(40 + 2 * layers + variational)
        for _ in range(4):
            n = int(rng.integers(1, 5))
            config = QnnConfig(
                n_qubits=n, layers=layers, variational_enabled=variational, alpha=0.01
            )
            params = unpack_params(rng.uniform(-0.6, 0.6, config.n_params), config)
            X = rng.uniform(0, math.pi, (12, n))
            y = (rng.random(12) < 0.5).astype(float)
            w = rng.uniform(0.5, 2.0, 12)
            terms = {(q, ax): params.pauli_coeffs[q, k] for q in range(n) for k, ax in enumerate("XYZ")}
            obs = PauliSumObservable(params.identity_coeff, terms)
            gates = [EncodingCircuit(n, layers, row, params.circuit_angles).gate_ops() for row in X]
            f = np.array([oracles.dense_expectation(g, obs, n) for g in gates])
            var = np.array([oracles.dense_variance(g, obs, n) for g in gates])

            for row, want in zip(X, f):
                assert predict(params, row, config) == pytest.approx(want, abs=1e-12)
            eps = config.clip_epsilon
            scores = predict_propensities(FittedQnn(config, params), X)
            assert np.max(np.abs(scores - np.clip(f, eps, 1 - eps))) <= 1e-12
            assert loss_variance(params, X, config) == pytest.approx(var.sum(), abs=1e-12)
            want_total = np.sum(w * (f - y) ** 2) + config.alpha * var.sum()
            assert total_loss(params, X, y, w, config) == pytest.approx(want_total, abs=1e-12)

    def test_identical_rows_get_independent_draws(self):
        config = QnnConfig(n_qubits=2, eval_mode=EvalMode.sampled(64), seed=3)
        fitted = FittedQnn(config, initial_params(config))
        scores = predict_propensities(fitted, np.tile([0.4, 1.1], (20, 1)))
        assert len(set(scores.tolist())) > 1


MODES = {
    "exact": EvalMode.exact(),
    "shots": EvalMode.sampled(32),
    "noisy": EvalMode.noisy(NoiseModel(depolarizing_prob=0.02, readout_flip_prob=0.01), 16),
}


def small_task(n_qubits=2, rows=20, seed=8):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, math.pi, (rows, n_qubits))
    y = (rng.random(rows) < 0.5).astype(float)
    y[:2] = [0, 1]
    return X, y, rng.uniform(0.5, 2.0, rows)


class TestEncodingHoist:
    """fit reads every evaluation off states it encodes once per fit (or once
    per evaluation with trained angles), and still equals total_loss."""

    @pytest.mark.parametrize("variational", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_fit_equals_total_loss_per_evaluation(self, mode, variational):
        from qcausal import cmaes

        X, y, w = small_task()
        config = QnnConfig(n_qubits=2, variational_enabled=variational, eval_mode=MODES[mode], seed=4)
        cmaes_config = cmaes.CmaesConfig(max_evaluations=120, seed=9)
        counter = 0

        def objective(vector):
            nonlocal counter
            counter += 1
            seed = None if mode == "exact" else (config.seed, counter)
            return total_loss(unpack_params(vector, config), X, y, w, config, seed=seed)

        want = cmaes.minimize(objective, initial_params(config).pack(), cmaes_config)
        got = fit(X, y, w, config=config, cmaes_config=cmaes_config)
        assert got.params.pack().tobytes() == want.best_point.tobytes()
        assert got.trace == tuple(want.trace)
        assert (got.evaluations, got.generations, got.stop_reason) == (
            want.evaluations, want.generations, want.stop_reason,
        )

    @pytest.mark.parametrize("variational", [False, True])
    def test_encode_calls(self, monkeypatch, variational):
        from qcausal import cmaes, qnn

        calls = []
        real = qnn.encode
        monkeypatch.setattr(qnn, "encode", lambda *a, **k: calls.append(1) or real(*a, **k))
        X, y, w = small_task()
        config = QnnConfig(n_qubits=2, variational_enabled=variational, eval_mode=MODES["shots"])
        fitted = fit(X, y, w, config=config, cmaes_config=cmaes.CmaesConfig(max_evaluations=60))
        assert len(calls) == (fitted.evaluations if variational else 1)

    def test_total_loss_encodes_once(self, monkeypatch):
        from qcausal import qnn

        calls = []
        real = qnn.encode
        monkeypatch.setattr(qnn, "encode", lambda *a, **k: calls.append(1) or real(*a, **k))
        X, y, w = small_task()
        config = QnnConfig(n_qubits=2, alpha=0.1)
        total_loss(initial_params(config), X, y, w, config)
        assert len(calls) == 1

    def test_fit_keeps_the_training_record(self):
        from qcausal import cmaes

        X, y, w = small_task()
        config = QnnConfig(n_qubits=2)
        fitted = fit(X, y, w, config=config, cmaes_config=cmaes.CmaesConfig(max_evaluations=50))
        lam = cmaes.default_population(config.n_params)
        # the start point, then whole generations while one more fits in 50
        assert fitted.generations == len(fitted.trace) - 1 == (50 - 1) // lam
        assert fitted.evaluations == 1 + lam * fitted.generations
        assert fitted.stop_reason == "max_evaluations"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected_before_cmaes(self, bad):
        X, y, w = small_task()
        w[3] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            fit(X, y, w, config=QnnConfig(n_qubits=2))

    def test_training_rows_checked_before_any_evaluation(self):
        X, y, w = small_task()
        w[3] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            fit(X, y, w, config=QnnConfig(n_qubits=2))


class TestNoObservableOnTheTrainingPath:
    """Training and scoring read the (n_qubits, 3) coefficient matrix
    directly: no evaluation builds a PauliSumObservable or converts one."""

    @pytest.mark.parametrize("variational", [False, True])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_fit_and_score_without_observables(self, monkeypatch, mode, variational):
        from qcausal import cmaes

        def refuse(*args, **kwargs):
            raise AssertionError("the training path built or converted an observable")

        monkeypatch.setattr(PauliSumObservable, "__post_init__", refuse)
        monkeypatch.setattr(PauliSumObservable, "coefficient_matrix", refuse)
        X, y, w = small_task()
        config = QnnConfig(n_qubits=2, variational_enabled=variational, eval_mode=MODES[mode], seed=2)
        fitted = fit(X, y, w, config=config, cmaes_config=cmaes.CmaesConfig(max_evaluations=40, seed=3))
        scores = predict_propensities(fitted, X, seed=5)
        assert scores.shape == (len(X),) and np.all(np.isfinite(scores))
