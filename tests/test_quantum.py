import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qcausal.quantum import (
    EncodingCircuit,
    GateOp,
    NoiseModel,
    PauliSumObservable,
    ProductStates,
    apply_circuit,
    build_feature_map,
    encode,
    expectation,
    sample_expectation,
    sample_noisy_expectation,
    variance,
)


def feature_state(x, layers=1, variational=None):
    return apply_circuit(build_feature_map(x, layers=layers, variational=variational))


def zeros_state(n_qubits=1):
    """|0...0>: the product state of an empty gate list."""
    return oracles._gate_states([], n_qubits)


class TestTypes:
    def test_apply_circuit_returns_one_row_product_state(self):
        state = feature_state([0.3, 0.1], layers=2)
        assert isinstance(state, ProductStates)
        assert state.amplitudes.shape == (1, 2, 2)

    def test_single_circuit_readers_reject_many_rows(self):
        states = encode(np.zeros((2, 1)))
        obs = PauliSumObservable(0.0, {(0, "X"): 1.0})
        with pytest.raises(ValueError, match="2 rows"):
            expectation(states, obs)
        with pytest.raises(ValueError, match="2 rows"):
            variance(states, obs)

    def test_feature_map_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            build_feature_map([])
        with pytest.raises(ValueError):
            build_feature_map([np.nan])

    def test_variational_length_checked(self):
        with pytest.raises(ValueError):
            build_feature_map([0.1, 0.2], layers=2, variational=[0.0] * 3)

    def test_observable_rejects_bad_axis_and_nonfinite(self):
        with pytest.raises(ValueError):
            PauliSumObservable(0.0, {(0, "Q"): 1.0})
        with pytest.raises(ValueError):
            PauliSumObservable(np.inf)

    def test_noise_model_probability_range(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip_prob=-0.1)


class TestFeatureMap:
    def test_single_qubit_zero_angle_is_plus_state(self):
        state = feature_state([0.0])
        assert np.allclose(state.dense(), [math.sqrt(0.5), math.sqrt(0.5)])

    def test_two_qubit_zero_angles_uniform(self):
        state = feature_state([0.0, 0.0])
        assert np.allclose(state.dense(), [0.5] * 4)

    def test_phase_convention_gives_cos_2x_for_x_expectation(self):
        # <+| e^{-ixZ} X e^{+ixZ} |+> = cos(2x)
        state = feature_state([0.7])
        obs = PauliSumObservable(0.0, {(0, "X"): 1.0})
        assert expectation(state, obs) == pytest.approx(math.cos(1.4), abs=1e-12)
        assert expectation(state, obs) == pytest.approx(0.16997, abs=1e-5)

    def test_identity_circuit_returns_zeros_state(self):
        # the layer's gates without its Hadamards, every angle zero
        circuit = EncodingCircuit(2, 1, np.zeros(2), np.zeros(4))
        gates = [op for op in circuit.gate_ops() if op.name != "h"]
        assert np.allclose(oracles.run_gates(gates, 2), [1, 0, 0, 0])

    def test_gate_list_runs_to_the_engine_state(self):
        # the per-qubit list the dense oracles read describes the circuit encode runs
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(200):
            circuit = oracles.random_circuit(rng)
            n = circuit.n_qubits
            seen.add((circuit.layers, circuit.variational_angles is not None))
            gates = circuit.gate_ops()
            state = apply_circuit(circuit)
            assert np.max(np.abs(oracles.run_gates(gates, n) - state.dense())) <= 1e-14
            counts = np.bincount([op.qubit for op in gates], minlength=n)
            assert np.array_equal(counts, state.gate_counts)
        assert seen == {(1, False), (1, True), (2, False), (2, True)}

    def test_empty_gate_list_is_identity(self):
        amps = oracles.run_gates([], 3)
        assert amps[0] == 1.0 and np.count_nonzero(amps) == 1


class TestExpectation:
    def test_z_eigenstate(self):
        state = zeros_state()
        assert expectation(state, PauliSumObservable(0.0, {(0, "Z"): 1.0})) == 1.0

    def test_plus_state_z_is_zero(self):
        state = feature_state([0.0])
        assert expectation(state, PauliSumObservable(0.0, {(0, "Z"): 1.0})) == pytest.approx(0.0, abs=1e-15)

    def test_index_out_of_range(self):
        state = feature_state([0.0])
        with pytest.raises(ValueError):
            expectation(state, PauliSumObservable(0.0, {(1, "Z"): 1.0}))

    def test_matches_dense_oracle_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            circuit = oracles.random_circuit(rng)
            obs = oracles.random_observable(rng, circuit.n_qubits)
            got = expectation(apply_circuit(circuit), obs)
            want = oracles.dense_expectation(circuit.gate_ops(), obs, circuit.n_qubits)
            assert got == pytest.approx(want, abs=1e-12)


class TestVariance:
    def test_eigenstate_variance_zero(self):
        state = zeros_state()
        assert variance(state, PauliSumObservable(0.0, {(0, "Z"): 1.0})) == 0.0

    def test_plus_state_z_variance_one(self):
        state = feature_state([0.0])
        assert variance(state, PauliSumObservable(0.0, {(0, "Z"): 1.0})) == pytest.approx(1.0, abs=1e-12)

    def test_affine_scaling(self):
        # Var(a + b Z) = b^2 Var(Z)
        state = feature_state([0.0])
        obs = PauliSumObservable(0.5, {(0, "Z"): 2.0})
        assert variance(state, obs) == pytest.approx(4.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            circuit = oracles.random_circuit(rng, max_qubits=3)
            obs = oracles.random_observable(rng, circuit.n_qubits)
            got = variance(apply_circuit(circuit), obs)
            want = oracles.dense_variance(circuit.gate_ops(), obs, circuit.n_qubits)
            assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
    layers=st.integers(1, 3),
)
def test_normalization_property(x, layers):
    state = feature_state(x, layers=layers)
    assert abs(np.sum(np.abs(state.dense()) ** 2) - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
)
def test_z_invisibility_of_pure_feature_map(x):
    # phases never move |+> off the equator
    state = feature_state(x)
    for q in range(len(x)):
        obs = PauliSumObservable(0.0, {(q, "Z"): 1.0})
        assert expectation(state, obs) == pytest.approx(0.0, abs=1e-12)


class TestSampling:
    def setup_method(self):
        self.circuit = build_feature_map([0.7, -0.3])
        self.obs = PauliSumObservable(0.2, {(0, "X"): 1.0, (1, "Y"): 0.5})

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_expectation(self.circuit, self.obs, 0, 1)

    def test_eigenstate_term_is_exact(self):
        obs = PauliSumObservable(0.1, {(0, "Z"): 2.0})
        est = oracles.sample_noisy_expectation_from_gates([], 1, obs, NoiseModel(), 17, 3)
        assert est == pytest.approx(2.1, abs=1e-15)

    def test_determinism(self):
        a = sample_expectation(self.circuit, self.obs, 1024, seed=42)
        b = sample_expectation(self.circuit, self.obs, 1024, seed=42)
        assert a == b
        c = sample_expectation(self.circuit, self.obs, 1024, seed=43)
        assert a != c

    def test_large_shot_convergence(self):
        exact = expectation(apply_circuit(self.circuit), self.obs)
        est = sample_expectation(self.circuit, self.obs, 2_000_000, seed=5)
        assert est == pytest.approx(exact, abs=5e-3)

    def test_shot_noise_standard_deviation_matches_variance_oracle(self):
        # one Pauli term per qubit keeps the sampling variance equal to Var(H)
        circuit = build_feature_map([0.9, 0.4])
        obs = PauliSumObservable(0.0, {(0, "X"): 1.0, (1, "Y"): 0.8})
        sigma2 = variance(apply_circuit(circuit), obs)
        predicted = math.sqrt(sigma2 / 1024.0)
        reps = np.array(
            [sample_expectation(circuit, obs, 1024, seed=s) for s in range(200)]
        )
        assert np.std(reps, ddof=1) == pytest.approx(predicted, rel=0.15)

    def test_shot_noise_scales_inverse_sqrt(self):
        # quadrupling shots halves the spread
        def spread(shots):
            reps = [
                sample_expectation(self.circuit, self.obs, shots, seed=s)
                for s in range(300)
            ]
            return np.std(reps, ddof=1)

        assert spread(256) / spread(1024) == pytest.approx(2.0, rel=0.25)


class TestNoisySampling:
    def test_zero_noise_equals_clean_sampler_bit_for_bit(self):
        circuit = build_feature_map([0.7, -0.3])
        obs = PauliSumObservable(0.2, {(0, "X"): 1.0, (1, "Y"): 0.5})
        quiet = NoiseModel()
        for seed in range(5):
            assert sample_noisy_expectation(
                circuit, obs, quiet, 512, seed
            ) == sample_expectation(circuit, obs, 512, seed)

    def test_half_readout_flip_symmetrizes_to_zero(self):
        obs = PauliSumObservable(0.0, {(0, "Z"): 1.0})
        noise = NoiseModel(readout_flip_prob=0.5)
        est = oracles.sample_noisy_expectation_from_gates([], 1, obs, noise, 200_000, seed=9)
        assert abs(est) < 0.01

    def test_depolarizing_attenuates_monotonically(self):
        # single RY gate; <Z> = cos(0.8) noiselessly, shrinking toward 0 with p
        gates = [GateOp("ry", 0, 0.8)]
        obs = PauliSumObservable(0.0, {(0, "Z"): 1.0})
        estimates = []
        for p in (0.0, 0.05, 0.2):
            noise = NoiseModel(depolarizing_prob=p)
            estimates.append(
                oracles.sample_noisy_expectation_from_gates(gates, 1, obs, noise, 1_000_000, seed=21)
            )
        assert estimates[0] == pytest.approx(math.cos(0.8), abs=2e-3)
        mags = [abs(e) for e in estimates]
        assert mags[0] >= mags[1] >= mags[2]
        assert mags[2] < mags[0]

    def test_noisy_determinism(self):
        circuit = build_feature_map([0.7])
        obs = PauliSumObservable(0.0, {(0, "X"): 1.0})
        noise = NoiseModel(depolarizing_prob=0.05, readout_flip_prob=0.02)
        a = sample_noisy_expectation(circuit, obs, noise, 1024, seed=4)
        b = sample_noisy_expectation(circuit, obs, noise, 1024, seed=4)
        assert a == b

    def test_many_shot_mean_matches_density_matrix_oracle(self):
        rng = np.random.default_rng(17)
        shots = 200_000
        for case in range(12):
            circuit = oracles.random_circuit(rng)
            n = circuit.n_qubits
            obs = oracles.random_observable(rng, n)
            noise = NoiseModel(
                depolarizing_prob=float(rng.uniform(0, 0.15)),
                readout_flip_prob=float(rng.uniform(0, 0.1)),
            )
            gates = circuit.gate_ops()
            if case % 2:
                # any gate order, interleaving qubits, goes through the same core
                gates = [gates[i] for i in rng.permutation(len(gates))]
                est = oracles.sample_noisy_expectation_from_gates(gates, n, obs, noise, shots, seed=case)
            else:
                est = sample_noisy_expectation(circuit, obs, noise, shots, seed=case)
            means = oracles.dense_noisy_term_means(gates, obs, n, noise)
            want = obs.identity_coeff + sum(c * means[k] for k, c in obs.pauli_coeffs.items())
            se = math.sqrt(
                sum(c * c * (1 - means[k] ** 2) for k, c in obs.pauli_coeffs.items()) / shots
            )
            assert abs(est - want) <= 4 * se + 1e-12, (case, est, want, se)
