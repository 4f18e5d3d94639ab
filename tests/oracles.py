"""Brute-force oracles kept independent of the package's own simulator code.

Everything here builds full 2**n x 2**n matrices with numpy.kron and composes
them explicitly, so agreement with the package is a genuine cross-check.
"""

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULI = {"X": X, "Y": Y, "Z": Z}


def lift(gate, qubit, n):
    """Embed a 1-qubit gate on `qubit` (qubit 0 = least significant bit)."""
    full = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        full = np.kron(full, gate if q == qubit else I2)
    return full


def gate_matrix(name, angle):
    if name == "h":
        return H
    if name == "zphase":
        return np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
    if name == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    if name == "ry":
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise ValueError(name)


def circuit_unitary(gate_ops, n):
    """Compose the full unitary of a gate sequence by dense multiplication."""
    U = np.eye(2**n, dtype=complex)
    for op in gate_ops:
        U = lift(gate_matrix(op.name, op.angle), op.qubit, n) @ U
    return U


def observable_matrix(obs, n):
    M = obs.identity_coeff * np.eye(2**n, dtype=complex)
    for (qubit, axis), coeff in obs.pauli_coeffs.items():
        M = M + coeff * lift(PAULI[axis], qubit, n)
    return M


def dense_expectation(gate_ops, obs, n):
    """<0...0| U^dag H U |0...0> via explicit matrices."""
    U = circuit_unitary(gate_ops, n)
    psi = U[:, 0]
    return float(np.real(psi.conj() @ observable_matrix(obs, n) @ psi))


def dense_variance(gate_ops, obs, n):
    U = circuit_unitary(gate_ops, n)
    psi = U[:, 0]
    M = observable_matrix(obs, n)
    e1 = np.real(psi.conj() @ M @ psi)
    e2 = np.real(psi.conj() @ (M @ M) @ psi)
    return float(e2 - e1 * e1)


def dense_noisy_term_means(gate_ops, obs, n, noise):
    """Mean of each Pauli term's noisy +-1 outcome, from the density matrix.

    After every gate the depolarizing channel
    rho -> (1 - p) rho + (p/3) (X rho X + Y rho Y + Z rho Z) acts on the touched
    qubit.  Each term is then read out through a bit-flip channel: a Pauli
    that anticommutes with the measured one is applied with the readout-flip
    probability, which flips the outcome.
    """
    p, flip = noise.depolarizing_prob, noise.readout_flip_prob
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for op in gate_ops:
        U = lift(gate_matrix(op.name, op.angle), op.qubit, n)
        rho = U @ rho @ U.conj().T
        kicks = [lift(P, op.qubit, n) for P in (X, Y, Z)]
        rho = (1 - p) * rho + (p / 3) * sum(K @ rho @ K for K in kicks)
    means = {}
    for (qubit, axis) in obs.pauli_coeffs:
        F = lift(X if axis == "Z" else Z, qubit, n)
        read = (1 - flip) * rho + flip * (F @ rho @ F)
        means[(qubit, axis)] = float(np.real(np.trace(lift(PAULI[axis], qubit, n) @ read)))
    return means


def random_observable(rng, n, axes="XYZ"):
    from qcausal.quantum import PauliSumObservable

    coeffs = {}
    for q in range(n):
        for ax in axes:
            if rng.random() < 0.7:
                coeffs[(q, ax)] = float(rng.uniform(-1.5, 1.5))
    return PauliSumObservable(float(rng.uniform(-1, 1)), coeffs)


def random_circuit(rng, max_qubits=4):
    from qcausal.quantum import build_feature_map

    n = int(rng.integers(1, max_qubits + 1))
    layers = int(rng.integers(1, 3))
    x = rng.uniform(-np.pi, np.pi, size=n)
    variational = None
    if rng.random() < 0.5:
        variational = rng.uniform(-np.pi, np.pi, size=2 * n * layers)
    return build_feature_map(x, layers=layers, variational=variational)
