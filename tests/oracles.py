"""Brute-force oracles kept independent of the package's own code.

The circuit oracles build full 2**n x 2**n matrices with numpy.kron and
compose them explicitly, so agreement with the package is a genuine
cross-check.  The matching oracles are the earlier one-genome-at-a-time
greedy matchers on full treated x control distance matrices.
"""

import math

import numpy as np

from qcausal.adjust import MatchSet

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


# ---------------------------------------------------------------------------
# matching reference: the per-genome greedy matcher that the package's
# caliper-windowed, generation-batched core replaced, kept verbatim
# ---------------------------------------------------------------------------


def _split_groups(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    treated = np.flatnonzero(z == 1.0)
    control = np.flatnonzero(z == 0.0)
    if len(treated) == 0 or len(control) == 0:
        raise ValueError("both groups must be non-empty")
    return treated, control


def score_caliper(ps, multiplier: float = 0.25) -> float:
    """Maximum allowed score distance inside a pair: multiplier * std of scores."""
    return float(multiplier * np.std(np.asarray(ps, dtype=float), ddof=1))


def _greedy_match(order, distances, caliper):
    """Greedy 1:1 match given treated processing order and a distance matrix."""
    pairs = []
    unmatched = []
    work = np.array(distances, dtype=float)  # taken controls get retired in place
    for row, _ in order:
        d = work[row]
        best = int(np.argmin(d))  # ties resolve to the lowest control index
        if np.isfinite(d[best]) and d[best] <= caliper:
            work[:, best] = np.inf
            pairs.append((row, best))
        else:
            unmatched.append(row)
    return pairs, unmatched


def nearest_neighbor_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Greedy 1:1 matching on the score, treated visited in descending score."""
    ps = np.asarray(ps, dtype=float)
    treated, control = _split_groups(z)
    caliper = score_caliper(ps, caliper_multiplier)
    distances = np.abs(ps[treated][:, None] - ps[control][None, :])
    order = sorted(enumerate(ps[treated]), key=lambda kv: (-kv[1], kv[0]))
    rows, unmatched = _greedy_match(order, distances, caliper)
    pairs = tuple((int(treated[r]), int(control[c])) for r, c in rows)
    return MatchSet(pairs, tuple(int(treated[r]) for r in unmatched), caliper)


def _standardize(matrix):
    matrix = np.asarray(matrix, dtype=float)
    std = matrix.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    return (matrix - matrix.mean(axis=0)) / std


def _metric_match(features, ps, z, metric_weights, caliper):
    """Greedy NN match in the weighted Euclidean metric, score caliper applied.

    The caliper keeps the match selective: without it, balanced arm sizes
    would always match the whole cohort and balance could not change.
    """
    ps = np.asarray(ps, dtype=float)
    treated, control = _split_groups(z)
    scaled = features * np.sqrt(metric_weights)
    a, b = scaled[treated], scaled[control]
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    distances = np.sqrt(np.clip(sq, 0.0, None))
    distances[np.abs(ps[treated][:, None] - ps[control][None, :]) > caliper] = np.inf
    order = sorted(enumerate(ps[treated]), key=lambda kv: (-kv[1], kv[0]))
    rows, unmatched = _greedy_match(order, distances, math.inf)
    pairs = tuple((int(treated[r]), int(control[c])) for r, c in rows)
    return MatchSet(pairs, tuple(int(treated[r]) for r in unmatched), caliper)


def _mean_abs_smd(covariates, z, match: MatchSet) -> float:
    idx = match.matched_indices()
    if len(idx) == 0:
        return math.inf
    sub_cov = covariates[idx]
    sub_z = np.asarray(z)[idx]
    total = 0.0
    for j in range(covariates.shape[1]):
        col = sub_cov[:, j]
        t_vals = col[sub_z == 1]
        c_vals = col[sub_z == 0]
        mt, mc = t_vals.mean(), c_vals.mean()
        if set(np.unique(covariates[:, j])) <= {0.0, 1.0}:
            vt, vc = mt * (1 - mt), mc * (1 - mc)
        else:
            vt = t_vals.var(ddof=1) if len(t_vals) > 1 else 0.0
            vc = c_vals.var(ddof=1) if len(c_vals) > 1 else 0.0
        pooled = (vt + vc) / 2.0
        if pooled <= 0:
            total += 0.0 if mt == mc else math.inf
        else:
            total += abs(mt - mc) / math.sqrt(pooled)
    return total / covariates.shape[1]


def genetic_match(
    covariates,
    z,
    ps,
    population: int = 100,
    generations: int = 30,
    seed: int = 0,
    caliper_multiplier: float = 0.25,
) -> MatchSet:
    """Evolve a diagonal metric over (standardized covariates, score) that
    minimizes the mean |SMD| after greedy matching in that metric.

    Tournament selection of size 3, uniform crossover at rate 0.5, log-normal
    gene mutation with sigma 0.2, one elite per generation; the unit metric is
    seeded into the initial population, so the result never balances worse
    than plain nearest-neighbor matching in standardized coordinates.
    """
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[1] < 1:
        raise ValueError("covariates must be a non-empty 2-d matrix")
    if population < 4:
        raise ValueError("population must be >= 4")
    ps = np.asarray(ps, dtype=float)
    rng = np.random.default_rng(seed)
    features = _standardize(np.column_stack([covariates, ps]))
    d = features.shape[1]
    caliper = score_caliper(ps, caliper_multiplier)

    def evaluate(genome):
        return _mean_abs_smd(covariates, z, _metric_match(features, ps, z, genome, caliper))

    genomes = np.exp(rng.normal(0.0, 0.5, size=(population, d)))
    genomes[0] = 1.0  # identity-metric candidate
    fitness = np.array([evaluate(g) for g in genomes])

    for _ in range(generations):
        elite = int(np.argmin(fitness))
        children = [genomes[elite].copy()]
        while len(children) < population:
            picks = rng.integers(0, population, size=3)
            parent_a = genomes[picks[np.argmin(fitness[picks])]]
            picks = rng.integers(0, population, size=3)
            parent_b = genomes[picks[np.argmin(fitness[picks])]]
            if rng.random() < 0.5:
                take = rng.random(d) < 0.5
                child = np.where(take, parent_a, parent_b)
            else:
                child = parent_a.copy()
            child = child * np.exp(rng.normal(0.0, 0.2, size=d))
            children.append(child)
        genomes = np.asarray(children)
        fitness = np.array([evaluate(g) for g in genomes])

    best = genomes[int(np.argmin(fitness))]
    return _metric_match(features, ps, z, best, caliper)
