"""Brute-force oracles kept independent of the package's own code.

The circuit oracles build full 2**n x 2**n matrices with numpy.kron and
compose them explicitly, so agreement with the package is a genuine
cross-check.  The gate-sequence harness runs an explicit gate list through
the package's product-state core, so the dense oracles can be compared on any
gate order.  The matching oracles are the earlier one-genome-at-a-time
greedy matchers on full treated x control distance matrices, an exact
greedy matcher that sums the weighted squared gaps in fractions.Fraction,
and the earlier optimal matcher, which hands scipy's assignment solver a
dense cost matrix with sentinel prices; the genetic fitness oracles read
the matched arms in pair order (the earlier fitness) or in subject order
(the set-based one).  The balance oracles are the earlier per-column arm
statistics, `_arm_stats` and `_smd`, with the SMD and Welch test on them.  The boosted-tree oracles are the earlier per-node
argsort, scalar split scan and row-by-row tree walk.  The survival
oracles are the earlier estimators that rebuilt the at-risk set once per
event time, and Harrell's C that compared every event with every later
subject.  The CMA-ES oracles are the earlier `ask` and `tell`, which
decomposed the covariance once each per generation.  Two statistics that
only the tests read, the raw Pearson statistic and the staged boosted-tree
deviance, live here too, on the package's own functions.
"""

import math
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np
from scipy.special import chdtrc, ndtr

from qcausal import classical
from qcausal._tails import t_sf
from qcausal.adjust import MatchSet, _pearson, effective_sample_size
from qcausal.cmaes import CmaesConfig, CmaesState, _decompose, _strategy
from qcausal.classical import GbmModel, TreeNode, _sigmoid
from qcausal.survival import (
    RANK_CONDITION_LIMIT,
    AalenModel,
    SurvivalCurve,
    _check_samples,
)

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
# gate-sequence harness: an explicit GateOp list, in any order, run through
# the package's product-state core, for comparison with the dense oracles
# ---------------------------------------------------------------------------


def _gate_states(gates, n_qubits):
    from qcausal.quantum import _fold

    gates = list(gates)
    for op in gates:
        if not 0 <= op.qubit < n_qubits:
            raise ValueError(f"gate qubit {op.qubit} out of range for {n_qubits} qubits")
    return _fold(((op.name, op.qubit, op.angle) for op in gates), n_qubits, 1)


def dense(states):
    """The 2**n amplitudes of the first row of a ProductStates; qubit 0 is the
    least significant bit."""
    return reduce(np.kron, states.amplitudes[0, ::-1], np.ones(1))


def run_gates(gates, n_qubits):
    """Run a gate sequence on |0...0> and return raw amplitudes."""
    return dense(_gate_states(gates, n_qubits))


def sample_noisy_expectation_from_gates(gates, n_qubits, obs, noise, shots, seed):
    """Noisy shot estimate of <H> for an explicit gate sequence."""
    rng = np.random.default_rng(seed)
    b = obs.coefficient_matrix(n_qubits)
    return float(_gate_states(gates, n_qubits).sample(obs.identity_coeff, b, shots, rng, noise)[0])


# ---------------------------------------------------------------------------
# matching reference: the per-genome greedy matcher that the package's
# caliper-windowed, generation-batched core replaced, kept verbatim, and an
# exact-arithmetic greedy matcher for instances where exact ties decide
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


def _arm_mean_abs_smd(covariates, z, idx) -> float:
    """Mean |SMD| over the columns of `covariates` between the subjects of
    `idx` in each arm, each arm's values taken in `idx` order; inf when
    `idx` is empty."""
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


def _mean_abs_smd(covariates, z, match: MatchSet) -> float:
    """The earlier genetic fitness: each arm read in pair order."""
    return _arm_mean_abs_smd(covariates, z, match.matched_indices())


def set_mean_abs_smd(covariates, z, match: MatchSet) -> float:
    """The genetic fitness as a function of the matched set alone: each arm
    read in ascending subject order."""
    return _arm_mean_abs_smd(covariates, z, np.sort(match.matched_indices()))


def exact_gap_terms(covariates, ps):
    """(i, j) -> [(x_ik - x_jk)^2 / s_k^2 for each column k] as Fractions,
    over the columns of (covariates, score), s_k being the column's ddof=1
    standard deviation as numpy rounds it, 0 -> 1.  Inputs must be finite."""
    raw = np.column_stack([covariates, ps])
    std = raw.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    inv_var = [1 / Fraction(s) ** 2 for s in std.tolist()]
    exact = [[Fraction(v) for v in row] for row in raw.tolist()]
    return lambda i, j: [(a - b) ** 2 * v for a, b, v in zip(exact[i], exact[j], inv_var)]


def exact_sq_distance(covariates, ps, genome, i, j) -> Fraction:
    """The exact squared distance d^2 = sum_k g_k (x_ik - x_jk)^2 / s_k^2."""
    terms = exact_gap_terms(covariates, ps)(i, j)
    return sum(Fraction(g) * term for g, term in zip(np.asarray(genome, dtype=float).tolist(), terms))


def exact_metric_matcher(covariates, ps, z, caliper):
    """Greedy NN matcher on `exact_sq_distance`: genome -> MatchSet.

    Every distance is a fractions.Fraction, so equal distances are equal and
    go to the lowest control index.  The score caliper is applied in floats,
    as the package applies it.
    """
    ps = np.asarray(ps, dtype=float)
    terms = exact_gap_terms(covariates, ps)
    treated, control = _split_groups(z)
    order = sorted(enumerate(ps[treated]), key=lambda kv: (-kv[1], kv[0]))
    # the terms of each in-caliper control of each treated subject
    candidates = {
        r: [(c, terms(t, j)) for c, j in enumerate(control) if abs(ps[t] - ps[j]) <= caliper]
        for r, t in enumerate(treated)
    }

    def match(genome) -> MatchSet:
        weights = [Fraction(g) for g in np.asarray(genome, dtype=float).tolist()]
        taken = set()
        pairs, unmatched = [], []
        for r, _ in order:
            best = None
            for c, terms in candidates[r]:  # ascending control index
                if c in taken:
                    continue
                dist = sum(w * term for w, term in zip(weights, terms))
                if best is None or dist < best[0]:
                    best = (dist, c)
            if best is None:
                unmatched.append(int(treated[r]))
            else:
                taken.add(best[1])
                pairs.append((int(treated[r]), int(control[best[1]])))
        return MatchSet(tuple(pairs), tuple(unmatched), caliper)

    return match


def _evolve(covariates, z, ps, population, generations, seed, caliper_multiplier, matcher):
    """The genetic search shared by both genetic oracles; `matcher` builds,
    from (covariates, ps, z, caliper), the genome -> MatchSet function, and
    each genome's match is scored by `set_mean_abs_smd`."""
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[1] < 1:
        raise ValueError("covariates must be a non-empty 2-d matrix")
    if population < 4:
        raise ValueError("population must be >= 4")
    ps = np.asarray(ps, dtype=float)
    rng = np.random.default_rng(seed)
    d = covariates.shape[1] + 1
    caliper = score_caliper(ps, caliper_multiplier)
    match = matcher(covariates, ps, z, caliper)

    def evaluate(genome):
        return set_mean_abs_smd(covariates, z, match(genome))

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

    return match(genomes[int(np.argmin(fitness))])


def float_metric_matcher(covariates, ps, z, caliper):
    """The verbatim float matcher on standardized (covariates, score):
    genome -> MatchSet."""
    features = _standardize(np.column_stack([covariates, ps]))
    return lambda genome: _metric_match(features, ps, z, genome, caliper)


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
    return _evolve(covariates, z, ps, population, generations, seed, caliper_multiplier,
                   float_metric_matcher)


def exact_genetic_match(
    covariates,
    z,
    ps,
    population: int = 100,
    generations: int = 30,
    seed: int = 0,
    caliper_multiplier: float = 0.25,
) -> MatchSet:
    """`genetic_match` with every genome matched by `exact_metric_matcher`."""
    return _evolve(covariates, z, ps, population, generations, seed, caliper_multiplier,
                   exact_metric_matcher)


# ---------------------------------------------------------------------------
# optimal-matching reference: the dense sentinel-priced assignment problem
# that the sorted dynamic program replaced, verbatim
# ---------------------------------------------------------------------------


def assignment_optimal_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Minimum total |score difference| 1:1 assignment under the caliper.

    Solved exactly as a rectangular assignment problem.  Each treated subject
    also sees a private dummy column priced above any full real assignment,
    so infeasible subjects are left unmatched rather than forced out of
    caliper.
    """
    from scipy.optimize import linear_sum_assignment  # here, so no other stage loads it

    ps = np.asarray(ps, dtype=float)
    treated, control = _split_groups(z)
    caliper = score_caliper(ps, caliper_multiplier)
    nt, nc = len(treated), len(control)

    real = np.abs(ps[treated][:, None] - ps[control][None, :])
    dummy_cost = caliper * nt + 1.0
    forbid = 2.0 * dummy_cost + 1.0
    cost = np.full((nt, nc + nt), forbid)
    cost[:, :nc] = np.where(real <= caliper, real, forbid)
    cost[:, nc:] = np.where(np.eye(nt, dtype=bool), dummy_cost, forbid)

    rows, cols = linear_sum_assignment(cost)
    pairs = []
    unmatched = []
    for r, c in zip(rows, cols):
        if c < nc and real[r, c] <= caliper:
            pairs.append((int(treated[r]), int(control[c])))
        else:
            unmatched.append(int(treated[r]))
    pairs.sort()
    return MatchSet(tuple(pairs), tuple(sorted(unmatched)), caliper)


# ---------------------------------------------------------------------------
# balance reference: the per-column arm statistics that the weight-row
# kernel replaced, verbatim, and the SMD and Welch test built on them
# ---------------------------------------------------------------------------


def _arm_stats(values, weights=None, binary=False) -> tuple[float, float, float]:
    """One arm's mean, variance and effective size.  Unweighted, the sample
    mean and ddof=1 variance; weighted, the weighted mean and variance with
    the effective-sample-size dof correction.  A dichotomous arm (`binary`)
    takes p*(1-p) as its variance."""
    if weights is None:
        mean, n = values.mean(), float(len(values))
    else:
        wsum = weights.sum()
        mean, n = float(weights @ values / wsum), effective_sample_size(weights)
    if binary:
        var = mean * (1.0 - mean)
    elif n <= 1:
        var = 0.0
    elif weights is None:
        var = values.var(ddof=1)
    else:
        var = float(weights @ (values - mean) ** 2 / wsum) * n / (n - 1.0)
    return mean, var, n


def _smd(columns, binary, t_idx, c_idx, weights=None) -> np.ndarray:
    """Signed SMD of each row of `columns` between the subjects `t_idx` and
    `c_idx`, each arm's values taken in that order.  Continuous columns pool
    the two arm variances; dichotomous ones (`binary`) use p*(1-p) in place
    of the variance.  A zero pooled variance gives 0 for equal means, else
    an infinite SMD."""
    out = np.empty(len(columns))
    for j, (col, is_binary) in enumerate(zip(columns, binary)):
        (mt, vt, _), (mc, vc, _) = [
            _arm_stats(col[idx], None if weights is None else weights[idx], is_binary)
            for idx in (t_idx, c_idx)
        ]
        pooled = (vt + vc) / 2.0
        if pooled <= 0:
            out[j] = 0.0 if mt == mc else math.copysign(math.inf, mt - mc)
        else:
            out[j] = (mt - mc) / math.sqrt(pooled)
    return out


def _arms(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    return np.flatnonzero(z == 1.0), np.flatnonzero(z == 0.0)


def column_smd(values, z, weights=None) -> float:
    """The earlier `adjust.smd`: `_smd` of one column, its arms in subject
    order."""
    values = np.asarray(values, dtype=float)
    binary = set(np.unique(values)) <= {0.0, 1.0}
    return float(_smd(values[None], [binary], *_arms(z), weights)[0])


def welch_p(values, z, weights=None) -> float:
    """The earlier `adjust.two_sample_t_test` on `_arm_stats`."""
    values = np.asarray(values, dtype=float)
    (mt, vt, nt), (mc, vc, nc) = (
        _arm_stats(values[idx], None if weights is None else weights[idx]) for idx in _arms(z)
    )
    se2 = vt / nt + vc / nc
    df = se2**2 / ((vt / nt) ** 2 / (nt - 1.0) + (vc / nc) ** 2 / (nc - 1.0))
    return 2.0 * t_sf(abs((mt - mc) / math.sqrt(se2)), df)


# ---------------------------------------------------------------------------
# boosted-tree reference: the per-node argsort, scalar split scan and
# row-by-row tree walk that the presorted, vectorised trees replaced, verbatim
# ---------------------------------------------------------------------------


def _best_split(X, residuals):
    """Exact greedy SSE split; ties broken by lowest feature then threshold."""
    n, d = X.shape
    total = residuals.sum()
    best = None  # (sse, feature, threshold)
    base_sse = float(np.sum((residuals - residuals.mean()) ** 2))
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        rs = residuals[order]
        csum = np.cumsum(rs)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            left_n = i + 1
            left_sum = csum[i]
            right_sum = total - left_sum
            # SSE = const - sum_children (group sum)^2 / group size
            gain = left_sum**2 / left_n + right_sum**2 / (n - left_n)
            sse = base_sse - (gain - total**2 / n)
            threshold = (xs[i] + xs[i + 1]) / 2.0
            if best is None or sse < best[0] - 1e-15:
                best = (sse, j, threshold)
    return best


def _fit_tree(X, residuals, depth) -> TreeNode:
    node = TreeNode(value=float(residuals.mean()))
    if depth == 0 or len(X) < 2 or np.allclose(residuals, residuals[0]):
        return node
    found = _best_split(X, residuals)
    if found is None:
        return node
    _, j, threshold = found
    mask = X[:, j] <= threshold
    node.feature = j
    node.threshold = threshold
    node.left = _fit_tree(X[mask], residuals[mask], depth - 1)
    node.right = _fit_tree(X[~mask], residuals[~mask], depth - 1)
    return node


def _tree_value(node: TreeNode, row) -> float:
    while node.feature is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def fit_gbm(
    X,
    y,
    n_trees: int = 100,
    depth: int = 3,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> GbmModel:
    """Stage-wise boosting; deterministic (the seed is accepted for interface
    stability but the exact greedy split search uses no randomness)."""
    del seed
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    ybar = y.mean()
    if ybar in (0.0, 1.0):
        raise ValueError("both classes must be present")

    f0 = float(np.log(ybar / (1.0 - ybar)))
    scores = np.full(len(y), f0)
    trees: list[TreeNode] = []
    for _ in range(n_trees):
        residuals = y - _sigmoid(scores)
        tree = _fit_tree(X, residuals, depth)
        trees.append(tree)
        scores = scores + learning_rate * np.array([_tree_value(tree, row) for row in X])
    return GbmModel(trees, learning_rate, f0)


def predict_gbm(model: GbmModel, x):
    """sigmoid(F0 + learning_rate * sum of tree outputs); row or matrix input."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    scores = np.full(len(rows), model.initial_score)
    for tree in model.trees:
        scores = scores + model.learning_rate * np.array(
            [_tree_value(tree, row) for row in rows]
        )
    p = _sigmoid(scores)
    return float(p[0]) if single else p


# ---------------------------------------------------------------------------
# survival reference: the estimators that rescanned the cohort once per event
# time, and concordance once per event, before the sorted risk table, verbatim
# ---------------------------------------------------------------------------


def kaplan_meier(times, events, weights=None) -> SurvivalCurve:
    """Weighted product-limit estimator over the distinct event times."""
    times, events, weights = _check_samples(times, events, weights)
    if len(times) == 0:
        raise ValueError("need at least one sample")
    event_times = np.unique(times[events == 1.0])
    survival = []
    at_risk = []
    d_counts = []
    s = 1.0
    for t in event_times:
        n_w = float(weights[times >= t].sum())
        d_w = float(weights[(times == t) & (events == 1.0)].sum())
        s *= 1.0 - d_w / n_w
        survival.append(s)
        at_risk.append(n_w)
        d_counts.append(d_w)
    return SurvivalCurve(
        event_times, np.asarray(survival), np.asarray(at_risk), np.asarray(d_counts)
    )


def log_rank(times, events, groups, weights=None) -> tuple[float, float]:
    """Two-group (weighted) log-rank test; returns (statistic, p-value)."""
    times, events, weights = _check_samples(times, events, weights)
    groups = np.asarray(groups, dtype=float)
    if not set(np.unique(groups)) <= {0.0, 1.0} or len(np.unique(groups)) < 2:
        raise ValueError("groups must contain both 0 and 1")
    if events.sum() == 0:
        raise ValueError("need at least one event")

    o_minus_e = 0.0
    var = 0.0
    for t in np.unique(times[events == 1.0]):
        at_risk = times >= t
        n_w = float(weights[at_risk].sum())
        n1_w = float(weights[at_risk & (groups == 1.0)].sum())
        dying = (times == t) & (events == 1.0)
        d_w = float(weights[dying].sum())
        d1_w = float(weights[dying & (groups == 1.0)].sum())
        if n_w <= 1.0:
            continue
        share = n1_w / n_w
        o_minus_e += d1_w - d_w * share
        var += d_w * share * (1.0 - share) * (n_w - d_w) / (n_w - 1.0)
    if var <= 0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    return float(stat), float(chdtrc(1, stat))


def concordance(scores, times, events, weights=None) -> float:
    """Harrell's C: fraction of usable pairs ordered correctly by risk score.

    A pair is usable when the earlier time belongs to an observed event and
    the times differ; score ties count one half.  Weighted pairs contribute
    w_i * w_j.
    """
    times, events, weights = _check_samples(times, events, weights)
    scores = np.asarray(scores, dtype=float)

    usable = 0.0
    concordant = 0.0
    for i in np.flatnonzero(events == 1.0):
        later = times > times[i]
        if not np.any(later):
            continue
        pair_w = weights[i] * weights[later]
        usable += pair_w.sum()
        higher = scores[i] > scores[later]
        tied = scores[i] == scores[later]
        concordant += pair_w @ (higher + 0.5 * tied)
    if usable == 0:
        raise ValueError("no usable pairs")
    return float(concordant / usable)


def fit_aalen(times, events, X, names=None, weights=None, horizon=None) -> AalenModel:
    """Additive hazard fit: per event time t, dB(t) solves the weighted
    least-squares system over the at-risk set,

        dB(t) = (X' W X)^-1 X' W dN(t),

    and B(t) is the running sum.  Event times whose at-risk design is
    rank-deficient (condition number above 1e10) are dropped.
    """
    times, events, weights = _check_samples(times, events, weights)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(times):
        raise ValueError("covariate matrix must be 2-d with one row per sample")
    if events.sum() == 0:
        raise ValueError("need at least one event")
    design = np.hstack([np.ones((len(times), 1)), X])
    p = design.shape[1]
    if names is None:
        names = tuple(f"x{j}" for j in range(X.shape[1]))
    all_names = ("Intercept",) + tuple(names)

    event_times = np.unique(times[events == 1.0])
    if horizon is not None:
        event_times = event_times[event_times <= horizon]

    used_times = []
    increments = []
    variance = np.zeros((p, p))
    for t in event_times:
        at_risk = times >= t
        Xr = design[at_risk]
        wr = weights[at_risk]
        dn = ((times[at_risk] == t) & (events[at_risk] == 1.0)).astype(float)
        xtwx = Xr.T @ (Xr * wr[:, None])
        if np.linalg.cond(xtwx) > RANK_CONDITION_LIMIT:
            continue
        solver = np.linalg.solve(xtwx, (Xr * wr[:, None]).T)  # (X'WX)^-1 X'W
        increments.append(solver @ dn)
        variance += (solver * dn) @ solver.T
        used_times.append(t)

    if not used_times:
        raise ValueError("design is rank-deficient at every event time")

    used_times = np.asarray(used_times)
    cumulative = np.cumsum(np.asarray(increments), axis=0)
    coef = cumulative[-1]
    se = np.sqrt(np.clip(np.diag(variance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, coef / se, 0.0)
    p_values = 2.0 * ndtr(-np.abs(z))

    # least-squares slope of each cumulative coefficient against time
    t_centered = used_times - used_times.mean()
    denom = float(t_centered @ t_centered)
    if denom > 0:
        slope = (t_centered @ (cumulative - cumulative.mean(axis=0))) / denom
    else:
        slope = np.zeros(p)

    if p > 1:
        block = variance[1:, 1:]
        chi2 = float(coef[1:] @ np.linalg.pinv(block) @ coef[1:])
        chi2_df = p - 1
        chi2_p = float(chdtrc(chi2_df, chi2))
    else:
        chi2, chi2_df, chi2_p = 0.0, 0, 1.0

    return AalenModel(
        names=all_names,
        times=used_times,
        cumulative=cumulative,
        slope=slope,
        coef=coef,
        se=se,
        z=z,
        p=p_values,
        chi2=chi2,
        chi2_df=chi2_df,
        chi2_p=chi2_p,
        n_event_times_used=len(used_times),
        n_event_times_total=len(event_times),
    )


def nelson_aalen(times, events, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted cumulative hazard: sum of d^w_t / n^w_t over event times."""
    times, events, weights = _check_samples(times, events, weights)
    event_times = np.unique(times[events == 1.0])
    values = []
    total = 0.0
    for t in event_times:
        n_w = float(weights[times >= t].sum())
        d_w = float(weights[(times == t) & (events == 1.0)].sum())
        total += d_w / n_w
        values.append(total)
    return event_times, np.asarray(values)


# ---------------------------------------------------------------------------
# CMA-ES reference: ask and tell as they were before they shared one
# eigendecomposition per generation, verbatim
# ---------------------------------------------------------------------------


def ask(state: CmaesState, config: CmaesConfig) -> np.ndarray:
    """Sample the population for this generation; deterministic per (seed, generation)."""
    m = state.mean.size
    lam = config.population_for(m)
    eigvals, eigvecs = _decompose(state.cov)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, state.generation)))
    z = rng.standard_normal((lam, m))
    return state.mean + state.sigma * (z * np.sqrt(eigvals)) @ eigvecs.T


def tell(
    state: CmaesState,
    candidates: np.ndarray,
    values: Sequence[float],
    config: CmaesConfig,
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
    weights, mueff, cs, cc, c1, cmu, damps, chi_m, mu = _strategy(
        m, lam, config.parent_fraction, config.damping_factor
    )

    order = np.argsort(values, kind="stable")
    if values[order[0]] < state.best_value:
        state.best_value = float(values[order[0]])
        state.best_point = candidates[order[0]].copy()

    parents = candidates[order[:mu]]
    old_mean = state.mean
    shift = weights @ (parents - old_mean)
    state.mean = old_mean + config.c_mean * shift

    eigvals, eigvecs = _decompose(state.cov)
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

    state.sigma *= math.exp(
        min(1.0, (cs / damps) * (math.sqrt(ps_norm2) / chi_m - 1.0))
    )
    state.generation = gen1
    state.evaluations += lam
    return state


# ---------------------------------------------------------------------------
# statistics that only the tests read
# ---------------------------------------------------------------------------


def chi_square_statistic(categories, z, weights=None) -> float:
    """The raw Pearson statistic behind `adjust.chi_square_test`."""
    return _pearson(categories, z, weights)[0]


def gbm_training_deviance(model: GbmModel, X, y, n_trees: int | None = None) -> float:
    """Binomial deviance of the first n_trees stages (all stages by default)."""
    sub = replace(model, trees=model.trees[: len(model.trees) if n_trees is None else n_trees])
    p = np.clip(classical.predict_gbm(sub, np.asarray(X, dtype=float)), 1e-12, 1 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(-2.0 * np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))
