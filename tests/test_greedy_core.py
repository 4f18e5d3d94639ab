"""The caliper-windowed, generation-batched greedy core against the
one-genome-at-a-time matchers it replaced (kept verbatim in oracles.py).

Equality is of whole MatchSets: pairs in match order, the unmatched treated
in visiting order, and the caliper.  Where exact ties decide a genetic
match, the reference is the exact-arithmetic oracle, since the float one
breaks such ties by rounding residue.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from qcausal import adjust, cli
from qcausal.adjust import MatchSet
from qcausal.data import load_cohort

SEEDS = range(24)


def tie_heavy_instance(seed, n=None):
    """Few distinct scores and small integer covariates, so equal distances
    and equal scores are common and the tie rules decide the match."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 70)) if n is None else n
    z = (rng.random(n) < rng.uniform(0.3, 0.7)).astype(float)
    z[:2] = [1.0, 0.0]
    if seed % 3 == 0:
        ps = rng.uniform(0.05, 0.95, n)
    else:
        ps = rng.integers(1, 10, n) / 10.0
    X = rng.integers(0, 3, size=(n, 3)).astype(float)
    X[:, 0] = rng.integers(0, 2, n)  # one dichotomous column
    return X, z, ps


@pytest.mark.parametrize("multiplier", [0.25, 0.05, 0.0, 3.0])
def test_nearest_neighbor_matches_oracle(multiplier):
    for seed in SEEDS:
        _, z, ps = tie_heavy_instance(seed)
        assert adjust.nearest_neighbor_match(ps, z, multiplier) == oracles.nearest_neighbor_match(
            ps, z, multiplier
        ), seed


@pytest.mark.parametrize("population", [4, 100])
@pytest.mark.parametrize("multiplier", [0.25, 0.05])
def test_genetic_matches_oracle(population, multiplier):
    """Small populations on the tie-heavy instances meet exact ties the float
    oracle breaks by rounding residue, so they are held to the exact oracle."""
    generations = 3 if population == 4 else 1
    oracle = oracles.exact_genetic_match if population == 4 else oracles.genetic_match
    for seed in SEEDS:
        X, z, ps = tie_heavy_instance(seed, n=40 if population == 100 else None)
        args = dict(population=population, generations=generations, seed=seed,
                    caliper_multiplier=multiplier)
        assert adjust.genetic_match(X, z, ps, **args) == oracle(X, z, ps, **args), seed


def visits(match: MatchSet, order) -> list:
    """The control each treated subject of `order` took, or None."""
    taken = dict(match.pairs)
    return [taken.get(t) for t in order]


def test_float_oracle_differs_only_at_exact_ties(monkeypatch):
    """Per genome of whole initial populations: the package's match equals
    the exact oracle's, and where it differs from the float oracle's, the
    first treated subject they match differently has two exactly equidistant
    controls, and the package took the lower index."""
    recorded = []
    run = adjust._GreedyCore.run

    def recording_run(core, weights, gaps):
        recorded.append((core, run(core, weights, gaps)))
        return recorded[-1][1]

    monkeypatch.setattr(adjust._GreedyCore, "run", recording_run)
    population, genomes_seen, ties = 40, 0, 0
    for seed in SEEDS:
        X, z, ps = tie_heavy_instance(seed)
        recorded.clear()
        adjust.genetic_match(X, z, ps, population=population, generations=0, seed=seed)
        core = recorded[0][0]
        picks = np.concatenate([row for _, row in recorded])
        # the initial population as genetic_match draws it
        genomes = np.exp(np.random.default_rng(seed).normal(0.0, 0.5, size=(population, 4)))
        genomes[0] = 1.0
        caliper = adjust.score_caliper(ps)
        exact = oracles.exact_metric_matcher(X, ps, z, caliper)
        floats = oracles.float_metric_matcher(X, ps, z, caliper)
        order = core.treated[core.order].tolist()
        for genome, row in zip(genomes, picks):
            new = core.match_set(row)
            assert new == exact(genome), seed
            genomes_seen += 1
            old = visits(floats(genome), order)
            diverged = [(t, a, b) for t, a, b in zip(order, visits(new, order), old) if a != b]
            if diverged:
                t, ours, theirs = diverged[0]
                assert ours < theirs, seed
                assert oracles.exact_sq_distance(X, ps, genome, t, ours) == (
                    oracles.exact_sq_distance(X, ps, genome, t, theirs)
                ), seed
                ties += 1
    assert genomes_seen == population * len(SEEDS)
    assert ties  # the tie-heavy instances do meet such ties


def test_unmatched_treated_and_empty_window():
    # distinct scores in disjoint ranges: the caliper window is empty
    ps = np.array([0.9, 0.91, 0.92, 0.1, 0.11])
    z = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    X = np.array([[0.0], [1.0], [2.0], [1.0], [0.0]])
    nn = adjust.nearest_neighbor_match(ps, z)
    assert nn == oracles.nearest_neighbor_match(ps, z)
    assert nn.pairs == () and nn.unmatched_treated == (2, 1, 0)
    gm = adjust.genetic_match(X, z, ps, population=4, generations=2, seed=1)
    assert gm == oracles.genetic_match(X, z, ps, population=4, generations=2, seed=1)
    assert gm.pairs == ()
    # more treated than controls inside the caliper: some stay unmatched
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        ps = np.round(rng.uniform(0.4, 0.6, 30), 2)
        z = np.array([1.0] * 22 + [0.0] * 8)
        X = rng.integers(0, 4, size=(30, 2)).astype(float)
        nn = adjust.nearest_neighbor_match(ps, z)
        assert nn == oracles.nearest_neighbor_match(ps, z)
        assert nn.unmatched_treated
        args = dict(population=6, generations=2, seed=seed)
        assert adjust.genetic_match(X, z, ps, **args) == oracles.genetic_match(X, z, ps, **args)


def test_non_finite_score_matches_oracle():
    # a NaN score makes the caliper NaN, and NaN != NaN, so compare the parts
    X, z, ps = tie_heavy_instance(5, n=30)
    ps[3] = np.nan
    args = dict(population=4, generations=1, seed=2)
    for new, old in (
        (adjust.nearest_neighbor_match(ps, z), oracles.nearest_neighbor_match(ps, z)),
        (adjust.genetic_match(X, z, ps, **args), oracles.genetic_match(X, z, ps, **args)),
    ):
        assert new.pairs == old.pairs == ()
        assert new.unmatched_treated == old.unmatched_treated
        assert np.isnan(new.caliper) and np.isnan(old.caliper)
    # the window is empty, so not even a NaN weight makes the core raise
    core = adjust._GreedyCore(ps, z, adjust.score_caliper(ps))
    assert len(core.cols) == 0
    picks = core.run(np.full((2, 4), np.nan), np.empty((4, 0)))
    assert (picks == len(core.control)).all()


def test_non_finite_covariate_is_rejected():
    # a NaN distance could win an argmin, so the core refuses it up front
    X, z, ps = tie_heavy_instance(1, n=30)
    X[4, 1] = np.nan
    with pytest.raises(ValueError, match="distances must be finite"):
        adjust.genetic_match(X, z, ps, population=4, generations=1, seed=0)


def one_treated_two_controls():
    """A core whose window is one treated subject and controls 0 and 1."""
    core = adjust._GreedyCore(np.array([0.5, 0.5, 0.5]), np.array([1.0, 0.0, 0.0]), 0.1)
    assert core.cols.tolist() == [0, 1] and len(core.segments) == 1
    return core


def test_squared_distances_one_ulp_apart_are_not_tied():
    """The higher-index control is nearer by one ulp of d^2, a gap that the
    square root rounds away: the core ranks d^2, so it takes that control,
    as exact arithmetic does, where sqrt would tie and take control 0."""
    core = one_treated_two_controls()
    far, near = np.nextafter(1.0, 2.0), 1.0
    gaps = np.array([[far, near]])
    weights = np.array([[1.0], [4.0]])
    distances = weights @ gaps
    assert (np.sqrt(distances[:, 0]) == np.sqrt(distances[:, 1])).all()
    picks = core.run(weights, gaps)
    assert picks.tolist() == [[1], [1]]
    for w, (pick,) in zip(weights[:, 0].tolist(), picks):
        exact = [Fraction(w) * Fraction(g) for g in gaps[0].tolist()]
        assert exact[pick] < exact[1 - pick]


class Recorded(np.ndarray):
    """An array that records every slice taken of it."""

    def __getitem__(self, key):
        self.slices.append(key)
        return super().__getitem__(key)


def test_non_finite_weight_or_overflow_raises_before_any_pick():
    core = one_treated_two_controls()
    gaps = np.array([[1.0, 4.0]])
    with pytest.raises(ValueError, match="distances must be finite"):
        core.run(np.array([[1.0], [np.nan]]), gaps)
    # 1e300 * 1e10 overflows to inf; the check reads no window segment
    recorded = np.array([[1e10, 1.0]]).view(Recorded)
    recorded.slices = []
    weights = np.array([[1e300]])
    assert 1e300 * 1e10 == float("inf")  # Python floats: no numpy warning
    with pytest.raises(ValueError, match="distances must be finite"):
        core.run(weights, recorded)
    assert recorded.slices == []
    # the window matches as usual once the product is finite
    assert core.run(np.array([[1e290]]), recorded).tolist() == [[1]]
    assert recorded.slices


@pytest.mark.parametrize("multiplier", [0.25, 3.0])
def test_nearest_neighbor_with_finite_scores_never_raises(multiplier):
    for seed in SEEDS:
        _, z, ps = tie_heavy_instance(seed)
        for scale in (1.0, 1e-300, 1e150):
            match = adjust.nearest_neighbor_match(ps * scale, z, multiplier)
            assert match == oracles.nearest_neighbor_match(ps * scale, z, multiplier), seed


def run_genomes(core, X, ps, genomes):
    """`core.run` for the rows of `genomes` on the distances genetic_match
    builds: the genome-weighted squared gaps of (X, ps), standardized."""
    raw = np.column_stack([X, ps])
    gaps = (raw[core.treated][core.rows] - raw[core.control][core.cols]).T ** 2
    std = raw.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    return core.run(np.atleast_2d(genomes) / std**2, gaps)


@pytest.mark.parametrize("per_block", [1, 3])
def test_genome_blocks_do_not_change_the_match(per_block):
    """A population of ten run in blocks of `per_block` genomes (one each,
    or three each with a one-genome block at the end) gives each genome the
    picks of its row in one pass over the whole population: a genome's
    match does not depend on which other genomes share the pass."""
    for seed in range(6):
        X, z, ps = tie_heavy_instance(seed, n=40)
        core = adjust._GreedyCore(ps, z, adjust.score_caliper(ps, 0.5))
        genomes = np.exp(np.random.default_rng(seed).normal(0.0, 0.5, size=(10, 4)))
        together = run_genomes(core, X, ps, genomes)
        for start in range(0, len(genomes), per_block):
            block = run_genomes(core, X, ps, genomes[start : start + per_block])
            assert np.array_equal(block, together[start : start + per_block]), seed
        args = dict(population=10, generations=2, seed=seed, caliper_multiplier=0.5)
        assert adjust.genetic_match(X, z, ps, **args) == oracles.genetic_match(X, z, ps, **args)


def benchmark_cohort(tmp_path):
    """The n=800 seed-1 cohort's model covariates, arms and logistic scores."""
    out = str(tmp_path)
    assert cli.main(["gen", "--out-dir", out, "--seed", "1", "--n", "800"]) == cli.EXIT_OK
    assert cli.main(["fit-ps", "--out-dir", out, "--seed", "1", "--model", "lr"]) == cli.EXIT_OK
    cohort, _ = load_cohort(tmp_path / "cohort.csv")
    _, ps = cli.read_scores(tmp_path / "scores.csv")
    return cohort.matrix(cli.MODEL_COVARIATES), cohort.z, ps


def test_benchmark_sized_genetic_match(tmp_path):
    """n=800 cohort, logistic scores, population 100, 4 generations, seeded
    the way `qcausal adjust --seed 1` seeds it."""
    X, z, ps = benchmark_cohort(tmp_path)
    args = dict(population=100, generations=4, seed=cli._stage_seed(1, 3))
    new = adjust.genetic_match(X, z, ps, **args)
    assert new == oracles.genetic_match(X, z, ps, **args)
    assert adjust.nearest_neighbor_match(ps, z) == oracles.nearest_neighbor_match(ps, z)
    assert len(new.pairs) > 100


def test_genetic_match_holds_no_population_sized_buffer(tmp_path):
    """At n=800 with population 400, the memory genetic_match allocates at
    its peak stays below half of one population x window float64 array, so
    no per-genome distance buffer over the whole window comes back."""
    X, z, ps = benchmark_cohort(tmp_path)
    width = len(adjust._GreedyCore(ps, z, adjust.score_caliper(ps)).cols)
    tracemalloc.start()
    try:
        adjust.genetic_match(X, z, ps, population=400, generations=1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400 * width * 8 / 2
