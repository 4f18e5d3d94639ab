"""The caliper-windowed, generation-batched greedy core against the
one-genome-at-a-time matchers it replaced (kept verbatim in oracles.py).

Equality is of whole MatchSets: pairs in match order, the unmatched treated
in visiting order, and the caliper.
"""

import numpy as np
import pytest

import oracles
from qcausal import adjust, cli
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
    generations = 3 if population == 4 else 1
    for seed in SEEDS:
        X, z, ps = tie_heavy_instance(seed, n=40 if population == 100 else None)
        args = dict(population=population, generations=generations, seed=seed,
                    caliper_multiplier=multiplier)
        assert adjust.genetic_match(X, z, ps, **args) == oracles.genetic_match(X, z, ps, **args), seed


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


def test_non_finite_covariate_is_rejected():
    # a NaN distance could win an argmin, so the core refuses it up front
    X, z, ps = tie_heavy_instance(1, n=30)
    X[4, 1] = np.nan
    with pytest.raises(ValueError, match="distances must be finite"):
        adjust.genetic_match(X, z, ps, population=4, generations=1, seed=0)


@pytest.mark.parametrize("per_block", [1, 3])
def test_genome_blocks_do_not_change_the_match(monkeypatch, per_block):
    # one genome per block, or three per block with a one-genome block
    # left at the end of a population of ten
    for seed in range(6):
        X, z, ps = tie_heavy_instance(seed, n=40)
        width = len(adjust._GreedyCore(ps, z, adjust.score_caliper(ps, 0.5)).cols)
        monkeypatch.setattr(adjust, "_BLOCK_BYTES", per_block * 8 * width)
        args = dict(population=10, generations=2, seed=seed, caliper_multiplier=0.5)
        assert adjust.genetic_match(X, z, ps, **args) == oracles.genetic_match(X, z, ps, **args)


def test_benchmark_sized_genetic_match(tmp_path):
    """n=800 cohort, logistic scores, population 100, 4 generations, seeded
    the way `qcausal adjust --seed 1` seeds it."""
    out = str(tmp_path)
    assert cli.main(["gen", "--out-dir", out, "--seed", "1", "--n", "800"]) == cli.EXIT_OK
    assert cli.main(["fit-ps", "--out-dir", out, "--seed", "1", "--model", "lr"]) == cli.EXIT_OK
    cohort, _ = load_cohort(tmp_path / "cohort.csv")
    _, ps = cli.read_scores(tmp_path / "scores.csv")
    X = cohort.matrix(cli.MODEL_COVARIATES)
    args = dict(population=100, generations=4, seed=cli._stage_seed(1, 3))
    new = adjust.genetic_match(X, cohort.z, ps, **args)
    assert new == oracles.genetic_match(X, cohort.z, ps, **args)
    assert adjust.nearest_neighbor_match(ps, cohort.z) == oracles.nearest_neighbor_match(
        ps, cohort.z
    )
    assert len(new.pairs) > 100
