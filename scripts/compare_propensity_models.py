#!/usr/bin/env python3
"""Score every propensity model on one synthetic cohort at several sample sizes.

Prints an AUC / log-loss / Brier / accuracy table like:

    python scripts/compare_propensity_models.py --seed 3 --n 300 --max-evals 300

Each model is fitted and scored by the same code as `qcausal fit-ps`, on an
arm-stratified subsample of each size; the metrics are computed on that
subsample.  Circuit models train with CMA-ES; --max-evals caps their budget.
Sizes above --n are skipped and --n itself always runs, once.  An invalid
option, or a size the models cannot be fitted on, ends the script with exit
code 1 and the reason; the options are checked before the first fit.
"""

import argparse
import dataclasses
import sys

from qcausal import cli, data, metrics
from qcausal.cmaes import CmaesConfig


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--sizes", type=int, nargs="*", default=[100])
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--noise-p", type=float, default=0.01, dest="noise_p")
    parser.add_argument("--max-evals", type=int, default=300, dest="max_evals")
    args = parser.parse_args()

    config = cli.RunConfig(
        command="fit-ps",
        out_dir="",
        seed=args.seed,
        shots=args.shots,
        noise_p=args.noise_p,
        max_evaluations=args.max_evals,
    )
    try:
        config.validate()
        CmaesConfig(max_evaluations=args.max_evals)  # the circuit models' budget
        synth = data.SynthConfig(n=args.n, seed=args.seed)
    except ValueError as exc:
        print(f"compare_propensity_models: {exc}", file=sys.stderr)
        return 1

    cohort = data.generate_synthetic_cohort(synth)
    sizes = dict.fromkeys([s for s in args.sizes if s <= args.n] + [args.n])

    print(f"{'sample':>6} {'model':>14} {'auc':>6} {'logloss':>8} {'brier':>6} {'acc':>6}")
    for size in sizes:
        try:
            idx = cli._subsample_indices(cohort.z, str(size), cli._stage_seed(args.seed, 1))
            labels = cohort.z[idx]
            for model in ("qnn_sam", "qnn_f_backend", "qnn_exact", "lr", "gbm"):
                model_config = dataclasses.replace(config, model=model)
                scores = cli._fit_scores(model_config, cohort, idx)[0][idx]
                _, auc = metrics.roc_and_auc(scores, labels)
                print(
                    f"{size:>6} {model:>14} {auc:>6.3f} "
                    f"{metrics.log_loss(scores, labels):>8.3f} "
                    f"{metrics.brier(scores, labels):>6.3f} "
                    f"{metrics.accuracy(scores, labels):>6.3f}"
                )
        except ValueError as exc:
            print(f"compare_propensity_models: sample size {size}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
