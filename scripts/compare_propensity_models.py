#!/usr/bin/env python3
"""Score every propensity model on one synthetic cohort at several sample sizes.

Prints an AUC / log-loss / Brier / accuracy table like:

    python scripts/compare_propensity_models.py --seed 3 --n 300 --max-evals 300

Each model is fitted and scored by the same code as `qcausal fit-ps`, on an
arm-stratified subsample of each size; the metrics are computed on that
subsample.  Circuit models train with CMA-ES; --max-evals caps their budget.
"""

import argparse

from qcausal import cli, data, metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--sizes", type=int, nargs="*", default=[100])
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--noise-p", type=float, default=0.01, dest="noise_p")
    parser.add_argument("--max-evals", type=int, default=300, dest="max_evals")
    args = parser.parse_args()

    cohort = data.generate_synthetic_cohort(data.SynthConfig(n=args.n, seed=args.seed))
    sizes = [s for s in args.sizes if s <= args.n] + [args.n]

    print(f"{'sample':>6} {'model':>14} {'auc':>6} {'logloss':>8} {'brier':>6} {'acc':>6}")
    for size in sizes:
        idx = cli._subsample_indices(cohort.z, str(size), cli._stage_seed(args.seed, 1))
        labels = cohort.z[idx]
        for model in ("qnn_sam", "qnn_f_backend", "qnn_exact", "lr", "gbm"):
            config = cli.RunConfig(
                command="fit-ps",
                out_dir="",
                seed=args.seed,
                model=model,
                shots=args.shots,
                noise_p=args.noise_p,
                max_evaluations=args.max_evals,
            )
            config.validate()
            scores = cli._fit_scores(config, cohort, idx)[idx]
            _, auc = metrics.roc_and_auc(scores, labels)
            print(
                f"{size:>6} {model:>14} {auc:>6.3f} "
                f"{metrics.log_loss(scores, labels):>8.3f} "
                f"{metrics.brier(scores, labels):>6.3f} "
                f"{metrics.accuracy(scores, labels):>6.3f}"
            )


if __name__ == "__main__":
    main()
