"""Batch pipeline: generate a cohort, fit treatment-probability models, apply
matching or weighting, and run the survival comparison.

Every stage reads its inputs from --out-dir and writes fixed file names
there, so the stages compose:

    qcausal gen      -> cohort.csv, manifest.json
    qcausal fit-ps   -> scores.csv, metrics.json, roc.csv
    qcausal adjust   -> pairs.csv or weights.csv, balance.csv, balance.json
    qcausal survival -> km_*.csv, logrank.json, cox.json, aalen.json
    qcausal pipeline -> all of the above plus a combined manifest

All randomness flows from --seed.  Stage k derives its own integer stream as
SeedSequence((seed, k)) with k = 0 for generation, 1 for subsampling, 2 for
model fitting, and 3 for adjustment; circuit-model scoring draws every
subject from one generator seeded with (model stream, 7).  A --config file
of `key=value` lines overrides any flag of the same name.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import adjust as adj
from . import classical, data, metrics, qnn
from .cmaes import CmaesConfig
from .quantum import NoiseModel

MODELS = ("qnn_exact", "qnn_sam", "qnn_f_backend", "lr", "gbm")
ADJUSTMENTS = ("nn", "optimal", "genetic100", "genetic400", "ate", "att", "overlap", "mw")
MODEL_COVARIATES = ("Age", "Sex", "Stage", "BMI")
SURVIVAL_COVARIATES = ("Age", "Sex", "BMI", "ASA", "Stage")
CLASSICAL_CLIP = 1e-9

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_EMPTY_MATCH = 3


@dataclass
class RunConfig:
    command: str
    out_dir: str
    seed: int = 0
    n: str = "800"  # generated cohort size
    sample: str = "full"  # model-fitting subsample: 100, 500, or full
    model: str = "lr"
    adjust: str = "mw"
    shots: int = 1024
    noise_p: float = 0.01
    alpha: float = 1e-3
    # generator knobs (config-file keys)
    stage_to_treatment: float = -0.8
    sex_to_treatment: float = 0.4
    treatment_effect: float = 0.0
    baseline_hazard: float = 0.012
    censoring_target: float = 0.4
    # circuit-model knobs (config-file keys)
    layers: int = 1
    variational: bool = False
    clip_epsilon: float = 1e-3
    max_evaluations: int = 2000
    genetic_generations: int = 30

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.adjust not in ADJUSTMENTS:
            raise ValueError(f"adjust must be one of {ADJUSTMENTS}, got {self.adjust!r}")
        if self.sample not in ("100", "500", "full"):
            raise ValueError(f"sample must be 100, 500, or full, got {self.sample!r}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise-p must lie in [0, 1]")

    def hash(self) -> str:
        """sha256 over the canonical config serialization.

        The output directory is excluded so the hash identifies the run
        parameters rather than where the files happen to land.
        """
        payload = {k: v for k, v in asdict(self).items() if k != "out_dir"}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _stage_seed(seed: int, stage: int) -> int:
    return int(np.random.SeedSequence((seed, stage)).generate_state(1)[0])


def apply_config_file(config: RunConfig, path: str) -> RunConfig:
    """Override config fields from `key=value` lines; `#` starts a comment."""
    types = {f.name: f.type for f in fields(RunConfig)}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            kind = types[key]
            if kind in ("int", int):
                parsed = int(value)
            elif kind in ("float", float):
                parsed = float(value)
            elif kind in ("bool", bool):
                parsed = value.lower() in ("1", "true", "yes")
            else:
                parsed = value
            setattr(config, key, parsed)
    return config


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse scores.csv back into (z, propensity) arrays; a propensity that
    is not a finite number is a ValueError naming its row."""
    z, ps = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for line, row in enumerate(reader, start=2):
            z.append(float(row["z"]))
            ps.append(float(row["propensity"]))
            if not math.isfinite(ps[-1]):
                token = row["propensity"]
                raise ValueError(f"{path}: row {line}: propensity is not finite: {token!r}")
    return np.asarray(z), np.asarray(ps)


def read_pairs(path) -> list[tuple[int, int]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return [(int(row["treated"]), int(row["control"])) for row in reader]


def read_weights(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        return np.asarray([float(row["weight"]) for row in reader])


def _load_cohort(out_dir: Path) -> data.Cohort:
    path = out_dir / "cohort.csv"
    if not path.exists():
        raise FileNotFoundError("cohort.csv not found; run `qcausal gen` first")
    cohort, _ = data.load_cohort(path)
    return cohort


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def cmd_gen(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = int(config.n)
    synth = data.SynthConfig(
        n=n,
        stage_to_treatment=config.stage_to_treatment,
        sex_to_treatment=config.sex_to_treatment,
        treatment_effect=config.treatment_effect,
        baseline_hazard=config.baseline_hazard,
        censoring_target=config.censoring_target,
        seed=_stage_seed(config.seed, 0),
    )
    cohort = data.generate_synthetic_cohort(synth)
    data.write_cohort(cohort, out_dir / "cohort.csv")
    _write_json(
        out_dir / "manifest.json",
        {"command": config.command, "config": asdict(config), "config_hash": config.hash()},
    )
    return EXIT_OK


def _subsample_indices(z: np.ndarray, size: str, seed: int) -> np.ndarray:
    """Treatment-stratified simple random subsample without replacement."""
    if size == "full":
        return np.arange(len(z))
    target = int(size)
    if target >= len(z):
        return np.arange(len(z))
    rng = np.random.default_rng(seed)
    treated = np.flatnonzero(z == 1.0)
    control = np.flatnonzero(z == 0.0)
    n_treated = int(round(target * len(treated) / len(z)))
    n_treated = min(max(n_treated, 1), target - 1)
    picks = np.concatenate(
        [
            rng.choice(treated, size=n_treated, replace=False),
            rng.choice(control, size=target - n_treated, replace=False),
        ]
    )
    return np.sort(picks)


def _fit_scores(config: RunConfig, cohort: data.Cohort, fit_idx: np.ndarray):
    """Fit the chosen model on the subsample; score every subject."""
    model_seed = _stage_seed(config.seed, 2)
    z_fit = cohort.z[fit_idx]

    if config.model in ("lr", "gbm"):
        X_all = cohort.matrix(MODEL_COVARIATES)
        X_fit = X_all[fit_idx]
        if config.model == "lr":
            model = classical.fit_logistic(X_fit, z_fit)
            raw = classical.predict_logistic(model, X_all)
        else:
            model = classical.fit_gbm(X_fit, z_fit, seed=model_seed)
            raw = classical.predict_gbm(model, X_all)
        return np.clip(raw, CLASSICAL_CLIP, 1.0 - CLASSICAL_CLIP)

    _, encoder = data.encode_features(cohort.subset(fit_idx), MODEL_COVARIATES)
    angles_all = encoder.transform(cohort.matrix(MODEL_COVARIATES))
    if config.model == "qnn_exact":
        mode = qnn.EvalMode.exact()
    elif config.model == "qnn_sam":
        mode = qnn.EvalMode.sampled(config.shots)
    else:
        noise = NoiseModel(config.noise_p, config.noise_p)
        mode = qnn.EvalMode.noisy(noise, config.shots)
    qnn_config = qnn.QnnConfig(
        n_qubits=len(MODEL_COVARIATES),
        layers=config.layers,
        variational_enabled=config.variational,
        eval_mode=mode,
        alpha=config.alpha,
        clip_epsilon=config.clip_epsilon,
        seed=model_seed,
    )
    fitted = qnn.fit(
        angles_all[fit_idx],
        z_fit,
        config=qnn_config,
        cmaes_config=CmaesConfig(max_evaluations=config.max_evaluations, seed=model_seed),
    )
    return qnn.predict_propensities(fitted, angles_all, seed=(model_seed, 7))


def cmd_fit_ps(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    cohort = _load_cohort(out_dir)
    fit_idx = _subsample_indices(cohort.z, config.sample, _stage_seed(config.seed, 1))
    scores = _fit_scores(config, cohort, fit_idx)

    _write_csv(
        out_dir / "scores.csv",
        ["subject", "z", "propensity"],
        [(i, int(cohort.z[i]), repr(float(scores[i]))) for i in range(cohort.n)],
    )
    roc, auc = metrics.roc_and_auc(scores[fit_idx], cohort.z[fit_idx])
    _write_csv(
        out_dir / "roc.csv",
        ["threshold", "fpr", "tpr"],
        [
            (repr(float(t)), repr(float(f)), repr(float(s)))
            for t, f, s in zip(roc.thresholds, roc.fpr, roc.tpr)
        ],
    )
    payload = {
        "auc": auc,
        "log_loss": metrics.log_loss(scores[fit_idx], cohort.z[fit_idx]),
        "brier": metrics.brier(scores[fit_idx], cohort.z[fit_idx]),
        "accuracy": metrics.accuracy(scores[fit_idx], cohort.z[fit_idx]),
        "metadata": {
            "model": config.model,
            "sample": config.sample,
            "n_fit": int(len(fit_idx)),
            "n_total": int(cohort.n),
            "seed": config.seed,
        },
    }
    _write_json(out_dir / "metrics.json", payload)
    return EXIT_OK


def _compute_adjustment(config: RunConfig, cohort: data.Cohort, ps: np.ndarray):
    adjust_seed = _stage_seed(config.seed, 3)
    if config.adjust in ("ate", "att", "overlap", "mw"):
        scheme = "matching" if config.adjust == "mw" else config.adjust
        return adj.compute_weights(ps, cohort.z, scheme)
    if config.adjust == "nn":
        return adj.nearest_neighbor_match(ps, cohort.z)
    if config.adjust == "optimal":
        return adj.optimal_match(ps, cohort.z)
    population = 100 if config.adjust == "genetic100" else 400
    return adj.genetic_match(
        cohort.matrix(MODEL_COVARIATES),
        cohort.z,
        ps,
        population=population,
        generations=config.genetic_generations,
        seed=adjust_seed,
    )


def _write_balance(out_dir: Path, report, method: str) -> None:
    def cell(value):
        return "" if value is None or (isinstance(value, float) and math.isnan(value)) else repr(value)

    _write_csv(
        out_dir / "balance.csv",
        ["covariate", "smd_before", "smd_after", "test", "p_before", "p_after"],
        [
            (
                r["covariate"],
                cell(r["smd_before"]),
                cell(r["smd_after"]),
                r["test"],
                cell(r["p_before"]),
                cell(r["p_after"]),
            )
            for r in report["rows"]
        ],
    )
    _write_json(out_dir / "balance.json", {**report, "adjustment": method})


def _adjustment_record(adjustment, z: np.ndarray) -> dict:
    """What the adjustment itself did: the caliper and pair counts of a
    match, or the per-arm effective sample size and largest weight."""
    if isinstance(adjustment, adj.WeightVector):
        w = adjustment.weights
        return {
            "effective_sample_size": {
                "treated": adj.effective_sample_size(w[z == 1.0]),
                "control": adj.effective_sample_size(w[z == 0.0]),
            },
            "max_weight": float(w.max()),
        }
    return {
        "caliper": adjustment.caliper,
        "n_pairs": len(adjustment.pairs),
        "n_unmatched_treated": len(adjustment.unmatched_treated),
    }


def cmd_adjust(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    cohort = _load_cohort(out_dir)
    scores_path = out_dir / "scores.csv"
    if not scores_path.exists():
        raise FileNotFoundError("scores.csv not found; run `qcausal fit-ps` first")
    _, ps = read_scores(scores_path)

    adjustment = _compute_adjustment(config, cohort, ps)
    balance_covs = list(SURVIVAL_COVARIATES)
    record = _adjustment_record(adjustment, cohort.z)

    # one adjustment file per directory: survival reads whichever exists
    if isinstance(adjustment, adj.WeightVector):
        (out_dir / "pairs.csv").unlink(missing_ok=True)
        _write_csv(
            out_dir / "weights.csv",
            ["subject", "weight"],
            [(i, repr(float(w))) for i, w in enumerate(adjustment.weights)],
        )
    else:
        (out_dir / "weights.csv").unlink(missing_ok=True)
        _write_csv(out_dir / "pairs.csv", ["treated", "control"], list(adjustment.pairs))

    if isinstance(adjustment, adj.MatchSet) and not adjustment.pairs:
        rows = []
        for name in balance_covs:
            spec = cohort.schema.variable(name)
            test = "t-test" if spec.kind == "continuous" else "chisq"
            values = cohort.columns[name]
            p_before = (
                adj.two_sample_t_test(values, cohort.z)
                if test == "t-test"
                else adj.chi_square_test(values, cohort.z)
            )
            rows.append(
                {
                    "covariate": name,
                    "smd_before": adj.smd(values, cohort.z),
                    "smd_after": None,
                    "test": test,
                    "p_before": p_before,
                    "p_after": None,
                }
            )
        mean_before = float(np.mean([abs(r["smd_before"]) for r in rows]))
        _write_balance(
            out_dir,
            {"rows": rows, "mean_abs_smd_before": mean_before, "mean_abs_smd_after": None, **record},
            config.adjust,
        )
        print("qcausal adjust: empty match set; reports written", file=sys.stderr)
        return EXIT_EMPTY_MATCH

    report = adj.balance_report(cohort, ps, adjustment, balance_covs)
    _write_balance(
        out_dir,
        {
            "rows": report.as_records(),
            "mean_abs_smd_before": report.mean_abs_smd_before,
            "mean_abs_smd_after": report.mean_abs_smd_after,
            **record,
        },
        config.adjust,
    )
    return EXIT_OK


def _km_rows(curve):
    return [
        (repr(float(t)), repr(float(s)), repr(float(n)), repr(float(d)))
        for t, s, n, d in zip(curve.times, curve.survival, curve.at_risk, curve.events)
    ]


def cmd_survival(config: RunConfig) -> int:
    from . import survival as surv

    out_dir = Path(config.out_dir)
    cohort = _load_cohort(out_dir)

    weights_path = out_dir / "weights.csv"
    pairs_path = out_dir / "pairs.csv"
    if weights_path.exists() and pairs_path.exists():
        raise ValueError(
            "both weights.csv and pairs.csv exist, so the adjustment is ambiguous; "
            "re-run `qcausal adjust`"
        )
    if weights_path.exists():
        weights = read_weights(weights_path)
        analysis = cohort
        analysis_weights = weights
    elif pairs_path.exists():
        pairs = read_pairs(pairs_path)
        if not pairs:
            raise ValueError("pairs.csv holds an empty match set; nothing to analyze")
        idx = np.concatenate([[t for t, _ in pairs], [c for _, c in pairs]]).astype(int)
        analysis = cohort.subset(idx)
        analysis_weights = None
    else:
        raise FileNotFoundError("no weights.csv or pairs.csv; run `qcausal adjust` first")

    header = ["time", "survival", "at_risk", "events"]
    for label, group in (("control", 0.0), ("treated", 1.0)):
        mask = cohort.z == group
        curve = surv.kaplan_meier(cohort.times[mask], cohort.events[mask])
        _write_csv(out_dir / f"km_unadjusted_{label}.csv", header, _km_rows(curve))
        amask = analysis.z == group
        w = None if analysis_weights is None else analysis_weights[amask]
        curve = surv.kaplan_meier(analysis.times[amask], analysis.events[amask], w)
        _write_csv(out_dir / f"km_adjusted_{label}.csv", header, _km_rows(curve))

    stat_u, p_u = surv.log_rank(cohort.times, cohort.events, cohort.z)
    stat_a, p_a = surv.log_rank(
        analysis.times, analysis.events, analysis.z, analysis_weights
    )
    _write_json(
        out_dir / "logrank.json",
        {
            "unadjusted": {"statistic": stat_u, "p": p_u},
            "adjusted": {"statistic": stat_a, "p": p_a},
            "adjustment": config.adjust,
        },
    )

    names = list(SURVIVAL_COVARIATES) + ["Group"]
    X = np.column_stack([analysis.matrix(SURVIVAL_COVARIATES), analysis.z])
    cox = surv.fit_cox(
        analysis.times, analysis.events, X, names=names, weights=analysis_weights
    )
    _write_json(
        out_dir / "cox.json",
        {
            "variables": {
                name: {
                    "coef": float(cox.coef[j]),
                    "se": float(cox.se[j]),
                    "z": float(cox.z[j]),
                    "p": float(cox.p[j]),
                    "HR": float(cox.hr[j]),
                    "CI_low": float(cox.ci_low[j]),
                    "CI_high": float(cox.ci_high[j]),
                }
                for j, name in enumerate(cox.names)
            },
            "concordance": cox.concordance,
            "score_chi2": cox.score_chi2,
            "score_df": cox.score_df,
            "score_p": cox.score_p,
            "converged": cox.converged,
            "n": int(analysis.n),
        },
    )

    aalen = surv.fit_aalen(
        analysis.times, analysis.events, X, names=names, weights=analysis_weights
    )
    _write_json(
        out_dir / "aalen.json",
        {
            "variables": {
                name: {
                    "slope": float(aalen.slope[j]),
                    "coef": float(aalen.coef[j]),
                    "se": float(aalen.se[j]),
                    "z": float(aalen.z[j]),
                    "p": float(aalen.p[j]),
                }
                for j, name in enumerate(aalen.names)
            },
            "chisq": aalen.chi2,
            "df": aalen.chi2_df,
            "p": aalen.chi2_p,
            "event_times_used": aalen.n_event_times_used,
            "event_times_total": aalen.n_event_times_total,
            "n": int(analysis.n),
        },
    )
    return EXIT_OK


def cmd_pipeline(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = (cmd_gen, cmd_fit_ps, cmd_adjust, cmd_survival)
    outputs = []
    for stage in stages:
        code = stage(config)
        if code != EXIT_OK:
            return code
        outputs.append(stage.__name__)
    _write_json(
        out_dir / "manifest.json",
        {
            "command": "pipeline",
            "config": asdict(config),
            "config_hash": config.hash(),
            "stages": outputs,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Propensity-score and survival pipeline on synthetic cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", default=None, help="key=value file overriding flags")

    p_gen = sub.add_parser("gen", help="write a synthetic cohort CSV")
    add_common(p_gen)
    p_gen.add_argument("--n", default="800")

    p_fit = sub.add_parser("fit-ps", help="fit a model and emit per-subject scores")
    add_common(p_fit)
    p_fit.add_argument("--n", default="full", choices=("100", "500", "full"))
    p_fit.add_argument("--model", default="lr", choices=MODELS)
    p_fit.add_argument("--shots", type=int, default=1024)
    p_fit.add_argument("--noise-p", type=float, default=0.01, dest="noise_p")
    p_fit.add_argument("--alpha", type=float, default=1e-3)

    p_adj = sub.add_parser("adjust", help="matching or weighting plus balance report")
    add_common(p_adj)
    p_adj.add_argument("--adjust", default="mw", choices=ADJUSTMENTS)

    p_surv = sub.add_parser("survival", help="KM curves, log-rank, Cox, additive model")
    add_common(p_surv)
    p_surv.add_argument("--adjust", default="mw", choices=ADJUSTMENTS)

    p_pipe = sub.add_parser("pipeline", help="gen, fit-ps, adjust, survival in sequence")
    add_common(p_pipe)
    p_pipe.add_argument("--n", default="800")
    p_pipe.add_argument("--model", default="lr", choices=MODELS)
    p_pipe.add_argument("--adjust", default="mw", choices=ADJUSTMENTS)
    p_pipe.add_argument("--shots", type=int, default=1024)
    p_pipe.add_argument("--noise-p", type=float, default=0.01, dest="noise_p")
    p_pipe.add_argument("--alpha", type=float, default=1e-3)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command, out_dir=args.out_dir, seed=args.seed)
    for name in ("model", "adjust", "shots", "noise_p", "alpha"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "n"):
        # fit-ps reads --n as the fitting subsample; gen/pipeline as cohort size
        if args.command == "fit-ps":
            config.sample = args.n
        else:
            config.n = args.n
    if args.config:
        apply_config_file(config, args.config)
    config.validate()
    return config


COMMANDS = {
    "gen": cmd_gen,
    "fit-ps": cmd_fit_ps,
    "adjust": cmd_adjust,
    "survival": cmd_survival,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return COMMANDS[args.command](config)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"qcausal {args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
