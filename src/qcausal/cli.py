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
subject from one generator seeded with (model stream, 7).

RunConfig declares every run option once: its name, type and default.  Each
stage's flags come from the STAGES table, which names the option each flag
sets; a --config file of `key=value` lines, read after the flags, sets
options by name.  One function, set_option, reads the text of both, so a bad
value gets the same message from a flag as from a config line.
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
SAMPLES = ("100", "500", "full")  # model-fitting subsample sizes
MODEL_COVARIATES = ("Age", "Sex", "Stage", "BMI")
SURVIVAL_COVARIATES = ("Age", "Sex", "BMI", "ASA", "Stage")
CLASSICAL_CLIP = 1e-9

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_EMPTY_MATCH = 3


@dataclass
class RunConfig:
    """The settings of a run.  Each field but `command` is an option: its name
    is the config-file key, its annotation the type its text is read as, and
    its default what a run gets when no flag or config line sets it."""

    command: str
    out_dir: str
    seed: int = 0
    n: int = data.SynthConfig.n  # generated cohort size
    sample: str = "full"  # model-fitting subsample, one of SAMPLES
    model: str = "lr"
    adjust: str = "mw"
    shots: int = 1024
    noise_p: float = 0.01
    alpha: float = 1e-3
    # generator knobs, passed to data.SynthConfig by name
    stage_to_treatment: float = data.SynthConfig.stage_to_treatment
    sex_to_treatment: float = data.SynthConfig.sex_to_treatment
    treatment_effect: float = data.SynthConfig.treatment_effect
    baseline_hazard: float = data.SynthConfig.baseline_hazard
    censoring_target: float = data.SynthConfig.censoring_target
    # circuit-model knobs (config-file keys)
    layers: int = 1
    variational: bool = False
    clip_epsilon: float = 1e-3
    max_evaluations: int = 2000
    genetic_generations: int = 30

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.adjust not in ADJUSTMENTS:
            raise ValueError(f"adjust must be one of {ADJUSTMENTS}, got {self.adjust!r}")
        if self.sample not in SAMPLES:
            raise ValueError(f"sample must be one of {SAMPLES}, got {self.sample!r}")
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


# the type annotation of each option, keyed by its name
OPTIONS = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
# the spellings a boolean option may take, in any case
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# how the text of an option of each type is read, and what it must be
READERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda text: BOOLEANS[text.lower()], f"one of {'/'.join(BOOLEANS)}"),
    "str": (str, "text"),
}


def set_option(config: RunConfig, key: str, text: str, where: str) -> None:
    """Read `text` as option `key` and set it on `config`.  Flags and config
    lines both come here; text the option's type cannot read is a ValueError
    that starts with `where`, the flag or the config line and key."""
    read, noun = READERS[OPTIONS[key]]
    try:
        value = read(text)
    except (KeyError, ValueError):
        raise ValueError(f"{where} must be {noun}, got {text!r}") from None
    setattr(config, key, value)


def apply_config_file(config: RunConfig, path: str) -> RunConfig:
    """Override config fields from `key=value` lines; `#` starts a comment."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in OPTIONS:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            set_option(config, key, value, f"config line {lineno}: {key}")
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


def _read_rows(path, columns):
    """Yield (line number, values) for each data row of a CSV, where `columns`
    maps each column to read to its type, int or float.  A missing column, a
    row too short to hold every column or a cell that is not a number of its
    column's type is a ValueError naming the file and, for a cell, the row
    and column."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for name in columns:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}: no {name!r} column")
        for line, row in enumerate(reader, start=2):
            if any(row[name] is None for name in columns):
                raise ValueError(f"{path}: row {line}: too few fields")
            values = []
            for name, kind in columns.items():
                try:
                    values.append(kind(row[name]))
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise ValueError(
                        f"{path}: row {line}: {name} is not {what}: {row[name]!r}"
                    ) from None
            yield line, values


def _read_by_subject(path, columns, n, noun, stage):
    """Read a per-subject CSV with a `subject` column and the float `columns`,
    placing each row by its subject, so the row order does not matter.
    Every subject in [0, n) must have exactly one row, n defaulting to the
    number of rows; otherwise a ValueError names the offending row, or the
    first subject without one and the `stage` that writes the file.  Returns
    the file row of each subject and one array per column."""
    rows = list(_read_rows(path, {"subject": int, **columns}))
    n = len(rows) if n is None else n
    lines = np.zeros(n, dtype=int)  # 0 until the subject's row is read
    for line, (subject, *_) in rows:
        if not 0 <= subject < n:
            raise ValueError(
                f"{path}: row {line}: subject {subject} is outside the cohort [0, {n})"
            )
        if lines[subject]:
            raise ValueError(f"{path}: row {line}: subject {subject} appears in an earlier row")
        lines[subject] = line
    if len(rows) < n:
        missing = int(np.argmin(lines))
        raise ValueError(
            f"{path}: holds {len(rows)} {noun} for {n} subjects, none for subject "
            f"{missing}; re-run `qcausal {stage}`"
        )
    values = np.empty((len(columns), n))
    if rows:
        values[:, [subject for _, (subject, *_) in rows]] = np.transpose(
            [cells for _, (_, *cells) in rows]
        )
    return lines, *values


def read_scores(path, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse scores.csv into per-subject (z, propensity) arrays, placed by
    the `subject` column as `read_weights` places weights; a propensity that
    is not a finite number strictly inside (0, 1), as `fit-ps` writes it, is
    a ValueError naming its row."""
    lines, z, ps = _read_by_subject(path, {"z": float, "propensity": float}, n, "scores", "fit-ps")
    bad = np.flatnonzero(~((ps > 0.0) & (ps < 1.0)))
    if len(bad):
        subject = bad[0]
        problem = "is not finite" if not math.isfinite(ps[subject]) else "lies outside (0, 1)"
        raise ValueError(
            f"{path}: row {lines[subject]}: propensity {problem}: {float(ps[subject])!r}"
        )
    return z, ps


def read_pairs(path) -> list[tuple[int, int]]:
    return [tuple(pair) for _, pair in _read_rows(path, {"treated": int, "control": int})]


def read_weights(path, n: int | None = None) -> np.ndarray:
    """Parse weights.csv into one weight per subject, placed by its `subject`
    column, so the row order does not matter.  Every subject in [0, n) must
    have exactly one row, n defaulting to the number of rows; otherwise a
    ValueError names the offending row, or the first subject without one."""
    _, weights = _read_by_subject(path, {"weight": float}, n, "weights", "adjust")
    return weights


def _check_pairs(pairs, z, path) -> None:
    """Each pair must join a treated subject (z=1) to a control (z=0) of the
    cohort, and no subject may appear twice; else a ValueError naming the row."""
    seen = set()
    for line, pair in enumerate(pairs, start=2):
        for index, arm, value in zip(pair, ("treated", "control"), (1.0, 0.0)):
            if not 0 <= index < len(z):
                raise ValueError(
                    f"{path}: row {line}: {arm} index {index} is outside the cohort [0, {len(z)})"
                )
            if z[index] != value:
                raise ValueError(f"{path}: row {line}: {arm} subject {index} has z={int(z[index])}")
            if index in seen:
                raise ValueError(f"{path}: row {line}: subject {index} appears in an earlier pair")
            seen.add(index)


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
    knobs = {f.name: getattr(config, f.name) for f in fields(data.SynthConfig) if f.name != "seed"}
    synth = data.SynthConfig(**knobs, seed=_stage_seed(config.seed, 0))
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
    if target <= 0:
        raise ValueError(f"sample size must be positive, got {target}")
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
    """Fit the chosen model on the subsample and score every subject: returns
    (scores, training), where training records a circuit model's CMA-ES run
    and is None for the classical models."""
    model_seed = _stage_seed(config.seed, 2)
    z_fit = cohort.z[fit_idx]

    if config.model in ("lr", "gbm"):
        X_all = cohort.matrix(MODEL_COVARIATES)
        X_fit = X_all[fit_idx]
        if config.model == "lr":
            model = classical.fit_logistic(X_fit, z_fit)
            raw = classical.predict_logistic(model, X_all)
        else:
            model = classical.fit_gbm(X_fit, z_fit)
            raw = classical.predict_gbm(model, X_all)
        return np.clip(raw, CLASSICAL_CLIP, 1.0 - CLASSICAL_CLIP), None

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
    training = {
        "evaluations": fitted.evaluations,
        "generations": fitted.generations,
        "stop_reason": fitted.stop_reason,
        "best_loss": fitted.trace[-1],
    }
    return qnn.predict_propensities(fitted, angles_all, seed=(model_seed, 7)), training


def cmd_fit_ps(config: RunConfig) -> int:
    out_dir = Path(config.out_dir)
    cohort = _load_cohort(out_dir)
    fit_idx = _subsample_indices(cohort.z, config.sample, _stage_seed(config.seed, 1))
    scores, training = _fit_scores(config, cohort, fit_idx)

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
    if training is not None:
        payload["training"] = training
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
        return "" if value is None or math.isnan(value) else repr(float(value))

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
    z, ps = read_scores(scores_path, cohort.n)
    mismatch = np.flatnonzero(z != cohort.z)
    if len(mismatch):
        subject = mismatch[0]
        raise ValueError(
            f"{scores_path}: subject {subject} has z={float(z[subject])!r} but cohort.csv "
            f"has z={float(cohort.z[subject])!r}; re-run `qcausal fit-ps`"
        )

    adjustment = _compute_adjustment(config, cohort, ps)
    record = _adjustment_record(adjustment, cohort.z)

    # one adjustment file per directory: survival reads whichever exists and
    # takes its label from balance.json, so a stale label must not outlive it
    (out_dir / "balance.json").unlink(missing_ok=True)
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

    report = adj.balance_report(cohort, ps, adjustment, SURVIVAL_COVARIATES)
    _write_balance(out_dir, {**asdict(report), **record}, config.adjust)
    if report.mean_abs_smd_after is None:
        print("qcausal adjust: empty match set; reports written", file=sys.stderr)
        return EXIT_EMPTY_MATCH
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
        weights = read_weights(weights_path, cohort.n)
        surv._check_samples(cohort.times, cohort.events, weights)
        analysis = cohort
        analysis_weights = weights
    elif pairs_path.exists():
        pairs = read_pairs(pairs_path)
        if not pairs:
            raise ValueError("pairs.csv holds an empty match set; nothing to analyze")
        _check_pairs(pairs, cohort.z, pairs_path)
        idx = np.concatenate([[t for t, _ in pairs], [c for _, c in pairs]]).astype(int)
        analysis = cohort.subset(idx)
        analysis_weights = None
    else:
        raise FileNotFoundError("no weights.csv or pairs.csv; run `qcausal adjust` first")

    # label the analysis with the adjustment that wrote the file, not the flag
    adjustment = config.adjust
    balance_path = out_dir / "balance.json"
    if balance_path.exists():
        balance = json.loads(balance_path.read_text(encoding="utf-8"))
        adjustment = balance.get("adjustment", adjustment)

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
            "adjustment": adjustment,
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
            "n_iter": cox.n_iter,
            "halvings": cox.halvings,
            "separation": cox.separation,
            "loglik": cox.loglik,
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


# Each stage's function, help line and flags.  A flag is named by the option
# it sets; --seed, --out-dir and --config come with every stage.
_FIT_FLAGS = {"model": "--model", "shots": "--shots", "noise_p": "--noise-p", "alpha": "--alpha"}
STAGES = {
    "gen": (cmd_gen, "write a synthetic cohort CSV", {"n": "--n"}),
    "fit-ps": (cmd_fit_ps, "fit a model and emit per-subject scores", {"sample": "--n", **_FIT_FLAGS}),
    "adjust": (cmd_adjust, "matching or weighting plus balance report", {"adjust": "--adjust"}),
    "survival": (cmd_survival, "KM curves, log-rank, Cox, additive model", {"adjust": "--adjust"}),
    "pipeline": (
        cmd_pipeline,
        "gen, fit-ps, adjust, survival in sequence",
        {"n": "--n", "adjust": "--adjust", **_FIT_FLAGS},
    ),
}
# the values an option given as a flag must take
CHOICES = {"model": MODELS, "adjust": ADJUSTMENTS, "sample": SAMPLES}


def _flags(command: str) -> dict:
    return {"seed": "--seed", **STAGES[command][2]}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per stage.  A flag left out is absent from the parsed
    namespace, so RunConfig's default stands; its text is read by set_option."""
    parser = argparse.ArgumentParser(
        prog="qcausal",
        description="Propensity-score and survival pipeline on synthetic cohorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, _) in STAGES.items():
        p = sub.add_parser(command, help=help_line, argument_default=argparse.SUPPRESS)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", help="key=value file overriding flags")
        for key, flag in _flags(command).items():
            p.add_argument(flag, dest=key, choices=CHOICES.get(key))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    command, path = options.pop("command"), options.pop("config", None)
    config = RunConfig(command=command, out_dir=options.pop("out_dir"))
    flags = _flags(command)
    for key, text in options.items():
        set_option(config, key, text, flags[key])
    if path is not None:
        apply_config_file(config, path)
    config.validate()
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        return STAGES[args.command][0](config)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"qcausal {args.command}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
