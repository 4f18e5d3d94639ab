"""Cohort schema, CSV ingestion, feature-to-angle encoding, synthetic cohorts.

The default schema mirrors a two-arm surgical cohort: demographics and tumor
stage as covariates, a Technique column carrying the treatment arm
(laparoscopic = treated, open = control, conversions excluded), a survival
time in months, and an event flag.  The synthetic generator draws a
confounded cohort in which stage and sex drive both treatment assignment and
(through stage) the hazard, so unadjusted arm comparisons are biased even
when the true treatment effect is zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

KINDS = ("continuous", "binary", "ordinal", "treatment")
TREATED_LABEL = "laparoscopic"
CONTROL_LABEL = "open"
CONVERSION_LABEL = "conversion"
MISSING_TOKENS = {"", "NA", "NaN", "nan", "na"}


class CohortError(ValueError):
    """Schema or value violation; message carries row and column context."""


@dataclass(frozen=True)
class VariableSpec:
    name: str
    kind: str
    vmin: float | None = None
    vmax: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CohortError(f"unknown kind {self.kind!r} for variable {self.name!r}")
        if self.kind == "binary":
            object.__setattr__(self, "vmin", 0.0)
            object.__setattr__(self, "vmax", 1.0)
        if self.kind == "ordinal" and (self.vmin is None or self.vmax is None):
            raise CohortError(f"ordinal variable {self.name!r} needs a min and max")

    def parse(self, token: str, row: int):
        """Validate one CSV token; None marks a missing value."""
        if token in MISSING_TOKENS:
            return None
        if self.kind == "treatment":
            if token == TREATED_LABEL:
                return 1.0
            if token == CONTROL_LABEL:
                return 0.0
            if token == CONVERSION_LABEL:
                return None  # excluded from the two-arm analysis
            raise CohortError(
                f"row {row}: column {self.name!r} has unknown technique {token!r}"
            )
        try:
            value = float(token)
        except ValueError:
            raise CohortError(
                f"row {row}: column {self.name!r} is not numeric: {token!r}"
            ) from None
        if not math.isfinite(value):
            raise CohortError(
                f"row {row}: column {self.name!r} is not finite: {token!r}"
            )
        if self.kind in ("binary", "ordinal") and value != int(value):
            raise CohortError(
                f"row {row}: column {self.name!r} must be an integer, got {token!r}"
            )
        if (self.vmin is not None and value < self.vmin) or (
            self.vmax is not None and value > self.vmax
        ):
            raise CohortError(
                f"row {row}: column {self.name!r} value {token!r} outside "
                f"[{self.vmin}, {self.vmax}]"
            )
        return value


@dataclass(frozen=True)
class CohortSchema:
    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise CohortError("variable names must be unique")
        if sum(v.kind == "treatment" for v in self.variables) != 1:
            raise CohortError("schema needs exactly one treatment variable")

    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    def variable(self, name: str) -> VariableSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise CohortError(f"unknown variable {name!r}")

    @property
    def treatment_name(self) -> str:
        return next(v.name for v in self.variables if v.kind == "treatment")


def default_schema() -> CohortSchema:
    return CohortSchema(
        (
            VariableSpec("Age", "continuous", 18.0, 100.0),
            VariableSpec("Sex", "binary"),
            VariableSpec("BMI", "continuous", 10.0, 60.0),
            VariableSpec("ASA", "ordinal", 1, 4),
            VariableSpec("Stage", "ordinal", 1, 4),
            VariableSpec("Technique", "treatment"),
            VariableSpec("Survival_Time", "continuous", 0.0, None),
            VariableSpec("Event", "binary"),
        )
    )


def load_schema(path) -> CohortSchema:
    """Parse the declarative schema format: `name kind min max` per line.

    `-` stands for an absent bound; blank lines and `#` comments are skipped.
    """
    variables = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise CohortError(f"schema line {lineno}: expected 4 fields, got {len(parts)}")
            name, kind, lo, hi = parts
            vmin = None if lo == "-" else float(lo)
            vmax = None if hi == "-" else float(hi)
            variables.append(VariableSpec(name, kind, vmin, vmax))
    return CohortSchema(tuple(variables))


def save_schema(schema: CohortSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for v in schema.variables:
            lo = "-" if v.vmin is None else repr(float(v.vmin))
            hi = "-" if v.vmax is None else repr(float(v.vmax))
            handle.write(f"{v.name} {v.kind} {lo} {hi}\n")


@dataclass
class LoadReport:
    n_rows: int = 0
    n_loaded: int = 0
    n_dropped_missing: int = 0
    n_dropped_conversion: int = 0
    missing_by_column: dict = field(default_factory=dict)


@dataclass
class Cohort:
    """Column store of schema-valid rows; treatment held as 0/1."""

    schema: CohortSchema
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        lengths = {len(col) for col in self.columns.values()}
        if set(self.columns) != set(self.schema.names()):
            raise CohortError("columns do not match the schema")
        if len(lengths) > 1:
            raise CohortError("ragged columns")

    @property
    def n(self) -> int:
        return len(self.columns[self.schema.treatment_name])

    @property
    def z(self) -> np.ndarray:
        return self.columns[self.schema.treatment_name]

    @property
    def times(self) -> np.ndarray:
        return self.columns["Survival_Time"]

    @property
    def events(self) -> np.ndarray:
        return self.columns["Event"]

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.column_stack([self.columns[name] for name in names])

    def subset(self, indices) -> "Cohort":
        indices = np.asarray(indices)
        return Cohort(self.schema, {k: v[indices] for k, v in self.columns.items()})


def load_cohort(path, schema: CohortSchema | None = None) -> tuple[Cohort, LoadReport]:
    """Read and validate a cohort CSV.

    Rows with missing values in any schema column are dropped and counted;
    type or range violations raise CohortError naming the row and column.
    """
    schema = schema or default_schema()
    report = LoadReport()
    kept: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CohortError("empty file: no header row") from None
        expected = schema.names()
        unknown = [h for h in header if h not in expected]
        if unknown:
            raise CohortError(f"unknown column(s) {unknown} not in schema")
        absent = [name for name in expected if name not in header]
        if absent:
            raise CohortError(f"schema column(s) {absent} missing from file")
        positions = {name: header.index(name) for name in expected}

        for rownum, row in enumerate(reader, start=2):
            report.n_rows += 1
            if len(row) != len(header):
                raise CohortError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
            values = []
            missing = None
            conversion = False
            for spec in schema.variables:
                token = row[positions[spec.name]].strip()
                if spec.kind == "treatment" and token == CONVERSION_LABEL:
                    conversion = True
                    break
                parsed = spec.parse(token, rownum)
                if parsed is None:
                    missing = spec.name
                    break
                values.append(parsed)
            if conversion:
                report.n_dropped_conversion += 1
                continue
            if missing is not None:
                report.n_dropped_missing += 1
                report.missing_by_column[missing] = report.missing_by_column.get(missing, 0) + 1
                continue
            kept.append(values)

    report.n_loaded = len(kept)
    data = np.asarray(kept, dtype=float).reshape(len(kept), len(schema.variables))
    columns = {spec.name: data[:, i].copy() for i, spec in enumerate(schema.variables)}
    return Cohort(schema, columns), report


def _format_value(spec: VariableSpec, value: float) -> str:
    if spec.kind == "treatment":
        return TREATED_LABEL if value == 1.0 else CONTROL_LABEL
    if spec.kind in ("binary", "ordinal"):
        return str(int(value))
    return repr(float(value))


def write_cohort(cohort: Cohort, path) -> None:
    """Write CSV that `load_cohort` reads back to an identical cohort."""
    names = cohort.schema.names()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(cohort.n):
            writer.writerow(
                _format_value(cohort.schema.variable(name), cohort.columns[name][i])
                for name in names
            )


# ---------------------------------------------------------------------------
# feature-to-angle encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleEncoder:
    """Min-max scaling of each feature onto [0, pi], constants frozen at fit."""

    feature_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        spans = self.maxs - self.mins
        return math.pi * (matrix - self.mins) / spans


def encode_features(
    cohort: Cohort, features: Sequence[str], method: str = "minmax"
) -> tuple[np.ndarray, AngleEncoder]:
    """Encode named covariates to rotation angles; binary maps onto {0, pi}."""
    if method != "minmax":
        raise ValueError(f"unknown encoding method {method!r}")
    for name in features:
        cohort.schema.variable(name)  # raises on unknown names
    matrix = cohort.matrix(features)
    mins = matrix.min(axis=0)
    maxs = matrix.max(axis=0)
    flat = maxs - mins == 0
    if np.any(flat):
        bad = [features[i] for i in np.flatnonzero(flat)]
        raise ValueError(f"constant feature(s) with zero range: {bad}")
    encoder = AngleEncoder(tuple(features), mins, maxs)
    return encoder.transform(matrix), encoder


# ---------------------------------------------------------------------------
# synthetic confounded cohorts
# ---------------------------------------------------------------------------

STAGE_PROBS = (0.171, 0.274, 0.293, 0.262)
ASA_PROBS = (0.142, 0.466, 0.351, 0.041)
MALE_RATE = 0.578
STAGE_LOG_HAZARD = 0.5  # per stage step; stage is the prognostic confounder


@dataclass(frozen=True)
class SynthConfig:
    n: int = 800
    stage_to_treatment: float = -0.8  # log-odds of the treated arm per stage step
    sex_to_treatment: float = 0.4
    treatment_effect: float = 0.0  # log-hazard of treatment; 0 = no true effect
    baseline_hazard: float = 0.012  # per month
    censoring_target: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.n < 20:
            raise ValueError("n must be >= 20")
        if not 0.0 <= self.censoring_target < 1.0:
            raise ValueError("censoring_target must lie in [0, 1)")
        if self.baseline_hazard <= 0:
            raise ValueError("baseline_hazard must be positive")


def _censor_scale(event_times: np.ndarray, target: float) -> float:
    """Upper bound of the Uniform(0, c) censoring law hitting the target rate.

    P(censored | T) = min(T / c, 1); the expected rate is monotone in c, so
    bisection on the realized event times suffices.
    """
    if target <= 0:
        return math.inf

    def rate(c):
        return float(np.mean(np.minimum(event_times / c, 1.0)))

    lo, hi = 1e-6, float(event_times.max()) + 1e-6
    while rate(hi) > target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if rate(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def true_propensity(config: SynthConfig, stage, sex) -> np.ndarray:
    """The generator's own assignment probabilities, for oracle-style checks."""
    stage_mean = float(np.arange(1, 5) @ np.asarray(STAGE_PROBS))
    logit = config.stage_to_treatment * (np.asarray(stage, dtype=float) - stage_mean)
    logit = logit + config.sex_to_treatment * (np.asarray(sex, dtype=float) - MALE_RATE)
    return 1.0 / (1.0 + np.exp(-logit))


def generate_synthetic_cohort(config: SynthConfig) -> Cohort:
    """Draw a schema-valid cohort; fully determined by config.seed."""
    rng = np.random.default_rng(config.seed)
    n = config.n

    age = np.clip(rng.normal(66.0, 11.0, n), 18.0, 100.0).round(1)
    sex = (rng.random(n) < MALE_RATE).astype(float)
    bmi = np.clip(rng.normal(26.2, 4.2, n), 10.0, 60.0).round(1)
    asa = rng.choice(np.arange(1.0, 5.0), size=n, p=ASA_PROBS)
    stage = rng.choice(np.arange(1.0, 5.0), size=n, p=STAGE_PROBS)

    z = (rng.random(n) < true_propensity(config, stage, sex)).astype(float)

    hazard = config.baseline_hazard * np.exp(
        STAGE_LOG_HAZARD * (stage - 1.0) + config.treatment_effect * z
    )
    event_times = rng.exponential(1.0 / hazard)
    scale = _censor_scale(event_times, config.censoring_target)
    censor_times = (
        np.full(n, math.inf) if math.isinf(scale) else rng.uniform(0.0, scale, n)
    )
    events = (event_times <= censor_times).astype(float)
    observed = np.minimum(event_times, censor_times)
    months = np.maximum(np.ceil(observed), 1.0)  # month granularity creates ties

    return Cohort(
        default_schema(),
        {
            "Age": age,
            "Sex": sex,
            "BMI": bmi,
            "ASA": asa,
            "Stage": stage,
            "Technique": z,
            "Survival_Time": months,
            "Event": events,
        },
    )
