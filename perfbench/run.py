#!/usr/bin/env python3
"""Benchmark of the qcausal pipeline: fit-ps -> adjust -> survival.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`.  Each sample is a fresh process (perfbench/child.py) with a fresh
output directory.  The process first sets up: interpreter start, importing
`qcausal.cli` and `qcausal.survival`, and `qcausal gen` writing cohort.csv
from --seed.  It then runs the timed part, `fit-ps`, `adjust` and
`survival`, one after the other through `qcausal.cli.main`.  Samples run one
at a time (a closed loop with one client) until --seconds is used up, and
never fewer than MIN_SAMPLES.  Every sample's outputs are parsed with the
package's readers and checked, and all samples of one seed must write
byte-identical files.

The host's speed drifts by tens of percent within seconds, so every sample
also runs a speed probe (see child.py), and `pipeline_s` and `setup_s` are
wall times divided by the machine's slowness over the same interval:
seconds at the speed the probe had when the benchmark was written.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced samples in turn and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every sample passed its checks, 1 when one failed, and 2 when the benchmark
cannot run at all (no package source next to it).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_SAMPLES = 3  # untraced samples in a --trace 0 run
TRACE_MIN_PAIRS = 2  # untraced/traced pairs in a --trace 1 run
HARD_LIMIT_S = 165.0  # the whole run must end well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Written by the set-up stage, so not counted in cli.bytes_written.
SETUP_FILES = ("cohort.csv", "manifest.json")
# Counts that must repeat exactly across the traced samples of one seed,
# on top of every `.calls` count.
REPLAY_COUNTS = ("survival.fit_cox.n_iter", "adjust.match_rate", "cli.bytes_written")
# The speed probe's median duration on the machine the benchmark was written
# on (2 shared cores of an Intel Xeon VM); it only sets the scale of the
# speed-normalised times.
REF_PROBE_S = 0.7e-3


@dataclass(frozen=True)
class Workload:
    n: int  # cohort size written by `qcausal gen`
    fit: tuple[str, ...]  # fit-ps flags
    adjust: str
    config: dict = field(default_factory=dict)  # --config keys for fit-ps and adjust

    def stages(self, seed: int) -> list[list[str]]:
        common = ["--out-dir", "out", "--seed", str(seed)]
        extra = ["--config", "bench.cfg"] if self.config else []
        return [
            ["gen", *common, "--n", str(self.n)],
            ["fit-ps", *common, *self.fit, *extra],
            ["adjust", *common, "--adjust", self.adjust, *extra],
            ["survival", *common, "--adjust", self.adjust],
        ]

    @property
    def score_converges(self) -> bool:
        """lr and gbm fit to convergence.  The circuit models stop far short
        of it within a benchmark's time (AUC near 0.6 even after 145
        evaluations), so their score carries too little signal for a balance
        gain to be expected."""
        return self.fit[1] in ("lr", "gbm")

    def genomes(self) -> int:
        """Genomes scored by one genetic match: population x (generations + 1)."""
        if not self.adjust.startswith("genetic"):
            return 0
        return int(self.adjust[len("genetic"):]) * (self.config["genetic_generations"] + 1)


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "qnn_fit": Workload(
        n=800,
        fit=("--model", "qnn_exact", "--n", "100"),
        adjust="nn",
        config={"max_evaluations": 37},
    ),
    "genetic_match": Workload(
        n=800,
        fit=("--model", "lr"),
        adjust="genetic100",
        config={"genetic_generations": 4},
    ),
    "large_cohort": Workload(
        n=6000,
        fit=("--model", "gbm"),
        adjust="mw",
    ),
    "qnn_noisy": Workload(
        n=400,
        fit=("--model", "qnn_f_backend", "--n", "100", "--shots", "16", "--noise-p", "0.01"),
        adjust="nn",
        config={"max_evaluations": 1},  # one objective evaluation, then scoring every row
    ),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcausal").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cores": _cores(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(_cores())
    return env


# ---------------------------------------------------------------------------
# one sample
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    traced: bool
    run_id: str
    setup_wall_s: float = math.nan
    pipeline_wall_s: float = math.nan
    setup_slowness: float = math.nan
    pipeline_slowness: float = math.nan
    peak_rss_mb: float = math.nan
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # output file -> sha256
    bytes_written: int = 0
    spans: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.setup_wall_s / self.setup_slowness

    @property
    def pipeline_s(self) -> float:
        return self.pipeline_wall_s / self.pipeline_slowness


def slowness(probe: list, start: float, end: float) -> float:
    """The machine's slowness over [start, end): the mean duration of the
    probes that started in it, relative to REF_PROBE_S.  The probes fire at a
    fixed wall-clock interval, so their mean is the time average."""
    durations = [d for t, d in probe if start <= t < end]
    return statistics.fmean(durations) / REF_PROBE_S if durations else math.nan


def run_sample(workload: Workload, seed: int, directory: Path, traced: bool, deadline: float) -> Sample:
    directory.mkdir(parents=True)
    if workload.config:
        (directory / "bench.cfg").write_text(
            "".join(f"{k}={v}\n" for k, v in workload.config.items()), encoding="utf-8"
        )
    stages = workload.stages(seed)
    run_id = str(directory.relative_to(WORK))
    command = [sys.executable, str(CHILD), "--result", "result.json", "--run-id", run_id,
               "--stages", json.dumps(stages)]
    if traced:
        command.append("--trace")
    sample = Sample(traced, run_id)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=directory, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        sample.problems.append("sample did not finish before the run's time limit")
        return sample
    if proc.returncode != 0:
        sample.problems.append(f"child exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    try:
        result = json.loads((directory / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sample.problems.append(f"no sample result: {exc}")
        return sample

    timeline = result["stages"]
    codes = [s["code"] for s in timeline]
    sample.peak_rss_mb = result["peak_rss_kb"] / 1024.0
    sample.spans = result["spans"]
    if len(timeline) != len(stages) or any(codes):
        sample.problems.append(f"stage exit codes {codes} for {len(stages)} stages")
        return sample
    sample.setup_wall_s = timeline[0]["end"] - t0
    sample.pipeline_wall_s = timeline[-1]["end"] - timeline[1]["start"]
    sample.setup_slowness = slowness(result["probe"], t0, timeline[0]["end"])
    sample.pipeline_slowness = slowness(result["probe"], timeline[1]["start"], timeline[-1]["end"])
    if math.isnan(sample.setup_slowness) or math.isnan(sample.pipeline_slowness):
        sample.problems.append("the speed probe recorded nothing in a phase of the sample")

    out = directory / "out"
    for path in sorted(out.iterdir()):
        sample.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.name not in SETUP_FILES:
            sample.bytes_written += path.stat().st_size
    try:
        sample.problems.extend(check_outputs(out, workload.score_converges))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sample.problems.append(f"an output does not parse: {exc!r}")
    return sample


def check_outputs(out: Path, score_converges: bool) -> list[str]:
    """Parse every output with the package's readers and check it.

    The written balance and Cox records must match the written adjustment,
    which also catches a survival stage that read a stale adjustment file.
    AUC above 0.5 and a lower mean |SMD| after adjustment are quality
    properties of a fitted score, so they are checked only where the model
    is fitted to convergence.
    """
    from qcausal import adjust, cli, data

    problems = []
    cohort, _ = data.load_cohort(out / "cohort.csv")
    z, ps = cli.read_scores(out / "scores.csv")
    if len(ps) != cohort.n or not (z == cohort.z).all():
        problems.append("scores.csv does not cover the cohort")
        return problems
    if not ((ps > 0.0) & (ps < 1.0)).all():
        problems.append("a propensity score lies outside (0, 1)")

    if (out / "pairs.csv").exists():
        pairs = cli.read_pairs(out / "pairs.csv")
        controls = [c for _, c in pairs]
        if not pairs or len(set(controls)) != len(controls) or any(
            cohort.z[t] != 1.0 or cohort.z[c] != 0.0 for t, c in pairs
        ):
            problems.append("pairs.csv is empty, reuses a control, or pairs within one arm")
            return problems
        idx = np.asarray([t for t, _ in pairs] + controls)
        weights = None
    else:
        weights = cli.read_weights(out / "weights.csv")
        if len(weights) != cohort.n or not ((weights > 0) & np.isfinite(weights)).all():
            problems.append("weights.csv is not one positive finite weight per subject")
            return problems
        idx = np.arange(cohort.n)

    balance = json.loads((out / "balance.json").read_text(encoding="utf-8"))
    after = float(np.mean([
        abs(adjust.smd(cohort.columns[name][idx], cohort.z[idx], weights))
        for name in cli.SURVIVAL_COVARIATES
    ]))
    if not math.isclose(after, balance["mean_abs_smd_after"], rel_tol=1e-9):
        problems.append(f"balance.json mean |SMD| after {balance['mean_abs_smd_after']} "
                        f"does not match {after} recomputed from the adjustment")
    cox = json.loads((out / "cox.json").read_text(encoding="utf-8"))
    if cox["n"] != len(idx):
        problems.append(f"cox.json analysed {cox['n']} subjects, the adjustment holds {len(idx)}")
    if cox["converged"] is not True:
        problems.append("Cox fit did not converge")

    if score_converges:
        auc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["auc"]
        if not auc > 0.5:
            problems.append(f"AUC {auc} is not above 0.5")
        if not balance["mean_abs_smd_after"] < balance["mean_abs_smd_before"]:
            problems.append(f"mean |SMD| after adjustment {balance['mean_abs_smd_after']} is not "
                            f"below {balance['mean_abs_smd_before']} before")
    return problems


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list, workload: Workload, bytes_written: int) -> dict:
    """Self time and calls per span name, plus the derived layer metrics."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall_s = defaultdict(float)
    values = defaultdict(list)
    for sid, _, name, start, end, value in spans:
        calls[name] += 1
        self_s[name] += end - start - child_time[sid]
        wall_s[name] += end - start
        if value is not None:
            values[name].append(value)

    metrics = {}
    from child import TRACED  # beside this file

    for name in set(calls) | {layer for _, _, layer in TRACED}:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = self_s[name]
    stages = ("cli.fit_ps", "cli.adjust", "cli.survival")
    for stage in stages:
        metrics[f"{stage}.s"] = wall_s[stage]  # stage wall time, not self time
    metrics["cli.self.s"] = sum(self_s[stage] for stage in stages)
    stage_total = sum(wall_s[stage] for stage in stages)
    metrics["trace.coverage"] = 1.0 - metrics["cli.self.s"] / stage_total if stage_total else 0.0
    metrics["cli.bytes_written"] = bytes_written

    rows = sum(values["qnn.total_loss"])
    metrics["qnn.total_loss.ms_per_row"] = 1000.0 * wall_s["qnn.total_loss"] / rows if rows else 0.0
    genomes = workload.genomes()
    metrics["adjust.genetic_match.ms_per_genome"] = (
        1000.0 * self_s["adjust.genetic_match"] / genomes if genomes else 0.0
    )

    def last(name):
        return values[name][-1] if values[name] else 0.0

    metrics["cmaes.best_value"] = last("cmaes.minimize")
    metrics["adjust.match_rate"] = last("adjust.genetic_match") or last("adjust.nearest_neighbor_match")
    metrics["adjust.mean_abs_smd_after"] = last("adjust.balance_report")
    metrics["survival.fit_cox.n_iter"] = sum(values["survival.fit_cox"])
    metrics["metrics.auc"] = last("metrics.roc_and_auc")
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def replay_problems(samples: list[Sample], layers: list[dict]) -> list[str]:
    """All samples of one seed must write the same bytes and count the same work."""
    problems = []
    first = samples[0].digests
    differing = {
        name for s in samples[1:] for name in s.digests.keys() | first.keys()
        if s.digests.get(name) != first.get(name)
    }
    if differing:
        problems.append(f"outputs differ between samples of one seed: {sorted(differing)}")
    if any(s.bytes_written != samples[0].bytes_written for s in samples[1:]):
        problems.append("cli.bytes_written differs between samples of one seed")
    if layers:
        counted = [k for k in layers[0] if k.endswith(".calls")] + list(REPLAY_COUNTS)
        for key in counted:
            seen = {m[key] for m in layers}
            if len(seen) > 1:
                problems.append(f"{key} differs between traced samples: {sorted(seen)}")
    return problems


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcausal" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'qcausal'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qcausal

    if Path(qcausal.__file__).resolve().parent != (SRC / "qcausal").resolve():
        print(f"perfbench: imported qcausal from {qcausal.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer" if args.trace else "end_to_end"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {why}")
    print("env " + json.dumps(env, sort_keys=True))

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    budget_end = started + seconds
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # With --trace 1, untraced and traced samples run in turn; the pair is the unit.
    plan = (False, True) if args.trace else (False,)
    minimum = len(plan) * TRACE_MIN_PAIRS if args.trace else MIN_SAMPLES
    samples: list[Sample] = []
    try:
        while True:
            if len(samples) >= minimum:
                next_unit = (time.monotonic() - started) / len(samples) * len(plan)
                if time.monotonic() + next_unit > budget_end:
                    break
            for traced in plan:
                sample = run_sample(workload, args.seed, run_dir / f"sample{len(samples)}", traced, deadline)
                samples.append(sample)
                for problem in sample.problems:
                    print(f"sample {len(samples) - 1}: {problem}", file=sys.stderr)
            if any(s.problems for s in samples) or time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [s for s in samples if not s.problems]
    traced = [s for s in good if s.traced]
    layers = [layer_metrics(s.spans, workload, s.bytes_written) for s in traced]
    replay = replay_problems(good, layers) if len(good) == len(samples) else []
    for problem in replay:
        print(f"replay: {problem}", file=sys.stderr)
    failed = len(samples) - len(good) + (len(good) if replay else 0)

    untraced = [s for s in good if not s.traced]
    computed = {}
    if untraced:
        computed["pipeline_s"] = statistics.median(s.pipeline_s for s in untraced)
        computed["setup_s"] = statistics.median(s.setup_s for s in untraced)
        computed["peak_rss_mb"] = statistics.median(s.peak_rss_mb for s in untraced)
    if layers and untraced:
        computed.update({k: statistics.median(m[k] for m in layers) for k in layers[0]})
        computed["trace.overhead_s"] = (
            statistics.median(s.pipeline_s for s in traced) - computed["pipeline_s"]
        )
        computed["pipeline.wall_s"] = statistics.median(s.pipeline_wall_s for s in untraced)
        computed["probe.slowness"] = statistics.median(s.pipeline_slowness for s in untraced)

    metrics = {}
    if failed == 0:
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    report(samples, untraced, failed, metrics)
    summary = {
        "workload": args.workload, "env": env, "failed": failed, "metrics": metrics,
        "samples": [
            {"run_id": s.run_id, "traced": s.traced, "setup_s": s.setup_s, "pipeline_s": s.pipeline_s,
             "setup_wall_s": s.setup_wall_s, "pipeline_wall_s": s.pipeline_wall_s,
             "setup_slowness": s.setup_slowness, "pipeline_slowness": s.pipeline_slowness,
             "peak_rss_mb": s.peak_rss_mb, "problems": s.problems}
            for s in samples
        ],
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if traced:
        (WORK / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps([{"run_id": s.run_id, "spans": s.spans} for s in traced]), encoding="utf-8"
        )
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def report(samples, untraced, failed, metrics) -> None:
    """Human-readable lines; the JSON line that follows is authoritative."""
    if untraced:
        times = sorted(s.pipeline_s for s in untraced)
        print(f"pipeline samples (untraced): {len(times)}; min {times[0]:.4f} s, max {times[-1]:.4f} s; "
              "no tail percentile has ten samples beyond it, so only the median is reported")
        for s in untraced:
            print(f"  {s.run_id}: pipeline {s.pipeline_wall_s:.4f} s wall / slowness "
                  f"{s.pipeline_slowness:.4f} = {s.pipeline_s:.4f} s; set-up {s.setup_wall_s:.4f} s wall / "
                  f"{s.setup_slowness:.4f} = {s.setup_s:.4f} s")
    print(f"failed_ratio {failed}/{len(samples)} = {failed / len(samples):.4f}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
