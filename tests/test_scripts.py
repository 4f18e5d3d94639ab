"""Smoke tests: each script under scripts/, and the CLI's module entry point,
runs to completion on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_compare_propensity_models():
    result = run_script("compare_propensity_models.py", "--n", "80", "--max-evals", "5", "--sizes")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    assert ["80", "gbm"] in [row[:2] for row in rows]


def test_compare_propensity_models_runs_each_size_once():
    result = run_script("compare_propensity_models.py", "--n", "80", "--max-evals", "5", "--sizes", "80")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[:2] for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 5 and rows.count(["80", "gbm"]) == 1


def test_compare_propensity_models_unfittable_size_exits_1():
    result = run_script("compare_propensity_models.py", "--n", "80", "--max-evals", "5", "--sizes", "1")
    assert result.returncode == 1
    assert "sample size 1" in result.stderr and "zero range" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("size", ["0", "-3"])
def test_compare_propensity_models_non_positive_size_exits_1(size):
    result = run_script("compare_propensity_models.py", "--n", "40", "--sizes", size)
    assert result.returncode == 1
    assert f"sample size must be positive, got {size}" in result.stderr
    assert "negative dimensions" not in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "option, reason",
    [
        (("--n", "10"), "n must be >= 20"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--shots", "0"), "shots must be >= 1"),
        (("--max-evals", "0"), "max_evaluations must be >= 1"),
        (("--noise-p", "2"), "noise-p must lie in [0, 1]"),
    ],
)
def test_compare_propensity_models_bad_option_exits_1(option, reason):
    result = run_script("compare_propensity_models.py", "--n", "40", "--sizes", *option)
    assert result.returncode == 1
    assert f"compare_propensity_models: {reason}\n" in result.stderr
    assert "sample size" not in result.stderr
    assert "Traceback" not in result.stderr


def test_run_pipeline(tmp_path):
    config = tmp_path / "fast.cfg"
    config.write_text("max_evaluations=20\n", encoding="utf-8")
    out = tmp_path / "run"
    result = run_python(
        "-m", "qcausal.cli", "pipeline", "--out-dir", str(out), "--seed", "1", "--n", "120",
        "--model", "qnn_exact", "--adjust", "nn", "--config", str(config),
    )
    assert result.returncode == 0, result.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert json.loads((out / "logrank.json").read_text())["adjustment"] == "nn"
