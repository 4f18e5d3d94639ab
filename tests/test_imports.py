"""The import path of a stage process.

A `qcausal` stage loads numpy alone: no scipy module is imported by the
package, not even by `optimal_match`, and the timed stages import nothing
that set-up has not loaded.  The scipy.special functions that the package
once used for its tail probabilities equal the scipy.stats survival
functions bit for bit; `tests/test_tails.py` checks the package's own tails
against the same references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc, ndtr, stdtr

ROOT = Path(__file__).resolve().parents[1]


def loaded_after(code):
    """Run `code` in a fresh interpreter; return the scipy modules it left loaded
    and whatever the code printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = (
        "import json, sys\n"
        + code
        + "\nprint(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    return set(json.loads(lines[-1])), lines[:-1]


def test_stage_modules_skip_stats_and_optimize():
    modules, _ = loaded_after("import qcausal.cli, qcausal.survival")
    assert not modules  # no scipy at all: the tail probabilities come from qcausal._tails


def test_stage_modules_skip_scipy_linear_algebra():
    # the survival solves use numpy.linalg; scipy.linalg and scipy.sparse stay unloaded
    modules, _ = loaded_after("import qcausal.cli, qcausal.survival")
    assert "scipy.linalg" not in modules
    assert "scipy.sparse" not in modules


# (fit-ps model, adjustment) pairs that cover every propensity model family
# and the greedy, optimal, weighting and genetic adjustments
STAGE_RUNS = (
    ("lr", "nn"),
    ("lr", "optimal"),
    ("gbm", "mw"),
    ("qnn_exact", "genetic100"),
    ("qnn_f_backend", "nn"),
)


def test_timed_stages_import_nothing_after_gen(tmp_path):
    # set-up is `import qcausal.cli, qcausal.survival` plus `gen`; any module a
    # timed stage loads on first use (numpy.ma from a plain np.unique, say)
    # would move its import cost into the stages
    cfg = tmp_path / "small.cfg"
    cfg.write_text("max_evaluations=13\nshots=16\ngenetic_generations=1\n", encoding="utf-8")
    modules, printed = loaded_after(
        "import qcausal.cli, qcausal.survival\n"
        "from qcausal.cli import main\n"
        f"root, cfg = {str(tmp_path)!r}, {str(cfg)!r}\n"
        f"runs = {STAGE_RUNS!r}\n"
        "for model, adjust in runs:\n"
        "    assert main(['gen', '--out-dir', f'{root}/{model}-{adjust}', '--n', '80', '--seed', '3']) == 0\n"
        "before = set(sys.modules)\n"
        "for model, adjust in runs:\n"
        "    common = ['--out-dir', f'{root}/{model}-{adjust}', '--seed', '3', '--config', cfg]\n"
        "    assert main(['fit-ps', *common, '--model', model]) == 0\n"
        "    assert main(['adjust', *common, '--adjust', adjust]) == 0\n"
        "    assert main(['survival', *common[:4], '--adjust', adjust]) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert json.loads(printed[-1]) == []
    assert not modules


def test_package_import_loads_no_submodule():
    modules, printed = loaded_after(
        "import qcausal\nprint(sorted(m for m in sys.modules if m.startswith('qcausal.')))"
    )
    assert printed == ["[]"]
    assert not modules


def test_data_loads_no_scipy():
    modules, _ = loaded_after("import qcausal.data")
    assert not modules


def test_star_import_still_exposes_every_stage():
    _, printed = loaded_after(
        "from qcausal import *\nprint(all(m in globals() for m in ('cli', 'survival', 'adjust', 'qnn')))"
    )
    assert printed == ["True"]


def test_optimal_match_loads_no_scipy():
    modules, printed = loaded_after(
        "from qcausal.adjust import optimal_match\n"
        "match = optimal_match([0.2, 0.3, 0.25, 0.35], [0, 1, 0, 1], caliper_multiplier=1.0)\n"
        "print(match.pairs, match.unmatched_treated)"
    )
    assert printed == ["((1, 2),) (3,)"]
    assert not modules


def tail_arguments(rng, size):
    """Statistics from 0 to far in the tail, plus the exact edges 0 and inf."""
    body = np.concatenate([rng.exponential(4.0, size), rng.uniform(0.0, 80.0, size)])
    return np.concatenate([body, [0.0, np.inf]])


@pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 6, 7])
def test_chdtrc_equals_chi2_sf(df):
    # df 1: log-rank; k - 1 for a chi-square balance test; p for Cox and Aalen
    x = tail_arguments(np.random.default_rng(df), 20_000)
    assert np.array_equal(chdtrc(df, x), stats.chi2.sf(x, df))


def test_ndtr_equals_norm_sf():
    z = tail_arguments(np.random.default_rng(11), 20_000) / 4.0
    assert np.array_equal(ndtr(-z), stats.norm.sf(z))


def test_stdtr_equals_t_sf_at_welch_degrees_of_freedom():
    rng = np.random.default_rng(12)
    x = tail_arguments(rng, 20_000) / 4.0
    df = np.concatenate([[1.0, 2.0, 2000.0], rng.uniform(1.0, 2000.0, len(x) - 3)])
    assert np.array_equal(stdtr(df, -x), stats.t.sf(x, df))
