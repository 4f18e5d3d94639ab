import csv
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qcausal.cli import (
    EXIT_EMPTY_MATCH,
    EXIT_FAILURE,
    EXIT_OK,
    STAGES,
    RunConfig,
    _flags,
    _write_balance,
    main,
    read_pairs,
    read_scores,
    read_weights,
)
from qcausal.data import NAMES, load_cohort, variable


def run(*argv):
    return main(list(argv))


def gen_args(out, seed=0, n=150, extra=()):
    return ["gen", "--out-dir", str(out), "--seed", str(seed), "--n", str(n), *extra]


@pytest.fixture
def fast_config(tmp_path):
    """Config file keeping circuit-model runs tiny."""
    path = tmp_path / "fast.cfg"
    path.write_text("max_evaluations=40\nshots=16\n", encoding="utf-8")
    return str(path)


class TestGen:
    def test_writes_cohort_of_requested_size(self, tmp_path):
        assert run(*gen_args(tmp_path, n=100)) == EXIT_OK
        cohort, report = load_cohort(tmp_path / "cohort.csv")
        assert cohort.n == 100
        assert report.n_dropped_missing == 0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*gen_args(a, seed=5)) == EXIT_OK
        assert run(*gen_args(b, seed=5)) == EXIT_OK
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()

    def test_manifest_hash_tracks_config_changes(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run(*gen_args(a, seed=1))
        run(*gen_args(b, seed=2))
        run(*gen_args(c, seed=1))
        ha = json.loads((a / "manifest.json").read_text())["config_hash"]
        hb = json.loads((b / "manifest.json").read_text())["config_hash"]
        hc = json.loads((c / "manifest.json").read_text())["config_hash"]
        assert ha != hb
        assert ha == hc

    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "override.cfg"
        cfg.write_text("n=60\n", encoding="utf-8")
        assert run(*gen_args(tmp_path, n=100, extra=("--config", str(cfg)))) == EXIT_OK
        cohort, _ = load_cohort(tmp_path / "cohort.csv")
        assert cohort.n == 60

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana=1\n", encoding="utf-8")
        assert run(*gen_args(tmp_path, extra=("--config", str(cfg)))) == EXIT_FAILURE

    def test_command_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "command.cfg"
        cfg.write_text("n=100\ncommand=survival\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(*gen_args(out, extra=("--config", str(cfg)))) == EXIT_FAILURE
        assert "config line 2: unknown key 'command'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_hash_does_not_depend_on_the_spelling_of_n(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen", "--out-dir", str(a), "--n", "0800") == EXIT_OK
        assert run("gen", "--out-dir", str(b), "--n", "800") == EXIT_OK
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
        assert manifests[0]["config"]["n"] == 800
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]

    def test_n_that_is_not_an_integer(self, tmp_path, capsys):
        assert run("gen", "--out-dir", str(tmp_path), "--n", "abc") == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "qcausal gen: --n must be an integer, got 'abc'" in err
        assert "invalid literal" not in err


class TestConfigValues:
    """A config value that is out of range or misspelled ends the run with
    exit 1 and a message, never a silently changed run or a traceback."""

    def run_pipeline(self, tmp_path, capsys, line, model="lr", adjust="mw"):
        cfg = tmp_path / "values.cfg"
        cfg.write_text(f"max_evaluations=13\n{line}\n", encoding="utf-8")
        code = run("pipeline", "--out-dir", str(tmp_path / "out"), "--n", "120", "--seed", "1",
                   "--model", model, "--adjust", adjust, "--config", str(cfg))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("value", ["ture", "2", "on", ""])
    def test_misspelled_boolean(self, tmp_path, capsys, value):
        code, err = self.run_pipeline(tmp_path, capsys, f"variational={value}", model="qnn_exact")
        assert code == EXIT_FAILURE
        assert "config line 2: variational must be one of 1/true/yes/0/false/no" in err

    @pytest.mark.parametrize("line, message", [
        ("genetic_generations=1.5", "genetic_generations must be an integer, got '1.5'"),
        ("seed=", "seed must be an integer, got ''"),
        ("alpha=1e-3x", "alpha must be a number, got '1e-3x'"),
    ])
    def test_unparsed_number_names_line_and_key(self, tmp_path, capsys, line, message):
        code, err = self.run_pipeline(tmp_path, capsys, line)
        assert code == EXIT_FAILURE
        assert f"config line 2: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, expected", [("TRUE", True), ("Yes", True), ("0", False), ("no", False)])
    def test_boolean_spellings(self, tmp_path, capsys, value, expected):
        assert self.run_pipeline(tmp_path, capsys, f"variational={value}", model="qnn_exact")[0] == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["variational"] is expected

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha(self, tmp_path, capsys, value):
        code, err = self.run_pipeline(tmp_path, capsys, f"alpha={value}", model="qnn_exact")
        assert code == EXIT_FAILURE
        assert "alpha must be finite and nonnegative" in err

    @pytest.mark.parametrize("key", ["stage_to_treatment", "sex_to_treatment", "treatment_effect",
                                     "baseline_hazard"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_generator_knob(self, tmp_path, capsys, key, value):
        code, err = self.run_pipeline(tmp_path, capsys, f"{key}={value}")
        assert code == EXIT_FAILURE
        assert f"qcausal pipeline: {key} must be finite" in err
        assert not (tmp_path / "out" / "cohort.csv").exists()

    def test_negative_seed_from_a_flag(self, tmp_path, capsys):
        assert run("gen", "--out-dir", str(tmp_path), "--seed", "-1") == EXIT_FAILURE
        assert "qcausal gen: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "cohort.csv").exists()

    def test_negative_seed_from_a_config_line(self, tmp_path, capsys):
        code, err = self.run_pipeline(tmp_path, capsys, "seed=-3")
        assert code == EXIT_FAILURE
        assert "qcausal pipeline: seed must be >= 0, got -3" in err
        assert not (tmp_path / "out" / "cohort.csv").exists()

    @pytest.mark.parametrize("flag, key, value", [
        ("--shots", "shots", "1.5"),
        ("--noise-p", "noise_p", "x"),
        ("--alpha", "alpha", "1e-3x"),
        ("--n", "n", "abc"),
    ])
    def test_flag_and_config_line_read_a_value_alike(self, tmp_path, capsys, flag, key, value):
        base = ("pipeline", "--out-dir", str(tmp_path / "out"))
        assert run(*base, flag, value) == EXIT_FAILURE
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "values.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        assert run(*base, "--config", str(cfg)) == EXIT_FAILURE
        from_line = capsys.readouterr().err
        flag_prefix = f"qcausal pipeline: {flag} "
        line_prefix = f"qcausal pipeline: config line 1: {key} "
        assert from_flag.startswith(flag_prefix), from_flag
        assert from_line.startswith(line_prefix), from_line
        assert from_flag[len(flag_prefix):] == from_line[len(line_prefix):]
        assert f"got {value!r}" in from_flag
        assert not (tmp_path / "out" / "cohort.csv").exists()

    def test_negative_genetic_generations(self, tmp_path, capsys):
        code, err = self.run_pipeline(tmp_path, capsys, "genetic_generations=-1", adjust="genetic100")
        assert code == EXIT_FAILURE
        assert "generations must be >= 0" in err
        assert not (tmp_path / "out" / "pairs.csv").exists()


class TestFitPs:
    def test_missing_cohort_fails_cleanly(self, tmp_path):
        assert run("fit-ps", "--out-dir", str(tmp_path)) == EXIT_FAILURE

    def test_lr_scores_and_metric_keys(self, tmp_path):
        run(*gen_args(tmp_path, n=200))
        assert run("fit-ps", "--out-dir", str(tmp_path), "--model", "lr") == EXIT_OK
        z, ps = read_scores(tmp_path / "scores.csv")
        assert len(ps) == 200
        assert np.all((ps > 0) & (ps < 1))
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert set(payload) == {"auc", "log_loss", "brier", "accuracy", "metadata"}
        assert 0.0 <= payload["auc"] <= 1.0

    def test_lr_near_half_auc_without_confounding(self, tmp_path):
        cfg = tmp_path / "null.cfg"
        cfg.write_text("stage_to_treatment=0\nsex_to_treatment=0\n", encoding="utf-8")
        run(*gen_args(tmp_path, n=1000, extra=("--config", str(cfg))))
        assert run("fit-ps", "--out-dir", str(tmp_path)) == EXIT_OK
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert abs(payload["auc"] - 0.5) < 0.07

    def test_subsample_sizes_recorded(self, tmp_path):
        run(*gen_args(tmp_path, n=300))
        assert run("fit-ps", "--out-dir", str(tmp_path), "--n", "100") == EXIT_OK
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["metadata"]["n_fit"] == 100
        assert payload["metadata"]["sample"] == "100"

    def test_qnn_exact_small_run(self, tmp_path, fast_config):
        run(*gen_args(tmp_path, n=40))
        code = run(
            "fit-ps", "--out-dir", str(tmp_path), "--model", "qnn_exact",
            "--config", fast_config,
        )
        assert code == EXIT_OK
        _, ps = read_scores(tmp_path / "scores.csv")
        assert np.all((ps >= 1e-3) & (ps <= 1 - 1e-3))

    def test_qnn_noisy_backend_small_run(self, tmp_path, fast_config):
        run(*gen_args(tmp_path, n=30))
        code = run(
            "fit-ps", "--out-dir", str(tmp_path), "--model", "qnn_f_backend",
            "--config", fast_config, "--noise-p", "0.05",
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("model", ["qnn_sam", "qnn_f_backend"])
    def test_stochastic_circuit_scores_replay_byte_identical(self, tmp_path, fast_config, model):
        run(*gen_args(tmp_path, n=60))
        args = ("fit-ps", "--out-dir", str(tmp_path), "--model", model, "--config", fast_config)
        assert run(*args) == EXIT_OK
        first = (tmp_path / "scores.csv").read_bytes()
        assert run(*args) == EXIT_OK
        assert (tmp_path / "scores.csv").read_bytes() == first

    def test_roc_csv_reparses(self, tmp_path):
        import csv

        run(*gen_args(tmp_path, n=120))
        run("fit-ps", "--out-dir", str(tmp_path))
        with open(tmp_path / "roc.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        fpr = [float(r["fpr"]) for r in rows]
        tpr = [float(r["tpr"]) for r in rows]
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "column, token",
        [("Survival_Time", "inf"), ("Survival_Time", "NAN"), ("Stage", "inf")],
    )
    def test_rejected_with_row_and_column(self, tmp_path, capsys, column, token):
        import csv

        run(*gen_args(tmp_path, n=40))
        path = tmp_path / "cohort.csv"
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows[0][column] = token  # data row 1 is file row 2
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert run("fit-ps", "--out-dir", str(tmp_path)) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "row 2" in err and repr(column) in err


def prepared_dir(tmp_path, n=200, seed=0):
    run(*gen_args(tmp_path, n=n, seed=seed))
    run("fit-ps", "--out-dir", str(tmp_path), "--seed", str(seed))
    return tmp_path


class TestAdjust:
    def test_weights_written_and_reparse(self, tmp_path):
        out = prepared_dir(tmp_path)
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        weights = read_weights(out / "weights.csv")
        assert len(weights) == 200
        assert np.all(weights >= 1.0)

    def test_balance_report_files(self, tmp_path):
        out = prepared_dir(tmp_path)
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        payload = json.loads((out / "balance.json").read_text())
        assert payload["adjustment"] == "mw"
        assert len(payload["rows"]) == 5
        mean_after = np.mean([abs(r["smd_after"]) for r in payload["rows"]])
        assert payload["mean_abs_smd_after"] == pytest.approx(mean_after, abs=1e-12)

    def test_nn_pairs_respect_caliper_on_reread(self, tmp_path):
        out = prepared_dir(tmp_path)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        z, ps = read_scores(out / "scores.csv")
        pairs = read_pairs(out / "pairs.csv")
        caliper = 0.25 * np.std(ps, ddof=1)
        seen = set()
        for t, c in pairs:
            assert z[t] == 1.0 and z[c] == 0.0
            assert abs(ps[t] - ps[c]) <= caliper + 1e-12
            assert t not in seen and c not in seen
            seen.update((t, c))

    def test_empty_match_warning_exit(self, tmp_path):
        out = prepared_dir(tmp_path, n=60, seed=3)
        # constant scores make the caliper zero width but leave weights fine
        (out / "scores.csv").write_text(
            "subject,z,propensity\n"
            + "".join(f"{i},{int(z)},{0.4 + 0.2 * int(z)}\n" for i, z in enumerate(read_scores(out / "scores.csv")[0])),
            encoding="utf-8",
        )
        code = run("adjust", "--out-dir", str(out), "--adjust", "nn")
        assert code == EXIT_EMPTY_MATCH
        assert (out / "balance.json").exists()
        payload = json.loads((out / "balance.json").read_text())
        assert payload["mean_abs_smd_after"] is None
        assert all(r["smd_after"] is None and r["p_after"] is None for r in payload["rows"])
        # the before-half is the one any adjustment of these scores reports
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        weighted = json.loads((out / "balance.json").read_text())
        assert weighted["mean_abs_smd_before"] == payload["mean_abs_smd_before"]
        before = ("covariate", "smd_before", "test", "p_before")
        for row, other in zip(payload["rows"], weighted["rows"], strict=True):
            assert {k: row[k] for k in before} == {k: other[k] for k in before}

    def test_genetic_small_run(self, tmp_path):
        out = prepared_dir(tmp_path, n=80, seed=1)
        cfg = out / "fast.cfg"
        cfg.write_text("genetic_generations=3\n", encoding="utf-8")
        code = run(
            "adjust", "--out-dir", str(out), "--adjust", "genetic100",
            "--config", str(cfg),
        )
        assert code == EXIT_OK
        pairs = read_pairs(out / "pairs.csv")
        assert pairs


class TestSurvival:
    def test_weighted_run_outputs(self, tmp_path):
        out = prepared_dir(tmp_path)
        run("adjust", "--out-dir", str(out), "--adjust", "mw")
        assert run("survival", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        logrank = json.loads((out / "logrank.json").read_text())
        assert set(logrank) == {"unadjusted", "adjusted", "adjustment"}
        cox = json.loads((out / "cox.json").read_text())
        assert "Group" in cox["variables"]
        assert set(cox["variables"]["Group"]) == {
            "coef", "se", "z", "p", "HR", "CI_low", "CI_high",
        }
        assert cox["variables"]["Group"]["HR"] == pytest.approx(
            np.exp(cox["variables"]["Group"]["coef"]), rel=1e-12
        )
        aalen = json.loads((out / "aalen.json").read_text())
        assert set(aalen["variables"]["Group"]) == {"slope", "coef", "se", "z", "p"}
        assert aalen["event_times_used"] <= aalen["event_times_total"]

    def test_matched_run_uses_subset(self, tmp_path):
        out = prepared_dir(tmp_path, n=300, seed=2)
        run("adjust", "--out-dir", str(out), "--adjust", "nn")
        assert run("survival", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        pairs = read_pairs(out / "pairs.csv")
        cox = json.loads((out / "cox.json").read_text())
        assert cox["n"] == 2 * len(pairs)

    def test_duplicated_groups_give_p_one(self, tmp_path):
        import csv as csv_mod

        out = tmp_path
        run(*gen_args(out, n=100, seed=4))
        # duplicate the control arm into a fake treated arm: identical groups
        cohort, _ = load_cohort(out / "cohort.csv")
        rows = []
        header = NAMES
        for i in range(cohort.n):
            if cohort.z[i] == 0.0:
                base = {name: cohort.columns[name][i] for name in header}
                for arm, label in ((0.0, "open"), (1.0, "laparoscopic")):
                    row = dict(base)
                    row["Technique"] = label
                    rows.append(row)
        with open(out / "cohort.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv_mod.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [
                        row[name]
                        if name == "Technique"
                        else (
                            repr(float(row[name]))
                            if variable(name).kind == "continuous"
                            else str(int(row[name]))
                        )
                        for name in header
                    ]
                )
        n = len(rows)
        (out / "weights.csv").write_text(
            "subject,weight\n" + "".join(f"{i},1.0\n" for i in range(n)),
            encoding="utf-8",
        )
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        logrank = json.loads((out / "logrank.json").read_text())
        assert logrank["adjusted"]["p"] == pytest.approx(1.0, abs=1e-9)

    def test_unit_weights_reproduce_unadjusted_km_byte_for_byte(self, tmp_path):
        out = prepared_dir(tmp_path, n=150, seed=5)
        n = len(read_scores(out / "scores.csv")[0])
        (out / "weights.csv").write_text(
            "subject,weight\n" + "".join(f"{i},1.0\n" for i in range(n)),
            encoding="utf-8",
        )
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        for label in ("treated", "control"):
            unadj = (out / f"km_unadjusted_{label}.csv").read_bytes()
            adj = (out / f"km_adjusted_{label}.csv").read_bytes()
            assert unadj == adj


class TestWeightsFile:
    def weighted_dir(self, tmp_path):
        out = prepared_dir(tmp_path, n=120, seed=2)
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        return out, (out / "weights.csv").read_text(encoding="utf-8").splitlines()

    def test_short_weights_file_names_both_counts(self, tmp_path, capsys):
        out, lines = self.weighted_dir(tmp_path)
        (out / "weights.csv").write_text("\n".join(lines[:116]) + "\n", encoding="utf-8")
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "115 weights" in err and "120 subjects" in err
        assert not (out / "km_unadjusted_control.csv").exists()

    def test_nan_weight_rejected_before_any_output(self, tmp_path, capsys):
        out, lines = self.weighted_dir(tmp_path)
        subject, _ = lines[7].split(",")
        lines[7] = f"{subject},nan"
        (out / "weights.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert "weights must be finite" in capsys.readouterr().err
        assert not (out / "km_unadjusted_control.csv").exists()


class TestWeightsBySubject:
    """survival places each weight by its `subject` column, not its row."""

    def weighted_dir(self, tmp_path):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        lines = (out / "weights.csv").read_text(encoding="utf-8").splitlines()
        return out, lines[0], lines[1:]

    def write(self, out, header, rows):
        (out / "weights.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    def test_shuffled_rows_give_the_same_analysis(self, tmp_path):
        out, header, rows = self.weighted_dir(tmp_path)
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        before = {name: (out / name).read_bytes() for name in ("logrank.json", "cox.json")}
        order = np.random.default_rng(0).permutation(len(rows))
        self.write(out, header, [rows[i] for i in order])
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        for name, content in before.items():
            assert (out / name).read_bytes() == content, name

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("duplicate", "row 11: subject 3 appears in an earlier row"),
            ("outside", "row 11: subject 120 is outside the cohort [0, 120)"),
            ("negative", "row 11: subject -1 is outside the cohort [0, 120)"),
            ("missing", "holds 119 weights for 120 subjects, none for subject 9"),
        ],
    )
    def test_bad_subject_exits_1(self, tmp_path, capsys, edit, message):
        out, header, rows = self.weighted_dir(tmp_path)
        weight = rows[9].split(",")[1]
        if edit == "missing":
            del rows[9]
        else:
            subject = {"duplicate": 3, "outside": 120, "negative": -1}[edit]
            rows[9] = f"{subject},{weight}"  # file row 11
        self.write(out, header, rows)
        capsys.readouterr()
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "weights.csv" in err and message in err
        assert not (out / "km_unadjusted_control.csv").exists()


class TestScoresBySubject:
    """adjust places each score by its `subject` column and checks its arm."""

    def scored_dir(self, tmp_path):
        out = prepared_dir(tmp_path, n=120, seed=1)
        lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
        return out, lines[0], lines[1:]

    def write(self, out, header, rows):
        (out / "scores.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("adjust, written", [("nn", "pairs.csv"), ("mw", "weights.csv")])
    def test_shuffled_rows_give_the_same_adjustment(self, tmp_path, adjust, written):
        out, header, rows = self.scored_dir(tmp_path)
        names = (written, "balance.csv", "balance.json")
        assert run("adjust", "--out-dir", str(out), "--adjust", adjust) == EXIT_OK
        before = {name: (out / name).read_bytes() for name in names}
        order = np.random.default_rng(0).permutation(len(rows))
        self.write(out, header, [rows[i] for i in order])
        assert run("adjust", "--out-dir", str(out), "--adjust", adjust) == EXIT_OK
        for name, content in before.items():
            assert (out / name).read_bytes() == content, name

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("arm", "subject 9 has z="),
            ("duplicate", "row 11: subject 3 appears in an earlier row"),
            ("outside", "row 11: subject 120 is outside the cohort [0, 120)"),
            ("missing", "holds 119 scores for 120 subjects, none for subject 9"),
        ],
    )
    def test_bad_subject_exits_1(self, tmp_path, capsys, edit, message):
        out, header, rows = self.scored_dir(tmp_path)
        subject, z, score = rows[9].split(",")  # file row 11
        if edit == "missing":
            del rows[9]
        elif edit == "arm":
            rows[9] = f"{subject},{1 - int(z)},{score}"
        else:
            other = {"duplicate": 3, "outside": 120}[edit]
            rows[9] = f"{other},{z},{score}"
        self.write(out, header, rows)
        capsys.readouterr()
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "scores.csv" in err and message in err
        assert not (out / "balance.json").exists()


class TestMalformedCells:
    """A cell that is not a number names its file, row and column."""

    def test_fractional_pair_index(self, tmp_path, capsys):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        text = (out / "pairs.csv").read_text(encoding="utf-8")
        (out / "pairs.csv").write_text(text + "6.0,1\n", encoding="utf-8")
        row = len(text.splitlines()) + 1
        capsys.readouterr()
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert f"pairs.csv: row {row}: treated is not an integer: '6.0'" in err
        assert not (out / "km_unadjusted_control.csv").exists()

    def test_word_for_a_weight(self, tmp_path, capsys):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        lines = (out / "weights.csv").read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].split(",")[0] + ",heavy"
        (out / "weights.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert "weights.csv: row 6: weight is not a number: 'heavy'" in capsys.readouterr().err

    def test_blank_score(self, tmp_path, capsys):
        out = prepared_dir(tmp_path, n=120, seed=1)
        lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
        subject, z, _ = lines[2].split(",")
        lines[2] = f"{subject},{z},"
        (out / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_FAILURE
        assert "scores.csv: row 3: propensity is not a number: ''" in capsys.readouterr().err


class TestTrainingRecord:
    def test_circuit_model_records_its_cmaes_run(self, tmp_path, fast_config):
        from qcausal import qnn

        run(*gen_args(tmp_path, n=120, seed=4))
        args = ["fit-ps", "--out-dir", str(tmp_path), "--seed", "4", "--model", "qnn_exact"]
        assert run(*args, "--config", fast_config) == EXIT_OK
        training = json.loads((tmp_path / "metrics.json").read_text())["training"]
        population = qnn.cmaes.default_population(qnn.QnnConfig(n_qubits=4).n_params)
        generations = (40 - 1) // population
        assert training == {
            "evaluations": 1 + population * generations,
            "generations": generations,
            "stop_reason": "max_evaluations",
            "best_loss": training["best_loss"],
        }
        assert 0.0 < training["best_loss"] < 120.0

    def test_classical_model_has_no_training_block(self, tmp_path):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert "training" not in json.loads((out / "metrics.json").read_text())


class TestPairsFile:
    """survival checks every row of pairs.csv before it writes anything."""

    def matched_dir(self, tmp_path):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        z = read_scores(out / "scores.csv")[0]
        pairs = read_pairs(out / "pairs.csv")
        used = {i for pair in pairs for i in pair}
        free = {
            arm: [i for i in range(len(z)) if z[i] == value and i not in used]
            for arm, value in (("treated", 1.0), ("control", 0.0))
        }
        return out, pairs, free

    def fails_on_appended_row(self, out, pairs, row, capsys):
        text = "treated,control\n" + "".join(f"{t},{c}\n" for t, c in pairs) + row + "\n"
        (out / "pairs.csv").write_text(text, encoding="utf-8")
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert not (out / "km_unadjusted_control.csv").exists()
        err = capsys.readouterr().err
        assert f"row {len(pairs) + 2}:" in err
        return err

    def test_index_outside_the_cohort(self, tmp_path, capsys):
        out, pairs, _ = self.matched_dir(tmp_path)
        err = self.fails_on_appended_row(out, pairs, "500,3", capsys)
        assert "treated index 500 is outside the cohort [0, 120)" in err

    def test_negative_index_does_not_wrap(self, tmp_path, capsys):
        out, pairs, free = self.matched_dir(tmp_path)
        err = self.fails_on_appended_row(out, pairs, f"{free['treated'][0]},-1", capsys)
        assert "control index -1 is outside the cohort" in err

    def test_arm_swapped_pair(self, tmp_path, capsys):
        out, pairs, free = self.matched_dir(tmp_path)
        row = f"{free['control'][0]},{free['treated'][0]}"
        err = self.fails_on_appended_row(out, pairs, row, capsys)
        assert f"treated subject {free['control'][0]} has z=0" in err

    @pytest.mark.parametrize("arm", ["treated", "control"])
    def test_subject_used_twice(self, tmp_path, capsys, arm):
        out, pairs, free = self.matched_dir(tmp_path)
        treated, control = pairs[0]
        row = f"{treated},{free['control'][0]}" if arm == "treated" else f"{free['treated'][0]},{control}"
        err = self.fails_on_appended_row(out, pairs, row, capsys)
        reused = treated if arm == "treated" else control
        assert f"subject {reused} appears in an earlier pair" in err

    def test_valid_pairs_still_analysed(self, tmp_path):
        out, pairs, _ = self.matched_dir(tmp_path)
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        assert json.loads((out / "cox.json").read_text())["n"] == 2 * len(pairs)


class TestMissingColumns:
    @pytest.mark.parametrize(
        "adjust, name, header, column",
        [
            ("nn", "pairs.csv", "treated,ctrl", "control"),
            ("nn", "pairs.csv", "case,control", "treated"),
            ("mw", "weights.csv", "subject,w", "weight"),
        ],
    )
    def test_named_in_a_clean_error(self, tmp_path, capsys, adjust, name, header, column):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", adjust) == EXIT_OK
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        (out / name).write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert name in err and f"no {column!r} column" in err

    def test_short_row_named_in_a_clean_error(self, tmp_path, capsys):
        out = prepared_dir(tmp_path, n=120, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        lines = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].split(",")[0]
        (out / "pairs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert "pairs.csv: row 4: too few fields" in capsys.readouterr().err


class TestCoxRecord:
    def test_cox_json_records_step_halvings(self, tmp_path):
        from qcausal.survival import fit_cox

        out = prepared_dir(tmp_path, n=200, seed=3)
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        record = json.loads((out / "cox.json").read_text())
        cohort, _ = load_cohort(out / "cohort.csv")
        covariates = ("Age", "Sex", "BMI", "ASA", "Stage")
        X = np.column_stack([cohort.matrix(covariates), cohort.z])
        model = fit_cox(cohort.times, cohort.events, X, weights=read_weights(out / "weights.csv"))
        assert record["halvings"] == model.halvings == 0

    def test_cox_json_keeps_fit_diagnostics(self, tmp_path):
        from qcausal.survival import fit_cox

        out = prepared_dir(tmp_path, n=200, seed=3)
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        record = json.loads((out / "cox.json").read_text())
        cohort, _ = load_cohort(out / "cohort.csv")
        covariates = ("Age", "Sex", "BMI", "ASA", "Stage")
        X = np.column_stack([cohort.matrix(covariates), cohort.z])
        model = fit_cox(cohort.times, cohort.events, X, weights=read_weights(out / "weights.csv"))
        assert record["n_iter"] == model.n_iter >= 1
        assert record["separation"] is model.separation is False
        assert record["loglik"] == model.loglik
        assert record["converged"] is model.converged


class TestFailedStage:
    """A stage that exits 1 leaves every file of the directory as it was."""

    def snapshot(self, out):
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    def analysed_dir(self, tmp_path, seed):
        out = prepared_dir(tmp_path, n=20, seed=seed)
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        return out

    def test_adjust_whose_balance_report_fails(self, tmp_path, capsys, monkeypatch):
        # a match would replace weights.csv by pairs.csv if it wrote before the report
        out = self.analysed_dir(tmp_path, seed=3)
        before = self.snapshot(out)

        def fail(*args, **kwargs):
            raise ValueError("balance report failed")

        monkeypatch.setattr("qcausal.adjust.balance_report", fail)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_FAILURE
        assert "balance report failed" in capsys.readouterr().err
        assert self.snapshot(out) == before

    def test_survival_whose_aalen_fit_fails(self, tmp_path, capsys):
        out = self.analysed_dir(tmp_path, seed=1)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        before = self.snapshot(out)
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert "design is rank-deficient" in capsys.readouterr().err
        assert self.snapshot(out) == before

    def test_survival_whose_weights_overflow(self, tmp_path, capsys):
        """A finite weight of 1e308 overflows the weighted sums."""
        out = self.analysed_dir(tmp_path, seed=3)
        header, first, *rest = (out / "weights.csv").read_text().splitlines()
        first = f"{first.split(',')[0]},1e308"
        (out / "weights.csv").write_text("\n".join([header, first, *rest]) + "\n")
        before = self.snapshot(out)
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert capsys.readouterr().err.startswith("qcausal survival: overflow encountered")
        assert self.snapshot(out) == before


def test_separated_cox_fit_writes_strict_json(tmp_path, capsys):
    """An overflowing confidence bound is written as null, not Infinity."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = prepared_dir(tmp_path, n=20, seed=2)
    assert run("adjust", "--out-dir", str(out), "--adjust", "genetic100") == EXIT_OK
    assert run("survival", "--out-dir", str(out)) == EXIT_OK
    assert capsys.readouterr().err == ""
    record = json.loads((out / "cox.json").read_text(), parse_constant=refuse)
    assert record["separation"] is True
    assert None in [bound for v in record["variables"].values() for bound in (v["CI_low"], v["CI_high"])]


class TestPipeline:
    def test_end_to_end_and_idempotent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", "--seed", "9", "--n", "150", "--model", "lr", "--adjust", "mw"]
        assert run(*args, "--out-dir", str(a)) == EXIT_OK
        assert run(*args, "--out-dir", str(b)) == EXIT_OK
        for name in (
            "cohort.csv", "scores.csv", "metrics.json", "roc.csv", "weights.csv",
            "balance.csv", "balance.json", "logrank.json", "cox.json", "aalen.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ha = json.loads((a / "manifest.json").read_text())["config_hash"]
        hb = json.loads((b / "manifest.json").read_text())["config_hash"]
        assert ha == hb  # manifests differ only in their own out_dir field

    def test_deleted_intermediate_regenerated_identically(self, tmp_path):
        args = [
            "pipeline", "--seed", "3", "--n", "120", "--out-dir", str(tmp_path),
        ]
        assert run(*args) == EXIT_OK
        scores_before = (tmp_path / "scores.csv").read_bytes()
        (tmp_path / "scores.csv").unlink()
        assert run(*args) == EXIT_OK
        assert (tmp_path / "scores.csv").read_bytes() == scores_before

    def test_invalid_model_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            run("pipeline", "--out-dir", str(tmp_path), "--model", "mystery")


class TestAdjustmentFiles:
    def test_switching_adjustment_leaves_no_stale_weights(self, tmp_path):
        out = prepared_dir(tmp_path, n=200, seed=6)
        cfg = out / "fast.cfg"
        cfg.write_text("genetic_generations=1\n", encoding="utf-8")
        assert run("adjust", "--out-dir", str(out), "--adjust", "mw") == EXIT_OK
        code = run(
            "adjust", "--out-dir", str(out), "--adjust", "genetic100", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert not (out / "weights.csv").exists()
        assert run("survival", "--out-dir", str(out), "--adjust", "genetic100") == EXIT_OK
        pairs = read_pairs(out / "pairs.csv")
        assert json.loads((out / "cox.json").read_text())["n"] == 2 * len(pairs)
        # and back: weighting removes the pairs
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        assert not (out / "pairs.csv").exists()

    def test_survival_labels_the_adjustment_it_analysed(self, tmp_path):
        out = prepared_dir(tmp_path)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        assert run("survival", "--out-dir", str(out)) == EXIT_OK
        assert json.loads((out / "logrank.json").read_text())["adjustment"] == "nn"

    def test_survival_refuses_both_adjustment_files(self, tmp_path, capsys):
        out = prepared_dir(tmp_path)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        (out / "weights.csv").write_text(
            "subject,weight\n" + "".join(f"{i},1.0\n" for i in range(200)), encoding="utf-8"
        )
        assert run("survival", "--out-dir", str(out)) == EXIT_FAILURE
        assert "weights.csv and pairs.csv" in capsys.readouterr().err
        assert not (out / "cox.json").exists()


class TestBalanceRecord:
    def test_match_records_caliper_and_counts(self, tmp_path):
        out = prepared_dir(tmp_path, n=300, seed=2)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        payload = json.loads((out / "balance.json").read_text())
        z, ps = read_scores(out / "scores.csv")
        pairs = read_pairs(out / "pairs.csv")
        assert payload["caliper"] == pytest.approx(0.25 * np.std(ps, ddof=1), rel=1e-12)
        assert payload["n_pairs"] == len(pairs)
        assert payload["n_unmatched_treated"] == int(z.sum()) - len(pairs)

    def test_empty_match_records_counts(self, tmp_path):
        out = prepared_dir(tmp_path, n=60, seed=3)
        z = read_scores(out / "scores.csv")[0]
        (out / "scores.csv").write_text(
            "subject,z,propensity\n"
            + "".join(f"{i},{int(v)},{0.4 + 0.2 * int(v)}\n" for i, v in enumerate(z)),
            encoding="utf-8",
        )
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_EMPTY_MATCH
        payload = json.loads((out / "balance.json").read_text())
        assert payload["n_pairs"] == 0
        assert payload["n_unmatched_treated"] == int(z.sum())

    def test_non_finite_score_exits_without_balance(self, tmp_path, capsys):
        out = prepared_dir(tmp_path, n=120, seed=2)
        lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
        subject, z, _ = lines[4].split(",")
        lines[4] = f"{subject},{z},nan"
        (out / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_FAILURE
        assert "row 5: propensity is not finite" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    @pytest.mark.parametrize("adjust", ["nn", "optimal", "genetic100", "mw"])
    @pytest.mark.parametrize("score", ["1.5", "0", "1", "-0.2", "1e308"])
    def test_score_outside_unit_interval_exits_without_balance(self, tmp_path, capsys, adjust, score):
        # fit-ps clips every score inside (0, 1); nn, optimal and genetic
        # matching used to match on 1.5 with exit 0
        out = prepared_dir(tmp_path, n=120, seed=2)
        lines = (out / "scores.csv").read_text(encoding="utf-8").splitlines()
        subject, z, _ = lines[6].split(",")
        lines[6] = f"{subject},{z},{score}"
        (out / "scores.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("adjust", "--out-dir", str(out), "--adjust", adjust) == EXIT_FAILURE
        assert "row 7: propensity lies outside (0, 1)" in capsys.readouterr().err
        assert not (out / "balance.json").exists()

    def test_numpy_scalars_parse_as_numbers(self, tmp_path):
        # repr of a numpy scalar is np.float64(...), which no reader parses
        row = {"covariate": "Age", "smd_before": np.float64(0.8203151999924831),
               "smd_after": np.float64(-1e-300), "test": "t-test", "p_before": np.float64(0.5),
               "p_after": 0.25}
        _write_balance(tmp_path, {"rows": [row]}, "nn")
        with open(tmp_path / "balance.csv", newline="", encoding="utf-8") as handle:
            (record,) = csv.DictReader(handle)
        for name in ("smd_before", "smd_after", "p_before", "p_after"):
            assert float(record[name]) == row[name], name

    def test_weights_record_effective_sample_size(self, tmp_path):
        out = prepared_dir(tmp_path, n=300, seed=2)
        assert run("adjust", "--out-dir", str(out), "--adjust", "ate") == EXIT_OK
        payload = json.loads((out / "balance.json").read_text())
        z = read_scores(out / "scores.csv")[0]
        w = read_weights(out / "weights.csv")
        for arm, value in (("treated", 1.0), ("control", 0.0)):
            wa = w[z == value]
            expected = wa.sum() ** 2 / (wa**2).sum()
            assert payload["effective_sample_size"][arm] == pytest.approx(expected, rel=1e-12)
            assert payload["effective_sample_size"][arm] <= len(wa)
        assert payload["max_weight"] == w.max()


def strict_json(path):
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-standard constant {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


class TestBalanceNulls:
    """A valid match always gets its file; an after-value that cannot be
    computed is null with its reason, and the mean skips it."""

    def adjusted_dir(self, tmp_path, n, model, adjust):
        run(*gen_args(tmp_path, n=n, seed=3))
        assert run("fit-ps", "--out-dir", str(tmp_path), "--model", model) == EXIT_OK
        assert run("adjust", "--out-dir", str(tmp_path), "--adjust", adjust) == EXIT_OK
        assert read_pairs(tmp_path / "pairs.csv")
        with open(tmp_path / "balance.csv", newline="", encoding="utf-8") as handle:
            table = {r["covariate"]: r for r in csv.DictReader(handle)}
        return strict_json(tmp_path / "balance.json"), table

    def test_one_level_covariate_after_optimal_match(self, tmp_path):
        payload, table = self.adjusted_dir(tmp_path, 20, "lr", "optimal")
        rows = {r["covariate"]: r for r in payload["rows"]}
        assert rows["Sex"]["p_after"] is None and table["Sex"]["p_after"] == ""
        want = "p_after: need at least two non-empty categories"
        assert rows["Sex"]["reason"] == table["Sex"]["reason"] == want
        assert rows["Sex"]["smd_after"] == 0.0
        assert payload["smd_after_omitted"] == []
        assert payload["mean_abs_smd_after"] == pytest.approx(
            np.mean([abs(r["smd_after"]) for r in payload["rows"]]), rel=1e-15
        )

    def test_infinite_smd_after_one_pair_match(self, tmp_path):
        payload, table = self.adjusted_dir(tmp_path, 30, "gbm", "nn")
        assert payload["n_pairs"] == 1
        rows = {r["covariate"]: r for r in payload["rows"]}
        for name in ("Age", "BMI"):
            assert rows[name]["smd_after"] is None and table[name]["smd_after"] == ""
            assert rows[name]["p_after"] is None
            assert rows[name]["reason"] == table[name]["reason"] == (
                "smd_after: degenerate covariate: zero pooled variance with unequal means; "
                "p_after: each group needs at least two observations"
            )
        assert payload["smd_after_omitted"] == ["Age", "BMI"]
        kept = [abs(r["smd_after"]) for r in payload["rows"] if r["covariate"] not in ("Age", "BMI")]
        assert payload["mean_abs_smd_after"] == float(np.mean(kept))

    def test_computable_rows_have_no_reason(self, tmp_path):
        out = prepared_dir(tmp_path, n=300, seed=2)
        assert run("adjust", "--out-dir", str(out), "--adjust", "nn") == EXIT_OK
        payload = strict_json(out / "balance.json")
        assert all(r["reason"] is None for r in payload["rows"])
        assert payload["smd_after_omitted"] == []


def test_readme_lists_every_option_without_a_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"these options that have no flag:(.*?)\.", readme, re.S)
    assert listed, "README lost its list of config-only options"
    keys = re.findall(r"`(\w+)`", listed.group(1))
    flagged = set().union(*(_flags(command) for command in STAGES))
    options = {f.name for f in fields(RunConfig)} - {"command", "out_dir"} - flagged
    assert len(keys) == len(set(keys))
    assert set(keys) == options
