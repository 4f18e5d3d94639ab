import json

import numpy as np
import pytest

from qcausal.cli import (
    EXIT_EMPTY_MATCH,
    EXIT_FAILURE,
    EXIT_OK,
    main,
    read_pairs,
    read_scores,
    read_weights,
)
from qcausal.data import load_cohort


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
        header = cohort.schema.names()
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
                            if cohort.schema.variable(name).kind == "continuous"
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
