import math
import re
from pathlib import Path

import numpy as np
import pytest

from qcausal.data import (
    NAMES,
    Cohort,
    CohortError,
    SynthConfig,
    encode_features,
    generate_synthetic_cohort,
    load_cohort,
    variable,
    write_cohort,
)

HEADER = "Age,Sex,BMI,ASA,Stage,Technique,Survival_Time,Event"
GOOD_ROW = "66.0,1,26.2,2,3,laparoscopic,24.0,1"


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_single_valid_row(self, tmp_path):
        cohort, report = load_cohort(write_csv(tmp_path, [GOOD_ROW]))
        assert cohort.n == 1
        assert report.n_loaded == 1
        assert cohort.z[0] == 1.0

    def test_out_of_range_named_with_row_and_column(self, tmp_path):
        bad = GOOD_ROW.replace(",2,3,", ",7,3,")  # ASA = 7
        with pytest.raises(CohortError, match=r"row 2.*ASA"):
            load_cohort(write_csv(tmp_path, [bad]))

    def test_missing_values_dropped_and_counted(self, tmp_path):
        rows = [GOOD_ROW] * 7 + [GOOD_ROW.replace(",2,3,", ",2,,")] * 3
        cohort, report = load_cohort(write_csv(tmp_path, rows))
        assert cohort.n == 7
        assert report.n_dropped_missing == 3
        assert report.missing_by_column == {"Stage": 3}

    def test_conversions_excluded(self, tmp_path):
        rows = [GOOD_ROW, GOOD_ROW.replace("laparoscopic", "conversion"),
                GOOD_ROW.replace("laparoscopic", "open")]
        cohort, report = load_cohort(write_csv(tmp_path, rows))
        assert cohort.n == 2
        assert report.n_dropped_conversion == 1
        assert set(cohort.z) == {0.0, 1.0}

    def test_unknown_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, [GOOD_ROW + ",5"], header=HEADER + ",Mystery")
        with pytest.raises(CohortError, match="Mystery"):
            load_cohort(path)

    def test_duplicated_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, [GOOD_ROW + ",70.0,1"], header=HEADER + ",Age,Sex")
        with pytest.raises(CohortError, match=r"duplicated column\(s\) \['Age', 'Sex'\]"):
            load_cohort(path)

    def test_missing_schema_column_rejected(self, tmp_path):
        header = HEADER.replace(",Event", "")
        path = write_csv(tmp_path, [GOOD_ROW.rsplit(",", 1)[0]], header=header)
        with pytest.raises(CohortError, match="Event"):
            load_cohort(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(CohortError, match=r"row 2.*Age"):
            load_cohort(write_csv(tmp_path, [GOOD_ROW.replace("66.0", "old")]))

    def test_unknown_technique_rejected(self, tmp_path):
        with pytest.raises(CohortError, match="robotic"):
            load_cohort(write_csv(tmp_path, [GOOD_ROW.replace("laparoscopic", "robotic")]))

    def test_binary_out_of_range_rejected(self, tmp_path):
        bad = GOOD_ROW.replace("66.0,1,", "66.0,2,")  # Sex = 2
        with pytest.raises(CohortError) as err:
            load_cohort(write_csv(tmp_path, [bad]))
        assert str(err.value) == "row 2: column 'Sex' value '2' outside [0.0, 1.0]"

    def test_fractional_ordinal_rejected(self, tmp_path):
        bad = GOOD_ROW.replace(",2,3,", ",2,2.5,")  # Stage = 2.5
        with pytest.raises(CohortError) as err:
            load_cohort(write_csv(tmp_path, [bad]))
        assert str(err.value) == "row 2: column 'Stage' must be an integer, got '2.5'"


class TestLayout:
    def columns(self, n=5):
        return {name: np.zeros(n) for name in NAMES}

    def test_names_follow_file_order(self):
        assert ",".join(NAMES) == HEADER

    def test_column_set_must_be_the_layout(self):
        extra = dict(self.columns(), Height=np.zeros(5))
        short = self.columns()
        del short["Event"]
        for columns in (extra, short):
            with pytest.raises(CohortError, match="columns do not match the schema"):
                Cohort(columns)

    def test_ragged_columns_rejected(self):
        columns = self.columns()
        columns["BMI"] = np.zeros(4)
        with pytest.raises(CohortError, match="ragged columns"):
            Cohort(columns)

    def test_unknown_variable_rejected(self):
        assert variable("Stage").kind == "ordinal"
        with pytest.raises(CohortError) as err:
            variable("Height")
        assert str(err.value) == "unknown variable 'Height'"

    def test_readme_lists_the_layout_columns_in_order(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        bullet = re.search(r"^- `cohort\.csv` - (.*?)(?=^- )", readme, re.S | re.M)
        assert bullet, "README lost its cohort.csv bullet"
        # value labels such as `laparoscopic` sit inside the parentheses
        columns = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", bullet.group(1)))
        assert tuple(columns) == NAMES


class TestRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        cohort = generate_synthetic_cohort(SynthConfig(n=60, seed=4))
        path = tmp_path / "out.csv"
        write_cohort(cohort, path)
        back, _ = load_cohort(path)
        for name in NAMES:
            assert np.array_equal(cohort.columns[name], back.columns[name]), name

    def test_rewrite_is_byte_identical(self, tmp_path):
        cohort = generate_synthetic_cohort(SynthConfig(n=40, seed=9))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cohort(cohort, a)
        back, _ = load_cohort(a)
        write_cohort(back, b)
        assert a.read_bytes() == b.read_bytes()


class TestEncode:
    def test_binary_maps_to_zero_and_pi(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=50, seed=1))
        angles, _ = encode_features(cohort, ["Sex"])
        assert set(np.round(angles[:, 0], 12)) <= {0.0, round(math.pi, 12)}

    def test_midpoint_scaling(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=21, seed=2))
        cols = {k: v.copy() for k, v in cohort.columns.items()}
        cols["Age"] = np.linspace(40.0, 80.0, 21)
        cohort = Cohort(cols)
        angles, _ = encode_features(cohort, ["Age"])
        mid = np.argmin(np.abs(cols["Age"] - 60.0))
        assert angles[mid, 0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_stored_constants_reproduce_matrix(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=40, seed=3))
        angles, encoder = encode_features(cohort, ["Age", "BMI", "Stage"])
        again = encoder.transform(cohort.matrix(["Age", "BMI", "Stage"]))
        assert np.array_equal(angles, again)

    def test_constant_feature_rejected(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=25, seed=5))
        cols = {k: v.copy() for k, v in cohort.columns.items()}
        cols["BMI"] = np.full(25, 22.0)
        with pytest.raises(ValueError, match="BMI"):
            encode_features(Cohort(cols), ["BMI"])

    def test_unknown_feature_rejected(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=25, seed=5))
        with pytest.raises(CohortError):
            encode_features(cohort, ["Height"])


class TestGenerator:
    def test_fixed_seed_identical(self):
        a = generate_synthetic_cohort(SynthConfig(n=50, seed=7))
        b = generate_synthetic_cohort(SynthConfig(n=50, seed=7))
        for name in NAMES:
            assert np.array_equal(a.columns[name], b.columns[name])
        c = generate_synthetic_cohort(SynthConfig(n=50, seed=8))
        assert not np.array_equal(a.columns["Age"], c.columns["Age"])

    def test_zero_confounding_balances_covariates(self):
        from qcausal.adjust import smd

        cohort = generate_synthetic_cohort(
            SynthConfig(n=5000, stage_to_treatment=0.0, sex_to_treatment=0.0, seed=4)
        )
        for name in ("Age", "Sex", "BMI", "Stage"):
            assert abs(smd(cohort.columns[name], cohort.z)) < 0.05

    def test_confounding_creates_marginal_survival_difference(self):
        # stage differs by arm and drives the hazard even with no true effect
        cohort = generate_synthetic_cohort(SynthConfig(n=4000, seed=13))
        stage_gap = (
            cohort.columns["Stage"][cohort.z == 1].mean()
            - cohort.columns["Stage"][cohort.z == 0].mean()
        )
        assert stage_gap < -0.3
        treated_events = cohort.times[(cohort.z == 1) & (cohort.events == 1)]
        control_events = cohort.times[(cohort.z == 0) & (cohort.events == 1)]
        assert treated_events.mean() > control_events.mean()

    def test_censoring_rate_near_target(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=4000, censoring_target=0.4, seed=17))
        rate = 1.0 - cohort.events.mean()
        assert rate == pytest.approx(0.4, abs=0.05)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n=5)
        with pytest.raises(ValueError):
            SynthConfig(censoring_target=1.0)

    def test_nominal_rejection_rate_without_confounding(self):
        from qcausal.survival import log_rank

        rejections = 0
        for seed in range(200):
            cohort = generate_synthetic_cohort(
                SynthConfig(
                    n=120, stage_to_treatment=0.0, sex_to_treatment=0.0, seed=seed
                )
            )
            _, p = log_rank(cohort.times, cohort.events, cohort.z)
            rejections += p < 0.05
        assert 0.01 <= rejections / 200 <= 0.12
