"""Fuzz the input files of every stage through `main()`.

scores.csv feeds `adjust` with nearest-neighbour and with optimal matching;
weights.csv feeds `survival`.  Each example permutes the data rows of one
file, then may duplicate, drop or corrupt rows.  Whatever the edit, the stage
must end with an exit code (0, 1 or 3), never an uncaught exception.  A pure
permutation must give byte-identical outputs, since both files are read by
their `subject` column.  Malformed cohort.csv files go through every stage
that reads one, and malformed pairs.csv rows through `survival`, under the
same rule.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.cli import EXIT_EMPTY_MATCH, EXIT_FAILURE, EXIT_OK, main

N = 40
TOKENS = ("", "nan", "inf", "-inf", "-1", "0", "1", "0.5", "1.5", "1e308", "-0.0", "x", "3", str(N))
# (fuzzed file, stage, --adjust) of each case
CASES = {
    "scores.csv": ("scores.csv", "adjust", "nn"),
    "scores.csv-optimal": ("scores.csv", "adjust", "optimal"),
    "weights.csv": ("weights.csv", "survival", "mw"),
}
OUTPUTS = {
    "scores.csv": ("pairs.csv", "balance.csv", "balance.json"),
    "weights.csv": ("km_adjusted_control.csv", "km_adjusted_treated.csv", "logrank.json",
                    "cox.json", "aalen.json"),
}


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """One directory per case: a scores case holds cohort.csv and scores.csv,
    the weights case also weights.csv from `adjust --adjust mw`; each records
    the outputs of the stage the fuzz runs on it."""
    root = tmp_path_factory.mktemp("fuzz")
    dirs = {}
    for case, (name, stage, adjust) in CASES.items():
        out = root / case
        for argv in (["gen", "--n", str(N)], ["fit-ps"], ["adjust", "--adjust", "mw"]):
            assert run([*argv, "--out-dir", str(out), "--seed", "2"])[0] == EXIT_OK
        if name == "scores.csv":
            (out / "weights.csv").unlink()
            (out / "balance.json").unlink()
        assert run(stage_argv(case, out))[0] == EXIT_OK
        dirs[case] = out
    return dirs


def stage_argv(case, out):
    _, stage, adjust = CASES[case]
    return [stage, "--out-dir", str(out), "--adjust", adjust]


@st.composite
def edits(draw):
    """A permutation of the data rows, then up to two row edits."""
    order = draw(st.permutations(range(N)))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("duplicate"), st.integers(0, N - 1)),
                st.tuples(st.just("drop"), st.integers(0, N - 1)),
                st.tuples(st.just("corrupt"), st.integers(0, N - 1), st.integers(0, 2),
                          st.sampled_from(TOKENS)),
            ),
            max_size=2,
        )
    )
    return order, ops


def apply(lines, order, ops):
    header, rows = lines[0], [lines[1:][i] for i in order]
    for op, index, *cell in ops:
        index %= len(rows)
        if op == "duplicate":
            rows.insert(index, rows[index])
        elif op == "drop":
            del rows[index]
        else:
            column, token = cell
            fields = rows[index].split(",")
            fields[column % len(fields)] = token
            rows[index] = ",".join(fields)
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=40, deadline=None)
@given(edit=edits())
def test_edited_input_exits_cleanly(prepared, case, edit):
    source = prepared[case]
    name, stage, _ = CASES[case]
    lines = (source / name).read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        (out / name).write_text(apply(lines, *edit), encoding="utf-8")
        code, err = run(stage_argv(case, out))
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_EMPTY_MATCH), err
        assert "Traceback" not in err
        if code == EXIT_FAILURE:
            assert err.startswith(f"qcausal {stage}: ")
        if not edit[1]:
            assert code == EXIT_OK, err
            for output in OUTPUTS[name]:
                assert (out / output).read_bytes() == (source / output).read_bytes(), output


def malformed_cohorts(lines):
    """(case, cohort.csv text) of each malformed cohort file."""
    header, rows = lines[0], lines[1:]
    duplicated = [f"{header},Age"] + [f"{row},{row.split(',')[0]}" for row in rows]
    return {
        "empty file": "",
        "header only": header + "\n",
        "short row": "\n".join([header, *rows[:5], rows[5].rsplit(",", 1)[0], *rows[6:]]) + "\n",
        "duplicated column": "\n".join(duplicated) + "\n",
        "BOM-prefixed header": "\ufeff" + "\n".join(lines) + "\n",
    }


# pairs.csv edits: the new text of a row, from its own pair (t, c) and the
# text of another data row
PAIR_EDITS = {
    "negative": lambda t, c, other: f"-1,{c}",
    "duplicated": lambda t, c, other: other,
    "arm-swapped": lambda t, c, other: f"{c},{t}",
    "float": lambda t, c, other: f"{t}.0,{c}",
    "nan": lambda t, c, other: f"nan,{c}",
    "bool": lambda t, c, other: f"True,{c}",
}


@pytest.fixture(scope="module")
def matched(tmp_path_factory):
    """cohort.csv, scores.csv and pairs.csv of an `adjust --adjust nn` run."""
    out = tmp_path_factory.mktemp("fuzz") / "matched"
    for argv in (["gen", "--n", str(N)], ["fit-ps"], ["adjust", "--adjust", "nn"]):
        assert run([*argv, "--out-dir", str(out), "--seed", "2"])[0] == EXIT_OK
    return out


def run_on_copy(source, name, text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(source, out)
        (out / name).write_text(text, encoding="utf-8")
        code, err = run([*argv, "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_EMPTY_MATCH), err
    assert "Traceback" not in err
    if code == EXIT_FAILURE:
        assert err.startswith(f"qcausal {argv[0]}: "), err
    return code, err


@pytest.mark.parametrize("case", list(malformed_cohorts(["h", "r"] * 4)))
@pytest.mark.parametrize("stage", [["fit-ps"], ["adjust", "--adjust", "nn"],
                                   ["survival", "--adjust", "nn"]],
                         ids=["fit-ps", "adjust", "survival"])
def test_malformed_cohort_exits_cleanly(matched, case, stage):
    lines = (matched / "cohort.csv").read_text(encoding="utf-8").splitlines()
    code, err = run_on_copy(matched, "cohort.csv", malformed_cohorts(lines)[case], stage)
    if case == "duplicated column":
        assert code == EXIT_FAILURE
        assert "duplicated column(s) ['Age']" in err


@pytest.mark.parametrize("edit", list(PAIR_EDITS))
@pytest.mark.parametrize("row", [1, 7, None])
def test_malformed_pairs_exit_cleanly(matched, edit, row):
    """Edit data row 1 or 7 in place, or append an edited copy of row 1."""
    lines = (matched / "pairs.csv").read_text(encoding="utf-8").splitlines()
    line = PAIR_EDITS[edit](*lines[row or 1].split(","), lines[2 if row == 1 else 1])
    if row:
        lines[row] = line
    else:
        lines.append(line)
    text = "\n".join(lines) + "\n"
    code, _ = run_on_copy(matched, "pairs.csv", text, ["survival", "--adjust", "nn"])
    assert code == EXIT_FAILURE
