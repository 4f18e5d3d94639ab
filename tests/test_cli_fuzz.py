"""Fuzz scores.csv and weights.csv through `main()`.

scores.csv feeds `adjust` with nearest-neighbour and with optimal matching;
weights.csv feeds `survival`.  Each example permutes the data rows of one
file, then may duplicate, drop or corrupt rows.  Whatever the edit, the stage must end with an exit code
(0, 1 or 3), never an uncaught exception.  A pure permutation must give
byte-identical outputs, since both files are read by their `subject` column.
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
