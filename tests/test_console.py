"""Checks that the CI workflow once ran as shell steps around the console
script, each with the step's own assertion."""

import json

import pytest

from conftraj.cli import main
from conftraj.data_model import CsvSchema, load_csv, save_csv

SCHEMA = CsvSchema(feature_cols=("f0", "f1", "f2", "f3"))


def generate(tmp_path, n_subjects):
    cfg = tmp_path / f"gen{n_subjects}.json"
    cfg.write_text(json.dumps({"synth": {"n_subjects": n_subjects}}))
    out = tmp_path / f"gen{n_subjects}"
    assert main(["generate", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
    return out / "cohort.csv"


def quote_subject(cohort, line_no, tmp_path):
    """A copy of cohort in which the subject on line line_no has its ID
    followed by ',"q"', so that every one of its rows opens with a quoted ID."""
    lines = cohort.read_bytes().split(b"\r\n")
    sid = lines[line_no - 1].split(b",")[0]
    quoted = b'"' + sid + b',""q"""'
    lines = [quoted + line[len(sid):] if line.startswith(sid + b",") else line
             for line in lines]
    assert sum(line.startswith(quoted + b",") for line in lines) > 0
    path = tmp_path / "quoted.csv"
    path.write_bytes(b"\r\n".join(lines))
    return path


@pytest.mark.parametrize("n_subjects,quoted_line", [(50, None), (2000, 3000)],
                         ids=["gen", "quoted2000"])
def test_load_then_save_gives_back_the_cohort_byte_for_byte(tmp_path, n_subjects,
                                                            quoted_line):
    # quoted2000: a subject past the loader's first block whose ID holds a
    # comma and a quote, so the csv module reads the file from there on
    cohort = generate(tmp_path, n_subjects)
    if quoted_line:
        cohort = quote_subject(cohort, quoted_line, tmp_path)
    resaved = tmp_path / "resaved.csv"
    save_csv(load_csv(cohort, SCHEMA), resaved)
    assert resaved.read_bytes() == cohort.read_bytes()
