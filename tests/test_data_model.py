import csv
import io
import os
import tempfile
import threading
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftraj import data_model
from conftraj.cli import _write_truth
from conftraj.data_model import (MAX_TIME, WRITE_BLOCK, CsvSchema, Dataset,
                                 StandardizationStats, load_csv, save_csv, split, standardize)
from conftraj.errors import ConfigurationError, DataError, SchemaError
from conftraj.predictors import design_matrix, visit_rows
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests import reference
from tests.reference import (Subject, biomarker_values, dataset_of, records_repr,
                             scored, subjects_of)


SCHEMA = CsvSchema(feature_cols=("age", "edu"), group_cols=("sex",))


def write_csv(path, rows):
    header = "subject_id,time_months,biomarker,age,edu,sex\n"
    path.write_text(header + "".join(rows))
    return path


def test_load_basic(tmp_path):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        "s1,6,1.4,70,12,F\n",
        "s1,12,1.3,70,12,F\n",
    ])
    ds = load_csv(p, SCHEMA)
    assert len(ds) == 1
    s = subjects_of(ds)[0]
    assert s.baseline == 1.5
    assert s.visits == ((6, 1.4), (12, 1.3))
    assert s.labels == {"sex": "F"}
    assert list(s.features) == [70.0, 12.0]


def test_duplicate_visit_rejected(tmp_path):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        "s1,6,1.4,70,12,F\n",
        "s1,6,1.3,70,12,F\n",
    ])
    with pytest.raises(DataError, match="duplicate"):
        load_csv(p, SCHEMA)


def test_baseline_only_subject_loaded(tmp_path):
    p = write_csv(tmp_path / "c.csv", ["s1,0,1.5,70,12,F\n"])
    ds = load_csv(p, SCHEMA)
    assert len(ds) == 1
    assert subjects_of(ds)[0].visits == ()
    assert scored(subjects_of(ds)) == []


def test_nul_character_names_line(tmp_path):
    # the csv module of Python 3.10 cannot read a NUL; no version accepts one
    p = write_csv(tmp_path / "c.csv", ["s1,0,1.5,70,12,F\n", "s\x002,0,1.5,70,12,F\n"])
    with pytest.raises(DataError, match="line 3: NUL"):
        load_csv(p, SCHEMA)


def test_missing_column(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("subject_id,time_months,biomarker,age,edu\ns1,0,1,70,12\n")
    with pytest.raises(SchemaError, match="sex"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("columns,named", [
    ({"feature_cols": ("age", "age")}, "age"),
    ({"feature_cols": ("age",), "group_cols": ("age",)}, "age"),
    ({"group_cols": ("subject_id",)}, "subject_id"),
    ({"value_col": "time_months"}, "time_months"),
    ({"group_cols": ("sex", "sex")}, "sex")])
def test_schema_refuses_a_column_named_twice(columns, named):
    with pytest.raises(SchemaError, match=f"^column '{named}' is named twice"):
        CsvSchema(**columns)


@pytest.mark.parametrize("row", ["s1,6,1.4,70,12\n", "s1,6,1.4,70,12,F,extra\n"],
                         ids=["short", "long"])
def test_ragged_row_names_row(tmp_path, row):
    p = write_csv(tmp_path / "c.csv", ["s1,0,1.5,70,12,F\n", row])
    with pytest.raises(DataError, match="row 3: cell count differs from the header"):
        load_csv(p, SCHEMA)


def test_non_numeric_cell_names_row(tmp_path):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        "s1,6,oops,70,12,F\n",
    ])
    with pytest.raises(DataError, match="row 3"):
        load_csv(p, SCHEMA)


def test_fractional_time_rejected(tmp_path):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        "s1,6.5,1.4,70,12,F\n",
    ])
    with pytest.raises(DataError, match="fractional"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["biomarker", "age"])
def test_non_finite_cell_names_row(tmp_path, cell, column):
    row = {"biomarker": "1.4", "age": "70"}
    row[column] = cell
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        f"s1,6,{row['biomarker']},{row['age']},12,F\n",
    ])
    with pytest.raises(DataError, match="row 3: non-finite"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("cell,message", [
    ("inf", "non-finite visit time 'inf'"), ("-inf", "non-finite visit time '-inf'"),
    ("1e400", "non-finite visit time '1e400'"), ("nan", "non-finite visit time 'nan'"),
    (str(MAX_TIME + 1), "visit time '9007199254740992' beyond 2\\*\\*53 - 1 months")])
def test_non_finite_time_names_row(tmp_path, cell, message):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        f"s1,{cell},1.4,70,12,F\n",
    ])
    with pytest.raises(DataError, match=f"row 3: {message}"):
        load_csv(p, SCHEMA)


def test_over_long_field_names_line(tmp_path):
    # the csv module's field size limit (131072 characters by default) is a
    # DataError naming the line, not a csv.Error; save_csv refuses to write
    # such a field, so the file is written directly
    sid = "s" * 200_000
    p = write_csv(tmp_path / "c.csv", [f"{sid},0,1.5,70,12,F\n", f"{sid},6,1.4,70,12,F\n"])
    with pytest.raises(DataError, match=r"c\.csv line 2: field larger than field limit"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("where", ["id", "group"])
def test_save_csv_refuses_over_long_field(tmp_path, where):
    # a field load_csv could not read back is refused, naming the subject by
    # its first characters and the field's length; one at the limit round-trips
    limit = csv.field_size_limit()

    def cohort(n):
        sid, sex = ("s" * n, "F") if where == "id" else ("s1", "F" * n)
        return dataset_of((Subject(sid, np.array([70.0, 12.0]), {"sex": sex}, 1.5,
                                   ((6, 1.4),)),), ("age", "edu"), ("sex",))

    p = tmp_path / "c.csv"
    save_csv(cohort(limit), p)
    at_limit, back = subjects_of(cohort(limit))[0], subjects_of(load_csv(p, SCHEMA))[0]
    assert (back.id, back.labels) == (at_limit.id, at_limit.labels)
    shown = repr("s" * 20) if where == "id" else repr("s1")
    with pytest.raises(DataError, match=f"subject {shown} .*{limit + 1} characters, "
                                        rf"over the csv field limit \({limit}\)"):
        save_csv(cohort(limit + 1), tmp_path / "d.csv")


@pytest.mark.parametrize("later_row", ["s1,12,1.3,71,12,F\n",     # feature
                                       "s1,12,1.3,70,12,M\n"])    # group label
def test_within_subject_disagreement_names_row(tmp_path, later_row):
    # the month-0 row comes last in the file; the disagreeing row is row 3
    p = write_csv(tmp_path / "c.csv", [
        "s1,6,1.4,70,12,F\n",
        later_row,
        "s1,0,1.5,70,12,F\n",
    ])
    with pytest.raises(DataError, match="row 3: subject s1"):
        load_csv(p, SCHEMA)


def test_round_trip(tmp_path):
    p = write_csv(tmp_path / "c.csv", [
        "s1,0,1.5,70,12,F\n",
        "s1,6,1.4,70,12,F\n",
        "s2,0,0.25,65,16,M\n",
        "s2,3,0.5,65,16,M\n",
        "s2,24,0.125,65,16,M\n",
    ])
    ds = load_csv(p, SCHEMA)
    q = tmp_path / "again.csv"
    save_csv(ds, q)
    ds2 = load_csv(q, SCHEMA)
    assert len(ds2) == len(ds)
    for a, b in zip(subjects_of(ds), subjects_of(ds2)):
        assert a.id == b.id
        assert a.visits == b.visits
        assert a.baseline == b.baseline
        assert list(a.features) == list(b.features)
        assert a.labels == b.labels


# subject IDs and group labels: any text (commas, quotes, newlines,
# non-ASCII), long IDs, and the CSV metacharacters on their own
ODD_TEXT = st.one_of(st.text(), st.text(min_size=200, max_size=400),
                     st.text(st.sampled_from(',"\'\r\n \\;é字\u2028'), min_size=1))
EXTREME_FLOATS = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, -0.0, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def odd_cohorts(draw):
    """Datasets with odd IDs and labels, extreme floats, subjects that may
    have only a baseline row, and no features or no group column."""
    ids = draw(st.lists(ODD_TEXT, min_size=1, max_size=5, unique=True))
    n_features = draw(st.integers(0, 2))
    group_columns = draw(st.sampled_from([(), ("site",)]))
    subjects = []
    for sid in ids:
        times = sorted(draw(st.lists(st.integers(1, 600), max_size=4, unique=True)))
        subjects.append(Subject(
            sid, np.array([draw(EXTREME_FLOATS) for _ in range(n_features)]),
            {c: draw(ODD_TEXT) for c in group_columns}, draw(EXTREME_FLOATS),
            tuple((t, draw(EXTREME_FLOATS)) for t in times)))
    return dataset_of(subjects, tuple(f"f{j}" for j in range(n_features)), group_columns)


@settings(max_examples=150, deadline=None)
@given(odd_cohorts())
def test_save_load_round_trip_odd_values(ds):
    schema = CsvSchema(feature_cols=ds.feature_names, group_cols=ds.group_columns)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        if any("\0" in text for s in subjects_of(ds) for text in (s.id, *s.labels.values())):
            with pytest.raises(DataError, match="NUL"):
                save_csv(ds, path)
            return
        save_csv(ds, path)
        back = load_csv(path, schema)
    # repr tells -0.0 from 0.0, so the floats must come back bit for bit
    assert records_repr(subjects_of(back)) == records_repr(subjects_of(ds))


def assert_writes_reference_bytes(write, write_reference, obj, tmp):
    """write(obj, path) writes the bytes write_reference(obj, path) writes,
    or refuses obj as it does, before creating the file."""
    ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
    try:
        write_reference(obj, theirs)
    except DataError as exc:
        with pytest.raises(DataError) as refused:
            write(obj, ours)
        assert str(refused.value) == str(exc)
        assert not ours.exists()
        return
    write(obj, ours)
    assert ours.read_bytes() == theirs.read_bytes()


@settings(max_examples=150, deadline=None)
@given(odd_cohorts())
def test_save_csv_writes_the_reference_writers_bytes(ds):
    with tempfile.TemporaryDirectory() as tmp:
        assert_writes_reference_bytes(save_csv, reference.save_csv, ds, tmp)


def write_truth(truth, path):
    _write_truth(path, truth)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(ODD_TEXT, st.tuples(st.booleans(), EXTREME_FLOATS), max_size=5))
def test_truth_writer_writes_the_reference_writers_bytes(entries):
    truth = {sid: {"is_progressor": flag, "true_slope": slope}
             for sid, (flag, slope) in entries.items()}
    with tempfile.TemporaryDirectory() as tmp:
        assert_writes_reference_bytes(write_truth, reference.save_truth, truth, tmp)


def test_writers_match_the_reference_across_blocks(tmp_path):
    # a cohort of several write blocks, whose labels need quoting
    ds, truth = generate(SynthConfig(
        n_subjects=2 * WRITE_BLOCK + 3, seed=4,
        group_spec=(GroupSpec("site", ("a,b", 'q"x', "line\r\nbreak", "plain"),
                              (0.25, 0.25, 0.25, 0.25)),)))
    assert_writes_reference_bytes(save_csv, reference.save_csv, ds, tmp_path)
    assert_writes_reference_bytes(write_truth, reference.save_truth, truth, tmp_path)


def make_subject(sid, baseline, visits, group="F"):
    return Subject(sid, np.zeros(2), {"sex": group}, baseline, tuple(visits))


def make_dataset(subjects):
    return dataset_of(subjects, ("f0", "f1"), ("sex",))


def test_standardize_computed_stats():
    ds = make_dataset([make_subject("a", 2.0, []), make_subject("b", 4.0, [])])
    out, stats = standardize(ds)
    assert stats.mean == pytest.approx(3.0)
    # sample std of {2, 4}
    assert stats.std == pytest.approx(np.sqrt(2))
    vals = [s.baseline for s in subjects_of(out)]
    assert vals == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_standardize_apply_training_stats():
    ds = make_dataset([make_subject("a", 5.0, [(6, 5.0)])])
    out, _ = standardize(ds, StandardizationStats(3.0, 1.0))
    (s,) = subjects_of(out)
    assert s.baseline == pytest.approx(2.0)
    assert s.visits[0][1] == pytest.approx(2.0)


def test_standardize_constant_errors():
    ds = make_dataset([make_subject("a", 1.0, []), make_subject("b", 1.0, [])])
    with pytest.raises(DataError, match="variance"):
        standardize(ds)


def test_standardized_training_set_is_zero_one():
    rng = np.random.default_rng(3)
    subjects = [make_subject(f"s{i}", rng.normal(),
                             [(j + 1, rng.normal()) for j in range(3)])
                for i in range(30)]
    out, _ = standardize(make_dataset(subjects))
    vals = biomarker_values(subjects_of(out))
    assert np.mean(vals) == pytest.approx(0.0, abs=1e-9)
    assert np.std(vals, ddof=1) == pytest.approx(1.0, abs=1e-9)


def big_dataset(n):
    return make_dataset([make_subject(f"s{i}", 0.0, [(1, 0.0)]) for i in range(n)])


def test_split_floor_arithmetic_large_cohort():
    idx = split(big_dataset(2200), 0.10, 0.20, seed=7)
    assert len(idx.test) == 220
    assert len(idx.calib) == 396
    assert len(idx.train) == 1584


def test_split_zero_calib():
    idx = split(big_dataset(10), 0.2, 0.0, seed=1)
    assert idx.calib == ()
    assert len(idx.test) == 2 and len(idx.train) == 8


def test_split_deterministic_and_partition():
    ds = big_dataset(101)
    a = split(ds, 0.3, 0.25, seed=11)
    b = split(ds, 0.3, 0.25, seed=11)
    assert a == b
    union = set(a.train) | set(a.calib) | set(a.test)
    assert union == set(range(101))
    assert len(a.train) + len(a.calib) + len(a.test) == 101


def test_split_follows_subject_ids_not_row_order():
    # the same cohort in reverse order: every part holds the same subjects
    # in the same order, at the reversed indices
    subjects = [make_subject(f"s{i}", 0.0, [(1, 0.0)]) for i in (3, 10, 0, 7, 2, 11, 5, 1, 9)]
    ds, rev = make_dataset(subjects), make_dataset(subjects[::-1])
    for seed in range(5):
        a, b = split(ds, 0.3, 0.3, seed), split(rev, 0.3, 0.3, seed)
        for part in ("train", "calib", "test"):
            want = [len(ds) - 1 - i for i in getattr(a, part)]
            assert list(getattr(b, part)) == want
            assert [rev.subject_ids[i] for i in want] == \
                [ds.subject_ids[i] for i in getattr(a, part)]


def test_split_index_sets_must_be_disjoint():
    assert data_model.SplitIndices((2, 0), (1,), (5, 3)).train == (2, 0)
    for parts in [((0, 1), (1,), ()), ((0,), (), (0,)), ((4, 2, 4), (), ())]:
        with pytest.raises(DataError, match="^split index sets are not pairwise disjoint$"):
            data_model.SplitIndices(*parts)


def test_derived_datasets_are_read_only_and_cache_nothing_of_their_parent():
    ds = make_dataset([make_subject(f"s{i}", float(i), [(6, 1.0 + i), (12, 2.0)],
                                    group="FM"[i % 2]) for i in range(4)])
    split(ds, 0.25, 0.0, 0)
    assert "_id_order" in vars(ds)          # cached
    part = ds.subset([2, 0])
    scaled, _ = standardize(part, StandardizationStats(1.0, 2.0))
    for derived in (part, scaled):
        assert "_id_order" not in vars(derived)
        for name in ("features", "baseline", "offsets", "times", "values", "group_codes"):
            column = getattr(derived, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[...] = 0
    assert [s.id for s in subjects_of(part)] == ["s2", "s0"]
    assert [s.baseline for s in subjects_of(scaled)] == [0.5, -0.5]
    assert [s.labels for s in subjects_of(part)] == [{"sex": "F"}, {"sex": "F"}]
    assert ds.baseline.tolist() == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("indices", [[1, 1], [0, 2, 0], [3, -1]])
def test_subset_refuses_a_repeated_index(indices):
    ds = make_dataset([make_subject(f"s{i}", 0.0, [(6, 1.0)]) for i in range(4)])
    with pytest.raises(DataError, match="^duplicate subject_ids in dataset$"):
        ds.subset(indices)
    with pytest.raises(IndexError):
        ds.subset([4])


def test_split_invalid_fractions_error():
    # floor arithmetic with fracs in range always leaves >= 1 training
    # subject, so the guard fires on out-of-range fractions
    with pytest.raises(ConfigurationError):
        split(big_dataset(10), 1.2, 0.2, seed=0)
    with pytest.raises(ConfigurationError):
        split(big_dataset(10), 0.2, 1.0, seed=0)


# ---------------------------------------------------------------------------
# load_csv against the DictReader loader of the reference pipeline

def _outcome(load, path, schema):
    """A loaded Dataset as the repr of every field, or the error's type and text."""
    try:
        ds = load(path, schema)
    except Exception as exc:        # compared, type and message, with the other loader
        return type(exc).__name__, str(exc)
    return records_repr(subjects_of(ds)), ds.feature_names, ds.group_columns


TIME_CELLS = ["0", "0", "1", "2", "6", "12", "6.0", "1e1", " 3", "-0", "2.5", "-1",
              "inf", "-inf", "nan", "1e400", "x", "", str(MAX_TIME), str(MAX_TIME + 1),
              str(MAX_TIME + 2), str(-MAX_TIME - 2)]
VALUE_CELLS = ["1.5", "-0.25", "0", "1e-300", "nan", "inf", "oops", ""]
FEATURE_CELLS = ["70", "70", "70.0", "7e1", "71", "-0", "0", "inf", "x"]


@st.composite
def cohort_csv_texts(draw):
    """(CSV text, schema): blank lines, 70 against 70.0, an optionally
    repeated header column, and ragged, duplicate, fractional and
    non-finite rows."""
    header = ["subject_id", "time_months", "biomarker", "age", "sex"]
    repeated = draw(st.sampled_from([None, "age", "sex"]))
    if repeated:
        header.append(repeated)        # a schema column named twice is refused
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        cells = [draw(st.sampled_from(["s1", "s2", "s3"])), draw(st.sampled_from(TIME_CELLS)),
                 draw(st.sampled_from(VALUE_CELLS)), draw(st.sampled_from(FEATURE_CELLS)),
                 draw(st.sampled_from(["F", "M"]))]
        if repeated:
            extra = FEATURE_CELLS if repeated == "age" else ["F", "M"]
            cells.append(draw(st.sampled_from(extra)))
        ragged = draw(st.integers(0, 15))
        if ragged == 0:
            cells.pop()
        elif ragged == 1:
            cells.append("extra")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", CsvSchema(feature_cols=("age",), group_cols=("sex",))


@settings(max_examples=400, deadline=None)
@given(cohort_csv_texts())
def test_load_csv_matches_dictreader_reference(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_csv, path, schema) == _outcome(reference.load_csv, path, schema)


@settings(max_examples=200, deadline=None)
@given(cohort_csv_texts(), st.integers(1, 4))
def test_load_csv_in_small_blocks_matches_dictreader_reference(case, block):
    # blocks of a few lines and rows put block boundaries between every
    # pair of faults the strategy draws
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_model, "BLOCK", block)
        path = Path(tmp) / "cohort.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(load_csv, path, schema) == _outcome(reference.load_csv, path, schema)


def test_load_csv_reference_cases(tmp_path):
    # the cases the strategy is built for, each pinned once
    cases = {
        "blank lines keep row numbers": "h\ns1,0,1,70,F\n\n\ns1,0,2,70,F\n",
        "70 against 70.0": "h\ns1,0,1,70,F\n\ns1,6,2,70.0,F\ns1,9,2,7e1,F\n",
        "repeated header": "h,age\ns1,0,1,x,F,70\ns1,6,2,y,F,70.0\n",
        "repeated unread column": "h,note,note\ns1,0,1,70,F,x,y\n",
        "feature differs": "h\ns1,0,1,70,F\ns1,6,2,71,F\n",
        "label differs": "h\ns1,0,1,70,F\ns1,6,2,70,M\n",
        "ragged": "h\ns1,0,1,70,F\n\ns1,6,2,70\n",
        "fractional": "h\ns1,0,1,70,F\ns1,6.5,2,70,F\n",
        "non-finite time": "h\ns1,0,1,70,F\ns1,nan,2,70,F\n",
        "non-finite feature on a later row": "h\ns1,0,1,70,F\ns1,6,2,inf,F\n",
    }
    schema = CsvSchema(feature_cols=("age",), group_cols=("sex",))
    outcomes = {}
    for name, text in cases.items():
        path = tmp_path / "c.csv"
        path.write_text(text.replace("h", "subject_id,time_months,biomarker,age,sex", 1))
        outcomes[name] = _outcome(load_csv, path, schema)
        assert outcomes[name] == _outcome(reference.load_csv, path, schema), name
    assert outcomes["blank lines keep row numbers"][1].startswith("row 3: duplicate")
    assert outcomes["70 against 70.0"][0].startswith("[('s1', [70.0], {'sex': 'F'}, 1.0, ((6")
    assert outcomes["repeated header"] == (
        "SchemaError", f"column 'age' is named twice in the header of {path}")
    assert outcomes["repeated unread column"][0].startswith("[('s1', [70.0], {'sex': 'F'}")
    assert outcomes["ragged"][1].startswith("row 3: cell count differs")


def test_load_csv_sorts_each_subjects_rows(tmp_path):
    # subjects interleaved, each with its rows out of time order
    path = write_csv(tmp_path / "c.csv", ["s2,12,2.5,60,12,M\n", "s1,6,1.5,70,12,F\n",
                                          "s2,0,2.0,60,12,M\n", "s1,0,1.0,70,12,F\n",
                                          "s2,3,2.25,60,12,M\n", "s1,1,1.25,70,12,F\n"])
    ds = load_csv(path, SCHEMA)
    assert _outcome(load_csv, path, SCHEMA) == _outcome(reference.load_csv, path, SCHEMA)
    assert ds.subject_ids == ("s2", "s1")
    assert ds.baseline.tolist() == [2.0, 1.0] and ds.offsets.tolist() == [0, 2, 4]
    assert ds.times.tolist() == [3, 12, 1, 6]
    assert ds.values.tolist() == [2.25, 2.5, 1.25, 1.5]


# ---------------------------------------------------------------------------
# standardize against the replace/apply version it replaced, bit for bit

MODERATE_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def standardize_cases(draw):
    subjects = []
    for i in range(draw(st.integers(2, 6))):
        times = sorted(draw(st.lists(st.integers(1, 120), max_size=draw(
            st.sampled_from([0, 1, 2, 8])), unique=True)))
        subjects.append(make_subject(f"s{i}", draw(MODERATE_FLOATS),
                                     [(t, draw(MODERATE_FLOATS)) for t in times]))
    return make_dataset(subjects)


@settings(max_examples=200, deadline=None)
@given(standardize_cases(), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
def test_standardize_matches_replace_apply_reference(ds, mean, std):
    stats = StandardizationStats(mean, std)
    out, _ = standardize(ds, stats)
    want = reference.standardize(ds, stats)
    for a, b in zip(subjects_of(out), subjects_of(want)):
        assert repr([a.baseline, a.visits]) == repr([b.baseline, b.visits])
        assert (a.id, a.labels) == (b.id, b.labels)
        assert a.features.tobytes() == b.features.tobytes()
    assert (out.feature_names, out.group_columns) == (ds.feature_names, ds.group_columns)
    # stats computed from ds are applied the same way
    if np.std(biomarker_values(subjects_of(ds))) > 0:
        out, stats = standardize(ds)
        assert repr(subjects_of(out)) == repr(subjects_of(reference.standardize(ds, stats)))


# ---------------------------------------------------------------------------
# Faults thousands of rows into a long file, against the reference loader.
# BLOCK is a row count past which a loader that reads in blocks would have
# started its second block.

BLOCK = 4096


def long_cohort_lines(n_subjects=2000, visits=4):
    """Data lines of a valid cohort, each subject's rows together: more rows
    than two blocks."""
    return [f"s{i:04d},{t},{0.5 * t + i / 7!r},{60 + i % 30},{12 + i % 5},{'FM'[i % 2]}\n"
            for i in range(n_subjects) for t in range(0, 6 * (visits + 1), 6)]


@pytest.mark.parametrize("case", ["straddle", "duplicate", "feature", "label",
                                  "last row non-numeric", "two faults",
                                  "non-numeric before duplicate",
                                  "duplicate before non-numeric",
                                  "NUL after duplicate", "NUL after straddling duplicate",
                                  "first row of a block", "last row of a block",
                                  "duplicate with a non-numeric cell",
                                  "compensating ragged rows"])
def test_load_csv_faults_far_into_a_long_file(tmp_path, case):
    lines = long_cohort_lines()
    assert len(lines) > 2 * BLOCK
    boundary = BLOCK                # index of the first row of the second block
    owner = lines[boundary].split(",")[0]
    first = next(k for k, line in enumerate(lines) if line.startswith(owner + ","))
    want = row = None
    if case == "straddle":
        assert first < boundary < first + 4        # the subject's rows straddle it
    elif case == "duplicate":
        # a later block repeats the month-0 row of a subject from the first block
        lines.insert(3 * BLOCK // 2 + 2, lines[10].replace(",0.", ",9.", 1))
        want = f"row {3 * BLOCK // 2 + 4}: duplicate (subject, time) = (s0002, 0)"
    elif case in ("feature", "label"):
        k = first + 3
        assert k >= boundary
        cells = lines[k].rstrip("\n").split(",")
        cells[3 if case == "feature" else 5] = "99" if case == "feature" else "X"
        lines[k] = ",".join(cells) + "\n"
        want = f"row {k + 2}: subject {owner} features or group labels differ"
    elif case in ("non-numeric before duplicate", "duplicate before non-numeric"):
        # a second copy of a block-1 row in block 2, before or after a
        # non-numeric biomarker cell in block 2
        bad = boundary + (100 if case.startswith("non") else 600)
        cells = lines[bad].split(",")
        cells[2] = "twelve"
        lines[bad] = ",".join(cells)
        lines.insert(boundary + 500, lines[10].replace(",0.", ",9.", 1))
        want = (f"row {bad + 2}: non-numeric cell" if case.startswith("non")
                else f"row {boundary + 502}: duplicate (subject, time) = (s0002, 0)")
    elif case.startswith("NUL"):
        # a NUL on a block-2 line after a duplicate whose second copy is in
        # block 1, or in block 2 before the NUL
        dup = 2000 if case == "NUL after duplicate" else boundary + 200
        lines.insert(dup, lines[10].replace(",0.", ",9.", 1))
        lines[boundary + 300] = lines[boundary + 300].replace(",", ",\0", 1)
        want = f"row {dup + 2}: duplicate (subject, time) = (s0002, 0)"
    elif case in ("first row of a block", "last row of a block",
                  "duplicate with a non-numeric cell"):
        # at the loader's own block boundaries: the first row of its third
        # block, or the last of its second, holds the fault; the duplicate
        # repeats s0002's month-6 row, its time spelled 6.0
        row = block_starts(write_csv(tmp_path / "c.csv", lines))[2]
        if case == "first row of a block":
            cells = lines[row - 2].split(",")
            cells[2] = "twelve"
            lines[row - 2] = ",".join(cells)
            want = f"row {row}: non-numeric cell"
        elif case == "last row of a block":
            row -= 1
            cells = lines[row - 2].rstrip("\n").split(",")
            cells[5] = "X"
            lines[row - 2] = ",".join(cells) + "\n"
            want = f"row {row}: subject {cells[0]} features or group labels differ"
        else:
            cells = lines[11].split(",")
            assert cells[:2] == ["s0002", "6"]
            cells[1:3] = ["6.0", "x"]
            lines.insert(row - 2, ",".join(cells))
            want = f"row {row}: duplicate (subject, time) = (s0002, 6)"
    elif case == "compensating ragged rows":
        # in the loader's third block, a row with one cell too many, then
        # one with one too few: the block's comma count is right
        k = 2 * data_model.BLOCK + 100
        lines[k] = lines[k].replace(",", ",,", 1)
        lines[k + 1] = lines[k + 1].replace(",", "", 1)
        assert sum(map(str.count, lines, repeat(","))) == 5 * len(lines)
        want = f"row {k + 2}: cell count differs from the header of "
    elif case == "last row non-numeric":
        cells = lines[-1].split(",")
        cells[2] = "twelve"
        lines[-1] = ",".join(cells)
        want = f"row {len(lines) + 1}: non-numeric cell"
    else:
        # a label change in the second block comes before a fractional time
        # in the third, and before a duplicate row in the last
        cells = lines[boundary + 7].rstrip("\n").split(",")
        cells[5] = "X"
        lines[boundary + 7] = ",".join(cells) + "\n"
        lines[2 * BLOCK + 1] = lines[2 * BLOCK + 1].replace(",", ",0.5", 1)
        lines.append(lines[0])
        want = f"row {boundary + 9}: subject "
    path = write_csv(tmp_path / "c.csv", lines)
    if row is not None:             # the fault is where the loader's blocks put it
        assert row + (case == "last row of a block") == block_starts(path)[2]
    got = _outcome(load_csv, path, SCHEMA)
    assert got == _outcome(reference.load_csv, path, SCHEMA)
    if want is None:
        assert len(got) == 3            # loaded, not an error
    else:
        assert got[0] == "DataError" and got[1].startswith(want), got


def block_starts(path):
    """The row number of the first row of each block the loader reads of path."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row_no for row_no, _ in data_model.csv_blocks(fh, ["subject_id"])]


def test_valid_unusual_cells_across_a_block_boundary_load_without_a_second_pass(
        tmp_path, monkeypatch):
    # 6.0 and 1e1 times, a feature cell as 79 and as 79.0, and blank lines,
    # in one subject whose rows straddle the loader's first block boundary
    lines = long_cohort_lines()
    boundary = data_model.BLOCK
    owner = lines[boundary].split(",")[0]
    first = next(k for k, line in enumerate(lines) if line.startswith(owner + ","))
    rows = [line.rstrip("\n").split(",") for line in lines[first:first + 5]]
    rows[1][1], rows[2][1] = "6.0", "1e1"
    rows[3][3] = rows[4][3] = rows[0][3] + ".0"
    lines[first:first + 5] = [",".join(cells) + "\n" for cells in rows]
    lines[first + 2:first + 2] = ["\n"]
    lines[first + 4:first + 4] = ["\n", "\n"]
    # csv rows, blank ones included, fill the blocks
    assert first + 1 < boundary < first + 7
    path = write_csv(tmp_path / "c.csv", lines)

    def refuse(*args):
        raise AssertionError("a valid file took the fault-naming pass")

    monkeypatch.setattr(data_model, "_block_fault", refuse)
    got = _outcome(load_csv, path, SCHEMA)
    assert got == _outcome(reference.load_csv, path, SCHEMA)
    ds = load_csv(path, SCHEMA)
    i = ds.subject_ids.index(owner)
    assert ds.times[ds.offsets[i]:ds.offsets[i + 1]].tolist() == [6, 10, 18, 24]
    assert ds.features[i, 0] == float(rows[0][3])


@pytest.mark.parametrize("fault", ["duplicate", "non-numeric"])
def test_a_faulty_file_is_opened_once_and_never_sought(tmp_path, monkeypatch, fault):
    # a fault in the third block, on a handle that cannot seek, as a pipe's;
    # the duplicate's first copy is in the first block
    lines = long_cohort_lines()
    k = 2 * data_model.BLOCK + 5
    if fault == "duplicate":
        lines.insert(k, lines[10].replace(",0.", ",9.", 1))
        want = rf"^row {k + 2}: duplicate \(subject, time\) = \(s0002, 0\)$"
    else:
        cells = lines[k].split(",")
        cells[2] = "twelve"
        lines[k] = ",".join(cells)
        want = rf"^row {k + 2}: non-numeric cell \(could not convert string to float: 'twelve'"
    path = write_csv(tmp_path / "c.csv", lines)
    handles = []

    def unseekable(*args):
        raise io.UnsupportedOperation("underlying stream is not seekable")

    def counting_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        handles[-1].seek = unseekable
        return handles[-1]

    monkeypatch.setattr(data_model, "open", counting_open, raising=False)
    with pytest.raises(DataError, match=want):
        load_csv(path, SCHEMA)
    assert len(handles) == 1 and handles[0].closed


@pytest.mark.parametrize("quoted", [False, True], ids=["commas", "csv-module"])
def test_a_byte_that_is_not_utf8_is_named_from_a_pipe(tmp_path, quoted):
    # a Latin-1 byte in the loader's third block, read from a named pipe;
    # a quoted ID in the first block sends the read to the csv module
    lines = long_cohort_lines()
    k = 2 * data_model.BLOCK + 5
    if quoted:
        lines[3] = '"' + lines[3].replace(",", '",', 1)
    data = write_csv(tmp_path / "c.csv", lines).read_bytes().split(b"\n")
    data[k + 1] = data[k + 1].replace(b",", b",\xe9", 1)
    fifo = tmp_path / "cohort.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            fifo.write_bytes(b"\n".join(data))
        except BrokenPipeError:         # the loader stops reading at the fault
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with pytest.raises(DataError, match=f"^{fifo} line {k + 2}: a byte that is not UTF-8$"):
            load_csv(fifo, SCHEMA)
    finally:
        writer.join()


def test_a_duplicate_is_named_from_the_sorted_columns(tmp_path, monkeypatch):
    # two duplicates past the first block, the first in file order of the
    # later subject; every other rule holds, so no second read names it
    lines = long_cohort_lines()
    lines.insert(data_model.BLOCK + 300, lines[25].replace(",0.", ",9.", 1))
    lines.insert(2 * data_model.BLOCK + 5, lines[10].replace(",0.", ",9.", 1))
    path = write_csv(tmp_path / "c.csv", lines)
    want = _outcome(reference.load_csv, path, SCHEMA)
    assert want == ("DataError", f"row {data_model.BLOCK + 302}: duplicate (subject, time) "
                                 "= (s0005, 0)")

    def refuse(*args):
        raise AssertionError("a duplicate took the fault-naming pass")

    monkeypatch.setattr(data_model, "_block_fault", refuse)
    assert _outcome(load_csv, path, SCHEMA) == want


# ---------------------------------------------------------------------------
# csv_blocks against csv.reader reading the file one line at a time

def reference_csv_rows(fh, columns):
    """(row number, picked cells) of each data row of fh, read by csv.reader
    one line at a time, then the error that ended the read: (type, text),
    or None."""
    path, rows = fh.name, []

    def lines():
        for line_no, line in enumerate(fh, 1):
            if "\0" in line:
                raise DataError(f"{path} line {line_no}: NUL character")
            if any("\udc80" <= c <= "\udcff" for c in line):     # surrogateescape's bytes
                raise DataError(f"{path} line {line_no}: a byte that is not UTF-8")
            yield line

    reader = csv.reader(lines())
    try:
        header = next(reader, [])
        for col in columns:
            if col not in header:
                raise SchemaError(f"missing column {col!r} in {path}")
            if header.count(col) > 1:
                raise SchemaError(f"column {col!r} is named twice in the header of {path}")
        row_no = 2
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"row {row_no}: cell count differs from the header of {path}")
            rows.append((row_no, tuple(row[header.index(col)] for col in columns)))
            row_no += 1
    except csv.Error as exc:
        return rows, ("DataError", f"{path} line {reader.line_num}: {exc}")
    except (DataError, SchemaError) as exc:
        return rows, (type(exc).__name__, str(exc))
    return rows, None


def csv_blocks_rows(fh, columns):
    """csv_blocks(fh, columns) as reference_csv_rows returns a read."""
    rows = []
    try:
        for first, cells in data_model.csv_blocks(fh, columns):
            rows.extend((first + k, row) for k, row in enumerate(zip(*cells)))
    except (DataError, SchemaError) as exc:
        return rows, (type(exc).__name__, str(exc))
    return rows, None


# plain cells, cells over a lowered field size limit, a stray quote inside a
# cell, quoted cells holding commas, quotes and line breaks, NUL, and
# NOT_UTF8, which the file holds as bytes that are not UTF-8
PLAIN_CELLS = ["x", "yy", "", " ", "3.5", "abcdefgh"]
QUOTED_CELLS = ['a"b', '"q"', '"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\r\nlf"',
                '"open\n\nend"']
NOT_UTF8 = "\x01"


@st.composite
def csv_files(draw):
    """(file text, the line whose first quote the text holds or None): a
    header, then lines with \\n, \\r\\n or lone \\r endings, blank lines,
    trailing commas, wrong cell counts and, from a drawn line on, quotes."""
    header = draw(st.sampled_from(["a,b,c", "a,b,c", "a,b,c", "c,b,a,", "a,c", "a,b,a",
                                   "", '"a",b,c', "a,b\0,c"]))
    quotes_from = draw(st.one_of(st.none(), st.integers(0, 14)))
    lines = [header]
    for k in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 6)) == 0:
            lines.append("")
            continue
        pool = PLAIN_CELLS + (QUOTED_CELLS if quotes_from is not None and k >= quotes_from
                              else [])
        width = draw(st.sampled_from([3, 3, 3, 3, 2, 4]))
        cells = [draw(st.sampled_from(pool)) for _ in range(width)]
        if draw(st.integers(0, 12)) == 0:
            cells[-1] += "\0"
        if draw(st.integers(0, 12)) == 0:
            cells[0] += NOT_UTF8
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""                   # no terminator on the last line
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=500, deadline=None)
@given(csv_files(), st.integers(1, 4), st.sampled_from([None, 3, 5, 8]),
       st.sampled_from([("a", "c"), ("b",), ("",)]),
       st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"]))
def test_csv_blocks_match_csv_reader_line_by_line(text, block, limit, columns, not_utf8):
    # blocks of a few lines put a block boundary between every pair of
    # lines, so a quote is first seen in a later block and a quoted field
    # crosses one; a lowered field size limit sends lines over it to the
    # csv module, which refuses a field over it
    old_limit = csv.field_size_limit()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_model, "BLOCK", block)
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode("utf-8").replace(NOT_UTF8.encode(), not_utf8))
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            with data_model.open_csv(path) as fh:
                got = csv_blocks_rows(fh, columns)
            with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
                want = reference_csv_rows(fh, columns)
        finally:
            csv.field_size_limit(old_limit)
    assert got == want


def test_csv_blocks_switch_to_the_csv_module_keeps_line_numbers(tmp_path, monkeypatch):
    # a quote first seen in the third block of two lines, then a field over
    # the limit on line 9: the csv module, reading from line 5 on, names
    # line 9 of the file
    monkeypatch.setattr(data_model, "BLOCK", 2)
    lines = ["a,b,c", "1,2,3", "", "4,5,6", '"7,x",8,9', "10,11,12", "13,14,15", "\r",
             "16," + "z" * 200 + ",18"]
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n", newline="")
    old_limit = csv.field_size_limit()
    try:
        csv.field_size_limit(100)
        with open(path, newline="", encoding="utf-8") as fh:
            got = csv_blocks_rows(fh, ("a", "c"))
    finally:
        csv.field_size_limit(old_limit)
    assert got == ([(2, ("1", "3")), (3, ("4", "6")), (4, ("7,x", "9")), (5, ("10", "12")),
                    (6, ("13", "15"))],
                   ("DataError", f"{path} line 9: field larger than field limit (100)"))


# ---------------------------------------------------------------------------
# The columnar Dataset against record-by-record references

@st.composite
def record_cohorts(draw):
    """Small cohorts of records with zero to two features, two group
    columns, and subjects that may have only a baseline."""
    n_features = draw(st.integers(0, 2))
    subjects = []
    for i in range(draw(st.integers(1, 7))):
        times = sorted(draw(st.lists(st.integers(1, 240), max_size=4, unique=True)))
        subjects.append(Subject(
            f"s{draw(st.integers(0, 99))}-{i}",
            np.array([draw(MODERATE_FLOATS) for _ in range(n_features)]),
            {"sex": draw(st.sampled_from("FM")), "site": draw(st.sampled_from("abc"))},
            draw(MODERATE_FLOATS), tuple((t, draw(MODERATE_FLOATS)) for t in times)))
    return subjects, tuple(f"f{j}" for j in range(n_features))


@settings(max_examples=200, deadline=None)
@given(record_cohorts(), st.data())
def test_columnar_paths_match_record_references(cohort, data):
    subjects, names = cohort
    ds = dataset_of(subjects, names, ("sex", "site"))
    assert records_repr(subjects_of(ds)) == records_repr(subjects)
    again = dataset_of(subjects_of(ds), ds.feature_names, ds.group_columns)
    for column in ("features", "baseline", "offsets", "times", "values"):
        assert getattr(again, column).tobytes() == getattr(ds, column).tobytes(), column
    assert [again.group(c)[1][k] for c in ("sex", "site") for k in again.group(c)[0]] == \
        [ds.group(c)[1][k] for c in ("sex", "site") for k in ds.group(c)[0]]
    assert (again.subject_ids, again.feature_names, again.group_columns) == \
        (ds.subject_ids, ds.feature_names, ds.group_columns)

    picks = data.draw(st.lists(st.integers(0, len(subjects) - 1), unique=True))
    part = ds.subset(picks)
    assert records_repr(subjects_of(part)) == records_repr([subjects[i] for i in picks])

    X = visit_rows(ds, ds.visit_counts)
    assert repr(X.tolist()) == repr(reference.visit_rows(subjects))
    if any(s.visits for s in subjects):
        rows, y = design_matrix(ds)
        assert repr((rows.tolist(), y.tolist(), ds.offsets.tolist())) == \
            repr(reference.design_matrix(subjects))

    stats = StandardizationStats(data.draw(st.floats(-1e3, 1e3)),
                                 data.draw(st.floats(1e-3, 1e3)))
    assert records_repr(subjects_of(standardize(ds, stats)[0])) == \
        records_repr(subjects_of(reference.standardize(ds, stats)))
    if np.std(biomarker_values(subjects)) > 0:
        out, computed = standardize(ds)
        assert computed == reference.stats_of(subjects)
        assert records_repr(subjects_of(out)) == \
            records_repr(subjects_of(reference.standardize(ds, computed)))


# ---------------------------------------------------------------------------
# Construction errors name the subject

def columns(**changes):
    """Keyword arguments of a valid two-subject Dataset, with changes."""
    return {"subject_ids": ("a", "b"), "features": [[1.0, 2.0], [3.0, 4.0]],
            "baseline": [0.5, 0.25], "offsets": [0, 2, 3], "times": [6, 12, 3],
            "values": [1.0, 2.0, 3.0], "group_codes": [[0], [1]],
            "group_categories": (("F", "M"),), "feature_names": ("f0", "f1"),
            "group_columns": ("sex",), **changes}


@pytest.mark.parametrize("visits,message", [
    (((0, 1.0),), "subject b: visit time < 1"),
    (((3, 1.0), (3, 2.0)), "subject b: visit times not strictly increasing"),
    (((3, 1.0), (2, 2.0)), "subject b: visit times not strictly increasing")])
def test_bad_visit_times_name_the_subject(visits, message):
    times = [6, 12] + [t for t, _ in visits]
    with pytest.raises(DataError, match=f"^{message}$"):
        Dataset(**columns(offsets=[0, 2, len(times)], times=times,
                          values=[0.0] * len(times)))


def test_duplicate_subject_ids_rejected():
    with pytest.raises(DataError, match="^duplicate subject_ids in dataset$"):
        Dataset(**columns(subject_ids=("a", "a")))


def test_a_group_category_listed_twice_is_refused():
    # two codes of one label would be two groups of it
    with pytest.raises(DataError, match="^dataset group column 'sex' lists a category twice$"):
        Dataset(**columns(group_categories=(("F", "F"),)))


def test_feature_vector_length_names_the_subject():
    with pytest.raises(DataError, match=r"^subject a: feature vector length 3 != 2$"):
        Dataset(**columns(features=np.zeros((2, 3))))


def test_valid_columns_build_the_records():
    ds = Dataset(**columns())
    assert records_repr(subjects_of(ds)) == records_repr([
        Subject("a", np.array([1.0, 2.0]), {"sex": "F"}, 0.5, ((6, 1.0), (12, 2.0))),
        Subject("b", np.array([3.0, 4.0]), {"sex": "M"}, 0.25, ((3, 3.0),))])
    assert not ds.values.flags.writeable


@pytest.mark.parametrize("features,groups,named", [
    (("a", "a"), (), "a"), (("f0",), ("biomarker",), "biomarker"),
    (("subject_id",), (), "subject_id"), (("time_months",), (), "time_months"),
    (("f0",), ("f0",), "f0"), ((), ("sex", "sex"), "sex")])
def test_dataset_refuses_a_column_named_twice(features, groups, named):
    # save_csv would write the name twice in one header, which load_csv refuses
    with pytest.raises(DataError, match=f"^dataset column '{named}' is named twice among "
                                        "subject_id, time_months, biomarker and its"):
        Dataset(**columns(features=np.zeros((2, len(features))),
                          group_codes=np.zeros((2, len(groups)), dtype=int),
                          group_categories=(("x",),) * len(groups),
                          feature_names=features, group_columns=groups))


@pytest.mark.parametrize("name,column", [
    ("times", [6.5, 12, 3]), ("times", [6, float("nan"), 3]), ("times", [6, 12, 1e300]),
    ("offsets", [0, 1.5, 3])])
def test_columns_of_whole_numbers_refuse_other_values(name, column):
    with pytest.raises(DataError, match=f"^dataset column {name} holds a value that is "
                                        "not a whole number$"):
        Dataset(**columns(**{name: column}))


def test_columns_leave_the_callers_arrays_writeable():
    times, values = np.array([6, 12, 3], dtype=np.int64), np.array([1.0, 2.0, 3.0])
    ds = Dataset(**columns(times=times, values=values))
    assert times.flags.writeable and values.flags.writeable
    times[0] = 99
    assert ds.times.tolist() == [6, 12, 3]
    assert Dataset(**columns(times=[6.0, 12.0, 3.0])).times.tolist() == [6, 12, 3]


@pytest.mark.parametrize("change", [{"offsets": [0, 2, 4]}, {"offsets": [0, 3, 2]},
                                    {"baseline": [0.5]}, {"group_codes": [[0], [2]]},
                                    {"features": [1.0, 2.0]}])
def test_columns_that_do_not_line_up_are_refused(change):
    with pytest.raises(DataError, match="^dataset columns do not line up with its 2 "
                                        "subjects and 3 visits$"):
        Dataset(**columns(**change))
