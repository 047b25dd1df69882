import numpy as np
import pytest

from conftraj.data_model import (CsvSchema, Dataset, StandardizationStats,
                                 SubjectRecord, load_csv, save_csv, split,
                                 standardize)
from conftraj.errors import ConfigurationError, DataError, SchemaError


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
    s = ds.subjects[0]
    assert s.baseline_value == 1.5
    assert s.visits == ((6, 1.4), (12, 1.3))
    assert s.group_labels == {"sex": "F"}
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
    assert ds.subjects[0].visits == ()
    assert ds.scored_subjects() == []


def test_missing_column(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("subject_id,time_months,biomarker,age,edu\ns1,0,1,70,12\n")
    with pytest.raises(SchemaError, match="sex"):
        load_csv(p, SCHEMA)


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
    for a, b in zip(ds.subjects, ds2.subjects):
        assert a.subject_id == b.subject_id
        assert a.visits == b.visits
        assert a.baseline_value == b.baseline_value
        assert list(a.features) == list(b.features)
        assert a.group_labels == b.group_labels


def make_subject(sid, baseline, visits, group="F"):
    return SubjectRecord(sid, np.zeros(2), {"sex": group}, baseline,
                         tuple(visits))


def make_dataset(subjects):
    return Dataset(tuple(subjects), ("f0", "f1"), ("sex",))


def test_standardize_computed_stats():
    ds = make_dataset([make_subject("a", 2.0, []), make_subject("b", 4.0, [])])
    out, stats = standardize(ds)
    assert stats.mean == pytest.approx(3.0)
    # sample std of {2, 4}
    assert stats.std == pytest.approx(np.sqrt(2))
    vals = [s.baseline_value for s in out.subjects]
    assert vals == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_standardize_apply_training_stats():
    ds = make_dataset([make_subject("a", 5.0, [(6, 5.0)])])
    out, _ = standardize(ds, StandardizationStats(3.0, 1.0))
    assert out.subjects[0].baseline_value == pytest.approx(2.0)
    assert out.subjects[0].visits[0][1] == pytest.approx(2.0)


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
    vals = []
    for s in out.subjects:
        vals.append(s.baseline_value)
        vals.extend(s.visit_values)
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


def test_split_invalid_fractions_error():
    # floor arithmetic with fracs in range always leaves >= 1 training
    # subject, so the guard fires on out-of-range fractions
    with pytest.raises(ConfigurationError):
        split(big_dataset(10), 1.2, 0.2, seed=0)
    with pytest.raises(ConfigurationError):
        split(big_dataset(10), 0.2, 1.0, seed=0)
