"""Metamorphic tests of the whole pipeline: a transformed cohort must give
the results its transformation predicts."""

import csv
import json
import string
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftraj.cli import main
from conftraj.conformal import bands_for_dataset, calibrate, score_dataset
from conftraj.evaluation import coverage_and_width, fit_split
from conftraj.synth import SynthConfig, generate
from tests.reference import dataset_of, subjects_of

KIND_NAMES = ("gp", "quantile", "bootstrap")
COHORT = generate(SynthConfig(n_subjects=80, seed=3))[0]


def affine(ds, a, b):
    """ds with every biomarker value y (baseline and visits) made a * y + b."""
    return dataset_of([s._replace(baseline=a * s.baseline + b,
                                  visits=tuple((t, a * y + b) for t, y in s.visits))
                       for s in subjects_of(ds)], ds.feature_names, ds.group_columns)


def calibrate_and_evaluate(ds, kind):
    model, _, calib, test = fit_split(ds, kind, 0.25, 0.4, seed=0)
    cal = calibrate(score_dataset(model, calib), 0.1)
    return cal, coverage_and_width(bands_for_dataset(model, test, cal), test)


@lru_cache(maxsize=None)
def untransformed(kind):
    return calibrate_and_evaluate(COHORT, kind)


# quantile is left out: its descent accepts a step when the new loss is not
# above the old, and two losses equal to rounding can compare either way, so
# the rounding of the standardized values can fork its path (at a = 0.01,
# b = -64.77 the radius moves by 2.7e-8 relative)
@pytest.mark.parametrize("kind", ("gp", "bootstrap"))
@settings(max_examples=10, deadline=None)
@given(a=st.floats(0.01, 100), b=st.floats(-100, 100))
def test_affine_biomarker_gives_the_same_bands_in_std_units(kind, a, b):
    # every part is standardized with the training mean and std, so a change
    # of units and origin of the biomarker moves only the rounding
    (cal, report), (cal_t, report_t) = untransformed(kind), calibrate_and_evaluate(
        affine(COHORT, a, b), kind)
    assert cal.finite
    assert (cal_t.n, cal_t.rank) == (cal.n, cal.rank)
    assert (report_t.mean_coverage, report_t.n_test) == (report.mean_coverage, report.n_test)
    assert cal_t.radius == pytest.approx(cal.radius, rel=1e-9)
    assert report_t.mean_width == pytest.approx(report.mean_width, rel=1e-9)
    assert report_t.per_time_width.keys() == report.per_time_width.keys()
    for year, width in report.per_time_width.items():
        assert report_t.per_time_width[year] == pytest.approx(width, rel=1e-9)


SITE = {"column": "site", "categories": ["a", "b", "c"], "probs": [0.4, 0.4, 0.2],
        "noise_multipliers": {"c": 2.0}}
N_RENAMED = 150
OUTPUTS = {"evaluate": ("report.json", "report.csv"),
           "risk": ("risk.csv", "threshold_free.csv")}


def run_commands(tmp, cohort, truth, kind):
    """Paths of the files that evaluate and risk write for cohort and truth."""
    doc = {"data": {"path": str(cohort), "truth_path": str(truth),
                    "feature_cols": ["f0", "f1", "f2", "f3"], "group_cols": ["site"]},
           "predictor": {"kind": kind}, "conformal": {"alpha": 0.2, "group_by": "site"},
           "evaluation": {"n_splits": 2, "test_frac": 0.3, "calib_frac": 0.4},
           "risk": {"bootstrap_B": 50}}
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(doc))
    for command in OUTPUTS:
        assert main([command, "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp / command)]) == 0
    return [tmp / command / name for command, names in OUTPUTS.items() for name in names]


@pytest.fixture(scope="module")
def renamed_baseline(tmp_path_factory):
    """The generated cohort's directory and, per kind, the bytes of its outputs."""
    tmp = tmp_path_factory.mktemp("renamed")
    (tmp / "gen.json").write_text(
        json.dumps({"synth": {"n_subjects": N_RENAMED, "group_spec": [SITE]}}))
    assert main(["generate", "--config", str(tmp / "gen.json"), "--seed", "0",
                 "--out", str(tmp / "gen")]) == 0
    gen = tmp / "gen"
    outputs = {}
    for kind in KIND_NAMES:
        (tmp / kind).mkdir()
        outputs[kind] = [p.read_bytes() for p in run_commands(
            tmp / kind, gen / "cohort.csv", gen / "truth.csv", kind)]
    return gen, outputs


def rename_ids(src, dst, new_id):
    """Copy the CSV at src to dst with its first column mapped through new_id."""
    with open(src, newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([new_id[row[0]], *row[1:]] for row in rows)


NEW_IDS = st.lists(st.text(string.ascii_letters + string.digits + "-_.", min_size=1,
                           max_size=6), min_size=N_RENAMED, max_size=N_RENAMED, unique=True)


@pytest.mark.parametrize("kind", KIND_NAMES)
@settings(max_examples=5, deadline=None)
@given(ids=NEW_IDS)
def test_renaming_subjects_in_sort_order_keeps_every_output(renamed_baseline, kind, ids):
    # the split permutes the subjects in subject_id order, so a renaming
    # that keeps that order must not move a single byte
    gen, outputs = renamed_baseline
    old = sorted(f"s{i:05d}" for i in range(N_RENAMED))
    new_id = dict(zip(old, sorted(ids)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rename_ids(gen / "cohort.csv", tmp / "cohort.csv", new_id)
        rename_ids(gen / "truth.csv", tmp / "truth.csv", new_id)
        paths = run_commands(tmp, tmp / "cohort.csv", tmp / "truth.csv", kind)
        for path, expected in zip(paths, outputs[kind]):
            assert path.read_bytes() == expected, path.name


# quantile is left out for the reason given above
@pytest.mark.parametrize("kind", ("gp", "bootstrap"))
def test_permuting_the_feature_columns_gives_the_same_bands(kind):
    # the columns and their names permuted together: the design columns are
    # scaled one by one and the predictors treat them alike, so only the
    # order of summation moves
    ds, perm = generate(SynthConfig(n_subjects=400, seed=7))[0], [2, 0, 3, 1]
    permuted = dataset_of([s._replace(features=s.features[perm]) for s in subjects_of(ds)],
                          [ds.feature_names[j] for j in perm], ds.group_columns)
    results = []
    for d in (ds, permuted):
        model, _, calib, test = fit_split(d, kind, 0.25, 0.4, seed=0)
        cal = calibrate(score_dataset(model, calib), 0.1)
        results.append((cal, bands_for_dataset(model, test, cal)))
    (cal, bands), (cal_p, bands_p) = results
    assert cal.finite and (cal_p.n, cal_p.rank) == (cal.n, cal.rank)
    assert cal_p.radius == pytest.approx(cal.radius, rel=1e-9, abs=0)
    assert bands_p.subject_ids == bands.subject_ids
    assert np.array_equal(bands_p.times, bands.times)
    np.testing.assert_allclose(bands_p.centers, bands.centers, rtol=1e-9, atol=0)
    np.testing.assert_allclose(bands_p.stds, bands.stds, rtol=1e-9, atol=0)
