"""The per-subject record view, and only it: Dataset.subjects and
scored_subjects, ScoreSet iteration, and band_for_subject with its
center_at, radius_at and finite.  bench/run.py reads these; every other
test reads the columns, with tests/reference.py as its per-subject oracle.
This module goes with the view."""

import logging
from dataclasses import replace

import numpy as np
import pytest

from conftraj.conformal import (CalibrationResult, GroupCalibration, NonconformityScore,
                                ScoreSet, _make_bands, band_for_subject, bands_for_dataset,
                                calibrate, mondrian_calibrate, score_dataset)
from conftraj.data_model import SubjectRecord
from conftraj.errors import DataError
from conftraj.predictors import fit_bootstrap, predict_batch, visit_rows
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests.reference import dataset_of, multi_visit_dataset, subject, subjects_of


def record_of(s):
    """The SubjectRecord of a reference Subject."""
    return SubjectRecord(s.id, s.features, s.labels, s.baseline, s.visits)


def test_records_are_the_columns():
    # subjects with and without visits, two group columns
    sites = GroupSpec("site", ("a", "b"), (0.5, 0.5))
    ds = generate(SynthConfig(n_subjects=60, seed=3, group_spec=(sites,)))[0]
    ds = dataset_of([s._replace(labels={**s.labels, "dx": "xy"[i % 2]},
                                visits=s.visits if i % 3 else ())
                     for i, s in enumerate(subjects_of(ds))], ds.feature_names, ("site", "dx"))
    subjects = subjects_of(ds)
    records = ds.subjects
    assert len(records) == len(subjects)
    for got, s in zip(records, subjects):
        assert (got.subject_id, got.group_labels, got.baseline_value, got.visits) == \
            (s.id, s.labels, s.baseline, s.visits)
        assert got.features.tobytes() == s.features.tobytes()
        assert got.visit_times == [t for t, _ in s.visits]
    assert [r.subject_id for r in ds.scored_subjects()] == [s.id for s in subjects if s.visits]


def test_a_write_into_a_record_reaches_no_later_record():
    # the records are built on each access, so a write into one's plain
    # group_labels dict lands in a throwaway record
    ds = dataset_of([subject("s0", [(6, 1.0)], group="F")], ("f0", "f1"), ("dx",))
    ds.subjects[0].group_labels["dx"] = "M"
    assert ds.subjects[0].group_labels == {"dx": "F"}
    codes, categories = ds.group("dx")
    assert categories[codes[0]] == "F"


def test_score_set_iterates_as_records():
    assert list(ScoreSet(("a", "b"), [0.5, 0.0])) == [NonconformityScore("a", 0.5),
                                                      NonconformityScore("b", 0.0)]
    ds = multi_visit_dataset(12, seed=2, noise=0.3)
    scores = score_dataset(fit_bootstrap(ds, B=4, seed=0), ds)
    assert [(s.subject_id, s.value) for s in scores] == \
        list(zip(scores.subject_ids, scores.values.tolist()))


# ---------------------------------------------------------------------------
# band_for_subject

def fitted_model():
    return fit_bootstrap(multi_visit_dataset(20, seed=1, noise=0.1), B=5, seed=0)


def radii(band):
    """R * sigma at each of a one-subject band's times."""
    return tuple(band.radius_at(t) for t in band.times)


def test_band_for_subject_arithmetic():
    # R = 2: the interval is mu -/+ 2 sigma at the subject's input row; R = 0
    # and an infinite R
    m = fitted_model()
    band = band_for_subject(m, record_of(subject("x", [])), CalibrationResult(1, 0.5, 1, 2.0),
                            [6])
    means, stds = predict_batch(m, np.zeros((1, 3)), [6])
    assert band.center_at(6) - band.radius_at(6) == pytest.approx(means[0] - 2 * stds[0])
    assert band.center_at(6) + band.radius_at(6) == pytest.approx(means[0] + 2 * stds[0])
    band = band_for_subject(m, record_of(subject("x", [])), CalibrationResult(1, 0.5, 1, 0.0),
                            [6, 12])
    assert band.finite and radii(band) == (0.0, 0.0)
    band = band_for_subject(m, record_of(subject("x", [])),
                            calibrate(ScoreSet((), ()), 0.1), [6])
    assert not band.finite and band.radius_at(6) == np.inf


def test_band_time_lookup_names_a_time_the_band_lacks():
    cal = CalibrationResult(1, 0.5, 1, 1.0)
    band = band_for_subject(fitted_model(), record_of(subject("x", [])), cal, [6, 12])
    for lookup in (band.center_at, band.radius_at):
        with pytest.raises(DataError, match=r"^time 7 is not one of the band's times \[6, 12\]"):
            lookup(7)
    two = bands_for_dataset(fitted_model(), dataset_of(
        [subject(sid, [(6, 0.0)]) for sid in "ab"], ("f0", "f1"), ("dx",)), cal)
    with pytest.raises(DataError, match="one-subject band set, not 2"):
        two.center_at(6)


def test_build_band_empty_times_errors():
    with pytest.raises(DataError):
        band_for_subject(fitted_model(), record_of(subject("x", [])),
                         CalibrationResult(1, 0.5, 1, 1.0), [])


def test_band_for_subject_dispatch():
    m = fitted_model()
    cal_a = CalibrationResult(1, 0.5, 1, 1.0)
    cal_b = CalibrationResult(1, 0.5, 1, 3.0)
    gcal = GroupCalibration("dx", {"a": cal_a, "b": cal_b}, cal_a)
    s = record_of(subject("x", [(6, 0.0)], group="b"))
    band = band_for_subject(m, s, gcal, [6])
    assert radii(band) == radii(band_for_subject(m, s, cal_b, [6]))
    # the group radius times the predicted std at the subject's input row
    _, stds = predict_batch(m, np.zeros((1, 3)), [6])
    assert radii(band) == (3.0 * float(stds[0]),)
    # a category calibration lacks takes the fallback
    other = band_for_subject(m, record_of(subject("x", [(6, 0.0)], group="other")), gcal, [6])
    assert other.finite and radii(other) == (1.0 * float(stds[0]),)


KIND_NAMES = ("bootstrap", "quantile", "gp")


@pytest.mark.parametrize("kind,calibration", [
    *(pytest.param(kind, "population", id=kind) for kind in KIND_NAMES),
    *((kind, c) for c in ("category left out", "column absent") for kind in KIND_NAMES)])
def test_band_for_subject_is_the_batched_band(fitted_cohort, kind, calibration, caplog):
    # at each subject's last visit, with the batch's radius, and a warning
    # per call about a category calibration lacks; a linear predictor's row
    # is bit-identical whatever else is in its batch, a GP's within 1e-9
    ds, models = fitted_cohort
    model = models[kind]
    ds = replace(ds, group_codes=(np.arange(len(ds)) % 3)[:, None],
                 group_categories=(("a", "b", "c"),), group_columns=("site",))
    same = np.array_equal if kind != "gp" else \
        (lambda a, b: np.allclose(a, b, rtol=0, atol=1e-9))
    scores = score_dataset(model, ds)
    cal = calibrate(scores, 0.1)
    if calibration != "population":
        groups = mondrian_calibrate(ds, scores, "site", 0.1).per_group
        cal = (GroupCalibration("site", {g: c for g, c in groups.items() if g != "c"}, cal)
               if calibration == "category left out" else GroupCalibration("clinic", groups, cal))
    label = "'c'" if calibration == "category left out" else "None"
    subjects = ds.scored_subjects()
    last, tN = ds.visit_counts > 0, np.array([s.visit_times[-1] for s in subjects])
    batched = _make_bands(ds, last, tN, predict_batch(model, visit_rows(ds, last), tN), cal)
    caplog.set_level(logging.WARNING, logger="conftraj.conformal")
    for k, s in enumerate(subjects):
        caplog.clear()
        alone = band_for_subject(model, s, cal, [s.visit_times[-1]])
        unseen = calibration != "population" and \
            s.group_labels.get(cal.grouping_column) not in cal.per_group
        assert [r.getMessage() for r in caplog.records] == (
            [f"1 subject(s) with {cal.grouping_column!r} categories unseen in "
             f"calibration [{label}]: using the population radius"] if unseen else [])
        assert (alone.subject_ids, alone.offsets.tolist(), alone.times.tolist(),
                alone.radii.tolist()) == ((batched.subject_ids[k],), [0, 1], [tN[k]],
                                          batched.radii[k:k + 1].tolist())
        assert same(alone.centers, batched.centers[k:k + 1])
        assert same(alone.stds, batched.stds[k:k + 1])
