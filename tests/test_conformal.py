import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftraj.conformal import (CalibrationResult, GroupCalibration,
                                NonconformityScore, band_for_subject,
                                bands_for_dataset, calibrate,
                                mondrian_calibrate, score_dataset)
from conftraj.data_model import Dataset, SubjectRecord
from conftraj.errors import ConfigurationError, DataError
from conftraj.predictors import (InputScaler, QuantileModel, fit_bootstrap,
                                 predict_batch)
from tests.test_predictors import multi_visit_dataset


def scores_of(values):
    return [NonconformityScore(f"s{i}", v) for i, v in enumerate(values)]


def subject(sid, visits, group="g", baseline=0.0):
    return SubjectRecord(sid, np.zeros(2), {"dx": group}, baseline, tuple(visits))


def constant_model(mean, std):
    """Quantile model with bias-only weights and z = 1: every query on a
    2-feature subject predicts exactly (mean, std)."""
    W = np.zeros((3, 5))
    W[:, -1] = (mean - std, mean, mean + std)
    return QuantileModel(InputScaler(np.zeros(4), np.ones(4)), (0.1, 0.5, 0.9), W, 1.0)


def score_of(model, s):
    (score,) = score_dataset(model, Dataset((s,), ("f0", "f1"), ("dx",)))
    return score.value


# ---------------------------------------------------------------------------
# score_dataset by hand

def test_score_hand_computation():
    s = subject("a", [(6, 1.5), (12, 2.0)])
    # prediction (1.0, 0.5): residuals {0.5, 1.0} -> ratios {1, 2}
    assert score_of(constant_model(1.0, 0.5), s) == pytest.approx(2.0)


def test_score_perfect_predictions():
    s = subject("a", [(6, 1.0), (12, 1.0)])
    assert score_of(constant_model(1.0, 0.5), s) == 0.0


def test_score_single_visit():
    s = subject("a", [(6, 1.5)])
    assert score_of(constant_model(1.0, 0.25), s) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_rank_by_hand():
    cal = calibrate(scores_of([0.8, 0.5, 2.0, 1.2]), alpha=0.5)
    assert cal.rank == 3
    assert cal.radius == pytest.approx(1.2)


def test_calibrate_infinite_when_rank_exceeds_n():
    cal = calibrate(scores_of([0.1, 0.2, 0.3, 0.4]), alpha=0.1)
    assert cal.rank == 5
    assert cal.radius == math.inf
    assert not cal.finite


def test_calibrate_500_full_sort_oracle():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=500)
    cal = calibrate(scores_of(values), alpha=0.1)
    assert cal.rank == 451
    assert cal.radius == pytest.approx(np.sort(values)[450])


def test_calibrate_alpha_out_of_range():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError):
            calibrate(scores_of([1.0]), alpha)


def test_calibrate_empty_scores():
    cal = calibrate([], alpha=0.1)
    assert cal.radius == math.inf


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
       st.floats(0.01, 0.5))
def test_calibrate_matches_sort_oracle(values, alpha):
    cal = calibrate(scores_of(values), alpha)
    n = len(values)
    rank = math.ceil((n + 1) * (1 - alpha))
    expected = sorted(values)[rank - 1] if rank <= n else math.inf
    assert cal.radius == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=5, max_size=50),
       st.integers(0, 1000))
def test_calibrate_permutation_invariant(values, seed):
    rng = np.random.default_rng(seed)
    perm = list(rng.permutation(len(values)))
    a = calibrate(scores_of(values), 0.2)
    b = calibrate(scores_of([values[i] for i in perm]), 0.2)
    assert a.radius == b.radius


def test_calibrate_monotone_in_alpha():
    rng = np.random.default_rng(1)
    values = list(rng.exponential(size=80))
    radii = [calibrate(scores_of(values), a).radius
             for a in (0.05, 0.1, 0.2, 0.4)]
    assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# bands

def fitted_model():
    return fit_bootstrap(multi_visit_dataset(20, seed=1, noise=0.1), B=5, seed=0)


def test_build_band_arithmetic():
    # R = 2: the interval is mu -/+ 2 sigma at the subject's input row
    m = fitted_model()
    cal = CalibrationResult((2.0,), 0.5, 1, 2.0)
    band = band_for_subject(m, subject("x", []), cal, [6])
    lo = band.center_at(6) - band.radius_at(6)
    hi = band.center_at(6) + band.radius_at(6)
    means, stds = predict_batch(m, np.zeros((1, 3)), [6])
    assert lo == pytest.approx(means[0] - 2 * stds[0])
    assert hi == pytest.approx(means[0] + 2 * stds[0])


def test_build_band_zero_radius():
    m = fitted_model()
    cal = CalibrationResult((0.0,), 0.5, 1, 0.0)
    band = band_for_subject(m, subject("x", []), cal, [6, 12])
    assert band.finite
    assert band.radii == (0.0, 0.0)


def test_build_band_infinite():
    m = fitted_model()
    cal = calibrate([], 0.1)
    band = band_for_subject(m, subject("x", []), cal, [6])
    assert not band.finite
    assert band.radius_at(6) == math.inf


def test_build_band_empty_times_errors():
    with pytest.raises(DataError):
        band_for_subject(fitted_model(), subject("x", []),
                         calibrate(scores_of([1.0]), 0.5), [])


# ---------------------------------------------------------------------------
# Mondrian

def calib_dataset(groups):
    subjects = [subject(f"s{i}", [(6, 0.0)], group=g)
                for i, g in enumerate(groups)]
    return Dataset(tuple(subjects), ("f0", "f1"), ("dx",))


def test_mondrian_two_groups():
    rng = np.random.default_rng(2)
    groups = ["a"] * 9 + ["b"] * 9
    ds = calib_dataset(groups)
    values = list(rng.exponential(size=18))
    scores = [NonconformityScore(f"s{i}", v) for i, v in enumerate(values)]
    gcal = mondrian_calibrate(ds, scores, "dx", alpha=0.5)
    for g, idxs in (("a", range(9)), ("b", range(9, 18))):
        cal = gcal.per_group[g]
        assert cal.rank == 5
        assert cal.radius == pytest.approx(sorted(values[i] for i in idxs)[4])


def test_mondrian_small_group_infinite():
    ds = calib_dataset(["a"] * 3)
    scores = scores_of([0.1, 0.2, 0.3])
    gcal = mondrian_calibrate(ds, scores, "dx", alpha=0.1)
    assert gcal.per_group["a"].radius == math.inf


def test_mondrian_multiset_union():
    rng = np.random.default_rng(3)
    groups = list(rng.choice(["a", "b", "c"], size=40))
    ds = calib_dataset(groups)
    values = list(rng.exponential(size=40))
    scores = [NonconformityScore(f"s{i}", v) for i, v in enumerate(values)]
    gcal = mondrian_calibrate(ds, scores, "dx", alpha=0.2)
    merged = sorted(v for cal in gcal.per_group.values() for v in cal.scores_sorted)
    assert merged == sorted(values)
    assert list(gcal.fallback.scores_sorted) == sorted(values)


def test_mondrian_missing_label_errors():
    s = SubjectRecord("s0", np.zeros(2), {}, 0.0, ((6, 0.0),))
    ds = Dataset((s,), ("f0", "f1"), ())
    with pytest.raises(DataError, match="s0"):
        mondrian_calibrate(ds, scores_of([1.0]), "dx", 0.5)


def test_band_for_subject_dispatch():
    m = fitted_model()
    cal_a = CalibrationResult((1.0,), 0.5, 1, 1.0)
    cal_b = CalibrationResult((3.0,), 0.5, 1, 3.0)
    gcal = GroupCalibration("dx", {"a": cal_a, "b": cal_b}, cal_a)
    s = subject("x", [(6, 0.0)], group="b")
    band = band_for_subject(m, s, gcal, [6])
    pop = band_for_subject(m, s, cal_b, [6])
    assert band.radii == pop.radii
    # the group radius times the predicted std at the subject's input row
    _, stds = predict_batch(m, np.zeros((1, 3)), [6])
    assert band.radii == (3.0 * float(stds[0]),)


def test_band_for_subject_unseen_category_fallback(caplog):
    m = fitted_model()
    cal = CalibrationResult((1.0,), 0.5, 1, 1.0)
    gcal = GroupCalibration("dx", {"a": cal}, cal)
    s = subject("x", [(6, 0.0)], group="other")
    band = band_for_subject(m, s, gcal, [6])
    assert band.finite
    # a batch logs one warning with the count and labels, not one per subject
    ds = Dataset(tuple(subject(f"s{i}", [(6, 0.0)], group=g)
                       for i, g in enumerate(["a", "b", "c", "b"])),
                 ("f0", "f1"), ("dx",))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="conftraj.conformal"):
        bands = bands_for_dataset(m, ds, gcal)
    assert all(b.finite for b in bands)
    assert len(caplog.records) == 1
    assert "3 subject(s)" in caplog.text and "['b', 'c']" in caplog.text


def test_single_group_degenerates_to_population():
    ds = multi_visit_dataset(30, seed=5, noise=0.2)
    # give every subject the same label
    subjects = tuple(
        SubjectRecord(s.subject_id, s.features, {"dx": "only"}, s.baseline_value,
                      s.visits) for s in ds.subjects)
    ds = Dataset(subjects, ds.feature_names, ("dx",))
    m = fit_bootstrap(ds, B=5, seed=0)
    scores = score_dataset(m, ds)
    pop = calibrate(scores, 0.2)
    gcal = mondrian_calibrate(ds, scores, "dx", 0.2)
    assert gcal.per_group["only"].radius == pop.radius
    bands_pop = bands_for_dataset(m, ds, pop)
    bands_grp = bands_for_dataset(m, ds, gcal)
    for a, b in zip(bands_pop, bands_grp):
        assert a.radii == b.radii


def test_band_endpoints_invariant_under_sigma_rescaling():
    # scaling every predictive std by c rescales scores by 1/c and R by c,
    # leaving R * sigma unchanged
    ds = multi_visit_dataset(25, seed=7, noise=0.2)
    m1 = fit_bootstrap(ds, B=6, seed=0, std_scale=1.0)
    m2 = fit_bootstrap(ds, B=6, seed=0, std_scale=2.5)
    cal1 = calibrate(score_dataset(m1, ds), 0.2)
    cal2 = calibrate(score_dataset(m2, ds), 0.2)
    assert cal2.radius == pytest.approx(cal1.radius / 2.5, rel=1e-9)
    b1 = bands_for_dataset(m1, ds, cal1)
    b2 = bands_for_dataset(m2, ds, cal2)
    for a, b in zip(b1, b2):
        assert np.allclose(a.radii, b.radii, rtol=1e-9)
