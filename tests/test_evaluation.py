import math
from dataclasses import replace

import numpy as np
import pytest

from conftraj import evaluation
from conftraj.conformal import (PredictionBand, ScoreSet, bands_for_dataset, calibrate,
                                mondrian_calibrate, score_dataset)
from conftraj.data_model import _offsets, split, standardize
from conftraj.errors import ConfigurationError, DataError
from conftraj.evaluation import (MAX_SPLITS, coverage_and_width, evaluate_split, fit_split,
                                 run_protocol, stratified_compare,
                                 sweep_calibration_fraction)
from conftraj.predictors import fit_quantile, predict_batch, visit_rows
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests import reference
from tests.reference import band_rows, dataset_of, scored, subject, subjects_of, times_of


def dataset(subjects, groups=("dx",)):
    return dataset_of(subjects, ("f0", "f1"), groups)


def band_set(*bands):
    """The band set of the given (subject ID, times, centers, stds, radius)
    bands, in order."""
    times, centers, stds = ([row for b in bands for row in b[j]] for j in (1, 2, 3))
    return PredictionBand([b[0] for b in bands], _offsets([len(b[1]) for b in bands]),
                          times, centers, stds, [b[4] for b in bands])


def flat_band(sid, times, center, radius):
    return sid, times, [center] * len(times), [1.0] * len(times), radius


def test_coverage_fraction():
    subs, bands = [], []
    for i in range(10):
        y = 0.0 if i < 8 else 5.0       # last two fall outside
        subs.append(subject(f"s{i}", [(6, y)]))
        bands.append(flat_band(f"s{i}", [6], 0.0, 1.0))
    report = coverage_and_width(band_set(*bands), dataset(subs))
    assert report.mean_coverage == pytest.approx(0.8)
    assert report.n_test == 10


def test_mean_width_over_visits():
    s = subject("a", [(6, 0.0), (12, 0.0)])
    # columns given as lists are taken as arrays
    band = PredictionBand(["a"], [0, 2], [6, 12], [0.0, 0.0], [0.5, 1.5], [1.0])
    report = coverage_and_width(band, dataset([s]))
    assert report.mean_width == pytest.approx(2.0)   # (1 + 3) / 2


def test_boundary_counts_as_covered():
    s = subject("a", [(6, 1.0)])
    band = flat_band("a", [6], 0.0, 1.0)
    report = coverage_and_width(band_set(band), dataset([s]))
    assert report.mean_coverage == 1.0


def test_infinite_band_covers_but_no_width():
    s1 = subject("a", [(6, 100.0)])
    s2 = subject("b", [(6, 0.0)])
    inf_band = ("a", (6,), (0.0,), (1.0,), math.inf)
    report = coverage_and_width(band_set(inf_band, flat_band("b", [6], 0.0, 1.0)),
                                dataset([s1, s2]))
    assert report.mean_coverage == 1.0
    assert report.n_infinite_bands == 1
    assert report.mean_width == pytest.approx(2.0)


def test_missing_band_time_errors():
    s = subject("a", [(6, 0.0), (12, 0.0)])
    band = flat_band("a", [6], 0.0, 1.0)
    with pytest.raises(DataError, match="12"):
        coverage_and_width(band_set(band), dataset([s]))


def test_width_over_time_buckets():
    s = subject("a", [(3, 0.0), (12, 0.0), (13, 0.0), (30, 0.0)])
    band = flat_band("a", [3, 12, 13, 30], 0.0, 0.5)
    buckets = coverage_and_width(band_set(band), dataset([s])).per_time_width
    assert set(buckets) == {0, 1, 2}
    assert all(v == pytest.approx(1.0) for v in buckets.values())


def test_width_over_time_matches_grouping_oracle():
    rng = np.random.default_rng(0)
    subs, bands = [], []
    expected: dict = {}
    for i in range(100):
        times = sorted(rng.choice(np.arange(1, 60), size=3, replace=False))
        radii = rng.uniform(0.1, 2.0, size=3)
        subs.append(subject(f"s{i}", [(int(t), 0.0) for t in times]))
        bands.append((f"s{i}", [int(t) for t in times], (0.0, 0.0, 0.0), radii, 1.0))
        for t, r in zip(times, radii):
            expected.setdefault((t - 1) // 12, []).append(2 * r)
    buckets = coverage_and_width(band_set(*bands), dataset(subs)).per_time_width
    assert set(buckets) == set(expected)
    for b in expected:
        assert buckets[b] == pytest.approx(np.mean(expected[b]), abs=1e-12)


def cohort(n=400, seed=0, **kw):
    return generate(SynthConfig(n_subjects=n, seed=seed, **kw))[0]


def test_run_protocol_single_split_equals_report():
    ds = cohort(300, seed=1)
    msr = run_protocol(ds, "bootstrap", 0.1, n_splits=1, seed=5)
    r = msr.reports[0]
    assert msr.mean["coverage"] == pytest.approx(r.mean_coverage)
    assert msr.mean["width"] == pytest.approx(r.mean_width)


def test_run_protocol_deterministic():
    ds = cohort(250, seed=2)
    a = run_protocol(ds, "bootstrap", 0.1, n_splits=3, seed=9)
    b = run_protocol(ds, "bootstrap", 0.1, n_splits=3, seed=9)
    assert a.mean == b.mean and a.p95 == b.p95
    for ra, rb in zip(a.reports, b.reports):
        assert ra == rb


def test_run_protocol_aggregates_bounded_by_splits():
    ds = cohort(400, seed=3)
    msr = run_protocol(ds, "bootstrap", 0.1, n_splits=6, seed=4)
    for m in ("coverage", "width"):
        vals = np.asarray([r.metrics()[m] for r in msr.reports])
        assert vals.min() - 1e-12 <= msr.mean[m] <= vals.max() + 1e-12
        assert vals.min() - 1e-12 <= msr.p95[m] <= vals.max() + 1e-12
        assert 0.0 <= msr.deviation_p95[m] <= np.abs(vals - msr.mean[m]).max() + 1e-12


def test_run_protocol_width_nan_when_every_band_infinite():
    # 8 calibration subjects are fewer than the 9 that alpha 0.1 needs, so
    # every band is infinite and no split has a width; the aggregate is NaN
    # with no RuntimeWarning (pytest turns one into an error)
    msr = run_protocol(cohort(40, seed=1), "bootstrap", 0.1, n_splits=3, seed=0)
    assert all(r.n_infinite_bands == r.n_test for r in msr.reports)
    assert all(math.isnan(agg["width"]) for agg in (msr.mean, msr.p95, msr.deviation_p95))
    assert msr.mean["coverage"] == 1.0


def test_sweep_row_count_and_tiny_fraction():
    ds = cohort(300, seed=6)
    rows = sweep_calibration_fraction(ds, "bootstrap", 0.1,
                                      fracs=[0.01, 0.1, 0.2], seed=3)
    assert len(rows) == 3
    tiny = rows[0]
    # 0.01 of ~270 given subjects -> 2 calib subjects, rank 3 > 2 -> infinite
    assert tiny["n_infinite_bands"] > 0
    assert tiny["coverage"] == 1.0
    assert math.isnan(tiny["width"])


def test_stratified_single_group_identical():
    ds = cohort(300, seed=7,
                group_spec=(GroupSpec("dx", ("only",), (1.0,)),))
    res = stratified_compare(ds, "bootstrap", 0.1, "dx", seed=2)
    pop = res["population"].per_group["only"]
    grp = res["group_conditional"].per_group["only"]
    assert pop == grp


def test_stratified_group_n_sums_to_test():
    ds = cohort(400, seed=8,
                group_spec=(GroupSpec("dx", ("a", "b", "c"),
                                      (0.4, 0.4, 0.2)),))
    res = stratified_compare(ds, "bootstrap", 0.1, "dx", seed=1)
    report = res["population"]
    assert sum(g["n"] for g in report.per_group.values()) == report.n_test


def test_coverage_recomputable_by_brute_force():
    ds = cohort(200, seed=9)
    report, cal, model = evaluate_split(ds, "bootstrap", 0.1, 0.2, 0.3, 11)
    # brute force: rebuild bands subject by subject and recount
    idx = split(ds, 0.2, 0.3, 11)
    _, stats = standardize(ds.subset(idx.train))
    test_std, _ = standardize(ds.subset(idx.test), stats)
    covered, widths = 0, []
    subs = scored(subjects_of(test_std))
    for s in subs:
        centers, stds, R = reference.band(model, s, cal, times_of(s))
        ok = all(abs(y - mu) <= R * sd for (_, y), mu, sd in zip(s.visits, centers, stds))
        covered += ok
        widths.extend(2 * (R * sd) for sd in stds)
    assert report.mean_coverage == pytest.approx(covered / len(subs), abs=1e-12)
    assert report.mean_width == pytest.approx(np.mean(widths), abs=1e-12)


def test_subject_scoring_the_radius_is_covered():
    # A copy of the calibration subject whose score is R is covered by the
    # conformal rule.  Testing |y - mu| <= fl(R * sigma) instead reported
    # it uncovered on seeds 31 and 35.
    for seed in range(40):
        ds = cohort(200, seed=seed)
        idx = split(ds, 0.3, 0.4, seed)
        train, stats = standardize(ds.subset(idx.train))
        calib, _ = standardize(ds.subset(idx.calib), stats)
        model = fit_quantile(train, steps=100)
        scores = score_dataset(model, calib)
        cal = calibrate(scores, 0.1)
        tie = scores.subject_ids[scores.values.tolist().index(cal.radius)]
        (subj,) = [s for s in subjects_of(calib) if s.id == tie]
        test = dataset_of((subj._replace(id="copy"),), calib.feature_names,
                          calib.group_columns)
        report = coverage_and_width(bands_for_dataset(model, test, cal), test)
        assert report.mean_coverage == 1.0, seed


def test_baseline_band_z_width():
    # baseline mode: radius z_{0.95} * sigma at every test visit
    ds = cohort(150, seed=10)
    report, cal, model = evaluate_split(ds, "bootstrap", 0.1, 0.2, 0.2, 3,
                                        mode="baseline")
    assert cal is None
    _, _, _, test = fit_split(ds, "bootstrap", 0.2, 0.2, 3)
    _, stds = predict_batch(model, visit_rows(test, test.visit_counts), test.times)
    assert report.mean_width == pytest.approx(2 * 1.6448536269514722 * np.mean(stds),
                                              rel=1e-12)


class TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_run_protocol_lets_foreign_errors_through(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TwoArgError(7, "fit failed")
    monkeypatch.setattr(evaluation, "fit_predictor", broken_fit)
    with pytest.raises(TwoArgError, match="7: fit failed"):
        run_protocol(cohort(60, seed=1), "bootstrap", 0.1, n_splits=2, seed=0)


def test_run_protocol_names_split_of_package_errors(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise DataError("no rows")
    monkeypatch.setattr(evaluation, "fit_predictor", broken_fit)
    with pytest.raises(DataError, match="split 0: no rows"):
        run_protocol(cohort(60, seed=1), "bootstrap", 0.1, n_splits=2, seed=0)


@pytest.mark.parametrize("n_splits", [0, MAX_SPLITS + 1, 10 ** 12, 2.0, True])
def test_run_protocol_refuses_n_splits_before_drawing_seeds(n_splits):
    with pytest.raises(ConfigurationError,
                       match=rf"^n_splits must be an int in \[1, {MAX_SPLITS}\], got "):
        run_protocol(cohort(60, seed=1), "bootstrap", 0.1, n_splits=n_splits, seed=0)


@pytest.mark.parametrize("call", [
    lambda alpha: evaluate_split(None, "bootstrap", alpha, 0.1, 0.2, 0),
    lambda alpha: evaluate_split(None, "bootstrap", alpha, 0.1, 0.2, 0, mode="baseline"),
    lambda alpha: stratified_compare(None, "bootstrap", alpha, "site"),
], ids=["conformal", "baseline", "stratified_compare"])
def test_alpha_is_refused_before_fitting(call):
    # the baseline's normal quantile calibrates nothing, so alpha is checked
    # where it enters: no data is given, and none is read
    with pytest.raises(ConfigurationError, match=r"^alpha must be a number in \(0,1\), got 1\.5$"):
        call(1.5)


def reference_coverage_and_width(bands, test, grouping_column=None):
    """The per-subject reference's report of a band set, each band read from
    its rows, which must be the scored test subjects' at their visit times."""
    rows, subjects = band_rows(bands), subjects_of(test)
    assert [row[:2] for row in rows] == [(s.id, times_of(s)) for s in scored(subjects)]
    return reference.coverage_and_width([row[2:] for row in rows], subjects,
                                        grouping_column)


@pytest.mark.parametrize("case", ["finite", "some-infinite", "empty", "all-infinite",
                                  "group-infinite"])
def test_coverage_and_width_matches_per_subject_reference(case):
    calib_frac = 0.02 if case == "some-infinite" else 0.3
    ds = cohort(300, seed=12, group_spec=(GroupSpec("dx", ("a", "b", "c"),
                                                    (0.5, 0.3, 0.2)),))
    model, _, calib, test = fit_split(ds, "bootstrap", 0.3, calib_frac, 5)
    # trajectories of 1, 2 and all visits
    test = dataset_of([s._replace(visits=s.visits[:(1, 2, None)[i % 3]])
                       for i, s in enumerate(subjects_of(test))],
                      test.feature_names, test.group_columns)
    assert {1, 2} <= set(test.visit_counts.tolist())
    if case == "empty":
        test = dataset_of((), test.feature_names, test.group_columns)
    scores = score_dataset(model, calib)
    pop, grp = calibrate(scores, 0.1), mondrian_calibrate(calib, scores, "dx", 0.1)
    infinite = calibrate(ScoreSet((), ()), 0.1)
    if case == "all-infinite":
        pop = infinite
        grp = replace(grp, per_group={g: infinite for g in grp.per_group}, fallback=infinite)
    if case == "group-infinite":
        grp = replace(grp, per_group={**grp.per_group, "c": infinite})
    for cal, group_by in ((pop, None), (grp, "dx")):
        bands = bands_for_dataset(model, test, cal)
        got = coverage_and_width(bands, test, grouping_column=group_by)
        assert repr(got) == repr(reference_coverage_and_width(bands, test, group_by))
    assert calib_frac > 0.1 or got.n_infinite_bands > 0
    if case == "empty":
        assert got.n_test == 0 and got.per_group == {} and math.isnan(got.mean_coverage)
    if case == "all-infinite":
        assert got.n_infinite_bands == got.n_test > 0 and got.per_time_width == {}
        assert all(math.isnan(g["width"]) for g in got.per_group.values())
    if case == "group-infinite":
        assert math.isnan(got.per_group["c"]["width"]) and got.per_group["c"]["n"] > 0
        assert math.isfinite(got.mean_width)


@pytest.mark.parametrize("ids, times, error", [
    (("s0", "x1", "s2"), {}, "no band for test subject s1 at band 1"),        # other subjects
    (("s0", "s2", "s1"), {}, "no band for test subject s1 at band 1"),        # another order
    (("s0", "s1"), {}, "no band for test subject s2 at band 2"),
    (("s0", "s1", "s2", "s3"), {}, "band 3 is for s3, not a test subject"),
    (("s0", "s1", "s2"), {"s1": [6, 18]},                                     # other times
     r"band for s1 is at times \[6, 18\], not at its visit times \[6, 12\]"),
    (("s0", "s1", "s2"), {"s2": [6]}, r"band for s2 is at times \[6\]"),
])
def test_coverage_and_width_names_the_first_subject_whose_band_differs(ids, times, error):
    test = dataset([subject(f"s{i}", [(6, 0.0), (12, 0.0)]) for i in range(3)])
    right = band_set(*(flat_band(f"s{i}", [6, 12], 0.0, 1.0) for i in range(3)))
    assert coverage_and_width(right, test).mean_coverage == 1.0
    wrong = band_set(*(flat_band(sid, times.get(sid, [6, 12]), 0.0, 1.0) for sid in ids))
    with pytest.raises(DataError, match=f"^{error}"):
        coverage_and_width(wrong, test)
