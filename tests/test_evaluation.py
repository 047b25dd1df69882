import math
from dataclasses import replace

import numpy as np
import pytest

from conftraj import evaluation
from conftraj.conformal import (PredictionBand, bands_for_dataset, calibrate,
                                score_dataset)
from conftraj.data_model import Dataset, SubjectRecord, split, standardize
from conftraj.errors import DataError
from conftraj.evaluation import (coverage_and_width, evaluate_split, fit_split,
                                 run_protocol, stratified_compare,
                                 sweep_calibration_fraction)
from conftraj.predictors import fit_quantile, predict_batch, subject_row
from conftraj.synth import GroupSpec, SynthConfig, generate


def subject(sid, visits, group="g"):
    return SubjectRecord(sid, np.zeros(1), {"dx": group}, 0.0, tuple(visits))


def dataset(subjects, groups=("dx",)):
    return Dataset(tuple(subjects), ("f0",), tuple(groups))


def flat_band(sid, times, center, radius):
    return PredictionBand(sid, tuple(times), tuple(center for _ in times),
                          stds=tuple(1.0 for _ in times), radius=radius)


def test_coverage_fraction():
    subs, bands = [], []
    for i in range(10):
        y = 0.0 if i < 8 else 5.0       # last two fall outside
        subs.append(subject(f"s{i}", [(6, y)]))
        bands.append(flat_band(f"s{i}", [6], 0.0, 1.0))
    report = coverage_and_width(bands, dataset(subs))
    assert report.mean_coverage == pytest.approx(0.8)
    assert report.n_test == 10


def test_mean_width_over_visits():
    s = subject("a", [(6, 0.0), (12, 0.0)])
    band = PredictionBand("a", (6, 12), (0.0, 0.0), stds=(0.5, 1.5), radius=1.0)
    report = coverage_and_width([band], dataset([s]))
    assert report.mean_width == pytest.approx(2.0)   # (1 + 3) / 2


def test_boundary_counts_as_covered():
    s = subject("a", [(6, 1.0)])
    band = flat_band("a", [6], 0.0, 1.0)
    report = coverage_and_width([band], dataset([s]))
    assert report.mean_coverage == 1.0


def test_infinite_band_covers_but_no_width():
    s1 = subject("a", [(6, 100.0)])
    s2 = subject("b", [(6, 0.0)])
    inf_band = PredictionBand("a", (6,), (0.0,), stds=(1.0,), radius=math.inf)
    report = coverage_and_width([inf_band, flat_band("b", [6], 0.0, 1.0)],
                                dataset([s1, s2]))
    assert report.mean_coverage == 1.0
    assert report.n_infinite_bands == 1
    assert report.mean_width == pytest.approx(2.0)


def test_missing_band_time_errors():
    s = subject("a", [(6, 0.0), (12, 0.0)])
    band = flat_band("a", [6], 0.0, 1.0)
    with pytest.raises(DataError, match="12"):
        coverage_and_width([band], dataset([s]))


def test_width_over_time_buckets():
    s = subject("a", [(3, 0.0), (12, 0.0), (13, 0.0), (30, 0.0)])
    band = flat_band("a", [3, 12, 13, 30], 0.0, 0.5)
    buckets = coverage_and_width([band], dataset([s])).per_time_width
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
        bands.append(PredictionBand(f"s{i}", tuple(int(t) for t in times),
                                    (0.0, 0.0, 0.0), stds=tuple(radii), radius=1.0))
        for t, r in zip(times, radii):
            expected.setdefault((t - 1) // 12, []).append(2 * r)
    buckets = coverage_and_width(bands, dataset(subs)).per_time_width
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
    from conftraj.conformal import band_for_subject
    from conftraj.data_model import split, standardize
    idx = split(ds, 0.2, 0.3, 11)
    _, stats = standardize(ds.subset(idx.train))
    test_std, _ = standardize(ds.subset(idx.test), stats)
    covered, widths = 0, []
    subs = test_std.scored_subjects()
    for s in subs:
        band = band_for_subject(model, s, cal, s.visit_times)
        ok = all(abs(y - band.center_at(t)) <= band.radius_at(t)
                 for t, y in s.visits)
        covered += ok
        widths.extend(2 * band.radius_at(t) for t, _ in s.visits)
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
        tie = next(sc.subject_id for sc in scores if sc.value == cal.radius)
        (subj,) = [s for s in calib.subjects if s.subject_id == tie]
        test = Dataset((replace(subj, subject_id="copy"),), calib.feature_names,
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
    X = [subject_row(s) for s in test.scored_subjects() for _ in s.visits]
    ts = [t for s in test.scored_subjects() for t in s.visit_times]
    _, stds = predict_batch(model, X, ts)
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
