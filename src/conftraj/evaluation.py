"""Coverage / interval-width evaluation protocol.

A test subject is covered when its worst normalized residual, the score
that calibration ranks, is at most the band's radius R: every visit lies
in its closed interval mu +/- R * sigma.  Widths 2 * R * sigma are averaged
over finite-band (subject, visit) pairs; infinite bands count toward
coverage but are excluded from width statistics with a reported count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .conformal import (CalibrationResult, bands_for_dataset, calibrate,
                        mondrian_calibrate, score_dataset, worst_residuals)
from .data_model import Dataset, _first_difference, _offsets, split, standardize
from .errors import ConfigurationError, ConftrajError, DataError, is_int
from .predictors import fit_predictor

BUCKET_MONTHS = 12          # per_time_width buckets are follow-up years
# every split refits the predictor and keeps its EvalReport, which report.json
# and report.csv write out in full
MAX_SPLITS = 10**4


@dataclass(frozen=True)
class EvalReport:
    mean_coverage: float
    mean_width: float
    n_test: int
    n_infinite_bands: int
    per_time_width: dict
    per_group: dict | None = None

    def metrics(self):
        return {"coverage": self.mean_coverage, "width": self.mean_width}


@dataclass(frozen=True)
class MultiSplitReport:
    reports: tuple
    mean: dict
    p95: dict
    deviation_p95: dict


def _means_by_key(keys, values):
    """{key: mean of its values, in their order} for each distinct int key, ascending."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    means = map(np.mean, np.split(values[order], starts[1:]))
    return dict(zip(distinct.tolist(), map(float, means)))


def coverage_and_width(bands, test: Dataset,
                       grouping_column: str | None = None) -> EvalReport:
    """Evaluate a band set that holds each scored test subject's band at its
    visit times, subjects in test order.

    per_time_width maps each follow-up year floor((t-1)/12) to the mean
    finite-band width there; empty years are omitted.
    """
    scored = np.flatnonzero(test.visit_counts)
    counts = test.visit_counts[scored]
    ids = tuple(test.subject_ids[i] for i in scored.tolist())
    if bands.subject_ids != ids:
        k = _first_difference(ids, bands.subject_ids)
        raise DataError(f"no band for test subject {ids[k]} at band {k}" if k < len(ids)
                        else f"band {k} is for {bands.subject_ids[k]}, not a test subject")
    bounds = _offsets(counts)
    if not (np.array_equal(bands.offsets, bounds) and np.array_equal(bands.times, test.times)):
        got, want = np.split(bands.times, bands.offsets[1:-1]), np.split(test.times, bounds[1:-1])
        k = next(k for k in range(len(ids)) if not np.array_equal(got[k], want[k]))
        raise DataError(f"band for {ids[k]} is at times {got[k].tolist()}, "
                        f"not at its visit times {want[k].tolist()}")
    covered = worst_residuals(test.values, bands.centers, bands.stds, bounds) <= bands.radii
    rows = np.repeat(np.isfinite(bands.radii), counts)      # visit rows of finite bands
    widths = 2.0 * (np.repeat(bands.radii, counts)[rows] * bands.stds[rows])
    times = test.times[rows]
    per_group = None
    if grouping_column is not None:
        codes, categories = test.group(grouping_column)
        codes = codes[scored]
        present, first, sizes = np.unique(codes, return_index=True, return_counts=True)
        by_first = np.argsort(first)                    # groups in order of first subject
        coverage = _means_by_key(codes, covered)
        width = _means_by_key(np.repeat(codes, counts)[rows], widths)
        per_group = {categories[c]: {"coverage": coverage[c], "width": width.get(c, math.nan),
                                     "n": n}
                     for c, n in zip(present[by_first].tolist(), sizes[by_first].tolist())}
    return EvalReport(
        mean_coverage=int(covered.sum()) / len(scored) if len(scored) else math.nan,
        mean_width=float(np.mean(widths)) if len(widths) else math.nan,
        n_test=len(scored),
        n_infinite_bands=int(np.sum(~np.isfinite(bands.radii))),
        per_time_width=_means_by_key((times - 1) // BUCKET_MONTHS, widths),
        per_group=per_group)


def fit_split(ds: Dataset, kind: str, test_frac: float, calib_frac: float,
              seed: int, predictor_opts: dict | None = None):
    """Split, standardize every part with the training scale, and fit.

    Returns (model, standardization stats, calibration set, test set).
    """
    idx = split(ds, test_frac, calib_frac, seed)
    train_std, stats = standardize(ds.subset(idx.train))
    calib_std, _ = standardize(ds.subset(idx.calib), stats)
    test_std, _ = standardize(ds.subset(idx.test), stats)
    model = fit_predictor(kind, train_std, seed=seed, **(predictor_opts or {}))
    return model, stats, calib_std, test_std


def calibrate_groups(calib: Dataset, scores, alpha: float,
                     group_by: str | None = None):
    """Mondrian calibration on group_by when it is given, else population."""
    if group_by is None:
        return calibrate(scores, alpha)
    return mondrian_calibrate(calib, scores, group_by, alpha)


def evaluate_split(ds: Dataset, predictor_kind: str, alpha: float,
                   test_frac: float, calib_frac: float, seed: int,
                   group_by: str | None = None, mode: str = "conformal",
                   predictor_opts: dict | None = None):
    """Run one standardize / fit / calibrate / evaluate pass.

    mode "conformal" gives calibrated bands mu +/- R * sigma; mode
    "baseline" gives the non-conformal comparison mu +/- z_{1-alpha/2} *
    sigma.  Returns (EvalReport, calibration or None, fitted model).
    """
    if mode not in ("conformal", "baseline"):
        raise ConfigurationError(f"unknown evaluation mode {mode!r}")
    model, _, calib_std, test_std = fit_split(ds, predictor_kind, test_frac,
                                              calib_frac, seed, predictor_opts)
    cal = None
    if mode == "conformal":
        cal = calibrate_groups(calib_std, score_dataset(model, calib_std), alpha,
                               group_by)
        bands = bands_for_dataset(model, test_std, cal)
    else:       # no calibration scores: the radius is the normal quantile
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        bands = bands_for_dataset(model, test_std, CalibrationResult(0, alpha, 0, z))
    report = coverage_and_width(bands, test_std, grouping_column=group_by)
    return report, cal, model


def run_protocol(ds: Dataset, predictor_kind: str, alpha: float,
                 n_splits: int = 10, test_frac: float = 0.10,
                 calib_frac: float = 0.20, seed: int = 0,
                 group_by: str | None = None, mode: str = "conformal",
                 predictor_opts: dict | None = None) -> MultiSplitReport:
    """Multi-split evaluation with mean and 95th-percentile aggregation."""
    if not (is_int(n_splits) and 1 <= n_splits <= MAX_SPLITS):
        raise ConfigurationError(
            f"n_splits must be an int in [1, {MAX_SPLITS}], got {n_splits!r}")
    rng = np.random.default_rng(seed)
    split_seeds = rng.integers(0, 2 ** 31 - 1, size=n_splits)
    reports = []
    for k, s in enumerate(split_seeds):
        try:
            report, _, _ = evaluate_split(ds, predictor_kind, alpha, test_frac,
                                          calib_frac, int(s), group_by, mode,
                                          predictor_opts)
        except ConftrajError as exc:
            raise type(exc)(f"split {k}: {exc}") from exc
        reports.append(report)

    mean, p95, dev = {}, {}, {}
    for m in ("coverage", "width"):
        v = np.asarray([r.metrics()[m] for r in reports])
        if np.isnan(v).all():       # e.g. the width when every band is infinite
            mean[m] = p95[m] = dev[m] = math.nan
            continue
        mean[m] = float(np.nanmean(v))
        p95[m] = float(np.nanpercentile(v, 95))
        dev[m] = float(np.nanpercentile(np.abs(v - mean[m]), 95))
    return MultiSplitReport(tuple(reports), mean, p95, dev)


def sweep_calibration_fraction(ds: Dataset, predictor_kind: str, alpha: float,
                               fracs=None, seed: int = 0, test_frac: float = 0.10,
                               predictor_opts: dict | None = None):
    """Coverage / width per calibration fraction on a fixed validation split."""
    if fracs is None:
        fracs = [0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    rows = []
    for frac in fracs:
        report, _, _ = evaluate_split(ds, predictor_kind, alpha, test_frac, frac,
                                      seed, predictor_opts=predictor_opts)
        rows.append({"calib_frac": frac, "coverage": report.mean_coverage,
                     "width": report.mean_width,
                     "n_infinite_bands": report.n_infinite_bands})
    return rows


def stratified_compare(ds: Dataset, predictor_kind: str, alpha: float,
                       grouping_column: str, seed: int = 0,
                       test_frac: float = 0.10, calib_frac: float = 0.20,
                       predictor_opts: dict | None = None):
    """Population vs Mondrian calibration from the same fitted model,
    evaluated per test group."""
    model, _, calib_std, test_std = fit_split(ds, predictor_kind, test_frac,
                                              calib_frac, seed, predictor_opts)
    scores = score_dataset(model, calib_std)
    pop_cal = calibrate(scores, alpha)
    grp_cal = mondrian_calibrate(calib_std, scores, grouping_column, alpha)

    return {name: coverage_and_width(bands_for_dataset(model, test_std, cal), test_std,
                                     grouping_column=grouping_column)
            for name, cal in (("population", pop_cal), ("group_conditional", grp_cal))}
