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

from .conformal import (_make_bands, bands_for_dataset, calibrate,
                        mondrian_calibrate, score_dataset, worst_residual)
from .data_model import Dataset, split, standardize
from .errors import ConfigurationError, ConftrajError, DataError
from .predictors import fit_predictor

BUCKET_MONTHS = 12          # per_time_width buckets are follow-up years


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


def coverage_and_width(bands, test: Dataset,
                       grouping_column: str | None = None) -> EvalReport:
    """Evaluate one band per test subject at that subject's visit times.

    per_time_width maps each follow-up year floor((t-1)/12) to the mean
    finite-band width there; empty years are omitted.
    """
    subjects = test.scored_subjects()
    by_id = {b.subject_id: b for b in bands}
    covered, n_inf, widths = 0, 0, []
    bucket_widths: dict = {}
    group_stats: dict = {}      # group label -> (coverage flags, widths)
    for s in subjects:
        band = by_id.get(s.subject_id)
        if band is None:
            raise DataError(f"no band for test subject {s.subject_id}")
        if list(band.times) != s.visit_times:
            raise DataError(f"band for {s.subject_id} is at times {list(band.times)}, "
                            f"not at its visit times {s.visit_times}")
        ok = worst_residual(s.visit_values, band.centers, band.stds) <= band.radius
        covered += ok
        n_inf += not band.finite
        w = [2.0 * (band.radius * sd) for sd in band.stds] if band.finite else []
        widths += w
        for t, wt in zip(band.times, w):
            bucket_widths.setdefault((t - 1) // BUCKET_MONTHS, []).append(wt)
        if grouping_column is not None:
            g_ok, g_widths = group_stats.setdefault(s.group_labels.get(grouping_column),
                                                    ([], []))
            g_ok.append(ok)
            g_widths += w

    per_group = None if grouping_column is None else {
        g: {"coverage": float(np.mean(cov)),
            "width": float(np.mean(w)) if w else math.nan,
            "n": len(cov)}
        for g, (cov, w) in group_stats.items()}
    return EvalReport(
        mean_coverage=covered / len(subjects) if subjects else math.nan,
        mean_width=float(np.mean(widths)) if widths else math.nan,
        n_test=len(subjects),
        n_infinite_bands=n_inf,
        per_time_width={b: float(np.mean(w)) for b, w in sorted(bucket_widths.items())},
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
    else:
        subjects = test_std.scored_subjects()
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        bands = _make_bands(model, subjects, [s.visit_times for s in subjects],
                            [z] * len(subjects))
    report = coverage_and_width(bands, test_std, grouping_column=group_by)
    return report, cal, model


def run_protocol(ds: Dataset, predictor_kind: str, alpha: float,
                 n_splits: int = 10, test_frac: float = 0.10,
                 calib_frac: float = 0.20, seed: int = 0,
                 group_by: str | None = None, mode: str = "conformal",
                 predictor_opts: dict | None = None) -> MultiSplitReport:
    """Multi-split evaluation with mean and 95th-percentile aggregation."""
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

    per_metric = {m: np.asarray([r.metrics()[m] for r in reports])
                  for m in ("coverage", "width")}
    mean = {m: float(np.nanmean(v)) for m, v in per_metric.items()}
    p95 = {m: float(np.nanpercentile(v, 95)) for m, v in per_metric.items()}
    dev = {m: float(np.nanpercentile(np.abs(v - mean[m]), 95))
           for m, v in per_metric.items()}
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
