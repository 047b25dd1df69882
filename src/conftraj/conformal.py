"""Nonconformity scoring, conformal radius calibration, and prediction bands.

The per-subject score is the worst normalized residual over that
subject's visits, max_t |y_t - yhat_t| / sigma(yhat_t).  The conformal
radius is the ceil((n+1)(1-alpha))-th smallest calibration score, with
the score multiset augmented by +infinity; when the rank exceeds n the
radius is infinite and the band covers everything.  Group-conditional
(Mondrian) calibration applies the same rule within each category of a
grouping column.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, SubjectRecord, _offsets
from .errors import ConfigurationError, DataError
from .predictors import predict_batch, visit_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NonconformityScore:
    subject_id: str
    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise DataError(f"score for {self.subject_id} must be finite and >= 0")


@dataclass(frozen=True)
class CalibrationResult:
    n: int               # calibration scores ranked
    alpha: float
    rank: int
    radius: float        # math.inf when rank exceeds n

    @property
    def finite(self):
        return math.isfinite(self.radius)


@dataclass(frozen=True)
class PredictionBand:
    """mu +/- R * sigma at each query time, stored as the calibrated radius
    R (math.inf for an infinite band) and the predictive stds, not the
    per-time radii they give."""
    subject_id: str
    times: tuple
    centers: tuple
    stds: tuple
    radius: float

    def __post_init__(self):
        if not len(self.times) == len(self.centers) == len(self.stds):
            raise DataError("band times/centers/stds length mismatch")

    @property
    def finite(self):
        return math.isfinite(self.radius)

    def radius_at(self, t):
        return self.radius * self.stds[self.times.index(t)]   # stds > 0: inf stays inf

    def center_at(self, t):
        return self.centers[self.times.index(t)]


@dataclass(frozen=True)
class GroupCalibration:
    grouping_column: str
    per_group: dict          # category -> CalibrationResult
    fallback: CalibrationResult


def calibrate(scores, alpha: float) -> CalibrationResult:
    """Conformal radius from a list of NonconformityScores."""
    if not 0 < alpha < 1:
        raise ConfigurationError(f"alpha must be in (0,1), got {alpha}")
    values = sorted(s.value for s in scores)
    n = len(values)
    rank = math.ceil((n + 1) * (1.0 - alpha))
    return CalibrationResult(n, alpha, rank, values[rank - 1] if rank <= n else math.inf)


def worst_residuals(values, means, stds, offsets):
    """The nonconformity score of each trajectory, max_t |y_t - mu_t| /
    sigma_t over rows offsets[i]:offsets[i + 1] of the flat values, means
    and stds; every trajectory must have a row.  Calibration scores and
    test coverage both use it, so a test subject is covered exactly when
    its score is at most the radius."""
    offsets = np.asarray(offsets, dtype=np.intp)
    if np.any(np.diff(offsets) <= 0):
        raise DataError("a trajectory to score has no rows")
    residuals = np.abs(np.asarray(values, dtype=float) - np.asarray(means)) / np.asarray(stds)
    return np.maximum.reduceat(residuals, offsets[:-1])


def score_dataset(model, calib: Dataset):
    """Worst normalized residual max_t |y_t - mu_t| / sigma_t for every
    calibration subject with visits, against the predicted (mu, sigma) at
    its visit times."""
    counts = calib.visit_counts
    scored = np.flatnonzero(counts)
    if not len(scored):
        return []
    means, stds = predict_batch(model, visit_rows(calib, counts), calib.times)
    scores = worst_residuals(calib.values, means, stds, _offsets(counts[scored]))
    ids = calib.subject_ids
    return [NonconformityScore(ids[i], v) for i, v in zip(scored.tolist(), scores.tolist())]


def _labels(ds: Dataset, rows, gcal):
    """The labels of subjects rows of ds in the grouping column of a
    Mondrian calibration gcal (None each for a population calibration)."""
    codes, categories = ds.group(getattr(gcal, "grouping_column", None))
    return [categories[c] for c in codes[rows].tolist()]


def _radii(gcal, labels):
    """One conformal radius per subject, given its label: its group's under
    Mondrian calibration, else the population radius.  A category unseen in
    calibration falls back to the population radius, with one warning per
    call."""
    if not isinstance(gcal, GroupCalibration):
        return [gcal.radius] * len(labels)
    unseen = [g for g in labels if g not in gcal.per_group]
    if unseen:
        log.warning("%d subject(s) with %r categories unseen in calibration %s: "
                    "using the population radius", len(unseen),
                    gcal.grouping_column, sorted(set(unseen), key=repr))
    return [gcal.per_group.get(g, gcal.fallback).radius for g in labels]


def _make_bands(model, ids, inputs, counts, times, radii):
    """One band per subject i with counts[i] > 0, mu +/- R * sigma at its
    counts[i] query times, consecutive in times, from its ID ids[i] and its
    inputs[i] = [x; baseline], with one radius R per such subject from
    radii."""
    counts = np.asarray(counts)
    rows = np.flatnonzero(counts)
    if not len(rows):
        return []
    means, stds = predict_batch(model, np.repeat(inputs, counts, axis=0), times)
    t, mu, sd = np.asarray(times).tolist(), means.tolist(), stds.tolist()
    bounds = _offsets(counts[rows]).tolist()
    return [PredictionBand(ids[i], tuple(t[lo:hi]), tuple(mu[lo:hi]), tuple(sd[lo:hi]), radius)
            for i, radius, lo, hi in zip(rows.tolist(), radii, bounds, bounds[1:])]


def bands_for_dataset(model, ds: Dataset, gcal):
    """One band per scored subject, at that subject's visit times (batched)."""
    counts = ds.visit_counts
    return _make_bands(model, ds.subject_ids, visit_rows(ds, 1), counts, ds.times,
                       _radii(gcal, _labels(ds, np.flatnonzero(counts), gcal)))


def mondrian_calibrate(calib: Dataset, scores, grouping_column: str,
                       alpha: float) -> GroupCalibration:
    """Per-category conformal radii plus a whole-set fallback."""
    row_of = {sid: i for i, sid in enumerate(calib.subject_ids)}
    codes, categories = calib.group(grouping_column)
    codes = codes.tolist()
    groups: dict = {}
    for sc in scores:
        i = row_of.get(sc.subject_id)
        if i is None:
            raise DataError(f"score for unknown subject {sc.subject_id}")
        label = categories[codes[i]]
        if label is None:
            raise DataError(f"subject {sc.subject_id} has no label for "
                            f"column {grouping_column!r}")
        groups.setdefault(label, []).append(sc)
    per_group = {g: calibrate(sc, alpha) for g, sc in groups.items()}
    return GroupCalibration(grouping_column, per_group, calibrate(scores, alpha))


def band_for_subject(model, s: SubjectRecord, gcal, times) -> PredictionBand:
    """Band for one subject over a query time grid, selecting the group
    radius when gcal is Mondrian."""
    if not len(times):
        raise DataError("band requires at least one query time")
    label = s.group_labels.get(getattr(gcal, "grouping_column", None))
    return _make_bands(model, [s.subject_id], [[*s.features, s.baseline_value]],
                       [len(times)], times, _radii(gcal, [label]))[0]
