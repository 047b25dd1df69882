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

from .data_model import Dataset, SubjectRecord
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
    subjects = calib.scored_subjects()
    if not subjects:
        return []
    X, t, offsets = visit_rows(subjects, [s.visit_times for s in subjects])
    means, stds = predict_batch(model, X, t)
    values = [y for s in subjects for _, y in s.visits]
    return [NonconformityScore(s.subject_id, v)
            for s, v in zip(subjects, worst_residuals(values, means, stds, offsets).tolist())]


def _radii(subjects, gcal):
    """One conformal radius per subject: its group's under Mondrian
    calibration, else the population radius.  A category unseen in
    calibration falls back to the population radius, with one warning per
    call."""
    if not isinstance(gcal, GroupCalibration):
        return [gcal.radius] * len(subjects)
    labels = [s.group_labels.get(gcal.grouping_column) for s in subjects]
    unseen = [g for g in labels if g not in gcal.per_group]
    if unseen:
        log.warning("%d subject(s) with %r categories unseen in calibration %s: "
                    "using the population radius", len(unseen),
                    gcal.grouping_column, sorted(set(unseen), key=repr))
    return [gcal.per_group.get(g, gcal.fallback).radius for g in labels]


def _make_bands(model, subjects, times, radii):
    """One band per subject, mu +/- R * sigma at that subject's query times
    (one list of times and one radius R per subject)."""
    if not subjects:
        return []
    if any(len(ts) == 0 for ts in times):
        raise DataError("band requires at least one query time")
    X, t, offsets = visit_rows(subjects, times)
    means, stds = predict_batch(model, X, t)
    return [PredictionBand(s.subject_id, tuple(ts), tuple(means[lo:hi].tolist()),
                           tuple(stds[lo:hi].tolist()), radius)
            for s, ts, radius, lo, hi in zip(subjects, times, radii, offsets, offsets[1:])]


def bands_for_dataset(model, ds: Dataset, gcal):
    """One band per scored subject, at that subject's visit times (batched)."""
    subjects = ds.scored_subjects()
    return _make_bands(model, subjects, [s.visit_times for s in subjects],
                       _radii(subjects, gcal))


def mondrian_calibrate(calib: Dataset, scores, grouping_column: str,
                       alpha: float) -> GroupCalibration:
    """Per-category conformal radii plus a whole-set fallback."""
    by_id = {s.subject_id: s for s in calib.subjects}
    groups: dict = {}
    for sc in scores:
        subj = by_id.get(sc.subject_id)
        if subj is None:
            raise DataError(f"score for unknown subject {sc.subject_id}")
        label = subj.group_labels.get(grouping_column)
        if label is None:
            raise DataError(f"subject {sc.subject_id} has no label for "
                            f"column {grouping_column!r}")
        groups.setdefault(label, []).append(sc)
    per_group = {g: calibrate(sc, alpha) for g, sc in groups.items()}
    return GroupCalibration(grouping_column, per_group, calibrate(scores, alpha))


def band_for_subject(model, s: SubjectRecord, gcal, times) -> PredictionBand:
    """Band for one subject over a query time grid, selecting the group
    radius when gcal is Mondrian."""
    return _make_bands(model, [s], [times], _radii([s], gcal))[0]
