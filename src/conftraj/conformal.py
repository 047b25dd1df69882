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


@dataclass(frozen=True, eq=False)
class PredictionBand:
    """A band set, one array per column like a Dataset: band i is mu +/- R *
    sigma for subject subject_ids[i] at times[offsets[i]:offsets[i + 1]],
    with mu and sigma in the same rows of centers and stds, and its radius
    R in radii[i] (math.inf for an infinite band)."""
    subject_ids: tuple
    offsets: np.ndarray           # (n + 1,) int
    times: np.ndarray             # (offsets[-1],) int
    centers: np.ndarray           # (offsets[-1],) float
    stds: np.ndarray              # (offsets[-1],) float
    radii: np.ndarray             # (n,) float

    def __post_init__(self):
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        for name in ("offsets", "times", "centers", "stds", "radii"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if not (len(self.offsets) == len(self.radii) + 1 == len(self.subject_ids) + 1
                and len(self.times) == len(self.centers) == len(self.stds) == self.offsets[-1]):
            raise DataError("band columns do not line up")

    @property
    def finite(self):
        return bool(np.all(np.isfinite(self.radii)))

    def _row(self, t):
        """The row of query time t in a one-subject set."""
        if len(self.radii) != 1:
            raise DataError(f"a time lookup needs a one-subject band set, not {len(self.radii)}")
        rows = np.flatnonzero(self.times == t)
        if not len(rows):
            raise DataError(f"time {t} is not one of the band's times {self.times.tolist()}")
        return rows[0]

    def radius_at(self, t):
        return float(self.radii[0] * self.stds[self._row(t)])   # stds > 0: inf stays inf

    def center_at(self, t):
        return float(self.centers[self._row(t)])


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
    means, stds = predict_batch(model, visit_rows(calib, counts), calib.times)
    scores = worst_residuals(calib.values, means, stds, _offsets(counts[scored]))
    ids = calib.subject_ids
    return [NonconformityScore(ids[i], v) for i, v in zip(scored.tolist(), scores.tolist())]


def _radii(gcal, ds: Dataset, rows):
    """The conformal radius of each of the subjects rows of ds: its group's
    under Mondrian calibration, else the population radius.  A category
    unseen in calibration falls back to the population radius, with one
    warning per call."""
    if not isinstance(gcal, GroupCalibration):
        return np.full(len(rows), gcal.radius)
    codes, categories = ds.group(gcal.grouping_column)
    labels = [categories[c] for c in codes[rows].tolist()]
    unseen = [g for g in labels if g not in gcal.per_group]
    if unseen:
        log.warning("%d subject(s) with %r categories unseen in calibration %s: "
                    "using the population radius", len(unseen),
                    gcal.grouping_column, sorted(set(unseen), key=repr))
    return np.array([gcal.per_group.get(g, gcal.fallback).radius for g in labels])


def _make_bands(model, ds: Dataset, counts, times, gcal):
    """The band set of the subjects i of ds with counts[i] > 0: mu +/- R *
    sigma at their counts[i] query times, consecutive in times, with the
    radius R that gcal gives each (see _radii)."""
    counts = np.asarray(counts)
    rows = np.flatnonzero(counts)
    means, stds = predict_batch(model, visit_rows(ds, counts), times)
    return PredictionBand(tuple(ds.subject_ids[i] for i in rows.tolist()),
                          _offsets(counts[rows]), times, means, stds,
                          _radii(gcal, ds, rows))


def bands_for_dataset(model, ds: Dataset, gcal):
    """The band set of the scored subjects, each at its visit times."""
    return _make_bands(model, ds, ds.visit_counts, ds.times, gcal)


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
    """The one-subject band set of s over a query time grid, with the group
    radius when gcal is Mondrian."""
    if not len(times):
        raise DataError("band requires at least one query time")
    # placeholder feature names, each longer than any group column's name
    pad = "_" * max(map(len, s.group_labels), default=0)
    names = [f"{pad}_{j}" for j in range(len(s.features))]
    one = Dataset.from_subjects((s,), names, tuple(s.group_labels))
    return _make_bands(model, one, [len(times)], times, gcal)
