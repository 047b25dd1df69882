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
import weakref
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, SubjectRecord, _first_difference, _offsets, _take
from .errors import ConfigurationError, DataError
from .predictors import predict_batch, visit_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NonconformityScore:
    subject_id: str
    value: float


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """The nonconformity scores of a dataset's scored subjects, in its
    order: subject subject_ids[i] scores values[i], finite and >= 0.  The
    array is read-only.  Iterating yields one NonconformityScore per
    subject, built then."""
    subject_ids: tuple
    values: np.ndarray            # (n,) float

    def __post_init__(self):
        ids, values = tuple(self.subject_ids), np.array(self.values, dtype=float)
        if values.shape != (len(ids),):
            raise DataError(f"{len(ids)} subject IDs for scores of shape {values.shape}")
        bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
        if len(bad):
            raise DataError(f"score for {ids[bad[0]]} must be finite and >= 0")
        values.flags.writeable = False
        object.__setattr__(self, "subject_ids", ids)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.subject_ids)

    def __iter__(self):
        return map(NonconformityScore, self.subject_ids, self.values.tolist())


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


def _ranked(values, alpha):
    """The calibration of the ascending score array values: its
    ceil((n+1)(1-alpha))-th smallest, or math.inf past n."""
    n = len(values)
    rank = math.ceil((n + 1) * (1.0 - alpha))
    return CalibrationResult(n, alpha, rank, float(values[rank - 1]) if rank <= n else math.inf)


def calibrate(scores: ScoreSet, alpha: float) -> CalibrationResult:
    """Conformal radius from a ScoreSet."""
    if not 0 < alpha < 1:
        raise ConfigurationError(f"alpha must be in (0,1), got {alpha}")
    return _ranked(np.sort(scores.values), alpha)


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


# Dataset -> (weak reference to the model, its read-only visit-row means and
# stds), for the last model that predicted each live Dataset's visit rows
_VISIT_PREDICTIONS = weakref.WeakKeyDictionary()


def _visit_prediction(model, ds: Dataset):
    """(means, stds) of model at every visit row of ds, read-only.  Neither
    a Dataset's columns nor a model's arrays can change, so the last model's
    prediction is kept while ds lives and handed back when that model asks
    again: a set scored and then banded is predicted once."""
    kept = _VISIT_PREDICTIONS.get(ds)
    if kept is not None and kept[0]() is model:
        return kept[1:]
    means, stds = predict_batch(model, visit_rows(ds, ds.visit_counts), ds.times)
    means.flags.writeable = False
    stds.flags.writeable = False
    _VISIT_PREDICTIONS[ds] = (weakref.ref(model), means, stds)
    return means, stds


def score_dataset(model, calib: Dataset) -> ScoreSet:
    """Worst normalized residual max_t |y_t - mu_t| / sigma_t for every
    calibration subject with visits, against the predicted (mu, sigma) at
    its visit times."""
    counts = calib.visit_counts
    scored = np.flatnonzero(counts)
    means, stds = _visit_prediction(model, calib)
    return ScoreSet(_take(calib.subject_ids, scored.tolist()),
                    worst_residuals(calib.values, means, stds, _offsets(counts[scored])))


def _radii(gcal, codes, categories):
    """The conformal radius of each subject i, labelled categories[codes[i]]
    in gcal's grouping column: its group's under Mondrian calibration, else
    the population radius.  A category unseen in calibration falls back to
    the population radius, with one warning per call."""
    if not isinstance(gcal, GroupCalibration):
        return np.full(len(codes), gcal.radius)
    unseen = [c for c, g in enumerate(categories) if g not in gcal.per_group]
    n_unseen = np.bincount(codes, minlength=len(categories))[unseen]
    if n_unseen.sum():
        log.warning("%d subject(s) with %r categories unseen in calibration %s: "
                    "using the population radius", n_unseen.sum(), gcal.grouping_column,
                    sorted((categories[c] for c, m in zip(unseen, n_unseen) if m), key=repr))
    radius = [gcal.per_group.get(g, gcal.fallback).radius for g in categories]
    return np.array(radius, dtype=float)[codes]


def _make_bands(ds: Dataset, counts, times, prediction, gcal):
    """The band set of the subjects i of ds with counts[i] > 0: mu +/- R *
    sigma at their counts[i] query times, consecutive in times, with (mu,
    sigma) in the same rows of the prediction (means, stds) and the radius R
    that gcal gives each (see _radii)."""
    counts = np.asarray(counts)
    rows = np.flatnonzero(counts)
    means, stds = prediction
    codes, categories = ds.group(getattr(gcal, "grouping_column", None))
    return PredictionBand(_take(ds.subject_ids, rows.tolist()),
                          _offsets(counts[rows]), times, means, stds,
                          _radii(gcal, codes[rows], categories))


def bands_for_dataset(model, ds: Dataset, gcal):
    """The band set of the scored subjects, each at its visit times, from
    the prediction that scores them (see _visit_prediction)."""
    return _make_bands(ds, ds.visit_counts, ds.times, _visit_prediction(model, ds), gcal)


def mondrian_calibrate(calib: Dataset, scores: ScoreSet, grouping_column: str,
                       alpha: float) -> GroupCalibration:
    """Per-category conformal radii plus a whole-set fallback.  scores are
    those of calib's scored subjects, in its order, as score_dataset gives
    them; each category ranks its subjects' scores."""
    scored = np.flatnonzero(calib.visit_counts)
    ids = _take(calib.subject_ids, scored.tolist())
    if scores.subject_ids != ids:
        k = _first_difference(scores.subject_ids, ids)
        raise DataError(f"score for unknown subject {scores.subject_ids[k]} at score {k}: "
                        "scores follow the calibration set's scored subjects"
                        if k < len(scores) else f"no score for calibration subject {ids[k]}")
    codes, categories = calib.group(grouping_column)
    codes = codes[scored]
    unlabelled = np.flatnonzero(np.array([g is None for g in categories], dtype=bool)[codes])
    if len(unlabelled):
        raise DataError(f"subject {ids[unlabelled[0]]} has no label for "
                        f"column {grouping_column!r}")
    fallback = calibrate(scores, alpha)
    present, first, sizes = np.unique(codes, return_index=True, return_counts=True)
    ascending = np.split(scores.values[np.lexsort((scores.values, codes))],
                         np.cumsum(sizes)[:-1])            # each group's scores, sorted
    per_group = {categories[present[i]]: _ranked(ascending[i], alpha)
                 for i in np.argsort(first).tolist()}     # in order of first subject
    return GroupCalibration(grouping_column, per_group, fallback)


def band_for_subject(model, s: SubjectRecord, gcal, times) -> PredictionBand:
    """The one-subject band set of s over a query time grid, with the group
    radius when gcal is Mondrian: s's band in a _make_bands batch."""
    if not len(times):
        raise DataError("band requires at least one query time")
    X = np.repeat([[*s.features, s.baseline_value]], len(times), axis=0)
    means, stds = predict_batch(model, X, times)
    label = s.group_labels.get(getattr(gcal, "grouping_column", None))
    return PredictionBand((s.subject_id,), [0, len(times)], times, means, stds,
                          _radii(gcal, np.zeros(1, dtype=np.intp), (label,)))
