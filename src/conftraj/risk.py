"""Uncertainty-calibrated risk stratification.

Two per-subject risk scores over a horizon [t0, tN]: the predicted rate
of change (prediction at tN minus observed baseline, per month) and its
high-confidence worst-case counterpart, which replaces the prediction
with the band endpoint in the progression direction.  Subjects are
classified as high-risk by thresholding the z-standardized score at the
Youden-optimal threshold, and evaluated with standard classification
metrics, bootstrap confidence intervals, and threshold-free AUCs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import band_for_subject
from .data_model import Dataset
from .errors import ConfigurationError, DataError

PROGRESSOR = "progressor"
STABLE = "stable"


@dataclass(frozen=True)
class RiskRecord:
    subject_id: str
    t0: int
    tN: int
    y_t0: float
    roc_hat: float
    rocb: float          # nan when the band is infinite
    label: str
    direction: str


@dataclass(frozen=True)
class ClassificationReport:
    score_name: str
    tau_star: float
    precision: float
    recall: float
    f1: float
    balanced_accuracy: float
    ci_95: dict
    roc_auc: float
    pr_auc: float
    n: int
    n_excluded: int = 0


def roc_hat(y_t0: float, y_hat_tN: float, t0: int, tN: int) -> float:
    """Predicted rate of change per month over [t0, tN]."""
    if tN <= t0:
        raise ConfigurationError(f"horizon tN={tN} must exceed t0={t0}")
    return (y_hat_tN - y_t0) / (tN - t0)


def rocb(y_t0: float, band_at_tN, t0: int, tN: int, direction: str) -> float:
    """Worst-case rate of change using the band endpoint at tN."""
    if tN <= t0:
        raise ConfigurationError(f"horizon tN={tN} must exceed t0={t0}")
    lower, upper = band_at_tN
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise DataError("rate-of-change bound undefined on an infinite band")
    if lower > upper:
        raise DataError(f"band lower {lower} exceeds upper {upper}")
    if direction == "decreasing":
        return (lower - y_t0) / (tN - t0)
    if direction == "increasing":
        return (upper - y_t0) / (tN - t0)
    raise ConfigurationError(f"unknown direction {direction!r}")


def _check_rule(rule):
    if rule not in ("le", "ge"):
        raise ConfigurationError(f"unknown high-risk rule {rule!r}")


def _flags(scores, tau, rule):
    _check_rule(rule)
    return scores <= tau if rule == "le" else scores >= tau


def _checked(scores, labels):
    """Scores as a float vector and the progressor mask of the labels.

    Labels must be PROGRESSOR or STABLE, one per score, because a bootstrap
    replicate counts as single-class from its positives alone.  Scores
    must be finite, because threshold_free reads its descending tie groups
    off one ascending sort, which would misplace a NaN.
    """
    scores = np.asarray(scores, dtype=float)
    labels = list(labels)
    if scores.ndim != 1 or len(scores) != len(labels):
        raise DataError(f"got {scores.size} scores for {len(labels)} labels")
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise DataError(f"score {bad[0]} is {scores[bad[0]]}; scores must be finite")
    for i, lab in enumerate(labels):
        if lab not in (PROGRESSOR, STABLE):
            raise DataError(f"label {i} is {lab!r}, not {PROGRESSOR!r} or {STABLE!r}")
    return scores, np.asarray([lab == PROGRESSOR for lab in labels], dtype=bool)


def _both_classes(pos, what):
    if pos.all() or not pos.any():
        raise DataError(f"{what} needs both classes present")


def _rates(tn, fn, fp, tp):
    """classify_metrics' formulas on (arrays of) confusion counts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
        specificity = np.where(tn + fp > 0, tn / (tn + fp), 0.0)
    return {"precision": precision, "recall": recall, "f1": f1,
            "balanced_accuracy": 0.5 * (recall + specificity)}


def classify_metrics(scores, labels, tau, rule="le"):
    """Confusion-matrix metrics with progressors as the positive class."""
    scores, pos = _checked(scores, labels)
    flagged = _flags(scores, tau, rule)
    counts = [np.sum(~flagged & ~pos), np.sum(~flagged & pos),
              np.sum(flagged & ~pos), np.sum(flagged & pos)]
    return {m: float(v) for m, v in _rates(*counts).items()}


def youden_threshold(scores, labels, rule="le"):
    """Threshold maximizing J = sensitivity + specificity - 1.

    Candidates are the distinct score values plus the flag-nothing
    extreme; ties break toward the most specific classifier (smallest tau
    under the <=-rule, largest under the >=-rule).
    """
    scores, pos = _checked(scores, labels)
    _both_classes(pos, "Youden threshold")
    _check_rule(rule)
    extreme = -math.inf if rule == "le" else math.inf
    candidates = sorted(set(scores.tolist())) + [extreme]
    # flagged counts of each class at every candidate, from one sort each
    side = "right" if rule == "le" else "left"
    pos_sorted, neg_sorted = np.sort(scores[pos]), np.sort(scores[~pos])
    n_pos, n_neg = len(pos_sorted), len(neg_sorted)
    tp = np.searchsorted(pos_sorted, candidates, side)
    fp = np.searchsorted(neg_sorted, candidates, side)
    if rule == "ge":
        tp, fp = n_pos - tp, n_neg - fp
    j_all = (tp / n_pos + (n_neg - fp) / n_neg - 1.0).tolist()
    best_tau, best_j = None, -math.inf
    for tau, j in zip(candidates, j_all):
        if j > best_j + 1e-12:
            best_tau, best_j = tau, j
        elif abs(j - best_j) <= 1e-12 and best_tau is not None:
            if (tau < best_tau) if rule == "le" else (tau > best_tau):
                best_tau = tau
    return best_tau


def bootstrap_ci(scores, labels, tau, rule="le", B=2000, level=0.95, seed=0):
    """Percentile bootstrap CIs for the metrics at a fixed threshold.

    tau is fixed, so each subject's confusion cell is too: a replicate
    reduces to four counts of the resampled cells.  Replicates that
    resample a single class are skipped; the skip count is reported under
    "n_skipped".
    """
    if isinstance(B, bool) or not isinstance(B, (int, np.integer)) or B < 1:
        raise ConfigurationError(f"bootstrap B must be a positive int, got {B!r}")
    if not isinstance(level, (int, float)) or not 0 < level < 1:   # bools fail too
        raise ConfigurationError(f"bootstrap level must be in (0,1), got {level!r}")
    scores, pos = _checked(scores, labels)
    _both_classes(pos, f"bootstrap CI (B={B})")
    n = len(scores)
    cell = 2 * _flags(scores, tau, rule) + pos          # 0 tn, 1 fn, 2 fp, 3 tp
    rng = np.random.default_rng(seed)
    # n indices per replicate, not a B x n index matrix: at n = B = 2000
    # that would take 32 MB
    counts = np.empty((B, 4), dtype=np.int64)
    for b in range(B):
        counts[b] = np.bincount(cell[rng.integers(0, n, size=n)], minlength=4)
    n_pos = counts[:, 1] + counts[:, 3]
    kept = counts[(n_pos > 0) & (n_pos < n)]
    if not len(kept):
        raise DataError(f"every one of the B={B} bootstrap replicates "
                        "resampled a single class")
    lo = (1.0 - level) / 2.0
    out = {m: (float(np.percentile(v, 100 * lo)),
               float(np.percentile(v, 100 * (1.0 - lo))))
           for m, v in _rates(*kept.T).items()}
    out["n_skipped"] = int(B - len(kept))
    return out


def threshold_free(scores, labels, rule="le"):
    """(ROC-AUC, PR-AUC) oriented so the high-risk rule scores positives higher."""
    scores, pos = _checked(scores, labels)
    _both_classes(pos, "AUC")
    _check_rule(rule)
    decision = -scores if rule == "le" else scores

    # One stable ascending sort; runs of equal decision values are tie groups.
    order = np.argsort(decision, kind="mergesort")
    sorted_d = decision[order]
    starts = np.flatnonzero(np.r_[True, sorted_d[1:] != sorted_d[:-1]])
    ends = np.r_[starts[1:], len(sorted_d)] - 1
    sizes = ends - starts + 1

    # ROC-AUC as the rank statistic; ties contribute 1/2 via midranks.
    ranks = np.empty(len(decision))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, sizes)
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(~pos))
    roc_auc = (float(np.sum(ranks[pos])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # PR-AUC by precision-recall step integration over descending
    # thresholds: one step per tie group, summed left to right.
    group_pos = np.diff(np.r_[0, np.cumsum(pos[order])[ends]])
    tp = np.cumsum(group_pos[::-1])
    recall = tp / n_pos
    precision = tp / np.cumsum(sizes[::-1])
    steps = (recall - np.r_[0.0, recall[:-1]]) * precision
    pr_auc = float(np.cumsum(steps)[-1])
    return roc_auc, pr_auc


def _zstandardize(values):
    v = np.asarray(values, dtype=float)
    std = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
    if std <= 0:
        return v - float(np.mean(v)) if len(v) else v
    return (v - float(np.mean(v))) / std


def _score_report(name, values, labels, rule, bootstrap_B, seed, n_excluded):
    z = _zstandardize(values)
    tau = youden_threshold(z, labels, rule)
    metrics = classify_metrics(z, labels, tau, rule)
    ci = bootstrap_ci(z, labels, tau, rule, B=bootstrap_B, seed=seed)
    auc, pr = threshold_free(z, labels, rule)
    return ClassificationReport(name, tau, metrics["precision"], metrics["recall"],
                                metrics["f1"], metrics["balanced_accuracy"], ci,
                                auc, pr, len(labels), n_excluded)


def risk_pipeline(test: Dataset, truth: dict, model, cal, direction: str,
                  bootstrap_B: int = 2000, seed: int = 0):
    """Risk scores and Youden-threshold classification reports for a cohort.

    truth maps subject_id -> {"is_progressor": bool, ...}; the scoring
    horizon tN is each subject's last observed visit.  Returns
    (records, {"roc_hat": report, "rocb": report}).
    """
    rule = "le" if direction == "decreasing" else "ge"
    records = []
    for s in test.scored_subjects():
        if s.subject_id not in truth:
            raise DataError(f"no progression label for subject {s.subject_id}")
        label = PROGRESSOR if truth[s.subject_id]["is_progressor"] else STABLE
        tN = s.visit_times[-1]
        band = band_for_subject(model, s, cal, [tN])
        center = band.center_at(tN)
        rh = roc_hat(s.baseline_value, center, 0, tN)
        r = band.radius_at(tN)
        rb = (rocb(s.baseline_value, (center - r, center + r), 0, tN, direction)
              if band.finite else math.nan)
        records.append(RiskRecord(s.subject_id, 0, tN, s.baseline_value,
                                  rh, rb, label, direction))

    labels_all = [r.label for r in records]
    reports = {"roc_hat": _score_report(
        "roc_hat", [r.roc_hat for r in records], labels_all, rule,
        bootstrap_B, seed, 0)}

    finite = [r for r in records if math.isfinite(r.rocb)]
    if not finite:
        raise DataError("every test band is infinite; the worst-case "
                        "rate-of-change score is undefined")
    reports["rocb"] = _score_report(
        "rocb", [r.rocb for r in finite], [r.label for r in finite], rule,
        bootstrap_B, seed, len(records) - len(finite))
    return records, reports
