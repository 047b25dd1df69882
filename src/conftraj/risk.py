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

from .conformal import _make_bands
from .data_model import Dataset
from .errors import FRACTION, ConfigurationError, DataError, check_rules, is_int
from .predictors import predict_batch, visit_rows

PROGRESSOR = "progressor"
STABLE = "stable"
# the most bootstrap replicates one CI draws: their (B, 4) counts take 32 MB
MAX_BOOTSTRAP_B = 10**6
# parameter -> (what it must be, test), for the parameters of the risk stage
RISK_RULES = {
    "rule": ("'le' or 'ge'", lambda v: isinstance(v, str) and v in ("le", "ge")),
    "direction": ("'decreasing' or 'increasing'",
                  lambda v: isinstance(v, str) and v in ("decreasing", "increasing")),
    "bootstrap_B": (f"an int in [1, {MAX_BOOTSTRAP_B}]",
                    lambda v: is_int(v) and 1 <= v <= MAX_BOOTSTRAP_B)}


@dataclass(frozen=True, eq=False)
class RiskScores:
    """The risk scores of a cohort's scored subjects, one array per column:
    subject subject_ids[i] scores roc_hat[i] and rocb[i] over [0, tN[i]]."""
    subject_ids: tuple
    tN: np.ndarray               # (n,) int
    roc_hat: np.ndarray          # (n,) float
    rocb: np.ndarray             # (n,) float, nan where the band is infinite
    progressor: np.ndarray       # (n,) bool


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


def _refuse(mask, error, message, *values):
    """Raise error(message.format(*values)) at the first place mask holds."""
    mask, *values = np.broadcast_arrays(mask, *values)
    hit = np.flatnonzero(mask)
    if len(hit):
        raise error(message.format(*(v.flat[hit[0]] for v in values)))


def _rule(direction):
    """The high-risk rule of a progression direction: flag low scores if decreasing."""
    check_rules(RISK_RULES, {"direction": direction})
    return "le" if direction == "decreasing" else "ge"


def roc_hat(y_t0, y_hat_tN, t0, tN):
    """Predicted rate of change per month over [t0, tN], of a subject or of arrays."""
    _refuse(np.less_equal(tN, t0), ConfigurationError,
            "horizon tN={} must exceed t0={}", tN, t0)
    return (y_hat_tN - y_t0) / (tN - t0)


def rocb(y_t0, band_at_tN, t0, tN, direction: str):
    """Worst-case rate of change: roc_hat of the endpoint of band_at_tN = (lower,
    upper) in the progression direction, of a subject or of arrays."""
    lower, upper = band_at_tN
    _refuse(~(np.isfinite(lower) & np.isfinite(upper)), DataError,
            "rate-of-change bound undefined on an infinite band")
    _refuse(np.greater(lower, upper), DataError, "band lower {} exceeds upper {}",
            lower, upper)
    return roc_hat(y_t0, lower if _rule(direction) == "le" else upper, t0, tN)


def _flags(scores, tau, rule):
    check_rules(RISK_RULES, {"rule": rule})
    return scores <= tau if rule == "le" else scores >= tau


def _checked(scores, labels):
    """Scores as a float vector and the progressor mask of the labels.

    Labels must be PROGRESSOR or STABLE, one per score, because a bootstrap
    replicate counts as single-class from its positives alone.  Scores
    must be finite, because threshold_free reads its descending tie groups
    off one ascending sort, which would misplace a NaN.
    """
    scores = np.asarray(scores, dtype=float)
    labels = labels if isinstance(labels, np.ndarray) else np.fromiter(labels, dtype=object)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DataError(f"got {scores.size} scores for {len(labels)} labels")
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise DataError(f"score {bad[0]} is {scores[bad[0]]}; scores must be finite")
    known = labels[:, None] == np.array([STABLE, PROGRESSOR])
    bad = np.flatnonzero(~known.any(axis=1))
    if len(bad):
        raise DataError(f"label {bad[0]} is {labels[bad[0]]!r}, not {PROGRESSOR!r} or {STABLE!r}")
    return scores, known[:, 1]


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
    cell = 2 * _flags(scores, tau, rule) + pos          # 0 tn, 1 fn, 2 fp, 3 tp
    return {m: float(v) for m, v in _rates(*np.bincount(cell, minlength=4)).items()}


def youden_threshold(scores, labels, rule="le"):
    """Threshold maximizing J = sensitivity + specificity - 1.

    Candidates are the distinct score values plus the flag-nothing
    extreme; ties break toward the most specific classifier (smallest tau
    under the <=-rule, largest under the >=-rule).
    """
    scores, pos = _checked(scores, labels)
    _both_classes(pos, "Youden threshold")
    check_rules(RISK_RULES, {"rule": rule})
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


def _replicate_counts(cell, B, seed):
    """(tn, fn, fp, tp) counts of B uniform resamples of the n cells.

    A resample of n subjects draws each cell with its frequency, so its
    four counts are Multinomial(n, cell frequencies): one multinomial call
    draws every replicate.
    """
    n = len(cell)
    return np.random.default_rng(seed).multinomial(
        n, np.bincount(cell, minlength=4) / n, size=B)


def bootstrap_ci(scores, labels, tau, rule="le", B=2000, level=0.95, seed=0):
    """Percentile bootstrap CIs for the metrics at a fixed threshold.

    tau is fixed, so each subject's confusion cell is too: a replicate
    reduces to four counts of the resampled cells, and all B replicates'
    counts come from one multinomial draw (see _replicate_counts).
    Replicates that resample a single class are skipped; the skip count is
    reported under "n_skipped".
    """
    check_rules({"B": RISK_RULES["bootstrap_B"], "level": FRACTION}, {"B": B, "level": level})
    scores, pos = _checked(scores, labels)
    _both_classes(pos, f"bootstrap CI (B={B})")
    cell = 2 * _flags(scores, tau, rule) + pos          # 0 tn, 1 fn, 2 fp, 3 tp
    counts = _replicate_counts(cell, B, seed)
    n_pos = counts[:, 1] + counts[:, 3]
    kept = counts[(n_pos > 0) & (n_pos < len(scores))]
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
    check_rules(RISK_RULES, {"rule": rule})
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
    ci = bootstrap_ci(z, labels, tau, rule, B=bootstrap_B, seed=seed)
    auc, pr = threshold_free(z, labels, rule)
    return ClassificationReport(name, tau, **classify_metrics(z, labels, tau, rule), ci_95=ci,
                                roc_auc=auc, pr_auc=pr, n=len(labels), n_excluded=n_excluded)


def risk_pipeline(test: Dataset, truth: dict, model, cal, direction: str,
                  bootstrap_B: int = 2000, seed: int = 0):
    """Risk scores and Youden-threshold classification reports for a cohort.

    truth maps subject_id -> {"is_progressor": bool, ...}; the scoring
    horizon tN is each subject's last observed visit.  Every subject's
    band at its tN comes from one batched prediction, equal to what
    band_for_subject gives that subject alone for the linear predictors
    (see predict_batch).  Returns (RiskScores, {"roc_hat": report, "rocb":
    report}), the rocb report without the subjects whose band is infinite."""
    rule = _rule(direction)
    check_rules(RISK_RULES, {"bootstrap_B": bootstrap_B})
    scored = np.flatnonzero(test.visit_counts)
    last, tN = test.visit_counts > 0, test.times[test.offsets[1:][scored] - 1]
    bands = _make_bands(test, last, tN, predict_batch(model, visit_rows(test, last), tN), cal)
    progressor = []
    for sid in bands.subject_ids:
        if sid not in truth:
            raise DataError(f"no progression label for subject {sid}")
        progressor.append(bool(truth[sid]["is_progressor"]))
    y0, mu, r = test.baseline[scored], bands.centers, bands.radii * bands.stds
    finite, rb = np.isfinite(r), np.full(len(r), math.nan)   # an infinite band's rocb is nan
    rb[finite] = rocb(y0[finite], ((mu - r)[finite], (mu + r)[finite]), 0, tN[finite], direction)
    scores = RiskScores(bands.subject_ids, tN, roc_hat(y0, mu, 0, tN), rb,
                        np.array(progressor, dtype=bool))
    labels = np.where(scores.progressor, PROGRESSOR, STABLE)
    reports = {"roc_hat": _score_report("roc_hat", scores.roc_hat, labels, rule,
                                        bootstrap_B, seed, 0)}
    kept = np.isfinite(rb)
    if not kept.any():
        raise DataError("every test band is infinite; the worst-case "
                        "rate-of-change score is undefined")
    reports["rocb"] = _score_report("rocb", rb[kept], labels[kept], rule,
                                    bootstrap_B, seed, int(np.sum(~kept)))
    return scores, reports
