"""A per-subject reference pipeline for the tests.

conftraj works on columns: a Dataset holds one array per column, and a
band set one array per column of every band.  This module does the same
work one subject at a time, in plain Python over its own record type,
Subject, so that each columnar path has an independent oracle: the
loader, the standardization, the design rows, the score, the rank radius
with its Mondrian fallback, the one-subject band, coverage and width, and
the risk scores.  From the library it uses only the Dataset constructor,
predict_batch, the calibration and report containers, and the risk
statistics, which tests/test_risk.py checks against loop oracles.
"""

import csv
import itertools
import math
from collections import namedtuple

import numpy as np

from conftraj.conformal import CalibrationResult, GroupCalibration
from conftraj.data_model import MAX_TIME, Dataset, StandardizationStats, _offsets
from conftraj.errors import DataError, SchemaError
from conftraj.evaluation import BUCKET_MONTHS, EvalReport
from conftraj.predictors import predict_batch
from conftraj.risk import PROGRESSOR, STABLE, RiskScores, _score_report, roc_hat, rocb

# features: (d,) floats; labels: group column -> label; baseline: the month-0
# biomarker; visits: ((time, value), ...), times >= 1 and increasing
Subject = namedtuple("Subject", "id features labels baseline visits")


def times_of(s):
    return [t for t, _ in s.visits]


def scored(subjects):
    """The subjects with at least one follow-up visit, the ones a score is defined on."""
    return [s for s in subjects if s.visits]


def subject(sid, visits, group="g", baseline=0.0):
    """A subject with two zero features, labelled group in column dx."""
    return Subject(sid, np.zeros(2), {"dx": group}, baseline, tuple(visits))


# ---------------------------------------------------------------------------
# Datasets to and from records

def dataset_of(subjects, feature_names, group_columns):
    """The Dataset of a sequence of Subjects, each holding a label for every
    one of group_columns, coded in order of first appearance.  It checks
    nothing itself: the Dataset constructor does."""
    subjects = tuple(subjects)
    n = len(subjects)
    categories = [{} for _ in group_columns]        # label -> code
    codes = [[cats.setdefault(s.labels[c], len(cats))
              for c, cats in zip(group_columns, categories)] for s in subjects]
    return Dataset(subject_ids=tuple(s.id for s in subjects),
                   features=np.array([s.features for s in subjects],
                                     dtype=float).reshape(n, len(feature_names)),
                   baseline=[s.baseline for s in subjects],
                   offsets=_offsets([len(s.visits) for s in subjects]),
                   times=[t for s in subjects for t, _ in s.visits],
                   values=[y for s in subjects for _, y in s.visits],
                   group_codes=np.array(codes, dtype=np.intp).reshape(n, len(group_columns)),
                   group_categories=tuple(map(tuple, categories)),
                   feature_names=tuple(feature_names), group_columns=tuple(group_columns))


def subjects_of(ds):
    """One Subject per subject of ds, in its order, read from its columns."""
    times, values, bounds = ds.times.tolist(), ds.values.tolist(), ds.offsets.tolist()
    labels = [{c: cats[k] for c, cats, k in zip(ds.group_columns, ds.group_categories, row)}
              for row in ds.group_codes.tolist()]
    return tuple(Subject(sid, ds.features[i], labels[i], baseline,
                         tuple(zip(times[lo:hi], values[lo:hi])))
                 for i, (sid, baseline, lo, hi) in enumerate(zip(
                     ds.subject_ids, ds.baseline.tolist(), bounds, bounds[1:])))


def records_repr(subjects):
    """Every field of each record; repr tells -0.0 from 0.0."""
    return repr([(s.id, s.features.tolist(), s.labels, s.baseline, s.visits)
                 for s in subjects])


def dataset_from_rows(X, ts, ys):
    """One subject per row: features X[i], single visit (ts[i], ys[i])."""
    X = np.atleast_2d(X)
    return dataset_of([Subject(f"s{i}", np.asarray(X[i], dtype=float), {}, 0.0,
                               ((int(ts[i]), float(ys[i])),)) for i in range(len(ys))],
                      tuple(f"f{j}" for j in range(X.shape[1])), ())


def linear_dataset(n, d=2, seed=0, noise=0.0, slope=-0.01):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    ts = rng.integers(1, 60, size=n)
    ys = X @ np.arange(1, d + 1) * 0.1 + slope * ts + rng.normal(0, noise, n)
    return dataset_from_rows(X, ts, ys), X, ts, ys


def multi_visit_dataset(n_subjects, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n_subjects):
        x = rng.standard_normal(2)
        times = np.sort(rng.choice(np.arange(1, 48), size=4, replace=False))
        ys = 0.3 * x[0] - 0.01 * times + rng.normal(0, noise, 4)
        subjects.append(Subject(f"s{i}", x, {}, float(0.3 * x[0]),
                                tuple((int(t), float(y)) for t, y in zip(times, ys))))
    return dataset_of(subjects, ("f0", "f1"), ())


# ---------------------------------------------------------------------------
# Loading: the DictReader loader that load_csv replaced, with non-finite and
# over-large times rejected as they are now

def _parse_time(cell, row_no):
    try:
        t = float(cell)
    except ValueError:
        raise DataError(f"row {row_no}: non-numeric time {cell!r}")
    if not math.isfinite(t):
        raise DataError(f"row {row_no}: non-finite visit time {cell!r}")
    if t != int(t):
        raise DataError(f"row {row_no}: fractional visit time {cell!r} "
                        "(integer months required)")
    if abs(t) > MAX_TIME:
        raise DataError(f"row {row_no}: visit time {cell!r} beyond 2**53 - 1 months")
    if t < 0:
        raise DataError(f"row {row_no}: negative visit time {int(t)}")
    return int(t)


def load_csv(path, schema):
    needed = ([schema.subject_col, schema.time_col, schema.value_col]
              + list(schema.feature_cols) + list(schema.group_cols))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in needed:
            if col not in header:
                raise SchemaError(f"missing column {col!r} in {path}")
            if header.count(col) > 1:
                raise SchemaError(f"column {col!r} is named twice in the header of {path}")
        by_subject, seen = {}, set()
        for row_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise DataError(f"row {row_no}: cell count differs from the header of {path}")
            sid = row[schema.subject_col]
            t = _parse_time(row[schema.time_col], row_no)
            if (sid, t) in seen:
                raise DataError(f"row {row_no}: duplicate (subject, time) = ({sid}, {t})")
            seen.add((sid, t))
            try:
                y = float(row[schema.value_col])
                feats = [float(row[c]) for c in schema.feature_cols]
            except ValueError as exc:
                raise DataError(f"row {row_no}: non-numeric cell ({exc})")
            if not (math.isfinite(y) and all(map(math.isfinite, feats))):
                raise DataError(f"row {row_no}: non-finite biomarker or feature cell")
            groups = {c: row[c] for c in schema.group_cols}
            entry = by_subject.setdefault(sid, (feats, groups, []))
            if feats != entry[0] or groups != entry[1]:
                raise DataError(f"row {row_no}: subject {sid} features or group "
                                "labels differ from its earlier rows")
            entry[2].append((t, y))
    subjects = []
    for sid, (feats, groups, rows) in by_subject.items():
        rows.sort()
        if rows[0][0] != 0:
            raise DataError(f"subject {sid}: no month-0 baseline row")
        subjects.append(Subject(sid, np.asarray(feats, dtype=float), groups, rows[0][1],
                                tuple(rows[1:])))
    return dataset_of(subjects, tuple(schema.feature_cols), tuple(schema.group_cols))


def load_truth(path):
    """subject_id -> {"is_progressor": bool} of a truth CSV written by generate."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["subject_id"]: {"is_progressor": row["is_progressor"] == "1"}
                for row in csv.DictReader(fh)}


# ---------------------------------------------------------------------------
# Standardization and design rows

def biomarker_values(subjects):
    """Each subject's baseline, then its visit values, in subject order."""
    return [v for s in subjects for v in (s.baseline, *(y for _, y in s.visits))]


def stats_of(subjects):
    vals = np.asarray(biomarker_values(subjects))
    return StandardizationStats(float(np.mean(vals)), float(np.std(vals, ddof=1)))


def standardize(ds, stats):
    """ds with every biomarker value y made (y - mean) / std, one value at a time."""
    def apply(y):
        return float((np.asarray(y, dtype=float) - stats.mean) / stats.std)
    return dataset_of([s._replace(baseline=apply(s.baseline),
                                  visits=tuple((t, apply(y)) for t, y in s.visits))
                       for s in subjects_of(ds)], ds.feature_names, ds.group_columns)


def visit_rows(subjects):
    return [[*s.features.tolist(), s.baseline] for s in subjects for _ in s.visits]


def design_matrix(subjects):
    """Rows [x; baseline; t], targets and row offsets, as lists."""
    rows = [[*s.features.tolist(), s.baseline, float(t)]
            for s in subjects for t in times_of(s)]
    targets = [y for s in subjects for _, y in s.visits]
    offsets = itertools.accumulate((len(s.visits) for s in subjects), initial=0)
    return rows, targets, list(offsets)


# ---------------------------------------------------------------------------
# Predictor oracles

def dense_gp_oracle(Zt, yt, Zq, signal_var, ls, noise_var):
    """Direct matrix-inverse GP posterior, independent of the Cholesky path."""
    def k(A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
        return signal_var * np.exp(-0.5 * d2 / ls ** 2)
    Kinv = np.linalg.inv(k(Zt, Zt) + noise_var * np.eye(len(Zt)))
    Ks = k(Zt, Zq)
    mean = Ks.T @ Kinv @ yt
    var = signal_var - np.einsum("ij,ik,kj->j", Ks, Kinv, Ks) + noise_var
    return mean, var


def pinball_loss(weights, Z1, y, levels):
    """Mean pinball loss summed over quantile levels; Z1 carries the bias column."""
    total = 0.0
    for w, q in zip(weights, levels):
        u = y - Z1 @ w
        total += float(np.add.reduce(u * np.where(u >= 0, q, q - 1.0))) / len(y)
    return total


# ---------------------------------------------------------------------------
# Scores, radii and bands, one subject at a time

def predict(model, s, times):
    """(means, stds) of s alone at times, through predict_batch."""
    return predict_batch(model, np.repeat([[*s.features, s.baseline]], len(times), axis=0),
                         times)


def score(model, s):
    """The worst normalized residual of s over its visits, s predicted alone."""
    means, stds = predict(model, s, times_of(s))
    return max(abs(y - mu) / sd for (_, y), mu, sd in zip(s.visits, means.tolist(),
                                                          stds.tolist()))


def radius(scores, alpha):
    """The k-th smallest of n scores, k = ceil((n+1)(1-alpha)), or inf when k > n."""
    k = math.ceil((len(scores) + 1) * (1.0 - alpha))
    return sorted(scores)[k - 1] if k <= len(scores) else math.inf


def calibrate(model, calib, alpha, group_by=None):
    """The calibration of the scored subjects of calib, a sequence of
    Subjects: population, or Mondrian on group_by with the population one
    as its fallback."""
    scores = [(s.labels.get(group_by), score(model, s)) for s in scored(calib)]

    def ranked(values):
        return CalibrationResult(len(values), alpha,
                                 math.ceil((len(values) + 1) * (1.0 - alpha)),
                                 radius(values, alpha))
    population = ranked([v for _, v in scores])
    if group_by is None:
        return population
    groups = {}
    for label, v in scores:
        groups.setdefault(label, []).append(v)
    return GroupCalibration(group_by, {g: ranked(v) for g, v in groups.items()}, population)


def band(model, s, cal, times):
    """(centers, stds, R) of the band of s at times, s predicted alone: R is
    its group's radius under Mondrian calibration, the fallback's for a
    label calibration lacks, else the population radius."""
    means, stds = predict(model, s, times)
    if isinstance(cal, GroupCalibration):
        R = cal.per_group.get(s.labels.get(cal.grouping_column), cal.fallback).radius
    else:
        R = cal.radius
    return means.tolist(), stds.tolist(), R


def band_rows(bands):
    """Each band of a band set as (subject ID, times, centers, stds, R), lists."""
    bounds = bands.offsets.tolist()
    return [(sid, *(c[lo:hi].tolist() for c in (bands.times, bands.centers, bands.stds)), R)
            for sid, lo, hi, R in zip(bands.subject_ids, bounds, bounds[1:],
                                      bands.radii.tolist())]


# ---------------------------------------------------------------------------
# Coverage and width

def coverage_and_width(bands, subjects, grouping_column=None):
    """The EvalReport of per-subject bands: bands[k] is (centers, stds, R) of
    the k-th scored subject at its visit times.  Each score is a Python max
    of |y - mu| / sigma over its visits."""
    subjects = scored(subjects)
    assert len(bands) == len(subjects)
    covered, n_inf, widths, buckets, groups = 0, 0, [], {}, {}
    for s, (centers, stds, R) in zip(subjects, bands):
        ok = max(abs(y - mu) / sd for (_, y), mu, sd in zip(s.visits, centers, stds)) <= R
        covered += ok
        n_inf += not math.isfinite(R)
        w = [2.0 * (R * sd) for sd in stds] if math.isfinite(R) else []
        widths += w
        for t, wt in zip(times_of(s), w):
            buckets.setdefault((t - 1) // BUCKET_MONTHS, []).append(wt)
        g_ok, g_w = groups.setdefault(s.labels.get(grouping_column), ([], []))
        g_ok.append(ok)
        g_w += w
    per_group = None if grouping_column is None else {
        g: {"coverage": float(np.mean(c)), "width": float(np.mean(w)) if w else math.nan,
            "n": len(c)} for g, (c, w) in groups.items()}
    return EvalReport(
        covered / len(subjects) if subjects else math.nan,
        float(np.mean(widths)) if widths else math.nan, len(subjects), n_inf,
        {b: float(np.mean(w)) for b, w in sorted(buckets.items())}, per_group)


def evaluate_split(model, calib, test, alpha, group_by=None):
    """The EvalReport of one fitted split: calib and test are Datasets."""
    cal = calibrate(model, subjects_of(calib), alpha, group_by)
    subjects = scored(subjects_of(test))
    return coverage_and_width([band(model, s, cal, times_of(s)) for s in subjects],
                              subjects, group_by)


# ---------------------------------------------------------------------------
# Risk

def labels_of(flags):
    return [PROGRESSOR if f else STABLE for f in flags]


def risk_scores(test, truth, model, cal, direction, bootstrap_B=2000, seed=0):
    """risk_pipeline one test subject at a time: its band at its last visit
    time tN, then one scalar roc_hat and rocb call."""
    rule = "le" if direction == "decreasing" else "ge"
    rows = []
    for s in scored(subjects_of(test)):
        if s.id not in truth:
            raise DataError(f"no progression label for subject {s.id}")
        tN = s.visits[-1][0]
        (center,), (std,), R = band(model, s, cal, [tN])
        rh = roc_hat(s.baseline, center, 0, tN)
        r = R * std
        rb = rocb(s.baseline, (center - r, center + r), 0, tN, direction) \
            if math.isfinite(R) else math.nan
        rows.append((s.id, tN, rh, rb, bool(truth[s.id]["is_progressor"])))
    ids, tNs, rhs, rbs, progressor = zip(*rows)
    labels = labels_of(progressor)
    finite = [i for i, rb in enumerate(rbs) if math.isfinite(rb)]
    reports = {"roc_hat": _score_report("roc_hat", list(rhs), labels, rule,
                                        bootstrap_B, seed, 0),
               "rocb": _score_report("rocb", [rbs[i] for i in finite],
                                     [labels[i] for i in finite], rule, bootstrap_B,
                                     seed, len(rows) - len(finite))}
    return RiskScores(ids, np.array(tNs), np.array(rhs), np.array(rbs),
                      np.array(progressor)), reports


def youden_enumeration_oracle(scores, labels, rule):
    pos = np.asarray([lab == PROGRESSOR for lab in labels])
    scores = np.asarray(scores, dtype=float)
    extreme = -math.inf if rule == "le" else math.inf
    best_tau, best_j = None, -math.inf
    for tau in sorted(set(float(v) for v in scores)) + [extreme]:
        flagged = scores <= tau if rule == "le" else scores >= tau
        j = (np.sum(flagged & pos) / np.sum(pos)
             + np.sum(~flagged & ~pos) / np.sum(~pos) - 1.0)
        if j > best_j + 1e-12:
            best_tau, best_j = tau, j
        elif abs(j - best_j) <= 1e-12 and best_tau is not None:
            if (rule == "le" and tau < best_tau) or (rule == "ge" and tau > best_tau):
                best_tau = tau
    return best_tau


def pairwise_auc_oracle(decision, pos):
    wins = 0.0
    pairs = 0
    for i, j in itertools.product(range(len(decision)), repeat=2):
        if pos[i] and not pos[j]:
            pairs += 1
            if decision[i] > decision[j]:
                wins += 1.0
            elif decision[i] == decision[j]:
                wins += 0.5
    return wins / pairs
