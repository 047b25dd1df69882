"""Dataset representation, CSV ingestion, standardization, and seeded splitting.

A cohort is a collection of subjects, each carrying a covariate vector, a
baseline biomarker observation at month 0, and an ordered list of
randomly-timed follow-up visits (positive integer months, strictly
increasing).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, SchemaError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    features: np.ndarray          # shape (d,)
    group_labels: dict            # categorical column -> category string
    baseline_value: float         # biomarker at month 0
    visits: tuple                 # ordered ((time, value), ...), times >= 1

    def __post_init__(self):
        times = [t for t, _ in self.visits]
        if any(t < 1 for t in times):
            raise DataError(f"subject {self.subject_id}: visit time < 1")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DataError(f"subject {self.subject_id}: visit times not strictly increasing")

    @property
    def visit_times(self):
        return [t for t, _ in self.visits]

    @property
    def visit_values(self):
        return [y for _, y in self.visits]


@dataclass(frozen=True)
class StandardizationStats:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise DataError(f"standardization std must be positive, got {self.std}")

    def apply(self, y):
        return (np.asarray(y, dtype=float) - self.mean) / self.std


@dataclass(frozen=True)
class Dataset:
    subjects: tuple
    feature_names: tuple
    group_columns: tuple

    def __post_init__(self):
        ids = [s.subject_id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate subject_ids in dataset")
        d = len(self.feature_names)
        for s in self.subjects:
            if len(s.features) != d:
                raise DataError(f"subject {s.subject_id}: feature vector length "
                                f"{len(s.features)} != {d}")

    def __len__(self):
        return len(self.subjects)

    def subset(self, indices) -> "Dataset":
        return replace(self, subjects=tuple(self.subjects[i] for i in indices))

    def scored_subjects(self):
        """Subjects with at least one follow-up visit (the only ones Eq-style
        trajectory scores are defined on)."""
        return [s for s in self.subjects if s.visits]


@dataclass(frozen=True)
class SplitIndices:
    train: tuple
    calib: tuple
    test: tuple

    def __post_init__(self):
        sets = [set(self.train), set(self.calib), set(self.test)]
        total = sum(len(s) for s in sets)
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise DataError("split index sets are not pairwise disjoint")


@dataclass(frozen=True)
class CsvSchema:
    """Maps CSV columns to roles.  The file is long-format: one row per
    (subject, visit); the month-0 row carries the baseline observation and
    the subject-level covariates."""
    subject_col: str = "subject_id"
    time_col: str = "time_months"
    value_col: str = "biomarker"
    feature_cols: tuple = ()
    group_cols: tuple = ()


def _parse_time(cell, row_no):
    try:
        t = float(cell)
    except ValueError:
        raise DataError(f"row {row_no}: non-numeric time {cell!r}")
    if t != int(t):
        raise DataError(f"row {row_no}: fractional visit time {cell!r} (integer months required)")
    t = int(t)
    if t < 0:
        raise DataError(f"row {row_no}: negative visit time {t}")
    return t


def csv_rows(path, columns):
    """(row number, row dict) for each data row of the CSV at path, whose
    header must name every one of columns; the header is row 1, and a row
    must have as many cells as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for col in columns:
            if col not in (reader.fieldnames or []):
                raise SchemaError(f"missing column {col!r} in {path}")
        for row_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise DataError(f"row {row_no}: cell count differs from the header of {path}")
            yield row_no, row


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a long-format cohort CSV into a Dataset.

    Rows are grouped by subject, visits sorted by time, and the month-0 row
    becomes the baseline observation.  Duplicate (subject, time) rows,
    fractional times, non-finite biomarker or feature cells, and rows whose
    features or group labels differ from the subject's earlier rows are
    rejected.
    """
    needed = ([schema.subject_col, schema.time_col, schema.value_col]
              + list(schema.feature_cols) + list(schema.group_cols))
    by_subject: dict = {}       # sid -> (features, group labels, [(t, y), ...])
    seen = set()
    for row_no, row in csv_rows(path, needed):
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
    n_empty = 0
    for sid, (feats, groups, rows) in by_subject.items():
        rows.sort()                 # times are unique within a subject
        if rows[0][0] != 0:
            raise DataError(f"subject {sid}: no month-0 baseline row")
        baseline = rows[0][1]
        visits = tuple(rows[1:])
        if not visits:
            n_empty += 1
        subjects.append(SubjectRecord(sid, np.asarray(feats, dtype=float),
                                      groups, baseline, visits))
    if n_empty:
        log.info("loaded %d subjects, %d with no follow-up visits", len(subjects), n_empty)
    return Dataset(tuple(subjects), tuple(schema.feature_cols), tuple(schema.group_cols))


def save_csv(ds: Dataset, path) -> None:
    """Serialize a Dataset back to the long CSV format (round-trips load_csv)."""
    header = (["subject_id", "time_months", "biomarker"]
              + list(ds.feature_names) + list(ds.group_columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in ds.subjects:
            feats = [repr(float(v)) for v in s.features]
            groups = [s.group_labels[c] for c in ds.group_columns]
            writer.writerow([s.subject_id, 0, repr(float(s.baseline_value))] + feats + groups)
            for t, y in s.visits:
                writer.writerow([s.subject_id, t, repr(float(y))] + feats + groups)


def standardize(ds: Dataset, stats: StandardizationStats | None = None):
    """Z-score all biomarker values (baseline + visits).

    When stats is None they are computed from ds (the training set, sample
    std); pass the returned stats to standardize calibration/test sets with
    the training scale.
    """
    if stats is None:
        vals = np.asarray([v for s in ds.subjects
                           for v in (s.baseline_value, *s.visit_values)], dtype=float)
        if len(vals) < 2:
            raise DataError("need at least 2 biomarker values to standardize")
        std = float(np.std(vals, ddof=1))
        if std <= 0 or not math.isfinite(std):
            raise DataError("zero-variance biomarker: cannot standardize")
        stats = StandardizationStats(float(np.mean(vals)), std)

    new_subjects = tuple(
        replace(s,
                baseline_value=float(stats.apply(s.baseline_value)),
                visits=tuple((t, float(stats.apply(y))) for t, y in s.visits))
        for s in ds.subjects)
    return replace(ds, subjects=new_subjects), stats


def split(ds: Dataset, test_frac: float, calib_frac: float, seed: int) -> SplitIndices:
    """Seeded shuffle-split into train / calibration / test subject indices.

    floor(N * test_frac) subjects go to test; of the remainder,
    floor(. * calib_frac) go to calibration; the rest train.
    """
    if not 0 < test_frac < 1:
        raise ConfigurationError(f"test_frac must be in (0,1), got {test_frac}")
    if not 0 <= calib_frac < 1:
        raise ConfigurationError(f"calib_frac must be in [0,1), got {calib_frac}")
    n = len(ds)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = int(n * test_frac)
    n_calib = int((n - n_test) * calib_frac)
    test = perm[:n_test]
    calib = perm[n_test:n_test + n_calib]
    train = perm[n_test + n_calib:]
    if len(train) < 1:
        raise ConfigurationError("split fractions leave no training subjects")
    return SplitIndices(tuple(int(i) for i in train),
                        tuple(int(i) for i in calib),
                        tuple(int(i) for i in test))
