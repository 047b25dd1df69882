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
from itertools import repeat
from operator import le, lt

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
        if any(map(lt, times, repeat(1))):
            raise DataError(f"subject {self.subject_id}: visit time < 1")
        if any(map(le, times[1:], times)):
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


MAX_TIME = 2 ** 53 - 1   # a float holds every integer month up to it


def _parse_time(cell, row_no):
    try:
        t = int(cell)
    except ValueError:
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
    t = int(t)
    if t < 0:
        raise DataError(f"row {row_no}: negative visit time {t}")
    return t


def _nul_free_lines(fh, path):
    """The lines of fh.  A NUL character is a DataError naming the line: the
    csv module of Python 3.10 cannot read one, so no version accepts it."""
    for line_no, line in enumerate(fh, start=1):
        if "\0" in line:
            raise DataError(f"{path} line {line_no}: NUL character")
        yield line


def csv_rows(path, columns):
    """(row number, cells of columns in order) for each data row of the CSV
    at path, whose header must name every one of columns.  The header is
    row 1; blank lines are skipped and not counted; a header name that
    repeats means its last column; a row must have as many cells as the
    header.  A line the csv module cannot read (such as a field longer than
    its field size limit) is a DataError naming the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_nul_free_lines(fh, path))
        try:
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}
            for col in columns:
                if col not in index:
                    raise SchemaError(f"missing column {col!r} in {path}")
            picks = [index[col] for col in columns]
            row_no = 1
            for row in reader:
                if not row:
                    continue
                row_no += 1
                if len(row) != len(header):
                    raise DataError(f"row {row_no}: cell count differs from the header "
                                    f"of {path}")
                yield row_no, [row[i] for i in picks]
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a long-format cohort CSV into a Dataset.

    Rows are grouped by subject, visits sorted by time, and the month-0 row
    becomes the baseline observation.  Duplicate (subject, time) rows,
    fractional or non-finite times, non-finite biomarker or feature cells,
    and rows whose features or group labels differ from the subject's
    earlier rows are rejected.
    """
    n_feat = len(schema.feature_cols)
    needed = ([schema.subject_col, schema.time_col, schema.value_col]
              + list(schema.feature_cols) + list(schema.group_cols))
    # sid -> (first row's feature and group cells, its features, its group
    # labels, {t: y}); a later row with the same cells reuses the features
    by_subject: dict = {}
    for row_no, cells in csv_rows(path, needed):
        sid, rest = cells[0], cells[3:]
        t = _parse_time(cells[1], row_no)
        entry = by_subject.get(sid)
        if entry is not None and t in entry[3]:
            raise DataError(f"row {row_no}: duplicate (subject, time) = ({sid}, {t})")
        reuse = entry is not None and rest == entry[0]
        try:
            y = float(cells[2])
            feats = entry[1] if reuse else [float(c) for c in rest[:n_feat]]
        except ValueError as exc:
            raise DataError(f"row {row_no}: non-numeric cell ({exc})")
        if not (math.isfinite(y) and (reuse or all(map(math.isfinite, feats)))):
            raise DataError(f"row {row_no}: non-finite biomarker or feature cell")
        if entry is None:
            entry = by_subject[sid] = (rest, feats,
                                       dict(zip(schema.group_cols, rest[n_feat:])), {})
        elif not reuse and (feats != entry[1] or rest[n_feat:] != entry[0][n_feat:]):
            raise DataError(f"row {row_no}: subject {sid} features or group "
                            "labels differ from its earlier rows")
        entry[3][t] = y

    subjects = []
    n_empty = 0
    for sid, (_, feats, groups, values) in by_subject.items():
        times = sorted(values)
        if times[0] != 0:
            raise DataError(f"subject {sid}: no month-0 baseline row")
        visits = tuple((t, values[t]) for t in times[1:])
        if not visits:
            n_empty += 1
        subjects.append(SubjectRecord(sid, np.asarray(feats, dtype=float),
                                      groups, values[0], visits))
    if n_empty:
        log.info("loaded %d subjects, %d with no follow-up visits", len(subjects), n_empty)
    return Dataset(tuple(subjects), tuple(schema.feature_cols), tuple(schema.group_cols))


def save_csv(ds: Dataset, path) -> None:
    """Serialize a Dataset back to the long CSV format (round-trips load_csv).
    A subject ID or group label that load_csv rejects, one holding a NUL
    character or longer than csv.field_size_limit(), is a DataError naming
    the subject."""
    header = (["subject_id", "time_months", "biomarker"]
              + list(ds.feature_names) + list(ds.group_columns))
    limit = csv.field_size_limit()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in ds.subjects:
            feats = [repr(float(v)) for v in s.features]
            groups = [s.group_labels[c] for c in ds.group_columns]
            if "\0" in s.subject_id or any("\0" in g for g in groups):
                raise DataError(f"subject {s.subject_id!r}: NUL character in its ID "
                                "or a group label")
            longest = max(len(text) for text in (s.subject_id, *groups))
            if longest > limit:
                raise DataError(f"subject {s.subject_id[:20]!r} (ID of {len(s.subject_id)} "
                                f"characters): its ID or a group label has {longest} "
                                f"characters, over the csv field limit ({limit})")
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

    mean, std = stats.mean, stats.std
    subjects = tuple(
        SubjectRecord(s.subject_id, s.features, s.group_labels,
                      (s.baseline_value - mean) / std,
                      tuple([(t, (y - mean) / std) for t, y in s.visits]))
        for s in ds.subjects)
    return Dataset(subjects, ds.feature_names, ds.group_columns), stats


def split(ds: Dataset, test_frac: float, calib_frac: float, seed: int) -> SplitIndices:
    """Seeded shuffle-split into train / calibration / test subject indices.

    The seed permutes the subjects sorted by subject_id, not in file order.
    floor(N * test_frac) subjects go to test; of the remainder,
    floor(. * calib_frac) go to calibration; the rest train.
    """
    if not 0 < test_frac < 1:
        raise ConfigurationError(f"test_frac must be in (0,1), got {test_frac}")
    if not 0 <= calib_frac < 1:
        raise ConfigurationError(f"calib_frac must be in [0,1), got {calib_frac}")
    n = len(ds)
    rng = np.random.default_rng(seed)
    by_id = sorted(range(n), key=lambda i: ds.subjects[i].subject_id)
    perm = np.asarray(by_id, dtype=int)[rng.permutation(n)]
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
