"""Dataset representation, CSV ingestion, standardization, and seeded splitting.

A cohort is a collection of subjects, each carrying a covariate vector, a
baseline biomarker observation at month 0, and an ordered list of
randomly-timed follow-up visits (positive integer months, strictly
increasing).  A Dataset stores the cohort one array per column; the
per-subject SubjectRecord is a view built on demand.
"""

from __future__ import annotations

import csv
import gc
import io
import logging
import math
import os
import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import getitem, itemgetter, ne

import numpy as np

from .errors import FRACTION, ConfigurationError, DataError, SchemaError, check_rules, is_number

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubjectRecord:
    """One subject of a Dataset, as Dataset.subjects builds it: a read-only
    view with no checks of its own, since the Dataset ran them."""
    subject_id: str
    features: np.ndarray          # shape (d,)
    group_labels: dict            # categorical column -> category string
    baseline_value: float         # biomarker at month 0
    visits: tuple                 # ordered ((time, value), ...), times >= 1

    @property
    def visit_times(self):
        return [t for t, _ in self.visits]


@dataclass(frozen=True)
class StandardizationStats:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise DataError(f"standardization std must be positive, got {self.std}")


def _offsets(counts):
    """Row offsets of consecutive runs of the given lengths: run i owns rows
    offsets[i]:offsets[i + 1]."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _take(items, indices):
    """The tuple of items[i] for each i of the list of ints indices."""
    if len(indices) < 2:
        return tuple(items[i] for i in indices)
    return itemgetter(*indices)(items)       # one call, where a generator makes n


def _first_difference(a, b):
    """The first index at which the tuples a and b differ, the shorter one's
    length when it begins the other; a and b must differ."""
    return next(k for k, pair in enumerate(zip(a + (None,), b + (None,)))
                if pair[0] != pair[1])


CSV_COLUMNS = ("subject_id", "time_months", "biomarker")   # save_csv's first columns


@dataclass(frozen=True, eq=False)
class Dataset:
    """A cohort, one array per column.  Subject i has ID subject_ids[i],
    covariates features[i] and month-0 biomarker baseline[i]; its visits
    are times[offsets[i]:offsets[i + 1]] (months >= 1, strictly increasing)
    with biomarker values values[offsets[i]:offsets[i + 1]]; its label in
    group_columns[j] is group_categories[j][group_codes[i, j]].  The arrays
    are read-only."""
    subject_ids: tuple
    features: np.ndarray          # (n, d) float
    baseline: np.ndarray          # (n,) float
    offsets: np.ndarray           # (n + 1,) int
    times: np.ndarray             # (offsets[-1],) int
    values: np.ndarray            # (offsets[-1],) float
    group_codes: np.ndarray       # (n, len(group_columns)) int
    group_categories: tuple       # per group column, the labels its codes index
    feature_names: tuple
    group_columns: tuple

    def __post_init__(self):
        for name, dtype in (("features", float), ("baseline", float), ("offsets", np.intp),
                            ("times", np.int64), ("values", float),
                            ("group_codes", np.intp)):
            given = np.asarray(getattr(self, name))
            if dtype is not float and given.dtype.kind not in "iu" and given.size and not (
                    given.dtype.kind == "f"
                    and np.all((given == np.floor(given)) & (abs(given) <= MAX_TIME))):
                raise DataError(f"dataset column {name} holds a value that is not "
                                "a whole number")
            column = given.astype(dtype)       # a copy: the caller's array stays as it was
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        ids, offsets, times = self.subject_ids, self.offsets, self.times
        n, d, g = len(ids), len(self.feature_names), len(self.group_columns)
        if not (self.features.ndim == 2 and len(self.features) == n
                and self.baseline.shape == (n,) and offsets.shape == (n + 1,)
                and offsets[0] == 0 and np.all(offsets[1:] >= offsets[:-1])
                and offsets[-1] == len(times) == len(self.values)
                and self.group_codes.shape == (n, g) and len(self.group_categories) == g
                and all(np.all((0 <= codes) & (codes < len(c)))
                        for codes, c in zip(self.group_codes.T, self.group_categories))):
            raise DataError(f"dataset columns do not line up with its {n} subjects "
                            f"and {len(times)} visits")
        # a label has one code, so grouping by code is grouping by label
        for column, categories in zip(self.group_columns, self.group_categories):
            if len(set(categories)) != len(categories):
                raise DataError(f"dataset group column {column!r} lists a category twice")
        # each subject's visit times, in subject order, then the cohort's rules
        owner = np.repeat(np.arange(n), np.diff(offsets))
        early = owner[times < 1]
        unordered = owner[1:][(times[1:] <= times[:-1]) & (owner[1:] == owner[:-1])]
        first = min(early[:1].tolist() + unordered[:1].tolist(), default=None)
        if first is not None:
            raise DataError(f"subject {ids[first]}: visit time < 1" if first in early[:1]
                            else f"subject {ids[first]}: visit times not strictly increasing")
        if len(set(ids)) != n:
            raise DataError("duplicate subject_ids in dataset")
        if n and self.features.shape[1] != d:
            raise DataError(f"subject {ids[0]}: feature vector length "
                            f"{self.features.shape[1]} != {d}")
        # save_csv writes these names as one header, which load_csv must read back
        seen = set(CSV_COLUMNS)
        for name in (*self.feature_names, *self.group_columns):
            if name in seen:
                raise DataError(f"dataset column {name!r} is named twice among "
                                f"{', '.join(CSV_COLUMNS)} and its feature and group columns")
            seen.add(name)

    def __len__(self):
        return len(self.subject_ids)

    @property
    def visit_counts(self):
        """The number of follow-up visits of each subject."""
        return np.diff(self.offsets)

    def group(self, column):
        """(codes, categories) of a group column: subject i's label is
        categories[codes[i]].  Every subject's label in a column the dataset
        does not have is None."""
        if column not in self.group_columns:
            return np.zeros(len(self), dtype=np.intp), (None,)
        j = self.group_columns.index(column)
        return self.group_codes[:, j], self.group_categories[j]

    def _label_rows(self):
        """Each subject's labels, one per group column."""
        columns = [[cats[c] for c in codes] for codes, cats in
                   zip(self.group_codes.T.tolist(), self.group_categories)]
        return list(zip(*columns)) if columns else [()] * len(self)

    @property
    def subjects(self):
        """One SubjectRecord per subject, built anew on each access, so a
        write into a record's group_labels changes a throwaway record, not
        the next reader's."""
        times, values = self.times.tolist(), self.values.tolist()
        labels, bounds = self._label_rows(), self.offsets.tolist()
        return tuple(
            SubjectRecord(sid, self.features[i], dict(zip(self.group_columns, labels[i])),
                          baseline, tuple(zip(times[lo:hi], values[lo:hi])))
            for i, (sid, baseline, lo, hi) in enumerate(zip(
                self.subject_ids, self.baseline.tolist(), bounds, bounds[1:])))

    @cached_property
    def _id_order(self):
        """The subject indices in subject_id order, sorted on first use."""
        ids = self.subject_ids
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        order.flags.writeable = False
        return order

    def _derive(self, **columns):
        """A Dataset of self's columns with the given ones replaced by fresh
        arrays that meet __post_init__'s checks because self does, which
        are not run again.  Nothing cached on self (_id_order) is carried
        over."""
        ds = object.__new__(Dataset)
        for f in fields(Dataset):
            column = columns.get(f.name, getattr(self, f.name))
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
            object.__setattr__(ds, f.name, column)
        return ds

    def subset(self, indices) -> "Dataset":
        """The subjects indices of self, in that order; an index may not repeat."""
        idx = np.asarray(indices, dtype=np.intp)
        features = self.features[idx]          # an index out of range is an IndexError
        if len(idx) and np.bincount(idx % len(self)).max() > 1:
            raise DataError("duplicate subject_ids in dataset")
        counts = self.visit_counts[idx]
        offsets = _offsets(counts)
        rows = np.repeat(self.offsets[:-1][idx] - offsets[:-1], counts) + np.arange(offsets[-1])
        return self._derive(subject_ids=_take(self.subject_ids, idx.tolist()),
                            features=features, baseline=self.baseline[idx],
                            offsets=offsets, times=self.times[rows],
                            values=self.values[rows], group_codes=self.group_codes[idx])

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
        parts = np.concatenate([np.asarray(part, dtype=np.intp)
                                for part in (self.train, self.calib, self.test)])
        if len(parts) and np.bincount(parts - parts.min()).max() > 1:
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

    def __post_init__(self):
        seen = set()
        for name in (self.subject_col, self.time_col, self.value_col,
                     *self.feature_cols, *self.group_cols):
            if name in seen:
                raise SchemaError(f"column {name!r} is named twice among the subject, "
                                  "time, value, feature and group columns")
            seen.add(name)


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


BLOCK = 2048      # lines and rows read at a time (4096 held 2 MB more on 20,000 rows)


UNDECODED = re.compile("[\udc80-\udcff]")   # how surrogateescape reads a byte not UTF-8


def open_csv(path):
    """path opened to read as CSV text: UTF-8, with each byte that is not
    UTF-8 read as its surrogateescape character, which csv_blocks names."""
    return open(path, newline="", encoding="utf-8", errors="surrogateescape")


def open_fresh(path):
    """path opened to write UTF-8 text as a new file: whatever was at path
    is unlinked first, so a link there is replaced, not written through.
    Truncating a file in place can block for hundreds of milliseconds on a
    file system that discards freed blocks; unlinking it does not."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", newline="", encoding="utf-8")


WRITE_BLOCK = 128   # subjects or truth rows formatted per write: about 80 KB of
                    # cohort rows, so no transient string reaches glibc's 128 KB
                    # mmap threshold, which freeing one would raise for the process

NEEDS_QUOTES = re.compile('[,"\r\n]')     # what csv.writer quotes in a cell


def csv_cell(text):
    """text as csv.writer writes it in a row of several cells."""
    if NEEDS_QUOTES.search(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]      # less the row's "\r\n"


def _line_fault(line):
    """Why csv_blocks refuses line, or None: a NUL character, which the csv
    module of Python 3.10 cannot read, or a byte that is not UTF-8."""
    if "\0" in line:
        return "NUL character"
    if not line.isascii() and UNDECODED.search(line):
        return "a byte that is not UTF-8"
    return None


def _line_blocks(blocks, path, line_no):
    """The blocks of lines of blocks, whose first line is line line_no + 1.
    A line _line_fault refuses is a DataError naming it, raised after a
    block of the lines before it."""
    for lines in blocks:
        if _line_fault("".join(lines)):
            k, fault = next((k, f) for k, f in enumerate(map(_line_fault, lines)) if f)
            yield lines[:k]
            raise DataError(f"{path} line {line_no + k + 1}: {fault}")
        line_no += len(lines)
        yield lines


def _read_rows(reader, path, line_no, n):
    """Up to n more rows of reader, which read from line line_no + 1 on, and
    the DataError that ended them early (None if none did)."""
    rows = []
    try:
        rows.extend(islice(reader, n))      # keeps the rows read before an error
    except csv.Error as exc:
        return rows, DataError(f"{path} line {line_no + reader.line_num}: {exc}")
    except DataError as exc:
        return rows, exc
    return rows, None


def _picks(header, columns, path):
    """The index in header of each of columns; one missing from header, or
    named there twice, is a SchemaError."""
    for col in columns:
        if col not in header:
            raise SchemaError(f"missing column {col!r} in {path}")
        if header.count(col) > 1:
            raise SchemaError(f"column {col!r} is named twice in the header of {path}")
    return list(map(header.index, columns))


def _ragged(rows, counts, want, row_no, path):
    """rows up to the first whose count is not want, the first of them row
    row_no, and the DataError naming that row (None if there is none)."""
    if counts.count(want) == len(rows):
        return rows, None
    k = next(k for k, m in enumerate(counts) if m != want)
    return rows[:k], DataError(f"row {row_no + k}: cell count differs from the header of {path}")


def csv_blocks(fh, columns):
    """(number of the first row, cells of each of columns) for each block of
    up to BLOCK data rows of the open CSV file fh (opened by open_csv),
    whose header must name every one of columns; the cells of a column are
    a sequence of strings, one per row.  The header is row 1; blank lines
    are skipped and not counted; one of columns missing from the header, or
    named there twice, is a SchemaError; a row must have as many cells as
    the header.  A faulty row or line (one with another cell count, a NUL
    character, a byte that is not UTF-8, or a line the csv module cannot
    read, such as a field longer than its field size limit) is a DataError
    naming it, raised after a block of the rows before it.  Messages name
    the file by fh.name.

    A block of lines with no quote, no NUL character, no byte that is not
    UTF-8 and none longer than csv.field_size_limit() is split at its
    commas, which reads what the csv module reads: its n rows are joined
    with ",\n," and split once, so each row of width cells is followed by
    a "\n" cell, which no cell of a line holds.  From the first block
    holding one, the csv module reads the rest of the file."""
    path, limit = fh.name, csv.field_size_limit()
    blocks = iter(lambda: list(islice(fh, BLOCK)), [])
    line_no, row_no, picks = 0, 2, None
    for raw in blocks:
        lines = list(map(str.rstrip, raw, repeat("\r\n")))
        text = ",\n,".join(lines)
        if '"' in text or _line_fault(text) or max(map(len, lines)) > limit:
            break
        line_no += len(lines)
        if picks is None:
            header = lines.pop(0).split(",") if lines[0] else []
            picks, width = _picks(header, columns, path), len(header)
        if not all(lines):
            lines = [line for line in lines if line]
        if not lines:
            continue
        if len(lines) < len(raw):               # the header or blank lines left
            text = ",\n,".join(lines)
        cells, n, fault = text.split(","), len(lines), None
        if len(cells) != n * (width + 1) - 1 or cells[width::width + 1].count("\n") != n - 1:
            lines, fault = _ragged(lines, list(map(str.count, lines, repeat(","))), width - 1,
                                   row_no, path)
            cells = ",\n,".join(lines).split(",")
        if lines:
            yield row_no, [cells[i::width + 1] for i in picks]
            row_no += len(lines)
        if fault:
            raise fault
    else:
        if picks is None:
            _picks([], columns, path)
        return
    reader = csv.reader(chain.from_iterable(_line_blocks(chain([raw], blocks), path, line_no)))
    if picks is None:
        header, fault = _read_rows(reader, path, line_no, 1)
        if fault:
            raise fault
        header = header[0] if header else []
        picks, width = _picks(header, columns, path), len(header)
    while True:
        rows, fault = _read_rows(reader, path, line_no, BLOCK)
        done = fault is not None or len(rows) < BLOCK
        if not all(rows):
            rows = [row for row in rows if row]
        rows, ragged = _ragged(rows, list(map(len, rows)), width, row_no, path)
        if rows:
            cells = list(zip(*rows))
            yield row_no, [cells[i] for i in picks]
            row_no += len(rows)
        if ragged or fault:
            raise ragged or fault
        if done:
            return


def _cohort_columns(schema):
    """The columns a cohort CSV is read by, in the order the readers unpack them."""
    return [schema.subject_col, schema.time_col, schema.value_col,
            *schema.feature_cols, *schema.group_cols]


def _parse_times(cells, row_no):
    """The visit times of cells, the first on row row_no, by _parse_time."""
    try:
        times = list(map(int, cells))
        if 0 <= min(times) and max(times) <= MAX_TIME:
            return times
    except ValueError:
        pass
    return [_parse_time(cell, row_no + k) for k, cell in enumerate(cells)]


def _block_fault(row_no, sids, codes, time_cells, value_cells, rests, firsts, n_feat):
    """The times of a faulty block's rows, the first row row_no, up to its
    first faulty row (that row's too if it parsed), and that row's DataError
    (None if none), by every rule of load_csv but the duplicate one, applied
    row by row: the time, then numeric cells, then finite values, then the
    features and group labels against those of the subject's first row."""
    times = []
    for k, (sid, code, cell, value, rest) in enumerate(
            zip(sids, codes, time_cells, value_cells, rests)):
        try:
            times.append(_parse_time(cell, row_no + k))
        except DataError as exc:
            return times, exc
        cells, first = rest.split("\0"), firsts[code].split("\0")
        try:
            y, feats = float(value), list(map(float, cells[:n_feat]))
        except ValueError as exc:
            return times, DataError(f"row {row_no + k}: non-numeric cell ({exc})")
        if not (math.isfinite(y) and all(map(math.isfinite, feats))):
            return times, DataError(f"row {row_no + k}: non-finite biomarker or feature cell")
        if feats != list(map(float, first[:n_feat])) or cells[n_feat:] != first[n_feat:]:
            return times, DataError(f"row {row_no + k}: subject {sid} features or group "
                                    "labels differ from its earlier rows")
    return times, None


def _read_columns(fh, schema):
    """The columns of the cohort CSV fh, unsorted: the subject IDs in order
    of first row; per row, in file order, its subject's code, its time and
    its value; per subject, its features and group codes; per group column,
    its label -> code; and the DataError of the first faulty row by every
    rule but the duplicate one (None if none), where the read stops: the
    codes and times end with that row's, its time only if it parsed."""
    n_feat = len(schema.feature_cols)
    index = {}                                   # subject ID -> code, in file order
    firsts = []                                  # per subject, its first row's rest key
    labels = [{} for _ in schema.group_cols]     # per group column, label -> code
    # per block: codes, times and values of its rows; features and group
    # codes of the subjects it is first to name
    codes, times, values = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    features, group_codes = [np.empty((0, n_feat))], [np.empty((0, len(labels)), np.intp)]
    fault = None
    try:
        for row_no, (sid_cells, time_cells, value_cells, *rest_cols) in csv_blocks(
                fh, _cohort_columns(schema)):
            n, known = len(sid_cells), len(index)
            for sid in dict.fromkeys(sid_cells):
                index.setdefault(sid, len(index))
            block_codes = list(map(index.__getitem__, sid_cells))
            first_rows = np.unique(block_codes, return_index=True)[1]     # of each subject
            first_rows = first_rows[len(first_rows) - (len(index) - known):].tolist()  # new
            # a row's feature and group cells as one string: a key, not a tracked object
            rests = list(map("\0".join, zip(*rest_cols))) if rest_cols else [""] * n
            firsts.extend(map(rests.__getitem__, first_rows))
            try:            # a fault is only detected here, and named by _block_fault
                block_values = np.array(list(map(float, value_cells)))
                block_feats = np.array(list(map(float, chain.from_iterable(
                    map(col.__getitem__, first_rows) for col in rest_cols[:n_feat]))))
                block_feats = block_feats.reshape(n_feat, len(first_rows)).T
                if not (np.isfinite(block_values).all() and np.isfinite(block_feats).all()):
                    raise DataError("non-finite biomarker or feature cell")
                # a row whose cells differ as text from its subject's first row's
                # may still hold the same features (70 against 70.0)
                for k in compress(range(n), map(ne, rests,
                                                map(firsts.__getitem__, block_codes))):
                    cells, first = rests[k].split("\0"), firsts[block_codes[k]].split("\0")
                    if (list(map(float, cells[:n_feat])) != list(map(float, first[:n_feat]))
                            or cells[n_feat:] != first[n_feat:]):
                        raise DataError("features or group labels differ within a subject")
                block_times = _parse_times(time_cells, row_no)
            except (DataError, ValueError) as exc:
                block_times, fault = _block_fault(row_no, sid_cells, block_codes, time_cells,
                                                  value_cells, rests, firsts, n_feat)
                block_codes = block_codes[:len(block_times)]
                fault = fault or exc
            codes.append(np.array(block_codes, dtype=np.int64))
            times.append(np.array(block_times, dtype=np.int64))
            if fault:
                break
            values.append(block_values)
            features.append(block_feats)
            group_codes.append(np.array(
                [[lab.setdefault(label, len(lab)) for label in map(col.__getitem__, first_rows)]
                 for lab, col in zip(labels, rest_cols[n_feat:])],
                dtype=np.intp).reshape(len(labels), len(first_rows)).T)
    except DataError as exc:                     # csv_blocks' fault
        fault = exc
    return (tuple(index), np.concatenate(codes), np.concatenate(times), np.concatenate(values),
            np.concatenate(features), np.concatenate(group_codes), labels, fault)


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Load a long-format cohort CSV into a Dataset.

    Rows are grouped by subject, visits sorted by time, and the month-0 row
    becomes the baseline observation.  Duplicate (subject, time) rows,
    fractional or non-finite times, non-finite biomarker or feature cells,
    and rows whose features or group labels differ from the subject's
    earlier rows are rejected; the error names the first faulty row in file
    order.  The file is read one block of rows at a time, a column at a
    time, which only detects that a fault exists: a row's feature cells are
    parsed only on its subject's first row and where they differ from that
    row's as text, and duplicates are found, and named, once the rows are
    sorted.  Any other fault is named from its block's rows, one at a time,
    and ends the one read of the file, which may be a pipe.
    """
    with open_csv(path) as fh:
        # a block the csv module reads is thousands of live lists, whose
        # allocation would start garbage collections that free nothing
        collecting = gc.isenabled()
        gc.disable()
        try:
            sids, codes, times, values, features, group_codes, labels, fault = \
                _read_columns(fh, schema)
        finally:
            if collecting:
                gc.enable()
    # a duplicate among the rows read comes before any fault that ended the
    # read.  The sort is stable, so the later rows of a (subject, time)
    # follow its first, and the smallest of them is the first in file order
    order = np.lexsort((times, codes))
    repeats = order[1:][(np.diff(codes[order]) == 0) & (np.diff(times[order]) == 0)]
    if len(repeats):
        k = int(repeats.min())
        raise DataError(f"row {k + 2}: duplicate (subject, time) = "
                        f"({sids[codes[k]]}, {int(times[k])})")
    if fault:
        raise fault
    times, values = times[order], values[order]
    n = len(sids)
    counts = np.bincount(codes, minlength=n)
    starts = _offsets(counts)[:-1]
    missing = np.flatnonzero(times[starts] != 0)
    if len(missing):
        raise DataError(f"subject {sids[missing[0]]}: no month-0 baseline row")
    visit = np.ones(len(times), dtype=bool)
    visit[starts] = False
    n_empty = int(np.count_nonzero(counts == 1))
    if n_empty:
        log.info("loaded %d subjects, %d with no follow-up visits", n, n_empty)
    return Dataset(subject_ids=sids, features=features,
                   baseline=values[starts], offsets=_offsets(counts - 1),
                   times=times[visit], values=values[visit],
                   group_codes=group_codes,
                   group_categories=tuple(tuple(lab) for lab in labels),
                   feature_names=tuple(schema.feature_cols),
                   group_columns=tuple(schema.group_cols))


def _check_writable(ds: Dataset):
    """Raise a DataError naming the first subject whose ID or a group label
    load_csv would refuse: one holding a NUL character or longer than
    csv.field_size_limit()."""
    limit = csv.field_size_limit()

    def bad(text):
        return "\0" in text or len(text) > limit

    faulty = np.fromiter(map(bad, ds.subject_ids), bool, len(ds))
    for codes, categories in zip(ds.group_codes.T, ds.group_categories):
        faulty |= np.fromiter(map(bad, categories), bool, len(categories))[codes]
    if not faulty.any():
        return
    i = int(np.argmax(faulty))
    sid, groups = ds.subject_ids[i], ds._label_rows()[i]
    if "\0" in sid or any("\0" in g for g in groups):
        raise DataError(f"subject {sid!r}: NUL character in its ID or a group label")
    longest = max(len(text) for text in (sid, *groups))
    raise DataError(f"subject {sid[:20]!r} (ID of {len(sid)} characters): its ID or a "
                    f"group label has {longest} characters, over the csv field limit "
                    f"({limit})")


def save_csv(ds: Dataset, path) -> None:
    """Serialize a Dataset back to the long CSV format (round-trips load_csv),
    byte for byte as csv.writer writes it: each subject's month-0 row, then
    its visits.  A subject ID or group label that load_csv rejects, one
    holding a NUL character or longer than csv.field_size_limit(), is a
    DataError naming the subject, raised before anything is written."""
    _check_writable(ds)
    labels = [tuple(map(csv_cell, categories)) for categories in ds.group_categories]
    with open_fresh(path) as fh:
        fh.write(",".join(map(csv_cell, (*CSV_COLUMNS, *ds.feature_names,
                                         *ds.group_columns))) + "\r\n")
        for a in range(0, len(ds), WRITE_BLOCK):
            block = slice(a, a + WRITE_BLOCK)
            bounds = ds.offsets[a:a + WRITE_BLOCK + 1]
            starts = bounds[:-1] - bounds[0]
            visits = slice(bounds[0], bounds[-1])
            times = np.insert(ds.times[visits], starts, 0).tolist()
            values = np.insert(ds.values[visits], starts, ds.baseline[block])
            rows = (np.diff(bounds) + 1).tolist()       # the baseline row and the visits
            heads = map(csv_cell, ds.subject_ids[block])
            tails = [",".join(["", *map(repr, feats), *map(getitem, labels, codes)]) + "\r\n"
                     for feats, codes in zip(ds.features[block].tolist(),
                                             ds.group_codes[block].tolist())]
            fh.write("".join(map("{},{},{}{}".format,
                                 chain.from_iterable(map(repeat, heads, rows)), times,
                                 map(repr, values.tolist()),
                                 chain.from_iterable(map(repeat, tails, rows)))))


def standardize(ds: Dataset, stats: StandardizationStats | None = None):
    """Z-score all biomarker values (baseline + visits).

    When stats is None they are computed from ds (the training set, sample
    std), over each subject's baseline then its visits, subjects in order;
    pass the returned stats to standardize calibration/test sets with the
    training scale.
    """
    if stats is None:
        vals = np.insert(ds.values, ds.offsets[:-1], ds.baseline)
        if len(vals) < 2:
            raise DataError("need at least 2 biomarker values to standardize")
        std = float(np.std(vals, ddof=1))
        if std <= 0 or not math.isfinite(std):
            raise DataError("zero-variance biomarker: cannot standardize")
        stats = StandardizationStats(float(np.mean(vals)), std)

    mean, std = stats.mean, stats.std
    return ds._derive(baseline=(ds.baseline - mean) / std,
                      values=(ds.values - mean) / std), stats


# parameter -> (what it must be, test), for split's fractions
SPLIT_RULES = {"test_frac": FRACTION,
               "calib_frac": ("a number in [0,1)", lambda v: is_number(v) and 0 <= v < 1)}


def split(ds: Dataset, test_frac: float, calib_frac: float, seed: int) -> SplitIndices:
    """Seeded shuffle-split into train / calibration / test subject indices.

    The seed permutes the subjects sorted by subject_id, not in file order
    (the order is sorted once per Dataset).  floor(N * test_frac) subjects
    go to test; of the remainder, floor(. * calib_frac) go to calibration;
    the rest train.
    """
    check_rules(SPLIT_RULES, {"test_frac": test_frac, "calib_frac": calib_frac})
    n = len(ds)
    rng = np.random.default_rng(seed)
    perm = ds._id_order[rng.permutation(n)]
    n_test = int(n * test_frac)
    n_calib = int((n - n_test) * calib_frac)
    test = perm[:n_test]
    calib = perm[n_test:n_test + n_calib]
    train = perm[n_test + n_calib:]
    if len(train) < 1:
        raise ConfigurationError("split fractions leave no training subjects")
    return SplitIndices(tuple(train.tolist()), tuple(calib.tolist()), tuple(test.tolist()))
