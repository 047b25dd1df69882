import numpy as np

from conftraj.data_model import Dataset, _offsets

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def dataset_of(subjects, feature_names, group_columns):
    """The Dataset of a sequence of SubjectRecords, each holding a label for
    every one of group_columns, coded in order of first appearance.  It
    checks nothing itself: the Dataset constructor does."""
    subjects = tuple(subjects)
    n = len(subjects)
    categories = [{} for _ in group_columns]        # label -> code
    codes = [[cats.setdefault(s.group_labels[c], len(cats))
              for c, cats in zip(group_columns, categories)] for s in subjects]
    return Dataset(subject_ids=tuple(s.subject_id for s in subjects),
                   features=np.array([s.features for s in subjects],
                                     dtype=float).reshape(n, len(feature_names)),
                   baseline=[s.baseline_value for s in subjects],
                   offsets=_offsets([len(s.visits) for s in subjects]),
                   times=[t for s in subjects for t, _ in s.visits],
                   values=[y for s in subjects for _, y in s.visits],
                   group_codes=np.array(codes, dtype=np.intp).reshape(n, len(group_columns)),
                   group_categories=tuple(map(tuple, categories)),
                   feature_names=tuple(feature_names), group_columns=tuple(group_columns))
