import re
import tracemalloc

import numpy as np
import pytest

from conftraj.errors import ConfigurationError
from conftraj.synth import SYNTH_RULES, GroupSpec, SynthConfig, generate
from tests.reference import subjects_of, times_of


def test_noiseless_linear():
    cfg = SynthConfig(n_subjects=1, noise_std=0.0, heterogeneity_std=0.0,
                      slope_stable=-0.01, slope_progressor=-0.05,
                      progressor_frac=0.0, seed=5)
    ds, truth = generate(cfg)
    (s,) = subjects_of(ds)
    for t, y in s.visits:
        assert y == pytest.approx(s.baseline - 0.01 * t, abs=1e-12)
    assert truth[s.id]["true_slope"] == pytest.approx(-0.01)


def test_no_progressors():
    ds, truth = generate(SynthConfig(n_subjects=50, progressor_frac=0.0, seed=2))
    assert not any(v["is_progressor"] for v in truth.values())


def test_deterministic():
    cfg = SynthConfig(n_subjects=200, seed=77)
    ds1, t1 = generate(cfg)
    ds2, t2 = generate(cfg)
    assert t1 == t2
    for a, b in zip(subjects_of(ds1), subjects_of(ds2)):
        assert a.visits == b.visits
        assert np.array_equal(a.features, b.features)


def test_visit_times_valid():
    ds, _ = generate(SynthConfig(n_subjects=300, max_time=60, seed=9))
    for s in subjects_of(ds):
        times = times_of(s)
        assert all(1 <= t <= 60 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))


def test_progressor_fraction_within_3se():
    frac = 0.3
    n = 800
    _, truth = generate(SynthConfig(n_subjects=n, progressor_frac=frac, seed=4))
    emp = np.mean([v["is_progressor"] for v in truth.values()])
    se = np.sqrt(frac * (1 - frac) / n)
    assert abs(emp - frac) <= 3 * se


def test_group_labels_and_rates():
    gs = GroupSpec("site", ("a", "b"), (0.5, 0.5),
                   progressor_rates={"a": 0.9, "b": 0.1})
    _, truth = generate(SynthConfig(n_subjects=600, group_spec=(gs,), seed=8))
    ds, truth = generate(SynthConfig(n_subjects=600, group_spec=(gs,), seed=8))
    rates = {}
    for s in subjects_of(ds):
        rates.setdefault(s.labels["site"], []).append(truth[s.id]["is_progressor"])
    assert np.mean(rates["a"]) > 0.75
    assert np.mean(rates["b"]) < 0.25


def test_visits_mean_below_one_rejected():
    with pytest.raises(ConfigurationError):
        SynthConfig(n_subjects=10, visits_mean=0.5)


@pytest.mark.parametrize("key", SYNTH_RULES)
def test_wrong_type_names_the_field(key):
    # each field's one rule covers its type as well as its range
    for value in ("x", [[]]):
        with pytest.raises(ConfigurationError, match=f"^{key} must be "):
            SynthConfig(**{"n_subjects": 10, key: value})


@pytest.mark.parametrize("categories,probs,expected", [
    (("a",), 1.0, "group s: probs must be a list, got 1.0"),
    ("ab", (0.5, 0.5), "group s: categories must be a list of strings, got 'ab'"),
])
def test_group_spec_lists_are_its_own_rule(categories, probs, expected):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(expected)}$"):
        GroupSpec(column="s", categories=categories, probs=probs)
    # a list, as a JSON config gives it, is kept as a tuple
    gs = GroupSpec(column="s", categories=["a", "b"], probs=[0.5, 0.5])
    assert (gs.categories, gs.probs) == (("a", "b"), (0.5, 0.5))


def test_feature_matrix_bounded():
    with pytest.raises(ConfigurationError, match=r"^n_subjects \* feature_dim must be "
                       r"at most 10\*\*7 feature values, got 1 \* 1000000000000$"):
        SynthConfig(n_subjects=1, feature_dim=10 ** 12)
    SynthConfig(n_subjects=10 ** 6, feature_dim=10, visits_mean=1)


def test_slope_ordering_enforced():
    with pytest.raises(ConfigurationError):
        SynthConfig(n_subjects=10, slope_stable=-0.02, slope_progressor=-0.01)
    # increasing direction flips the requirement
    SynthConfig(n_subjects=10, direction="increasing",
                slope_stable=0.002, slope_progressor=0.02)


def test_generate_memory_does_not_grow_with_max_time():
    # visit times are drawn without building the range 1..horizon
    tracemalloc.start()
    try:
        generate(SynthConfig(n_subjects=20, max_time=10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("columns,named", [
    (("subject_id",), "subject_id"), (("time_months",), "time_months"),
    (("biomarker",), "biomarker"), (("f0",), "f0"), (("f3",), "f3"),
    (("site", "site"), "site")])
def test_group_column_must_not_repeat_a_written_column(columns, named):
    # save_csv writes subject_id, time_months, biomarker, f0 ... f{d-1} and
    # then the group columns; a repeated header name would not load back
    specs = tuple(GroupSpec(c, ("a", "b"), (0.5, 0.5)) for c in columns)
    with pytest.raises(ConfigurationError, match=f"column '{named}' is already a column"):
        SynthConfig(n_subjects=10, feature_dim=4, group_spec=specs)


@pytest.mark.parametrize("column", ["f4", "f01", "F0", "site", "f" + "9" * 5000],
                         ids=["f4", "f01", "F0", "site", "f99...9"])
def test_group_column_beside_the_written_columns_accepted(column):
    SynthConfig(n_subjects=10, feature_dim=4,
                group_spec=(GroupSpec(column, ("a", "b"), (0.5, 0.5)),))
