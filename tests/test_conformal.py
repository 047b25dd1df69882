import gc
import logging
import math
import weakref
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftraj import conformal
from conftraj.conformal import (CalibrationResult, GroupCalibration, ScoreSet, _make_bands,
                                bands_for_dataset, calibrate, mondrian_calibrate,
                                score_dataset, worst_residuals)
from conftraj.data_model import Dataset, standardize
from conftraj.errors import ConfigurationError, DataError
from conftraj.evaluation import coverage_and_width, fit_split, stratified_compare
from conftraj.predictors import (InputScaler, QuantileModel, fit_bootstrap, predict_batch,
                                 visit_rows)
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests.reference import (Subject, band, dataset_of, multi_visit_dataset, radius,
                             scored, subject, subjects_of, times_of)


def scores_of(values):
    return ScoreSet(tuple(f"s{i}" for i in range(len(values))), values)


def constant_model(mean, std):
    """Quantile model with bias-only weights and z = 1: every query on a
    2-feature subject predicts exactly (mean, std)."""
    W = np.zeros((3, 5))
    W[:, -1] = (mean - std, mean, mean + std)
    return QuantileModel(InputScaler(np.zeros(4), np.ones(4)), (0.1, 0.5, 0.9), W, 1.0)


def row_radii(bands):
    """R * sigma at each row of a band set, from its columns."""
    return np.repeat(bands.radii, np.diff(bands.offsets)) * bands.stds


def score_of(model, s):
    (value,) = score_dataset(model, dataset_of((s,), ("f0", "f1"), ("dx",))).values
    return value


# ---------------------------------------------------------------------------
# score_dataset by hand

def test_score_hand_computation():
    s = subject("a", [(6, 1.5), (12, 2.0)])
    # prediction (1.0, 0.5): residuals {0.5, 1.0} -> ratios {1, 2}
    assert score_of(constant_model(1.0, 0.5), s) == pytest.approx(2.0)


def test_score_perfect_predictions():
    s = subject("a", [(6, 1.0), (12, 1.0)])
    assert score_of(constant_model(1.0, 0.5), s) == 0.0


def test_score_single_visit():
    s = subject("a", [(6, 1.5)])
    assert score_of(constant_model(1.0, 0.25), s) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_rank_by_hand():
    cal = calibrate(scores_of([0.8, 0.5, 2.0, 1.2]), alpha=0.5)
    assert cal.rank == 3
    assert cal.radius == pytest.approx(1.2)


def test_calibrate_infinite_when_rank_exceeds_n():
    cal = calibrate(scores_of([0.1, 0.2, 0.3, 0.4]), alpha=0.1)
    assert cal.rank == 5
    assert cal.radius == math.inf
    assert not cal.finite


def test_calibrate_500_full_sort_oracle():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=500)
    cal = calibrate(scores_of(values), alpha=0.1)
    assert cal.rank == 451
    assert cal.radius == pytest.approx(np.sort(values)[450])


def test_calibrate_alpha_out_of_range():
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError):
            calibrate(scores_of([1.0]), alpha)


def test_calibrate_empty_scores():
    cal = calibrate(scores_of([]), alpha=0.1)
    assert cal.radius == math.inf


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=200),
       st.floats(0.01, 0.5))
def test_calibrate_matches_sort_oracle(values, alpha):
    cal = calibrate(scores_of(values), alpha)
    n = len(values)
    rank = math.ceil((n + 1) * (1 - alpha))
    expected = sorted(values)[rank - 1] if rank <= n else math.inf
    assert cal.radius == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0, 100, allow_nan=False), min_size=5, max_size=50),
       st.integers(0, 1000))
def test_calibrate_permutation_invariant(values, seed):
    rng = np.random.default_rng(seed)
    perm = list(rng.permutation(len(values)))
    a = calibrate(scores_of(values), 0.2)
    b = calibrate(scores_of([values[i] for i in perm]), 0.2)
    assert a.radius == b.radius


def test_calibrate_monotone_in_alpha():
    rng = np.random.default_rng(1)
    values = list(rng.exponential(size=80))
    radii = [calibrate(scores_of(values), a).radius
             for a in (0.05, 0.1, 0.2, 0.4)]
    assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# bands

def fitted_model():
    return fit_bootstrap(multi_visit_dataset(20, seed=1, noise=0.1), B=5, seed=0)


def one_band(model, cal, times):
    """The one-subject band set of a subject with zero inputs at times."""
    ds = dataset_of((subject("x", []),), ("f0", "f1"), ("dx",))
    prediction = predict_batch(model, np.zeros((len(times), 3)), times)
    return _make_bands(ds, [len(times)], times, prediction, cal)


def test_build_band_arithmetic():
    # R = 2: the interval is mu -/+ 2 sigma at the subject's input row
    m = fitted_model()
    band = one_band(m, CalibrationResult(1, 0.5, 1, 2.0), [6])
    lo = band.centers[0] - row_radii(band)[0]
    hi = band.centers[0] + row_radii(band)[0]
    means, stds = predict_batch(m, np.zeros((1, 3)), [6])
    assert lo == pytest.approx(means[0] - 2 * stds[0])
    assert hi == pytest.approx(means[0] + 2 * stds[0])


def test_build_band_zero_radius():
    band = one_band(fitted_model(), CalibrationResult(1, 0.5, 1, 0.0), [6, 12])
    assert band.finite
    assert row_radii(band).tolist() == [0.0, 0.0]


def test_build_band_infinite():
    band = one_band(fitted_model(), calibrate(scores_of([]), 0.1), [6])
    assert not band.finite
    assert row_radii(band).tolist() == [math.inf]


# ---------------------------------------------------------------------------
# Mondrian

def calib_dataset(groups):
    subjects = [subject(f"s{i}", [(6, 0.0)], group=g)
                for i, g in enumerate(groups)]
    return dataset_of(tuple(subjects), ("f0", "f1"), ("dx",))


def test_mondrian_two_groups():
    rng = np.random.default_rng(2)
    groups = ["a"] * 9 + ["b"] * 9
    ds = calib_dataset(groups)
    values = list(rng.exponential(size=18))
    gcal = mondrian_calibrate(ds, scores_of(values), "dx", alpha=0.5)
    for g, idxs in (("a", range(9)), ("b", range(9, 18))):
        cal = gcal.per_group[g]
        assert cal.rank == 5
        assert cal.radius == sorted(values[i] for i in idxs)[4]


def test_mondrian_small_group_infinite():
    ds = calib_dataset(["a"] * 3)
    scores = scores_of([0.1, 0.2, 0.3])
    gcal = mondrian_calibrate(ds, scores, "dx", alpha=0.1)
    assert gcal.per_group["a"].radius == math.inf


def test_mondrian_multiset_union():
    rng = np.random.default_rng(3)
    groups = list(rng.choice(["a", "b", "c"], size=40))
    ds = calib_dataset(groups)
    values = list(rng.exponential(size=40))
    scores = scores_of(values)
    gcal = mondrian_calibrate(ds, scores, "dx", alpha=0.2)
    assert set(gcal.per_group) == set(groups)
    for g, cal in gcal.per_group.items():
        mine = sorted(v for v, h in zip(values, groups) if h == g)
        rank = math.ceil((len(mine) + 1) * 0.8)
        assert (cal.n, cal.rank) == (len(mine), rank)
        assert cal.radius == (mine[rank - 1] if rank <= len(mine) else math.inf)
        assert cal == calibrate(scores_of(mine[::-1]), 0.2)
    assert sum(cal.n for cal in gcal.per_group.values()) == gcal.fallback.n
    assert gcal.fallback == calibrate(scores, 0.2)


def test_mondrian_missing_label_errors():
    s = Subject("s0", np.zeros(2), {}, 0.0, ((6, 0.0),))
    ds = dataset_of((s,), ("f0", "f1"), ())
    with pytest.raises(DataError, match="^subject s0 has no label for column 'dx'$"):
        mondrian_calibrate(ds, scores_of([1.0]), "dx", 0.5)


def test_mondrian_groups_by_label_whatever_the_codes():
    # the same subjects with their labels coded in another order: calibration,
    # radii and per-group coverage are those of the labels
    rng = np.random.default_rng(4)
    groups = list(rng.choice(["a", "b", "c"], size=30))
    ds = calib_dataset(groups)
    recoded = Dataset(**{**{f: getattr(ds, f) for f in (
        "subject_ids", "features", "baseline", "offsets", "times", "values",
        "feature_names", "group_columns")},
        "group_codes": [["cab".index(g)] for g in groups], "group_categories": (("c", "a", "b"),)})
    assert ds.group_categories != recoded.group_categories
    scores = scores_of(rng.exponential(size=30))
    model = constant_model(0.0, 1.0)
    got = []
    for d in (ds, recoded):
        gcal = mondrian_calibrate(d, scores, "dx", 0.3)
        bands = bands_for_dataset(model, d, gcal)
        got.append((gcal, row_radii(bands).tolist(),
                    coverage_and_width(bands, d, grouping_column="dx")))
    assert got[0] == got[1]
    assert got[0][1] == [got[0][0].per_group[g].radius for g in groups]


@pytest.mark.parametrize("ids,error", [
    (("s0", "x", "s2"), "score for unknown subject x"),
    (("s0", "s1", "s2", "s3"), "score for unknown subject s3"),     # no visits: unscored
    (("s0", "s2", "s1"), "score for unknown subject s2 at score 1"),       # out of order
    (("s0", "s1"), "no score for calibration subject s2")])
def test_mondrian_scores_must_be_the_calibration_sets(ids, error):
    ds = dataset_of([subject(f"s{i}", [(6, 0.0)] if i < 3 else [])
                     for i in range(4)], ("f0", "f1"), ("dx",))
    assert mondrian_calibrate(ds, scores_of([1.0, 2.0, 3.0]), "dx", 0.5).fallback.n == 3
    with pytest.raises(DataError, match=f"^{error}"):
        mondrian_calibrate(ds, ScoreSet(ids, np.ones(len(ids))), "dx", 0.5)


def test_score_set_checks_its_scores():
    scores = ScoreSet(("a", "b"), [0.5, 0.0])
    assert len(scores) == 2 and not scores.values.flags.writeable
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DataError, match="^score for b must be finite and >= 0$"):
            ScoreSet(("a", "b"), [0.5, bad])
    with pytest.raises(DataError, match="2 subject IDs"):
        ScoreSet(("a", "b"), [0.5])


def test_an_unseen_category_falls_back_to_the_population_radius(caplog):
    m = fitted_model()
    cal = CalibrationResult(1, 0.5, 1, 1.0)
    gcal = GroupCalibration("dx", {"a": cal}, cal)
    # a batch logs one warning with the count and labels, not one per subject
    ds = dataset_of(tuple(subject(f"s{i}", [(6, 0.0)], group=g)
                          for i, g in enumerate(["a", "b", "c", "b"])),
                    ("f0", "f1"), ("dx",))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="conftraj.conformal"):
        bands = bands_for_dataset(m, ds, gcal)
    assert bands.finite and bands.radii.tolist() == [1.0] * 4
    assert len(caplog.records) == 1
    assert "3 subject(s)" in caplog.text and "['b', 'c']" in caplog.text


def test_single_group_degenerates_to_population():
    ds = multi_visit_dataset(30, seed=5, noise=0.2)
    # give every subject the same label
    ds = dataset_of([s._replace(labels={"dx": "only"}) for s in subjects_of(ds)],
                    ds.feature_names, ("dx",))
    m = fit_bootstrap(ds, B=5, seed=0)
    scores = score_dataset(m, ds)
    pop = calibrate(scores, 0.2)
    gcal = mondrian_calibrate(ds, scores, "dx", 0.2)
    assert gcal.per_group["only"].radius == pop.radius
    bands_pop = bands_for_dataset(m, ds, pop)
    bands_grp = bands_for_dataset(m, ds, gcal)
    assert bands_pop.subject_ids == bands_grp.subject_ids
    assert row_radii(bands_pop).tolist() == row_radii(bands_grp).tolist()


def test_band_endpoints_invariant_under_sigma_rescaling():
    # scaling every predictive std by c rescales scores by 1/c and R by c,
    # leaving R * sigma unchanged
    ds = multi_visit_dataset(25, seed=7, noise=0.2)
    m1 = fit_bootstrap(ds, B=6, seed=0, std_scale=1.0)
    m2 = fit_bootstrap(ds, B=6, seed=0, std_scale=2.5)
    cal1 = calibrate(score_dataset(m1, ds), 0.2)
    cal2 = calibrate(score_dataset(m2, ds), 0.2)
    assert cal2.radius == pytest.approx(cal1.radius / 2.5, rel=1e-9)
    b1 = bands_for_dataset(m1, ds, cal1)
    b2 = bands_for_dataset(m2, ds, cal2)
    assert b1.subject_ids == b2.subject_ids and len(b1.stds) == len(b2.stds)
    assert np.allclose(row_radii(b1), row_radii(b2), rtol=1e-9)


# ---------------------------------------------------------------------------
# Finite-sample validity through the public pipeline

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"),
                          st.lists(st.floats(-4, 4, allow_nan=False),
                                   min_size=1, max_size=3)),
                min_size=2, max_size=16),
       st.lists(st.integers(0, 15), max_size=6),
       st.floats(0.02, 0.6),
       st.sampled_from([(0.0, 1.0), (0.3, 0.7), (-1.1, 0.13)]),
       st.booleans())
# a held-out twin whose score is the radius: covered, though
# |y - mu| > fl(R * sigma) here
@example([("a", [0.0]), ("a", [3.6875])], [1], 0.5, (0.3, 0.7), False)
@example([("a", [0.0]), ("a", [3.6875])], [1], 0.5, (0.3, 0.7), True)
# Mondrian groups of 5 (finite radius), 2 (infinite) and 1 (fallback)
@example([("a", [0.1]), ("a", [0.5]), ("a", [-0.9]), ("a", [1.7]), ("a", [2.2]),
          ("b", [0.3]), ("b", [-1.4]), ("c", [0.8])], [], 0.2, (0.3, 0.7), True)
def test_leave_one_out_coverage_is_exact(draws, duplicated, alpha, mean_std, mondrian):
    # Hold each of the n+1 pool subjects out in turn and calibrate on the
    # other n.  The held-out subject is covered iff its score is at most
    # the radius of the others, so exactly min(k, n+1) of the n+1 are
    # covered when scores are distinct, k = ceil((n+1)(1-alpha)), and at
    # least that with ties; Mondrian: the same within each group, and a
    # group of one falls back to the population radius.
    pool = [subject(f"s{i}", [(6 * (j + 1), y) for j, y in enumerate(ys)], group=g)
            for i, (g, ys) in enumerate(draws)]
    pool += [subject(f"dup{i}", pool[d % len(draws)].visits,
                     group=pool[d % len(draws)].labels["dx"])
             for i, d in enumerate(duplicated)]
    model = constant_model(*mean_std)
    group = {s.id: s.labels["dx"] for s in pool}
    scores = score_dataset(model, dataset_of(pool, ("f0", "f1"), ("dx",)))
    score = dict(zip(scores.subject_ids, scores.values.tolist()))

    covered = {}
    for held in pool:
        calib = dataset_of(tuple(s for s in pool if s is not held), ("f0", "f1"), ("dx",))
        test = dataset_of((held,), ("f0", "f1"), ("dx",))
        scores = score_dataset(model, calib)
        cal = (mondrian_calibrate(calib, scores, "dx", alpha) if mondrian
               else calibrate(scores, alpha))
        report = coverage_and_width(bands_for_dataset(model, test, cal), test)
        covered[held.id] = report.mean_coverage == 1.0

        sid = held.id
        others = [v for o, v in score.items() if o != sid]
        peers = [v for o, v in score.items() if o != sid and group[o] == group[sid]]
        R = radius(peers if mondrian and peers else others, alpha)
        assert covered[sid] == (score[sid] <= R), sid

    blocks = ({g: [s for s in score if group[s] == g] for g in set(group.values())}
              if mondrian else {None: list(score)})
    for members in blocks.values():
        m = len(members)
        if m == 1:
            continue                     # the population fallback, checked above
        bound = min(math.ceil(m * (1.0 - alpha)), m)
        hits = sum(covered[s] for s in members)
        if len({score[s] for s in members}) == m:
            assert hits == bound
        else:
            assert hits >= bound


# ---------------------------------------------------------------------------
# score_dataset against a per-subject max over the same predictions

@st.composite
def visit_count_cohorts(draw):
    """Subjects with 0, 1, 2 or many visits and varied values and covariates."""
    subjects = []
    for i in range(draw(st.integers(1, 12))):
        n = draw(st.sampled_from([0, 1, 2, 9]))
        x = np.array([draw(st.floats(-3, 3)), draw(st.floats(-3, 3))])
        subjects.append(Subject(
            f"s{i}", x, {"dx": draw(st.sampled_from("ab"))}, draw(st.floats(-2, 2)),
            tuple((6 * (j + 1), draw(st.floats(-5, 5))) for j in range(n))))
    return dataset_of(subjects, ("f0", "f1"), ("dx",))


BOOTSTRAP_MODEL = fit_bootstrap(multi_visit_dataset(30, seed=4, noise=0.2), B=5, seed=1)


@settings(max_examples=100, deadline=None)
@given(visit_count_cohorts())
def test_score_dataset_is_per_subject_max(ds):
    subjects, want = scored(subjects_of(ds)), []
    if subjects:
        X = [[*s.features, s.baseline] for s in subjects for _ in s.visits]
        t = [tv for s in subjects for tv in times_of(s)]
        offsets = list(accumulate((len(s.visits) for s in subjects), initial=0))
        means, stds = predict_batch(BOOTSTRAP_MODEL, X, t)
        want = [max(abs(y - mu) / sd for y, mu, sd in
                    zip((v for _, v in s.visits), means[lo:hi].tolist(), stds[lo:hi].tolist()))
                for s, lo, hi in zip(subjects, offsets, offsets[1:])]
    got = score_dataset(BOOTSTRAP_MODEL, ds)
    assert got.subject_ids == tuple(s.id for s in subjects)
    assert got.values.tolist() == want


def test_worst_residuals_rejects_an_empty_trajectory():
    with pytest.raises(DataError, match="no rows"):
        worst_residuals([1.0, 2.0], [0.0, 0.0], [1.0, 1.0], [0, 1, 1, 2])


# ---------------------------------------------------------------------------
# batch independence

KIND_NAMES = ("bootstrap", "quantile", "gp")


@pytest.mark.parametrize("kind,calibration", [
    *(pytest.param(kind, "population", id=kind) for kind in KIND_NAMES),
    *((kind, c) for c in ("category left out", "column absent") for kind in KIND_NAMES)])
def test_predictions_do_not_depend_on_the_batch(fitted_cohort, kind, calibration, caplog):
    # a linear predictor's row is bit-identical whatever else is in its
    # batch; a GP's goes through BLAS and matches to well within 1e-9
    ds, models = fitted_cohort
    model = models[kind]
    ds = replace(ds, group_codes=(np.arange(len(ds)) % 3)[:, None],
                 group_categories=(("a", "b", "c"),), group_columns=("site",))
    same = np.array_equal if kind != "gp" else \
        (lambda a, b: np.allclose(a, b, rtol=0, atol=1e-9))
    subjects = scored(subjects_of(ds))
    X, t = visit_rows(ds, ds.visit_counts), ds.times
    full = predict_batch(model, X, t)
    for i in range(len(t)):
        one = predict_batch(model, X[i:i + 1], t[i:i + 1])
        assert all(same(o, f[i:i + 1]) for o, f in zip(one, full)), i
    subset = np.random.default_rng(0).permutation(len(t))[:len(t) // 3]
    assert all(same(o, f[subset]) for o, f in zip(predict_batch(model, X[subset], t[subset]),
                                                  full))

    # so a subject's band at its last visit, predicted alone, is its row of
    # the batched band, with the radius its label gets; the batch warns once
    # about the subjects of a category calibration lacks
    scores = score_dataset(model, ds)
    cal = calibrate(scores, 0.1)
    if calibration != "population":
        groups = mondrian_calibrate(ds, scores, "site", 0.1).per_group
        cal = (GroupCalibration("site", {g: c for g, c in groups.items() if g != "c"}, cal)
               if calibration == "category left out" else GroupCalibration("clinic", groups, cal))
    # the subjects whose label calibration lacks: site c's, or all of them,
    # labelled None in a column the cohort lacks
    unseen = [calibration != "population"
              and s.labels.get(cal.grouping_column) not in cal.per_group for s in subjects]
    assert any(unseen) == (calibration != "population")
    label = "'c'" if calibration == "category left out" else "None"

    def warnings(n):
        return [f"{n} subject(s) with {cal.grouping_column!r} categories unseen in "
                f"calibration [{label}]: using the population radius"] if n else []

    horizons = [times_of(s)[-1:] for s in subjects]
    caplog.set_level(logging.WARNING, logger="conftraj.conformal")
    last, tN = ds.visit_counts > 0, np.concatenate(horizons)
    batched = _make_bands(ds, last, tN, predict_batch(model, visit_rows(ds, last), tN), cal)
    assert [r.getMessage() for r in caplog.records] == warnings(sum(unseen))
    assert batched.offsets.tolist() == list(range(len(subjects) + 1))
    assert batched.subject_ids == tuple(s.id for s in subjects)
    for k, (s, tN) in enumerate(zip(subjects, horizons)):
        centers, stds, R = band(model, s, cal, tN)
        assert [R] == batched.radii[k:k + 1].tolist()
        assert same(np.array(centers), batched.centers[k:k + 1])
        assert same(np.array(stds), batched.stds[k:k + 1])


# ---------------------------------------------------------------------------
# one visit-row prediction per (model, dataset)

@pytest.fixture
def predictions(monkeypatch):
    """The row count of each predict_batch call that conformal makes."""
    calls = []

    def counted(model, X, times):
        calls.append(len(times))
        return predict_batch(model, X, times)

    monkeypatch.setattr(conformal, "predict_batch", counted)
    return calls


def fresh(ds):
    """A Dataset equal to ds that no model has predicted."""
    return ds.subset(range(len(ds)))


def test_a_set_scored_then_banded_is_predicted_once(fitted_cohort, predictions):
    ds, models = fitted_cohort
    ds, model = fresh(ds), models["bootstrap"]
    cal = calibrate(score_dataset(model, ds), 0.1)
    bands_for_dataset(model, ds, cal)
    score_dataset(model, ds)
    bands_for_dataset(model, ds, cal)
    assert predictions == [len(ds.times)]


def test_another_model_or_dataset_predicts_again(fitted_cohort, predictions):
    ds, models = fitted_cohort
    ds, model = fresh(ds), models["bootstrap"]
    part = ds.subset(range(0, len(ds), 2))
    asks = [(model, ds), (models["quantile"], ds), (replace(model), ds),
            (model, ds), (model, part), (model, standardize(ds)[0]), (model, fresh(ds))]
    for m, d in asks:
        score_dataset(m, d)
    assert predictions == [len(d.times) for _, d in asks]
    bands_for_dataset(model, part, calibrate(score_dataset(model, ds), 0.1))
    assert len(predictions) == len(asks)        # each still the last model's


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("mondrian", [False, True], ids=["population", "mondrian"])
def test_a_kept_prediction_gives_the_fresh_scores_and_bands(fitted_cohort, kind, mondrian):
    ds, models = fitted_cohort
    model = models[kind]
    ds = replace(ds, group_codes=(np.arange(len(ds)) % 3)[:, None],
                 group_categories=(("a", "b", "c"),), group_columns=("site",))

    def scores_and_bands(scored, banded):
        scores = score_dataset(model, scored)
        cal = mondrian_calibrate(scored, scores, "site", 0.1) if mondrian else \
            calibrate(scores, 0.1)
        bands = bands_for_dataset(model, banded, cal)
        return scores, cal, bands

    def columns(bands):
        return (bands.subject_ids, bands.offsets, bands.times, bands.centers, bands.stds,
                bands.radii)

    # each set is scored then banded (the bands reuse the prediction), and
    # banded then scored (the scores reuse it), against unpredicted copies
    kept = scores_and_bands(ds, ds)
    alone = scores_and_bands(fresh(ds), fresh(ds))
    banded_first = fresh(ds)
    bands_for_dataset(model, banded_first, kept[1])
    reused = score_dataset(model, banded_first)
    for scores in (kept[0], reused):
        assert scores.subject_ids == alone[0].subject_ids
        assert np.array_equal(scores.values, alone[0].values)
    assert kept[1] == alone[1]
    assert all(np.array_equal(a, b) for a, b in zip(columns(kept[2]), columns(alone[2])))


def test_a_kept_prediction_lives_no_longer_than_its_dataset(fitted_cohort):
    ds, models = fitted_cohort
    ds, model = fresh(ds), replace(models["bootstrap"])
    score_dataset(model, ds)
    means, stds = conformal._VISIT_PREDICTIONS[ds][1:]
    assert not means.flags.writeable and not stds.flags.writeable
    gc.collect()
    n = len(conformal._VISIT_PREDICTIONS)
    dataset, model = weakref.ref(ds), weakref.ref(model)
    del ds
    gc.collect()
    assert dataset() is None and len(conformal._VISIT_PREDICTIONS) == n - 1
    assert model() is None                      # the entry held it weakly


def test_stratified_compare_predicts_its_test_set_once(predictions):
    spec = (GroupSpec("site", ("a", "b"), (0.5, 0.5)),)
    ds, _ = generate(SynthConfig(n_subjects=300, seed=5, group_spec=spec))
    reports = stratified_compare(ds, "bootstrap", 0.1, "site", seed=3)
    model, _, calib, test = fit_split(ds, "bootstrap", 0.10, 0.20, 3)
    assert predictions == [len(calib.times), len(test.times)]
    scores = score_dataset(model, calib)
    for name, cal in (("population", calibrate(scores, 0.1)),
                      ("group_conditional", mondrian_calibrate(calib, scores, "site", 0.1))):
        prediction = predict_batch(model, visit_rows(test, test.visit_counts), test.times)
        bands = _make_bands(test, test.visit_counts, test.times, prediction, cal)
        assert repr(reports[name]) == repr(coverage_and_width(bands, test, "site"))
