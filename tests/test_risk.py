import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftraj.conformal import (GroupCalibration, ScoreSet, calibrate, mondrian_calibrate,
                                score_dataset)
from conftraj.data_model import split, standardize
from conftraj.errors import ConfigurationError, DataError
from conftraj.evaluation import fit_predictor
from conftraj.risk import (MAX_BOOTSTRAP_B, PROGRESSOR, STABLE, _replicate_counts,
                           bootstrap_ci, classify_metrics, risk_pipeline, roc_hat, rocb,
                           threshold_free, youden_threshold)
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests.reference import (labels_of, pairwise_auc_oracle, risk_scores, scored,
                             subjects_of, youden_enumeration_oracle)


# ---------------------------------------------------------------------------
# rate-of-change scores

def test_roc_hat_hand_computation():
    # drop of 0.6 over 12 months
    assert roc_hat(1.0, 0.4, 0, 12) == pytest.approx(-0.05)


def test_roc_hat_bad_horizon():
    with pytest.raises(ConfigurationError):
        roc_hat(1.0, 0.4, 12, 12)


def test_rocb_uses_direction_endpoint():
    band = (0.2, 0.8)
    assert rocb(1.0, band, 0, 10, "decreasing") == pytest.approx(-0.08)
    assert rocb(1.0, band, 0, 10, "increasing") == pytest.approx(-0.02)


def test_rocb_infinite_band_errors():
    with pytest.raises(DataError, match="infinite"):
        rocb(1.0, (-math.inf, math.inf), 0, 10, "decreasing")


def test_rocb_unknown_direction():
    with pytest.raises(ConfigurationError):
        rocb(1.0, (0.0, 1.0), 0, 10, "sideways")


def test_rocb_dominates_roc_hat():
    # worst case bound: rocb <= roc_hat when decreasing, >= when increasing
    rng = np.random.default_rng(0)
    for _ in range(200):
        y0 = rng.normal()
        center = rng.normal()
        r = rng.uniform(0, 2)
        tN = int(rng.integers(1, 60))
        band = (center - r, center + r)
        rh = roc_hat(y0, center, 0, tN)
        assert rocb(y0, band, 0, tN, "decreasing") <= rh + 1e-12
        assert rocb(y0, band, 0, tN, "increasing") >= rh - 1e-12


def test_scalar_refusals_keep_their_messages():
    with pytest.raises(ConfigurationError, match=r"^horizon tN=12 must exceed t0=12$"):
        roc_hat(1.0, 0.4, 12, 12)
    with pytest.raises(ConfigurationError, match=r"^horizon tN=3 must exceed t0=5$"):
        rocb(1.0, (0.2, 0.8), 5, 3, "decreasing")
    with pytest.raises(DataError, match=r"^band lower 0\.8 exceeds upper 0\.2$"):
        rocb(1.0, (0.8, 0.2), 0, 10, "decreasing")
    with pytest.raises(DataError, match=r"^rate-of-change bound undefined on an infinite band$"):
        rocb(1.0, (0.2, math.nan), 0, 10, "increasing")
    with pytest.raises(ConfigurationError, match=r"^unknown direction 'sideways'$"):
        rocb(1.0, (0.2, 0.8), 0, 10, "sideways")


finite_values = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    *(st.lists(s, min_size=n, max_size=n) for s in (
        finite_values, finite_values, st.floats(0, 1e6),
        st.integers(-24, 24), st.integers(1, 240))))))
def test_array_scores_equal_the_scalar_scores_bit_for_bit(columns):
    # one expression serves one subject and arrays of subjects alike
    y0, center, radius, t0, span = (np.array(c, dtype=t) for c, t in
                                    zip(columns, (float, float, float, int, int)))
    tN = t0 + span
    lower, upper = center - radius, center + radius

    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    rows = list(zip(y0.tolist(), center.tolist(), lower.tolist(), upper.tolist(),
                    t0.tolist(), tN.tolist()))
    assert bits(roc_hat(y0, center, t0, tN)) == bits([roc_hat(y, c, a, b)
                                                      for y, c, _, _, a, b in rows])
    for direction in ("decreasing", "increasing"):
        assert bits(rocb(y0, (lower, upper), t0, tN, direction)) == \
            bits([rocb(y, (lo, up), a, b, direction) for y, _, lo, up, a, b in rows])
    # a scalar t0, as risk_pipeline passes it
    assert bits(roc_hat(y0, center, 0, span)) == bits([roc_hat(y, c, 0, s) for (y, c, *_), s
                                                       in zip(rows, span.tolist())])


def test_array_refusals_name_the_first_bad_subject():
    y0, center = np.zeros(4), np.ones(4)
    band = (center - 1.0, center + 1.0)
    with pytest.raises(ConfigurationError, match=r"^horizon tN=0 must exceed t0=0$"):
        roc_hat(y0, center, 0, np.array([5, 3, 0, -1]))
    with pytest.raises(ConfigurationError, match=r"^horizon tN=2 must exceed t0=2$"):
        rocb(y0, band, np.array([0, 2, 0, 0]), np.array([5, 2, 1, 1]), "decreasing")
    with pytest.raises(DataError, match="infinite band"):
        rocb(y0, (band[0], np.array([2.0, 2.0, math.inf, 2.0])), 0, 6, "increasing")
    with pytest.raises(DataError, match=r"^band lower 2\.5 exceeds upper 2\.0$"):
        rocb(y0, (np.array([0.0, 2.5, 3.0, 0.0]), band[1]), 0, 6, "decreasing")
    with pytest.raises(ConfigurationError, match=r"^unknown direction 'sideways'$"):
        rocb(y0, band, 0, np.arange(1, 5), "sideways")


# ---------------------------------------------------------------------------
# threshold selection and metrics

def test_youden_four_point_example():
    scores = [-1.0, -0.5, 0.5, 1.0]
    labels = labels_of([True, True, False, False])
    tau = youden_threshold(scores, labels, rule="le")
    # tau = -0.5 flags exactly the two progressors: J = 1
    assert tau == pytest.approx(-0.5)
    m = classify_metrics(scores, labels, tau, rule="le")
    assert m == {"precision": 1.0, "recall": 1.0, "f1": 1.0,
                 "balanced_accuracy": 1.0}


def test_youden_ge_rule_mirror():
    scores = [1.0, 0.5, -0.5, -1.0]
    labels = labels_of([True, True, False, False])
    assert youden_threshold(scores, labels, rule="ge") == pytest.approx(0.5)


def test_youden_single_class_errors():
    with pytest.raises(DataError):
        youden_threshold([0.0, 1.0], labels_of([True, True]))


def test_youden_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 1)   # force ties
        flags = rng.random(n) < 0.5
        if flags.all() or not flags.any():
            continue
        labels = labels_of(flags)
        for rule in ("le", "ge"):
            tau = youden_threshold(scores, labels, rule)
            oracle = youden_enumeration_oracle(scores, labels, rule)
            assert tau == oracle, (trial, rule)
    # one cohort of the benchmark's size, with ties
    scores = np.round(rng.normal(size=2000), 2)
    labels = labels_of(rng.random(2000) < 0.3)
    for rule in ("le", "ge"):
        assert (youden_threshold(scores, labels, rule)
                == youden_enumeration_oracle(scores, labels, rule)), rule


def test_classify_metrics_hand_example():
    # flags {-2, -1}: tp=1 (the -2 progressor), fp=1, fn=1, tn=1
    scores = [-2.0, -1.0, 0.0, 1.0]
    labels = labels_of([True, False, True, False])
    m = classify_metrics(scores, labels, tau=-1.0, rule="le")
    assert m["precision"] == pytest.approx(0.5)
    assert m["recall"] == pytest.approx(0.5)
    assert m["f1"] == pytest.approx(0.5)
    assert m["balanced_accuracy"] == pytest.approx(0.5)


def test_classify_metrics_none_flagged():
    m = classify_metrics([1.0, 2.0], labels_of([True, False]), tau=0.0, rule="le")
    assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0


# ---------------------------------------------------------------------------
# bootstrap CIs

def test_bootstrap_ci_brackets_point_estimate():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=80)
    flags = scores + rng.normal(scale=0.8, size=80) < 0
    labels = labels_of(flags)
    tau = youden_threshold(scores, labels, "le")
    point = classify_metrics(scores, labels, tau, "le")
    ci = bootstrap_ci(scores, labels, tau, "le", B=500, seed=3)
    for m in ("precision", "recall", "f1", "balanced_accuracy"):
        lo, hi = ci[m]
        assert lo <= hi
        assert lo - 0.1 <= point[m] <= hi + 0.1
    assert ci["n_skipped"] == 0


def test_bootstrap_ci_deterministic():
    scores = [-1.0, -0.5, 0.5, 1.0, 0.2, -0.2]
    labels = labels_of([True, True, False, False, False, True])
    a = bootstrap_ci(scores, labels, -0.2, B=200, seed=7)
    b = bootstrap_ci(scores, labels, -0.2, B=200, seed=7)
    assert a == b


def classify_metrics_oracle(scores, labels, tau, rule):
    flagged = (np.asarray(scores) <= tau) if rule == "le" else (np.asarray(scores) >= tau)
    pos = np.asarray([lab == PROGRESSOR for lab in labels])
    tp = int(np.sum(flagged & pos))
    fp = int(np.sum(flagged & ~pos))
    fn = int(np.sum(~flagged & pos))
    tn = int(np.sum(~flagged & ~pos))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    specificity = tn / (tn + fp) if tn + fp else 0.0
    return {"precision": precision, "recall": recall, "f1": f1,
            "balanced_accuracy": 0.5 * (recall + specificity)}


def _percentile_ci_oracle(picks, scores, labels, tau, rule, level):
    """Percentile CIs of classify_metrics_oracle over the index resamples
    in picks, skipping those that hold a single class."""
    scores = np.asarray(scores, dtype=float)
    samples = {m: [] for m in ("precision", "recall", "f1", "balanced_accuracy")}
    skipped = 0
    for pick in picks:
        lab = [labels[i] for i in pick]
        if len(set(lab)) < 2:
            skipped += 1
            continue
        for m, v in classify_metrics_oracle(scores[pick], lab, tau, rule).items():
            samples[m].append(v)
    lo = (1.0 - level) / 2.0
    out = {m: (float(np.percentile(v, 100 * lo)),
               float(np.percentile(v, 100 * (1.0 - lo))))
           for m, v in samples.items()}
    out["n_skipped"] = skipped
    return out


def bootstrap_ci_loop_oracle(scores, labels, tau, rule, B, seed, level=0.95):
    """bootstrap_ci's multinomial draw of (tn, fn, fp, tp) counts, each
    replicate realized as an index resample with those counts and scored by
    classify_metrics_oracle."""
    labels = list(labels)
    scores = np.asarray(scores, dtype=float)
    flagged = scores <= tau if rule == "le" else scores >= tau
    pos = np.asarray([lab == PROGRESSOR for lab in labels])
    members = [np.flatnonzero(~flagged & ~pos), np.flatnonzero(~flagged & pos),
               np.flatnonzero(flagged & ~pos), np.flatnonzero(flagged & pos)]
    n = len(scores)
    freq = np.asarray([len(m) for m in members]) / n
    draws = np.random.default_rng(seed).multinomial(n, freq, size=B)
    picks = (np.concatenate([np.resize(m, k) for m, k in zip(members, counts)])
             for counts in draws)
    return _percentile_ci_oracle(picks, scores, labels, tau, rule, level)


def bootstrap_ci_integers_oracle(scores, labels, tau, rule, B, seed, level=0.95):
    """Uniform resampling of n subject indices per replicate, as bootstrap_ci
    once drew them: equal to bootstrap_ci in distribution, not draw by draw."""
    n = len(scores)
    rng = np.random.default_rng(seed)
    picks = (rng.integers(0, n, size=n) for _ in range(B))
    return _percentile_ci_oracle(picks, scores, list(labels), tau, rule, level)


def test_bootstrap_ci_skips_single_class_replicates():
    # one progressor among five: many replicates miss it entirely
    scores = [-1.0, 0.1, 0.2, 0.3, 0.4]
    labels = labels_of([True, False, False, False, False])
    ci = bootstrap_ci(scores, labels, -1.0, B=300, seed=0)
    assert ci["n_skipped"] > 0


def test_bootstrap_ci_matches_loop_oracle_with_many_skips():
    # one progressor among six: about a third of the resamples miss it
    scores = [-1.0, 0.1, 0.2, 0.3, 0.4, 0.4]
    labels = labels_of([True, False, False, False, False, False])
    for rule, tau in (("le", 0.1), ("ge", 0.3)):
        ci = bootstrap_ci(scores, labels, tau, rule, B=500, seed=4)
        assert ci == bootstrap_ci_loop_oracle(scores, labels, tau, rule, 500, 4)
        assert ci["n_skipped"] > 100


@pytest.mark.parametrize("kwargs", [{"B": 0}, {"B": -3}, {"B": 20.0}, {"B": "20"},
                                    {"B": True}, {"B": MAX_BOOTSTRAP_B + 1}, {"B": 10**15},
                                    {"level": 0.0}, {"level": 1.0},
                                    {"level": "0.9"}, {"level": True}])
def test_bootstrap_ci_rejects_bad_settings(kwargs):
    with pytest.raises(ConfigurationError):
        bootstrap_ci([0.1, 0.2], labels_of([True, False]), 0.1, **kwargs)


def test_bootstrap_ci_single_class_errors_name_B():
    with pytest.raises(DataError, match="B=40"):
        bootstrap_ci([0.1, 0.2], labels_of([True, True]), 0.1, B=40)
    # seed 3 draws the progressor's cell twice, so the only replicate is
    # single-class
    with pytest.raises(DataError, match="B=1 "):
        bootstrap_ci([0.1, 0.2], labels_of([True, False]), 0.1, B=1, seed=3)


def test_bootstrap_ci_agrees_in_distribution_with_uniform_resampling():
    # over 300 seeds, each CI endpoint's mean and the skip rate of the
    # multinomial draw match index resampling within 4 Monte Carlo standard
    # errors; with two progressors among seven, about a tenth of the
    # replicates ((5/7)**7) miss both
    scores = [-1.0, -0.4, 0.1, 0.2, 0.3, 0.4, 0.5]
    labels = labels_of([True, False, False, True, False, False, False])
    B, seeds = 40, range(300)

    def endpoints(ci):
        return [v for m in ("precision", "recall", "f1", "balanced_accuracy")
                for v in ci[m]] + [ci["n_skipped"] / B]

    for rule, tau in (("le", 0.1), ("ge", 0.2)):
        a = np.asarray([endpoints(bootstrap_ci(scores, labels, tau, rule, B=B, seed=seed))
                        for seed in seeds])
        b = np.asarray([endpoints(bootstrap_ci_integers_oracle(scores, labels, tau, rule,
                                                               B, seed))
                        for seed in seeds])
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / len(seeds))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se), rule
        assert b[:, -1].mean() > 0.05, rule      # the skip rule is exercised


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=30), st.integers(1, 200),
       st.integers(0, 2**16))
def test_replicate_counts_invariants(cells, B, seed):
    # each replicate resamples n subjects from the cells present, and
    # bootstrap_ci skips a replicate iff it holds one class
    cell = np.asarray(cells)
    n = len(cell)
    counts = _replicate_counts(cell, B, seed)
    assert counts.shape == (B, 4)
    assert np.all(counts.sum(axis=1) == n)
    assert np.all(counts[:, np.bincount(cell, minlength=4) == 0] == 0)
    n_pos = counts[:, 1] + counts[:, 3]
    single = (n_pos == 0) | (n_pos == n)
    pos = cell % 2 == 1
    assume(pos.any() and not pos.all())
    scores = np.where(cell >= 2, -1.0, 1.0)          # flagged iff score <= 0
    if single.all():
        with pytest.raises(DataError, match="single class"):
            bootstrap_ci(scores, labels_of(pos), 0.0, "le", B=B, seed=seed)
    else:
        ci = bootstrap_ci(scores, labels_of(pos), 0.0, "le", B=B, seed=seed)
        assert ci["n_skipped"] == int(single.sum())


def test_bootstrap_ci_memory_stays_below_an_index_matrix():
    # a B x n int64 index matrix at n = B = 2000 would take 32 MB
    rng = np.random.default_rng(6)
    scores = rng.normal(size=2000)
    labels = labels_of(rng.random(2000) < 0.3)
    tracemalloc.start()
    try:
        bootstrap_ci(scores, labels, 0.0, B=2000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


# ---------------------------------------------------------------------------
# threshold-free metrics

def threshold_free_loop_oracle(scores, labels, rule):
    """threshold_free as it once ran: a while loop over each sorted order."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray([lab == PROGRESSOR for lab in labels])
    decision = -scores if rule == "le" else scores
    order = np.argsort(decision, kind="mergesort")
    ranks = np.empty(len(decision))
    sorted_d = decision[order]
    i = 0
    while i < len(sorted_d):
        j = i
        while j + 1 < len(sorted_d) and sorted_d[j + 1] == sorted_d[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(~pos))
    roc_auc = (float(np.sum(ranks[pos])) - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    desc = np.argsort(-decision, kind="mergesort")
    tp = fp = 0
    prev_recall = 0.0
    pr_auc = 0.0
    k = 0
    while k < len(desc):
        j = k
        while j + 1 < len(desc) and decision[desc[j + 1]] == decision[desc[k]]:
            j += 1
        tp += int(np.sum(pos[desc[k:j + 1]]))
        fp += (j - k + 1) - int(np.sum(pos[desc[k:j + 1]]))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        pr_auc += (recall - prev_recall) * precision
        prev_recall = recall
        k = j + 1
    return roc_auc, pr_auc


def test_roc_auc_perfect_separation():
    scores = [-2.0, -1.5, 1.0, 2.0]
    labels = labels_of([True, True, False, False])
    auc, pr = threshold_free(scores, labels, rule="le")
    assert auc == 1.0
    assert pr == 1.0


def test_roc_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        scores = np.round(rng.normal(size=n), 1)
        flags = rng.random(n) < 0.4
        if flags.all() or not flags.any():
            continue
        labels = labels_of(flags)
        auc, _ = threshold_free(scores, labels, rule="le")
        oracle = pairwise_auc_oracle(-scores, flags)
        assert auc == pytest.approx(oracle, abs=1e-12)


def test_roc_auc_random_scores_near_half():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=4000)
    flags = rng.random(4000) < 0.5
    auc, _ = threshold_free(scores, labels_of(flags), rule="le")
    assert auc == pytest.approx(0.5, abs=0.03)


def test_pr_auc_step_integration_hand_example():
    # descending decision order: pos, neg, pos; steps at recall 1/2 and 1
    scores = [-2.0, -1.0, 0.0]
    labels = labels_of([True, False, True])
    _, pr = threshold_free(scores, labels, rule="le")
    assert pr == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


def test_pr_auc_all_ties_equals_prevalence():
    scores = [1.0] * 8
    labels = labels_of([True, True, False, False, False, False, False, False])
    auc, pr = threshold_free(scores, labels, rule="le")
    assert auc == pytest.approx(0.5)
    assert pr == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# vectorized statistics against their loop oracles, compared with ==

@pytest.mark.parametrize("decimals", [None, 1])
@pytest.mark.parametrize("n", [5, 37, 1999, 2000])
def test_statistics_match_loop_oracles(n, decimals):
    rng = np.random.default_rng(n)
    scores = rng.normal(size=n)
    if decimals is not None:
        scores = np.round(scores, decimals)       # force ties
    flags = rng.random(n) < 0.35
    flags[:2] = (True, False)
    labels = labels_of(flags)
    B = 2000 if n < 100 else 300
    for rule in ("le", "ge"):
        tau = youden_threshold(scores, labels, rule)
        assert (classify_metrics(scores, labels, tau, rule)
                == classify_metrics_oracle(scores, labels, tau, rule))
        assert (bootstrap_ci(scores, labels, tau, rule, B=B, seed=n)
                == bootstrap_ci_loop_oracle(scores, labels, tau, rule, B, n))
        assert (threshold_free(scores, labels, rule)
                == threshold_free_loop_oracle(scores, labels, rule))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=2, max_size=12),
       st.integers(0, 2**16))
def test_statistics_match_oracles_on_small_tied_inputs(rows, seed):
    scores = [v / 2 for v, _ in rows]
    flags = [f for _, f in rows]
    assume(any(flags) and not all(flags))
    labels = labels_of(flags)
    for rule in ("le", "ge"):
        tau = youden_threshold(scores, labels, rule)
        assert tau == youden_enumeration_oracle(scores, labels, rule)
        assert (classify_metrics(scores, labels, tau, rule)
                == classify_metrics_oracle(scores, labels, tau, rule))
        assert (bootstrap_ci(scores, labels, tau, rule, B=50, seed=seed)
                == bootstrap_ci_loop_oracle(scores, labels, tau, rule, 50, seed))
        assert (threshold_free(scores, labels, rule)
                == threshold_free_loop_oracle(scores, labels, rule))


@pytest.mark.parametrize("call", [
    lambda s, lab: classify_metrics(s, lab, 0.0),
    lambda s, lab: youden_threshold(s, lab),
    lambda s, lab: bootstrap_ci(s, lab, 0.0, B=10),
    lambda s, lab: threshold_free(s, lab),
], ids=["classify_metrics", "youden_threshold", "bootstrap_ci", "threshold_free"])
def test_statistics_reject_bad_input(call):
    labels = labels_of([True, False, True])
    with pytest.raises(DataError, match="2 scores for 3 labels"):
        call([0.1, 0.2], labels)
    with pytest.raises(DataError, match="4 scores for 3 labels"):
        call([0.1, 0.2, 0.3, 0.4], labels)
    with pytest.raises(DataError, match="finite"):
        call([0.1, math.nan, 0.3], labels)
    with pytest.raises(DataError, match="label 1"):
        call([0.1, 0.2, 0.3], [PROGRESSOR, "x", STABLE])


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("bad", [None, 1, "Progressor"])
@pytest.mark.parametrize("call", [
    lambda s, lab: classify_metrics(s, lab, 0.0),
    lambda s, lab: youden_threshold(s, lab),
    lambda s, lab: bootstrap_ci(s, lab, 0.0, B=10),
    lambda s, lab: threshold_free(s, lab),
], ids=["classify_metrics", "youden_threshold", "bootstrap_ci", "threshold_free"])
def test_statistics_name_a_bad_label_by_index_and_repr(call, bad, as_array):
    labels = [PROGRESSOR, STABLE, PROGRESSOR, bad, STABLE, bad]
    if as_array:
        labels = np.array(labels, dtype=object)
    with pytest.raises(DataError) as err:
        call([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], labels)
    assert str(err.value) == f"label 3 is {bad!r}, not 'progressor' or 'stable'"


@pytest.mark.parametrize("call", [
    lambda s, lab, rule: classify_metrics(s, lab, 0.0, rule),
    lambda s, lab, rule: youden_threshold(s, lab, rule),
    lambda s, lab, rule: bootstrap_ci(s, lab, 0.0, rule, B=10),
    lambda s, lab, rule: threshold_free(s, lab, rule),
], ids=["classify_metrics", "youden_threshold", "bootstrap_ci", "threshold_free"])
def test_statistics_reject_unknown_rule(call):
    with pytest.raises(ConfigurationError, match="sideways"):
        call([0.1, 0.2], labels_of([True, False]), "sideways")


# ---------------------------------------------------------------------------
# end-to-end pipeline

def fitted_risk_inputs(n=300, seed=0, kind="bootstrap", group_spec=()):
    # fixed horizons keep the 1/tN factor in the rate scores comparable
    # across subjects, so the slope signal dominates the ranking
    cfg = SynthConfig(n_subjects=n, progressor_frac=0.4, feature_signal=1.5,
                      seed=seed, varying_horizon=False, group_spec=group_spec)
    ds, truth = generate(cfg)
    idx = split(ds, 0.3, 0.3, seed)
    train_std, stats = standardize(ds.subset(idx.train))
    calib_std, _ = standardize(ds.subset(idx.calib), stats)
    test_std, _ = standardize(ds.subset(idx.test), stats)
    model = fit_predictor(kind, train_std, seed=seed)
    cal = calibrate(score_dataset(model, calib_std), 0.1)
    return test_std, truth, model, cal


def assert_same_scores(got, want):
    """got's columns equal want's, bit for bit."""
    assert got.subject_ids == want.subject_ids
    for name in ("tN", "roc_hat", "rocb", "progressor"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_risk_pipeline_records_and_reports():
    test, truth, model, cal = fitted_risk_inputs()
    scores, reports = risk_pipeline(test, truth, model, cal, "decreasing",
                                    bootstrap_B=100, seed=0)
    subjects = scored(subjects_of(test))
    assert scores.subject_ids == tuple(s.id for s in subjects)
    assert scores.tN.tolist() == [s.visits[-1][0] for s in subjects]
    assert scores.progressor.tolist() == [truth[s.id]["is_progressor"] for s in subjects]
    assert np.all(scores.rocb <= scores.roc_hat + 1e-12)
    for name in ("roc_hat", "rocb"):
        rep = reports[name]
        assert 0.0 <= rep.recall <= 1.0
        assert 0.0 <= rep.roc_auc <= 1.0
        assert rep.n + rep.n_excluded == len(subjects)


def test_risk_pipeline_separates_synthetic_progressors():
    test, truth, model, cal = fitted_risk_inputs(n=400, seed=1)
    _, reports = risk_pipeline(test, truth, model, cal, "decreasing",
                               bootstrap_B=100, seed=1)
    # progressor slopes are 7x steeper, so ranking must beat chance clearly
    assert reports["roc_hat"].roc_auc > 0.75
    assert reports["rocb"].roc_auc > 0.75


def test_risk_pipeline_missing_truth_errors():
    # every label is checked before the batched prediction, so the error
    # names the first unlabelled subject, as the per-subject loop did
    test, truth, model, cal = fitted_risk_inputs(n=120, seed=2)
    ids = [s.id for s in scored(subjects_of(test))]
    truth = {k: v for k, v in truth.items() if k not in (ids[3], ids[7])}
    for pipeline in (risk_pipeline, risk_scores):
        with pytest.raises(DataError, match=f"no progression label for subject {ids[3]}$"):
            pipeline(test, truth, model, cal, "decreasing", bootstrap_B=10)


def test_risk_pipeline_all_bands_infinite_errors():
    test, truth, model, _ = fitted_risk_inputs(n=120, seed=3)
    inf_cal = calibrate(ScoreSet((), ()), 0.1)
    with pytest.raises(DataError, match="infinite"):
        risk_pipeline(test, truth, model, inf_cal, "decreasing", bootstrap_B=10)


def test_risk_pipeline_refuses_an_unknown_direction_first():
    # before any prediction: every band infinite, or no model at all, still
    # gives the direction's error
    test, truth, model, cal = fitted_risk_inputs(n=200, seed=1)
    inf_cal = calibrate(ScoreSet((), ()), 0.1)
    for m, c in ((model, cal), (model, inf_cal), (None, inf_cal)):
        with pytest.raises(ConfigurationError, match=r"^unknown direction 'sideways'$"):
            risk_pipeline(test, truth, m, c, "sideways", bootstrap_B=10)


@pytest.mark.parametrize("kind", ["bootstrap", "quantile", "gp"])
@pytest.mark.parametrize("direction", ["decreasing", "increasing"])
def test_risk_pipeline_matches_per_subject_reference(kind, direction):
    # one batched prediction gives a linear predictor's per-subject bands
    # bit for bit; a GP's predictions go through BLAS, so its scores agree
    # to within 1e-9
    test, truth, model, cal = fitted_risk_inputs(n=200, seed=4, kind=kind)
    got = risk_pipeline(test, truth, model, cal, direction, bootstrap_B=50, seed=4)
    want = risk_scores(test, truth, model, cal, direction, bootstrap_B=50, seed=4)
    if kind != "gp":
        assert_same_scores(got[0], want[0])
        assert got[1] == want[1]
        return
    scores, reports = got
    for name in ("subject_ids", "tN", "progressor"):
        assert np.array_equal(getattr(scores, name), getattr(want[0], name)), name
    for name in ("roc_hat", "rocb"):
        assert np.allclose(getattr(scores, name), getattr(want[0], name), rtol=0, atol=1e-9)
        assert (reports[name].n, reports[name].n_excluded) == \
            (want[1][name].n, want[1][name].n_excluded)


def test_risk_pipeline_mondrian_warns_once_per_call(caplog):
    sites = GroupSpec("site", ("a", "b", "c"), (0.4, 0.3, 0.3))
    test, truth, model, _ = fitted_risk_inputs(n=300, seed=5, group_spec=(sites,))
    full = mondrian_calibrate(test, score_dataset(model, test), "site", 0.1)
    # calibration saw no subject of site c: those fall back to the population radius
    gcal = GroupCalibration("site", {g: c for g, c in full.per_group.items() if g != "c"},
                            full.fallback)
    n_unseen = sum(s.labels["site"] == "c" for s in scored(subjects_of(test)))
    assert n_unseen > 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="conftraj.conformal"):
        got = risk_pipeline(test, truth, model, gcal, "decreasing", bootstrap_B=10)
    assert len(caplog.records) == 1
    assert f"{n_unseen} subject(s)" in caplog.text and "['c']" in caplog.text
    want = risk_scores(test, truth, model, gcal, "decreasing", bootstrap_B=10)
    assert_same_scores(got[0], want[0])
    assert got[1] == want[1]


def test_risk_pipeline_infinite_group_bands_match_the_reference():
    # Mondrian calibration with no calibration score in site c: its bands
    # are infinite, so its rocb is nan and the rocb report leaves it out
    sites = GroupSpec("site", ("a", "b", "c"), (0.4, 0.3, 0.3))
    test, truth, model, _ = fitted_risk_inputs(n=300, seed=6, group_spec=(sites,))
    full = mondrian_calibrate(test, score_dataset(model, test), "site", 0.1)
    gcal = GroupCalibration("site", {**full.per_group, "c": calibrate(ScoreSet((), ()), 0.1)},
                            full.fallback)
    got = risk_pipeline(test, truth, model, gcal, "increasing", bootstrap_B=20, seed=6)
    want = risk_scores(test, truth, model, gcal, "increasing", bootstrap_B=20, seed=6)
    assert_same_scores(got[0], want[0])
    assert got[1] == want[1]
    in_c = np.array([s.labels["site"] == "c" for s in scored(subjects_of(test))])
    assert 0 < in_c.sum() < len(in_c)
    assert np.array_equal(np.isnan(got[0].rocb), in_c)
    assert got[1]["rocb"].n_excluded == in_c.sum()
    assert got[1]["rocb"].n + in_c.sum() == got[1]["roc_hat"].n
