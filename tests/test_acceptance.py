"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
capture) so the criterion outcomes are visible in any pytest run, then
asserts.  The Monte Carlo fixture shared by the coverage criteria
generates fresh cohorts per repetition with n_calib = n_test = 500.
"""

import math
import shutil
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from conftraj.cli import main as cli_main
from conftraj.conformal import (ScoreSet, bands_for_dataset,
                                calibrate, mondrian_calibrate, score_dataset)
from conftraj.data_model import split, standardize
from conftraj.evaluation import (coverage_and_width, evaluate_split,
                                 fit_predictor, stratified_compare)
from conftraj.predictors import (SIGMA_FLOOR, fit_bootstrap, fit_gp,
                                 predict_batch)
from conftraj.risk import risk_pipeline, threshold_free, youden_threshold
from conftraj.synth import GroupSpec, SynthConfig, generate
from tests import conftest
from tests.test_predictors import dense_gp_oracle, linear_dataset
from tests.test_risk import (labels_of, pairwise_auc_oracle,
                             youden_enumeration_oracle)

N_REPS = 100
ALPHAS = (0.10, 0.05, 0.01)
KINDS = ("gp", "quantile", "bootstrap")
# test 500, calib 500, train 100 out of 1100 subjects
N_SUBJECTS = 1100
TEST_FRAC = 500 / 1100
CALIB_FRAC = 500 / 600
SANDWICH_SLACK = 1.0 / 501


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{name}]: {status} ({detail})"
    print(line)
    conftest.CRITERION_LINES.append(line)


def values_of(scores):
    return np.asarray([s.value for s in scores])


@pytest.fixture(scope="module")
def mc():
    """Shared Monte Carlo loop: per-rep calibration and test scores for
    each predictor, plus the deliberately overconfident bootstrap."""
    rng = np.random.default_rng(20260824)
    seeds = rng.integers(0, 2 ** 31 - 1, size=N_REPS)
    calib_scores = {k: [] for k in KINDS + ("overconfident",)}
    test_values = {k: [] for k in KINDS + ("overconfident",)}
    gp_elapsed = 0.0
    crosscheck = {}
    for rep, seed in enumerate(int(s) for s in seeds):
        ds, _ = generate(SynthConfig(n_subjects=N_SUBJECTS, seed=seed))
        idx = split(ds, TEST_FRAC, CALIB_FRAC, seed)
        train, stats = standardize(ds.subset(idx.train))
        calib, _ = standardize(ds.subset(idx.calib), stats)
        test, _ = standardize(ds.subset(idx.test), stats)
        assert len(idx.test) == 500 and len(idx.calib) == 500

        for kind in KINDS:
            t0 = time.time()
            model = fit_predictor(kind, train, seed=seed)
            cal_sc = score_dataset(model, calib)
            tst_sc = score_dataset(model, test)
            if kind == "gp":
                gp_elapsed += time.time() - t0
            calib_scores[kind].append(cal_sc)
            test_values[kind].append(values_of(tst_sc))

        over = fit_bootstrap(train, seed=seed, std_scale=0.3)
        calib_scores["overconfident"].append(score_dataset(over, calib))
        test_values["overconfident"].append(values_of(score_dataset(over, test)))

        if rep == 0:
            # the score-comparison shortcut must agree with explicit bands
            gp = fit_predictor("gp", train, seed=seed)
            cal = calibrate(calib_scores["gp"][0], 0.10)
            bands = bands_for_dataset(gp, test, cal)
            band_cov = coverage_and_width(bands, test).mean_coverage
            crosscheck["gp_band"] = band_cov
            crosscheck["gp_score"] = float(
                np.mean(test_values["gp"][0] <= cal.radius))
            # baseline mode refits the same overconfident model on the same split
            z = NormalDist().inv_cdf(0.95)
            bl, _, _ = evaluate_split(ds, "bootstrap", 0.10, TEST_FRAC, CALIB_FRAC,
                                      seed, mode="baseline",
                                      predictor_opts={"std_scale": 0.3})
            crosscheck["baseline_mode"] = bl.mean_coverage
            crosscheck["baseline_score"] = float(
                np.mean(test_values["overconfident"][0] <= z))
    return {"calib": calib_scores, "test": test_values,
            "gp_elapsed": gp_elapsed, "crosscheck": crosscheck}


def mean_coverage(mc_data, kind, alpha):
    covs = []
    for cal_sc, tst in zip(mc_data["calib"][kind], mc_data["test"][kind]):
        radius = calibrate(cal_sc, alpha).radius
        covs.append(float(np.mean(tst <= radius)))
    return float(np.mean(covs))


def test_criterion_01_marginal_coverage_gp(mc):
    cov = mean_coverage(mc, "gp", 0.10)
    lo, hi = 0.90 - 0.02, 0.90 + SANDWICH_SLACK + 0.02
    in_band = lo <= cov <= hi
    fast = mc["gp_elapsed"] < 300.0
    assert mc["crosscheck"]["gp_band"] == pytest.approx(
        mc["crosscheck"]["gp_score"], abs=1e-12)
    report(1, "marginal coverage, GP, alpha=0.1", in_band and fast,
           f"mean coverage {cov:.4f} in [{lo:.3f}, {hi:.3f}], "
           f"gp time {mc['gp_elapsed']:.0f}s < 300s")
    assert in_band and fast


def test_criterion_02_coverage_all_levels_all_predictors(mc):
    details = []
    ok = True
    for alpha in (0.05, 0.01):
        cov = mean_coverage(mc, "gp", alpha)
        lo, hi = 1 - alpha - 0.02, 1 - alpha + SANDWICH_SLACK + 0.02
        ok &= lo <= cov <= hi
        details.append(f"gp@{alpha}: {cov:.4f}")
    for kind in KINDS:
        for alpha in ALPHAS:
            cov = mean_coverage(mc, kind, alpha)
            ok &= cov >= 1 - alpha - 0.02
            details.append(f"{kind}@{alpha}: {cov:.4f}")
    report(2, "coverage at all confidence levels", ok, "; ".join(details))
    assert ok


def test_criterion_03_baseline_vs_conformal(mc):
    z = NormalDist().inv_cdf(0.95)
    base_cov = float(np.mean(
        [np.mean(t <= z) for t in mc["test"]["overconfident"]]))
    conf_cov = mean_coverage(mc, "overconfident", 0.10)
    lo, hi = 0.88, 0.90 + SANDWICH_SLACK + 0.02
    ok = base_cov < 0.90 - 0.05 and lo <= conf_cov <= hi
    assert mc["crosscheck"]["baseline_mode"] == pytest.approx(
        mc["crosscheck"]["baseline_score"], abs=1e-12)
    report(3, "overconfident baseline vs conformal", ok,
           f"baseline {base_cov:.4f} < 0.85; conformal {conf_cov:.4f}")
    assert ok


# Given exchangeable scores without ties, a repetition's count of covered
# test subjects out of n_test is BetaBinomial(n_test, k, n + 1 - k), with
# k = ceil((n + 1)(1 - alpha)) (Vovk 2012, "Conditional validity of inductive
# conformal predictors").  Nine Pearson fits, one per kind and alpha, share
# a family-wise false-alarm level split evenly among them (Bonferroni).
COVERAGE_LAW_LEVEL = 1e-3
COVERAGE_LAW_BIN = 0.1          # least probability of a pooled bin: 10 expected of 100


def beta_binomial_pmf(m, a, b):
    """P(C = c) for c = 0..m, C ~ BetaBinomial(m, a, b)."""
    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    return np.array([math.exp(math.lgamma(m + 1) - math.lgamma(c + 1) - math.lgamma(m - c + 1)
                              + log_beta(c + a, m - c + b) - log_beta(a, b))
                     for c in range(m + 1)])


def pooled_bin_edges(pmf, least):
    """Edges cutting 0..len(pmf) - 1 into runs of consecutive counts, each of
    probability at least least; the last run takes the remainder."""
    edges, mass = [0], 0.0
    for c, p in enumerate(pmf):
        mass += p
        if mass >= least:
            edges.append(c + 1)
            mass = 0.0
    edges[-1] = len(pmf)
    return edges


def chi2_sf(x, df):
    """P(X > x) for X ~ chi-square with df degrees of freedom, df a positive
    integer: Q(1) or Q(2) in closed form, then Q(v + 2) = Q(v) +
    (x/2)^(v/2) e^(-x/2) / Gamma(v/2 + 1)."""
    sf = math.erfc(math.sqrt(x / 2)) if df % 2 else math.exp(-x / 2)
    for v in range(2 - df % 2, df, 2):
        sf += (x / 2) ** (v / 2) * math.exp(-x / 2 - math.lgamma(v / 2 + 1))
    return sf


def test_coverage_count_follows_the_beta_binomial_law(mc):
    level = COVERAGE_LAW_LEVEL / (len(KINDS) * len(ALPHAS))
    fits = []
    for kind in KINDS:
        for alpha in ALPHAS:
            covered = []
            for cal_sc, tst in zip(mc["calib"][kind], mc["test"][kind]):
                cal = calibrate(cal_sc, alpha)
                assert (cal.n, len(tst)) == (500, 500)
                covered.append(int(np.count_nonzero(tst <= cal.radius)))
            k = math.ceil(501 * (1 - alpha))
            pmf = beta_binomial_pmf(500, k, 501 - k)
            edges = pooled_bin_edges(pmf, COVERAGE_LAW_BIN)
            expected = len(covered) * np.add.reduceat(pmf, edges[:-1])
            observed = np.bincount(np.searchsorted(edges, covered, side="right") - 1,
                                   minlength=len(expected))
            stat = float(np.sum((observed - expected) ** 2 / expected))
            fits.append((kind, alpha, len(expected), stat, chi2_sf(stat, len(expected) - 1)))
    assert all(p > level for *_, p in fits), fits


def test_criterion_04_group_conditional_coverage():
    spec = (GroupSpec("site", ("a", "b", "c"), (1 / 3, 1 / 3, 1 / 3),
                      {"a": 1.0, "b": 1.0, "c": 3.0}),)
    ds, _ = generate(SynthConfig(n_subjects=N_SUBJECTS, seed=42,
                                 group_spec=spec))
    res = stratified_compare(ds, "bootstrap", 0.10, "site", seed=42,
                             test_frac=TEST_FRAC, calib_frac=CALIB_FRAC)
    pop = res["population"].per_group
    grp = res["group_conditional"].per_group
    noisy_gap = 0.90 - pop["c"]["coverage"]
    sizes_ok = all(v["n"] >= 150 for v in pop.values())
    mondrian_ok = all(
        v["coverage"] >= 0.90 - 3 * math.sqrt(0.9 * 0.1 / v["n"])
        for v in grp.values())
    ok = noisy_gap >= 0.03 and sizes_ok and mondrian_ok
    report(4, "Mondrian group-conditional coverage", ok,
           f"population noisy-group coverage {pop['c']['coverage']:.3f} "
           f"(gap {noisy_gap:.3f}); per-group "
           + ", ".join(f"{g}={v['coverage']:.3f}" for g, v in sorted(grp.items())))
    assert ok


def test_criterion_05_rank_oracle():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        alpha = float(rng.uniform(0.01, 0.5))
        values = rng.exponential(size=n)
        cal = calibrate(ScoreSet(tuple(f"s{i}" for i in range(n)), values), alpha)
        rank = math.ceil((n + 1) * (1 - alpha))
        expected = np.sort(values)[rank - 1] if rank <= n else math.inf
        mismatches += cal.radius != expected
    report(5, "conformal radius rank oracle", mismatches == 0,
           f"{mismatches} mismatches over 1000 random score sets")
    assert mismatches == 0


def test_criterion_06_gp_dense_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 51))
        ds, _, _, _ = linear_dataset(n, d=2, seed=trial, noise=0.1)
        m = fit_gp(ds, seed=0)
        Xq = np.column_stack([rng.standard_normal((3, 2)), np.zeros(3)])
        tq = rng.integers(1, 60, size=3)
        means, stds = predict_batch(m, Xq, tq)
        Zq = m.scaler.apply(np.column_stack([Xq, tq]))
        om, ov = dense_gp_oracle(m.Z, m.y, Zq, m.signal_var,
                                 m.lengthscale, m.noise_var)
        ostd = np.maximum(np.sqrt(np.maximum(ov, 0.0)), SIGMA_FLOOR)
        worst = max(worst, float(np.max(np.abs(means - om))),
                    float(np.max(np.abs(stds - ostd))))
    # noiseless interpolation
    ds, X, ts, ys = linear_dataset(25, d=2, seed=999, noise=0.0)
    m = fit_gp(ds, noise_vars=[1e-10], seed=0)
    means, _ = predict_batch(m, np.column_stack([X, np.zeros(len(ys))]), ts)
    interp = float(np.max(np.abs(means - ys)))
    ok = worst < 1e-8 and interp < 1e-6
    report(6, "GP matches dense direct-solve oracle", ok,
           f"max posterior deviation {worst:.2e} < 1e-8; "
           f"noiseless interpolation error {interp:.2e} < 1e-6")
    assert ok


def risk_cohort(seed):
    spec = (GroupSpec("clinic", ("q", "v"), (0.5, 0.5),
                      {"q": 1.0, "v": 4.0}, {"q": 0.10, "v": 0.60}),)
    cfg = SynthConfig(n_subjects=600, progressor_frac=0.35, feature_signal=1.0,
                      seed=seed, group_spec=spec, varying_horizon=False)
    ds, truth = generate(cfg)
    idx = split(ds, 0.3, 0.3, seed)
    train, stats = standardize(ds.subset(idx.train))
    calib, _ = standardize(ds.subset(idx.calib), stats)
    test, _ = standardize(ds.subset(idx.test), stats)
    model = fit_bootstrap(train, seed=seed, std_scale=0.3)
    cal = mondrian_calibrate(calib, score_dataset(model, calib), "clinic", 0.1)
    return test, truth, model, cal


def test_criterion_07_rocb_dominance():
    test, truth, model, cal = risk_cohort(seed=0)
    scores, _ = risk_pipeline(test, truth, model, cal, "decreasing",
                              bootstrap_B=50, seed=0)
    finite = np.isfinite(scores.rocb)
    rh, rb, pos = scores.roc_hat[finite], scores.rocb[finite], scores.progressor[finite]
    dominance = bool(np.all(rb <= rh))
    superset = True
    recall_mono = True
    for tau in rh:
        f_hat = rh <= tau
        f_b = rb <= tau
        superset &= bool(np.all(f_b[f_hat]))
        recall_mono &= np.sum(f_b & pos) >= np.sum(f_hat & pos)
    ok = dominance and superset and recall_mono
    report(7, "worst-case rate bound dominance", ok,
           f"{len(rh)} subjects: per-subject dominance {dominance}, "
           f"flag-set superset {superset}, recall monotone {recall_mono}")
    assert ok


def test_criterion_08_risk_recall_gain():
    deltas = []
    for seed in range(20):
        test, truth, model, cal = risk_cohort(seed)
        _, reports = risk_pipeline(test, truth, model, cal, "decreasing",
                                   bootstrap_B=50, seed=seed)
        deltas.append(reports["rocb"].recall - reports["roc_hat"].recall)
    mean_delta = float(np.mean(deltas))
    ok = mean_delta >= 0.05
    report(8, "risk recall gain from band endpoint", ok,
           f"mean recall delta {mean_delta:+.3f} over 20 seeds (>= 0.05)")
    assert ok


def test_criterion_09_youden_and_auc_oracles():
    rng = np.random.default_rng(9)
    youden_bad = auc_worst = 0
    trials = 0
    while trials < 500:
        n = int(rng.integers(4, 61))
        scores = np.round(rng.normal(size=n), 1)
        flags = rng.random(n) < 0.45
        if flags.all() or not flags.any():
            continue
        trials += 1
        labels = labels_of(flags)
        rule = "le" if trials % 2 else "ge"
        tau = youden_threshold(scores, labels, rule)
        youden_bad += tau != youden_enumeration_oracle(scores, labels, rule)
        if n <= 50:
            auc, _ = threshold_free(scores, labels, rule)
            decision = -scores if rule == "le" else scores
            auc_worst = max(auc_worst,
                            abs(auc - pairwise_auc_oracle(decision, flags)))
    ok = youden_bad == 0 and auc_worst < 1e-12
    report(9, "Youden and ROC-AUC oracles", ok,
           f"{youden_bad} Youden mismatches / 500; "
           f"max AUC deviation {auc_worst:.2e} < 1e-12")
    assert ok


def _run_all_pipelines(base: Path):
    import json
    base.mkdir(parents=True, exist_ok=True)
    gen = base / "gen"
    (base / "gen.json").write_text(json.dumps({
        "synth": {"n_subjects": 100, "progressor_frac": 0.35,
                  "feature_signal": 1.5, "varying_horizon": False,
                  "group_spec": [{"column": "site", "categories": ["a", "b"],
                                  "probs": [0.5, 0.5]}]}}))
    assert cli_main(["generate", "--config", str(base / "gen.json"),
                     "--seed", "4", "--out", str(gen)]) == 0
    data = {"path": str(gen / "cohort.csv"), "truth_path": str(gen / "truth.csv"),
            "feature_cols": [f"f{i}" for i in range(4)], "group_cols": ["site"]}
    common = {"data": data, "predictor": {"kind": "bootstrap"},
              "evaluation": {"n_splits": 2, "test_frac": 0.3, "calib_frac": 0.3}}
    runs = {
        "fit": dict(common),
        "calibrate": {**common,
                      "predictor": {"kind": "bootstrap",
                                    "model_dir": str(base / "fit")}},
        "evaluate": {**common, "conformal": {"alpha": 0.1}},
        "sweep": {**common, "evaluation": {"fracs": [0.2, 0.3],
                                           "test_frac": 0.3}},
        "stratify": {**common, "conformal": {"alpha": 0.2, "group_by": "site"}},
        "risk": {**common, "risk": {"direction": "decreasing",
                                    "bootstrap_B": 50}},
    }
    for name, cfg in runs.items():
        (base / f"{name}.json").write_text(json.dumps(cfg))
        assert cli_main([name, "--config", str(base / f"{name}.json"),
                         "--seed", "4", "--out", str(base / name)]) == 0
    out = {}
    for p in sorted(base.rglob("*")):
        if p.is_file() and p.suffix in (".csv", ".json"):
            out[str(p.relative_to(base))] = p.read_bytes()
    return out


def test_criterion_10_cli_determinism(tmp_path):
    base = tmp_path / "run"
    first = _run_all_pipelines(base)
    shutil.rmtree(base)
    second = _run_all_pipelines(base)
    same = set(first) == set(second) and all(
        first[k] == second[k] for k in first)
    report(10, "CLI byte-level determinism", same,
           f"{len(first)} output files identical across reruns "
           "of all 7 pipelines")
    assert same


def test_criterion_11_width_grows_over_time():
    ds, _ = generate(SynthConfig(n_subjects=600, seed=0))
    rep, _, _ = evaluate_split(ds, "gp", 0.10, 0.25, 0.4, seed=0)
    buckets = rep.per_time_width
    first, last = min(buckets), max(buckets)
    ok = buckets[last] > buckets[first]
    report(11, "band width grows toward late horizons", ok,
           f"year-bucket mean width {buckets[first]:.3f} (first) -> "
           f"{buckets[last]:.3f} (last)")
    assert ok
