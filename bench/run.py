#!/usr/bin/env python3
"""conftraj benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 bench/run.py --workload mc_rep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each workload runs in a process of its own.  Op ``i`` uses seed
``seed + i``; ops run back to back until ``--seconds`` have passed.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` each op is run untraced and then replayed as a sequence of
public library calls inside spans, and the run reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result with run metadata (and, when
traced, every span) is written under ``.bench_out/``.  See
bench/DESIGN.md for why each workload exists and what each metric should
move.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))

# BLAS runs on one thread, the client's own: the closed loop then uses one
# core of a shared host, and the host-speed probes (bench/hostspeed.py)
# measure the core the op runs on.  This has to happen before numpy is
# imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import numpy as np

    import conftraj
    from conftraj.cli import main as cli_main
    from conftraj.conformal import (band_for_subject, bands_for_dataset,
                                    calibrate, mondrian_calibrate,
                                    score_dataset)
    from conftraj.data_model import (CsvSchema, load_csv, save_csv, split,
                                     standardize)
    from conftraj.evaluation import coverage_and_width
    from conftraj.predictors import (design_matrix, fit_bootstrap, fit_gp,
                                     fit_quantile)
    from conftraj.risk import (PROGRESSOR, STABLE, bootstrap_ci, risk_pipeline,
                               roc_hat, rocb, threshold_free, youden_threshold)
    from conftraj.synth import GroupSpec, SynthConfig, generate
except ImportError as exc:
    sys.exit(f"bench: cannot import conftraj from {ROOT / 'src'}: {exc}")
if not Path(conftraj.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"bench: imported conftraj from {conftraj.__file__}, not {ROOT / 'src'}")

from hostspeed import HostSpeed  # noqa: E402  (bench/hostspeed.py)
from spans import NullTracer, Tracer  # noqa: E402  (bench/spans.py)

SETUP_PASSES = 5
SETUP_PROBES = 5
ALPHA = 0.10
FEATURES = tuple(f"f{j}" for j in range(4))
SCHEMA = CsvSchema(feature_cols=FEATURES)

# mc_rep: the acceptance Monte Carlo repetition of tests/test_acceptance.py::mc
MC_SUBJECTS = 1100
MC_TEST_FRAC = 500 / 1100
MC_CALIB_FRAC = 500 / 600
MC_ALPHAS = (0.10, 0.05, 0.01)
MC_MIN_GP_COVERAGE = 0.88
FITS = {"gp": ("predictors.fit_gp", lambda train, seed: fit_gp(train, seed=seed)),
        "quantile": ("predictors.fit_quantile", lambda train, seed: fit_quantile(train)),
        "bootstrap": ("predictors.fit_bootstrap",
                      lambda train, seed: fit_bootstrap(train, seed=seed))}

# cohort_cli: generate + Mondrian-calibrated bootstrap evaluate through the CLI
COHORT_SUBJECTS = 10_000
COHORT_SPLITS = 5
COHORT_TEST_FRAC = 0.10     # the CLI defaults
COHORT_CALIB_FRAC = 0.20
GROUP = {"column": "site", "categories": ["a", "b", "c"],
         "probs": [0.4, 0.4, 0.2], "noise_multipliers": {"c": 2.0}}

# risk_cohort: `conftraj risk` on one cohort written at set-up
RISK_SUBJECTS = 4000
RISK_TEST_FRAC = 0.5
RISK_CALIB_FRAC = 0.20      # the CLI default
RISK_B = 2000
RISK_DIRECTION = "decreasing"

PER_LAYER = (
    ("synth.generate.s", "s"),
    ("data_model.load_csv.s", "s"),
    ("data_model.save_csv.s", "s"),
    ("data_model.split.s", "s"),
    ("data_model.standardize.s", "s"),
    ("data_model.visit_rows", "count"),
    ("predictors.fit_gp.s", "s"),
    ("predictors.fit_gp.train_rows", "count"),
    ("predictors.fit_quantile.s", "s"),
    ("predictors.fit_bootstrap.s", "s"),
    ("predictors.design_matrix.s", "s"),
    ("conformal.score_dataset.s", "s"),
    ("conformal.calibrate.s", "s"),
    ("conformal.mondrian_calibrate.s", "s"),
    ("conformal.bands_for_dataset.s", "s"),
    ("conformal.band_for_subject.s", "s"),
    ("conformal.band_for_subject.calls", "count"),
    ("conformal.infinite_band_ratio", "ratio"),
    ("evaluation.coverage_and_width.s", "s"),
    ("risk.risk_pipeline.s", "s"),
    ("risk.bootstrap_ci.s", "s"),
    ("risk.youden_threshold.s", "s"),
    ("risk.threshold_free.s", "s"),
    ("risk.bootstrap.useful_ratio", "ratio"),
    ("risk.rocb_roc_auc", "ratio"),
    ("cli.other.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
COUNTERS = {"data_model.visit_rows", "predictors.fit_gp.train_rows",
            "conformal.infinite_band_ratio", "risk.bootstrap.useful_ratio",
            "risk.rocb_roc_auc"}


class CheckFailed(Exception):
    """An op's outputs failed the benchmark's correctness check."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def run_cli(*argv):
    rc = cli_main([str(a) for a in argv])
    require(rc == 0, f"conftraj {argv[0]} exited with {rc}")


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def snapshot(*dirs):
    """Bytes of every .csv/.json file under the given output directories."""
    return {str(p.relative_to(d.parent)): p.read_bytes()
            for d in dirs for p in sorted(d.rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".json")}


def read_truth(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["subject_id"]: {"is_progressor": row["is_progressor"] == "1"}
                for row in csv.DictReader(fh)}


def zscores(values):
    """The risk pipeline's z-standardization of a score vector."""
    v = np.asarray(values, dtype=float)
    std = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
    if std <= 0:
        return v - float(np.mean(v)) if len(v) else v
    return (v - float(np.mean(v))) / std


def standardized_parts(ds, test_frac, calib_frac, seed, tr):
    """split, then standardize train and (with train's stats) calib and test."""
    with tr.span("data_model.split"):
        idx = split(ds, test_frac, calib_frac, seed)
    with tr.span("data_model.standardize"):
        train, stats = standardize(ds.subset(idx.train))
    with tr.span("data_model.standardize"):
        calib, _ = standardize(ds.subset(idx.calib), stats)
    with tr.span("data_model.standardize"):
        test, _ = standardize(ds.subset(idx.test), stats)
    return train, calib, test


def visit_rows(ds):
    return sum(len(s.visits) for s in ds.subjects)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """op(seed) returns a checked sample with "op_at", the perf_counter
    start and end of the timed part of the op; replay(seed, sample,
    tracer) repeats the op inside spans and returns the root span's name;
    slim(sample) is the part of a sample kept for the whole run."""

    def setup(self, seed):
        """The workload's own set-up; returns the time spent generating a
        cohort, or None when set-up generates none."""
        return None

    def finish(self, samples):
        """The run's band width."""
        return statistics.fmean(s["width"] for s in samples)

    def check_run(self, samples):
        """Checks that cover the whole run; raise CheckFailed."""

    def outputs(self):
        """Bytes of the .csv/.json files the last op wrote, or None when the
        op writes none."""
        return None


class McRep(Workload):
    """One acceptance-style Monte Carlo repetition per op, in process."""

    def __init__(self, work, scale):
        self.n_subjects = max(int(MC_SUBJECTS * scale), 40)

    def _rep(self, seed, tr):
        with tr.span("op"):
            t0 = time.perf_counter()
            with tr.span("synth.generate"):
                ds, _ = generate(SynthConfig(n_subjects=self.n_subjects, seed=seed))
            t_gen = time.perf_counter() - t0
            train, calib, test = standardized_parts(ds, MC_TEST_FRAC, MC_CALIB_FRAC,
                                                    seed, tr)
            per_kind = {}
            for kind, (span, fit) in FITS.items():
                with tr.span(span):
                    model = fit(train, seed)
                with tr.span("conformal.score_dataset"):
                    cal_sc = score_dataset(model, calib)
                with tr.span("conformal.score_dataset"):
                    tst_sc = score_dataset(model, test)
                cals = []
                for alpha in MC_ALPHAS:
                    with tr.span("conformal.calibrate"):
                        cals.append(calibrate(cal_sc, alpha))
                with tr.span("conformal.bands_for_dataset"):
                    bands = bands_for_dataset(model, test, cals[0])
                with tr.span("evaluation.coverage_and_width"):
                    report = coverage_and_width(bands, test)
                per_kind[kind] = {"model": model, "calib": [s.value for s in cal_sc],
                                  "test": [s.value for s in tst_sc], "cals": cals,
                                  "report": report}
            t1 = time.perf_counter()
        gp = per_kind["gp"]["report"]
        return {"op_at": (t0, t1), "generate_s": t_gen, "width": gp.mean_width,
                "gp_coverage": gp.mean_coverage, "per_kind": per_kind,
                "ds": ds, "train": train}

    def op(self, seed):
        sample = self._rep(seed, NullTracer())
        for kind, r in sample["per_kind"].items():
            values = r["calib"] + r["test"]
            require(all(math.isfinite(v) for v in values), f"{kind}: non-finite score")
            for cal in r["cals"]:
                want = math.ceil((cal.n + 1) * (1.0 - cal.alpha))
                require(cal.rank == want,
                        f"{kind}: rank {cal.rank} != ceil((n+1)(1-alpha)) = {want}")
            by_score = float(np.mean(np.asarray(r["test"]) <= r["cals"][0].radius))
            require(abs(r["report"].mean_coverage - by_score) <= 1e-12,
                    f"{kind}: band coverage {r['report'].mean_coverage} != "
                    f"score coverage {by_score}")
        return sample

    def replay(self, seed, sample, tr):
        traced = self._rep(seed, tr)
        for kind, r in traced["per_kind"].items():
            u = sample["per_kind"][kind]
            require(r["calib"] == u["calib"] and r["test"] == u["test"]
                    and r["report"] == u["report"],
                    f"{kind}: traced repetition differs from the untraced one")
        tr.count("data_model.visit_rows", visit_rows(traced["ds"]))
        tr.count("predictors.fit_gp.train_rows", len(traced["per_kind"]["gp"]["model"].y))
        reports = [r["report"] for r in traced["per_kind"].values()]
        tr.count("conformal.infinite_band_ratio",
                 sum(r.n_infinite_bands for r in reports) / sum(r.n_test for r in reports))
        for _ in FITS:
            with tr.span("predictors.design_matrix", probe=True):
                design_matrix(traced["train"])
        return "op"

    def check_run(self, samples):
        cov = statistics.fmean(s["gp_coverage"] for s in samples)
        require(cov >= MC_MIN_GP_COVERAGE,
                f"mean GP coverage at alpha=0.10 is {cov:.4f} < {MC_MIN_GP_COVERAGE}")

    @staticmethod
    def slim(sample):
        return {k: sample[k] for k in ("generate_s", "width", "gp_coverage")}


class CohortCli(Workload):
    """`conftraj generate` then `conftraj evaluate` (bootstrap, Mondrian)."""

    def __init__(self, work, scale):
        self.work = work
        self.n_subjects = max(int(COHORT_SUBJECTS * scale), 200)
        self.gen_dir = work / "gen"
        self.eval_dir = work / "evaluate"
        self.gen_cfg = work / "gen.json"
        self.eval_cfg = work / "evaluate.json"

    def setup(self, seed):
        write_json(self.gen_cfg, {"synth": {"n_subjects": self.n_subjects,
                                            "group_spec": [GROUP]}})
        write_json(self.eval_cfg, {
            "data": {"path": str(self.gen_dir / "cohort.csv"),
                     "feature_cols": list(FEATURES), "group_cols": [GROUP["column"]]},
            "predictor": {"kind": "bootstrap"},
            "conformal": {"alpha": ALPHA, "group_by": GROUP["column"]},
            "evaluation": {"n_splits": COHORT_SPLITS}})

    def op(self, seed):
        for d in (self.gen_dir, self.eval_dir):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        run_cli("generate", "--config", self.gen_cfg, "--seed", seed, "--out", self.gen_dir)
        t1 = time.perf_counter()
        run_cli("evaluate", "--config", self.eval_cfg, "--seed", seed, "--out", self.eval_dir)
        t2 = time.perf_counter()

        doc = json.loads((self.eval_dir / "report.json").read_text(encoding="utf-8"))
        with open(self.eval_dir / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        splits = doc["splits"]
        require(len(splits) == COHORT_SPLITS,
                f"report.json has {len(splits)} splits, want {COHORT_SPLITS}")
        require({int(r["split"]) for r in rows} == set(range(COHORT_SPLITS)),
                "report.csv does not cover every split")
        for k, sp in enumerate(splits):
            require(0.0 <= sp["coverage"] <= 1.0, f"split {k}: coverage {sp['coverage']}")
            require(math.isfinite(sp["width"]), f"split {k}: width {sp['width']}")
            n_groups = sum(g["n"] for g in sp["per_group"].values())
            require(n_groups == sp["n_test"],
                    f"split {k}: group sizes sum to {n_groups}, n_test is {sp['n_test']}")
        return {"op_at": (t1, t2), "generate_s": t1 - t0, "width": doc["mean"]["width"],
                "report": doc}

    def replay(self, seed, sample, tr):
        spec = GroupSpec(GROUP["column"], tuple(GROUP["categories"]),
                         tuple(GROUP["probs"]), dict(GROUP["noise_multipliers"]))
        replay_csv = self.work / "replay_cohort.csv"
        with tr.span("cli.generate"):
            with tr.span("synth.generate"):
                ds, _ = generate(SynthConfig(n_subjects=self.n_subjects, seed=seed,
                                             group_spec=(spec,)))
            with tr.span("data_model.save_csv"):
                save_csv(ds, replay_csv)
        require(replay_csv.read_bytes() == (self.gen_dir / "cohort.csv").read_bytes(),
                "replayed cohort.csv differs from the CLI's")

        schema = CsvSchema(feature_cols=FEATURES, group_cols=(GROUP["column"],))
        reports, trains = [], []
        with tr.span("cli.evaluate"):
            with tr.span("data_model.load_csv"):
                ds = load_csv(self.gen_dir / "cohort.csv", schema)
            split_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1,
                                                               size=COHORT_SPLITS)
            for s in (int(v) for v in split_seeds):
                train, calib, test = standardized_parts(ds, COHORT_TEST_FRAC,
                                                        COHORT_CALIB_FRAC, s, tr)
                with tr.span("predictors.fit_bootstrap"):
                    model = fit_bootstrap(train, seed=s)
                with tr.span("conformal.score_dataset"):
                    scores = score_dataset(model, calib)
                with tr.span("conformal.mondrian_calibrate"):
                    cal = mondrian_calibrate(calib, scores, GROUP["column"], ALPHA)
                with tr.span("conformal.bands_for_dataset"):
                    bands = bands_for_dataset(model, test, cal)
                with tr.span("evaluation.coverage_and_width"):
                    reports.append(coverage_and_width(bands, test,
                                                      grouping_column=GROUP["column"]))
                trains.append(train)
        for train in trains:
            with tr.span("predictors.design_matrix", probe=True):
                design_matrix(train)
        tr.count("data_model.visit_rows", visit_rows(ds))
        tr.count("conformal.infinite_band_ratio",
                 sum(r.n_infinite_bands for r in reports) / sum(r.n_test for r in reports))

        doc = sample["report"]
        for k, (r, sp) in enumerate(zip(reports, doc["splits"])):
            require(r.mean_coverage == sp["coverage"] and r.mean_width == sp["width"],
                    f"split {k}: replay coverage/width {r.mean_coverage}/{r.mean_width} "
                    f"!= report.json {sp['coverage']}/{sp['width']}")
        for m in ("coverage", "width"):
            mean = float(np.nanmean([getattr(r, f"mean_{m}") for r in reports]))
            require(mean == doc["mean"][m],
                    f"replay mean {m} {mean} != report.json {doc['mean'][m]}")
        return "cli.evaluate"

    def outputs(self):
        return snapshot(self.gen_dir, self.eval_dir)

    @staticmethod
    def slim(sample):
        return {k: sample[k] for k in ("generate_s", "width")}


class RiskCohort(Workload):
    """`conftraj risk` on a cohort written once at set-up."""

    def __init__(self, work, scale):
        self.n_subjects = max(int(RISK_SUBJECTS * scale), 200)
        self.B = max(int(RISK_B * scale), 50)
        self.gen_dir = work / "gen"
        self.out_dir = work / "risk"
        self.gen_cfg = work / "gen.json"
        self.risk_cfg = work / "risk.json"

    def setup(self, seed):
        write_json(self.gen_cfg, {"synth": {"n_subjects": self.n_subjects}})
        write_json(self.risk_cfg, {
            "data": {"path": str(self.gen_dir / "cohort.csv"),
                     "truth_path": str(self.gen_dir / "truth.csv"),
                     "feature_cols": list(FEATURES)},
            "predictor": {"kind": "bootstrap"},
            "conformal": {"alpha": ALPHA},
            "evaluation": {"test_frac": RISK_TEST_FRAC},
            "risk": {"direction": RISK_DIRECTION, "bootstrap_B": self.B}})
        t0 = time.perf_counter()
        run_cli("generate", "--config", self.gen_cfg, "--seed", seed, "--out", self.gen_dir)
        return time.perf_counter() - t0

    def op(self, seed):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        run_cli("risk", "--config", self.risk_cfg, "--seed", seed, "--out", self.out_dir)
        t1 = time.perf_counter()

        with open(self.out_dir / "risk.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.out_dir / "threshold_free.csv", newline="", encoding="utf-8") as fh:
            auc_rows = {r["method"]: r for r in csv.DictReader(fh)}
        require(len(rows) == 8, f"risk.csv has {len(rows)} rows, want 8")
        for r in rows:
            require(float(r["ci_lo"]) <= float(r["ci_hi"]),
                    f"{r['method']} {r['metric']}: ci_lo {r['ci_lo']} > ci_hi {r['ci_hi']}")
        require(set(auc_rows) == {"roc_hat", "rocb"}, "threshold_free.csv methods")
        for r in auc_rows.values():
            for m in ("roc_auc", "pr_auc"):
                require(0.0 <= float(r[m]) <= 1.0, f"{r['method']} {m} = {r[m]}")
        return {"seed": seed, "op_at": (t0, t1), "rows": rows, "auc_rows": auc_rows,
                "rocb_roc_auc": float(auc_rows["rocb"]["roc_auc"])}

    def _fit(self, ds, seed, tr):
        train, calib, test = standardized_parts(ds, RISK_TEST_FRAC, RISK_CALIB_FRAC,
                                                seed, tr)
        with tr.span("predictors.fit_bootstrap"):
            model = fit_bootstrap(train, seed=seed)
        with tr.span("conformal.score_dataset"):
            scores = score_dataset(model, calib)
        with tr.span("conformal.calibrate"):
            cal = calibrate(scores, ALPHA)
        return train, test, model, cal

    def replay(self, seed, sample, tr):
        with tr.span("cli.risk"):
            with tr.span("data_model.load_csv"):
                ds = load_csv(self.gen_dir / "cohort.csv", SCHEMA)
            train, test, model, cal = self._fit(ds, seed, tr)
            truth = read_truth(self.gen_dir / "truth.csv")
            with tr.span("risk.risk_pipeline"):
                _, reports = risk_pipeline(test, truth, model, cal, RISK_DIRECTION,
                                           bootstrap_B=self.B, seed=seed)
        tr.count("data_model.visit_rows", visit_rows(ds))
        with tr.span("predictors.design_matrix", probe=True):
            design_matrix(train)

        # Probes: the pipeline's internal calls, repeated on the same inputs.
        rule = "le" if RISK_DIRECTION == "decreasing" else "ge"
        records = []
        for s in test.scored_subjects():
            t_n = s.visit_times[-1]
            with tr.span("conformal.band_for_subject", probe=True):
                band = band_for_subject(model, s, cal, [t_n])
            center = band.center_at(t_n)
            rb = math.nan
            if band.finite:
                r = band.radius_at(t_n)
                rb = rocb(s.baseline_value, (center - r, center + r), 0, t_n,
                          RISK_DIRECTION)
            label = PROGRESSOR if truth[s.subject_id]["is_progressor"] else STABLE
            records.append((roc_hat(s.baseline_value, center, 0, t_n), rb, label))
        finite = [r for r in records if math.isfinite(r[1])]
        tr.count("conformal.infinite_band_ratio",
                 (len(records) - len(finite)) / len(records))
        useful = []
        for name, values, labels in (
                ("roc_hat", [r[0] for r in records], [r[2] for r in records]),
                ("rocb", [r[1] for r in finite], [r[2] for r in finite])):
            z = zscores(values)
            with tr.span("risk.youden_threshold", probe=True):
                tau = youden_threshold(z, labels, rule)
            with tr.span("risk.bootstrap_ci", probe=True):
                ci = bootstrap_ci(z, labels, tau, rule, B=self.B, seed=seed)
            with tr.span("risk.threshold_free", probe=True):
                auc, pr = threshold_free(z, labels, rule)
            rep = reports[name]
            require(tau == rep.tau_star and ci == rep.ci_95
                    and (auc, pr) == (rep.roc_auc, rep.pr_auc),
                    f"{name}: probe tau/CI/AUC differ from the pipeline's")
            useful.append((self.B - ci["n_skipped"]) / self.B)
            # the CLI wrote the same numbers to its CSVs
            cli_auc = sample["auc_rows"][name]
            require((float(cli_auc["roc_auc"]), float(cli_auc["pr_auc"])) == (auc, pr),
                    f"{name}: threshold_free.csv differs from the replay")
            for row in (r for r in sample["rows"] if r["method"] == name):
                lo, hi = ci[row["metric"]]
                require((float(row["tau_star"]), float(row["ci_lo"]), float(row["ci_hi"]))
                        == (tau, lo, hi), f"{name} {row['metric']}: risk.csv differs "
                        "from the replay")
        tr.count("risk.bootstrap.useful_ratio", statistics.fmean(useful))
        tr.count("risk.rocb_roc_auc", reports["rocb"].roc_auc)
        return "cli.risk"

    def outputs(self):
        return snapshot(self.out_dir)

    def finish(self, samples):
        # The CLI does not write band widths, so rebuild the bands each op
        # scored its subjects with, outside the timed loop.
        ds = load_csv(self.gen_dir / "cohort.csv", SCHEMA)
        widths = []
        for sample in samples:
            _, test, model, cal = self._fit(ds, sample["seed"], NullTracer())
            widths.append(coverage_and_width(bands_for_dataset(model, test, cal),
                                             test).mean_width)
        return statistics.fmean(widths)

    @staticmethod
    def slim(sample):
        return {k: sample[k] for k in ("seed", "rocb_roc_auc")}


WORKLOADS = {"mc_rep": McRep, "cohort_cli": CohortCli, "risk_cohort": RiskCohort}


# ---------------------------------------------------------------------------
# Running and reporting

def percentile_note(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.6g}"
    return "no percentile with >=10 samples beyond it"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def metadata(args, n_ops):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "ops": n_ops, "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_commit": git_commit()}


def per_layer_metrics(tracer, traced_ops, untraced_op_s):
    times, counts = tracer.per_op()
    calls = {}
    for s in tracer.spans:
        key = (s["op"], s["name"])
        calls[key] = calls.get(key, 0) + 1
    ops = sorted(traced_ops)
    out = {}
    for name, unit in PER_LAYER:
        if name in COUNTERS:
            vals = [counts[i].get(name, 0.0) for i in ops]
        elif name.endswith(".calls"):
            vals = [calls.get((i, name[:-len(".calls")]), 0) for i in ops]
        elif name == "cli.other.s":
            if traced_ops[ops[0]]["root"] == "op":      # no CLI on this workload
                vals = [0.0]
            else:
                library = [sum(c["end"] - c["start"] for c in tracer.spans
                               if c["parent"] == traced_ops[i]["root_id"]) for i in ops]
                vals = [statistics.median(untraced_op_s) - statistics.median(library)]
        elif name == "trace.overhead_ratio":
            vals = [statistics.median(traced_ops[i]["root_s"] for i in ops)
                    / statistics.median(untraced_op_s)]
        else:
            vals = [times[i].get(name[:-len(".s")], 0.0) for i in ops]
        out[name] = {"value": statistics.median(vals), "unit": unit}
    return out


def run_workload(args):
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cold_start_s():
    """Wall time for a fresh interpreter to start and import the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import numpy, conftraj.cli"], cwd=ROOT,
                   env=env, check=True)
    return time.perf_counter() - t0


def _run(args, work):
    wl = WORKLOADS[args.workload](work, args.scale)
    # Times are scaled to nominal host speed (bench/hostspeed.py).
    speed = HostSpeed()
    # Set-up is done several times so that its median is steady: each pass
    # is a fresh interpreter importing the program plus the workload's own
    # set-up (configs, and the cohort CSV for risk_cohort).  The host's
    # speed is probed just before and just after each pass.
    setup_times, setup_norm, setup_generate = [], [], []
    for _ in range(SETUP_PASSES):
        before = statistics.fmean(speed.sample() for _ in range(SETUP_PROBES))
        start_s = cold_start_s()
        t0 = time.perf_counter()
        gen_s = wl.setup(args.seed)
        pass_s = start_s + time.perf_counter() - t0
        after = statistics.fmean(speed.sample() for _ in range(SETUP_PROBES))
        setup_times.append(pass_s)
        setup_norm.append(pass_s * (before + after) / 2)
        if gen_s is not None:
            setup_generate.append(gen_s)

    tracer = Tracer() if args.trace else None
    # Untraced runs also probe the host's speed on a timer while ops run;
    # traced runs do not, so that probes never land inside a span.
    if args.trace:
        speed = None
    samples, traced_ops, problems = [], {}, []
    attempted = failed = 0
    first_outputs = None
    if speed:
        speed.start()
    t_loop = time.perf_counter()
    try:
        while time.perf_counter() - t_loop < args.seconds:
            i = attempted
            attempted += 1
            try:
                sample = wl.op(args.seed + i)
                if args.trace:
                    if i == 0:
                        first_outputs = wl.outputs()
                    tracer.op = i
                    root = wl.replay(args.seed + i, sample, tracer)
                    root_span = next(s for s in reversed(tracer.spans) if s["name"] == root)
                    traced_ops[i] = {"root": root, "root_id": root_span["id"],
                                     "root_s": root_span["end"] - root_span["start"]}
                    tracer.op = None
            except Exception as exc:  # an op failure is counted, and the run goes on
                failed += 1
                problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc(file=sys.stderr)
                continue
            start, end = sample["op_at"]
            samples.append({**wl.slim(sample), "op_at": [start, end], "op_s": end - start,
                            "op_norm_s": speed.normalized(start, end) if speed else None})
            del sample
    finally:
        if speed:
            speed.stop()

    if not samples or (args.trace and not traced_ops):
        sys.exit("bench: every op failed:\n" + "\n".join(problems))
    width = None if args.trace else wl.finish(samples)
    try:
        wl.check_run(samples)
        if first_outputs is not None:
            wl.op(args.seed)
            again = wl.outputs()
            require(again.keys() == first_outputs.keys()
                    and all(again[k] == first_outputs[k] for k in again),
                    "op 0 rerun with the same seed gave different .csv/.json bytes")
    except CheckFailed as exc:
        problems.append(f"run: {exc}")

    op_s = [s["op_s"] for s in samples]
    op_norm_s = [s["op_norm_s"] for s in samples]
    gen_s = setup_generate or [s["generate_s"] for s in samples]
    if args.trace:
        metrics = per_layer_metrics(tracer, traced_ops, op_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_norm_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "band_width": {"value": width, "unit": "std"},
        }
    samples_n = {"setup_s": len(setup_times), "op_p50_s": len(op_s),
                 "band_width": len(samples)}

    meta = metadata(args, attempted)
    print(f"# {args.workload}: {json.dumps(meta)}")
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for p in problems:
        print(f"# FAILED {p}")
    for name, m in metrics.items():
        note = f"  n={samples_n[name]}" if name in samples_n else ""
        if name == "op_p50_s":
            note += "  " + percentile_note(op_norm_s)
        if name in ("setup_s", "op_p50_s"):
            note += "  (at nominal host speed)"
        print(f"# {name} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"# setup_wall_s {statistics.median(setup_times):.6g} s  "
              f"n={len(setup_times)}  (not gated)")
        print(f"# op_wall_p50_s {statistics.median(op_s):.6g} s  n={len(op_s)}  "
              f"{percentile_note(op_s)}  (not gated)")
        print(f"# host_speed_p50 {statistics.median(speed.speeds()):.6g}  "
              f"n={len(speed.samples)}  (probe speed over nominal)")
        # Pure-Python generation swings too much between runs on a shared
        # host to be gated, so it is printed but is not a metric.
        print(f"# generate_p50_s {statistics.median(gen_s):.6g} s  n={len(gen_s)}  "
              "(not gated)")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(OUT / f"{tag}.json", {**result, "meta": meta,
                                     "samples": samples,
                                     "setup_times": setup_times,
                                     "setup_norm": setup_norm,
                                     "probes": speed.samples if speed else None})
    if tracer is not None:
        tracer.write(OUT / f"{tag}-spans.json")
    print(json.dumps(result))


def run_all(args):
    """Each workload in a process of its own, one after another."""
    rc = 0
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace), "--scale", str(args.scale)],
                             cwd=ROOT)
        rc = rc or res.returncode
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every cohort size (the smoke test uses a small one)")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
