"""Command-line entry point.

Subcommands: generate, fit, calibrate, evaluate, sweep, stratify, risk.
Each run reads a JSON config (with flag overrides for seed and output
directory), writes its artifacts under the output directory, and drops a
resolved copy of the config beside them.  Outputs are byte-identical
across runs with the same config and seed.

Exit codes: 0 success, 1 user/config error, 2 internal numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import conformal, risk as risk_mod
from .data_model import (CsvSchema, StandardizationStats, csv_rows, load_csv,
                         save_csv, split, standardize)
from .errors import ConfigurationError, ConftrajError, DataError, NumericalError
from .evaluation import (calibrate_groups, fit_split, run_protocol,
                         stratified_compare, sweep_calibration_fraction)
from .predictors import load_model, predictor_options, read_checked, save_model
from .synth import GroupSpec, SynthConfig, generate

SCHEMA_TAG = "conftraj-output-v1"

_KNOWN_KEYS = {
    "synth": {f.name for f in fields(SynthConfig)} - {"seed"},
    "data": {"path", "truth_path", "feature_cols", "group_cols",
             "subject_col", "time_col", "value_col"},
    "predictor": {"kind", "options", "model_dir"},
    "conformal": {"alpha", "group_by"},
    "evaluation": {"n_splits", "test_frac", "calib_frac", "mode", "fracs"},
    "risk": {"direction", "bootstrap_B"},
}
_TOP_KEYS = set(_KNOWN_KEYS) | {"seed", "out"}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _fraction(v):
    return _number(v) and 0 < v < 1


# (section, key, what it must be, test) for each typed value checked on
# load; section None is the top level
_VALUE_RULES = (
    (None, "seed", "an int >= 0", lambda v: _int(v) and v >= 0),
    *(("synth", key, "an int", _int)
      for key in ("n_subjects", "feature_dim", "max_time", "min_horizon")),
    *(("synth", key, "a number", _number)
      for key in ("visits_mean", "noise_std", "progressor_frac", "slope_stable",
                  "slope_progressor", "heterogeneity_std", "feature_signal")),
    ("synth", "varying_horizon", "true or false", lambda v: isinstance(v, bool)),
    ("conformal", "alpha", "a number in (0,1) (conformal.calibrate precondition)",
     _fraction),
    ("evaluation", "n_splits", "an int >= 1", lambda v: _int(v) and v >= 1),
    ("evaluation", "test_frac", "a number in (0,1)", _fraction),
    ("evaluation", "calib_frac", "a number in (0,1)", _fraction),
    ("evaluation", "mode", "'conformal' or 'baseline'",
     lambda v: v in ("conformal", "baseline")),
    ("evaluation", "fracs", "a non-empty list of numbers in [0,1)",
     lambda v: isinstance(v, list) and v != [] and all(_number(f) and 0 <= f < 1
                                                       for f in v)),
    ("risk", "bootstrap_B", "an int >= 1", lambda v: _int(v) and v >= 1),
    ("risk", "direction", "'decreasing' or 'increasing'",
     lambda v: v in ("decreasing", "increasing")),
)


def _validate_config(cfg: dict):
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in _KNOWN_KEYS:
            section = cfg[key]
            if not isinstance(section, dict):
                raise ConfigurationError(f"config section {key!r} must be an object")
            for sub in section:
                if sub not in _KNOWN_KEYS[key]:
                    raise ConfigurationError(f"unknown key {key}.{sub!r}")
    for section, key, expected, ok in _VALUE_RULES:
        scope = cfg if section is None else cfg.get(section, {})
        if key in scope and not ok(scope[key]):
            name = key if section is None else f"{section}.{key}"
            raise ConfigurationError(f"{name} must be {expected}, got {scope[key]!r}")
    kind, options = _predictor(cfg)
    if not isinstance(options, dict):
        raise ConfigurationError("config key predictor.options must be an object")
    accepted = predictor_options(kind)
    for name in options:
        if name not in accepted:
            raise ConfigurationError(
                f"unknown key predictor.options.{name!r} for predictor kind "
                f"{kind!r} (accepted: {', '.join(sorted(accepted))})")


def _predictor(cfg):
    """(kind, fit options) of the config's predictor."""
    pred = cfg.get("predictor", {})
    return pred.get("kind", "gp"), pred.get("options", {})


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    if args.seed is not None:
        cfg["seed"] = args.seed
    _validate_config(cfg)
    cfg.setdefault("seed", 0)
    if args.out is not None:
        cfg["out"] = args.out
    if "out" not in cfg:
        raise ConfigurationError("output directory required (--out or config 'out')")
    return cfg


def _write_json(path: Path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _synth_config(cfg) -> SynthConfig:
    section = dict(cfg.get("synth", {}))
    for i, g in enumerate(section.get("group_spec", [])):
        for key in ("column", "categories", "probs"):
            if not isinstance(g, dict) or key not in g:
                raise ConfigurationError(f"synth.group_spec[{i}] needs key {key!r}")
            if key != "column" and not isinstance(g[key], list):
                raise ConfigurationError(f"synth.group_spec[{i}].{key} must be a list")
    groups = tuple(
        GroupSpec(g["column"], tuple(g["categories"]), tuple(g["probs"]),
                  g.get("noise_multipliers", {}), g.get("progressor_rates", {}))
        for g in section.pop("group_spec", []))
    return SynthConfig(seed=cfg["seed"], group_spec=groups, **section)


def _csv_schema(cfg) -> CsvSchema:
    d = cfg.get("data", {})
    return CsvSchema(subject_col=d.get("subject_col", "subject_id"),
                     time_col=d.get("time_col", "time_months"),
                     value_col=d.get("value_col", "biomarker"),
                     feature_cols=tuple(d.get("feature_cols", ())),
                     group_cols=tuple(d.get("group_cols", ())))


def _load_dataset(cfg):
    d = cfg.get("data", {})
    if "path" not in d:
        raise ConfigurationError("data.path is required for this command")
    return load_csv(d["path"], _csv_schema(cfg))


def _load_truth(cfg) -> dict:
    """subject_id -> {"is_progressor": bool} from the data.truth_path CSV."""
    d = cfg.get("data", {})
    if "truth_path" not in d:
        raise ConfigurationError("data.truth_path is required for the risk command")
    path, truth = d["truth_path"], {}
    for row_no, row in csv_rows(path, ("subject_id", "is_progressor")):
        sid, cell = row["subject_id"], row["is_progressor"]
        flag = {"1": True, "true": True, "0": False, "false": False}.get(cell.lower())
        if flag is None:
            raise DataError(f"{path} row {row_no}: is_progressor {cell!r} is not "
                            "0/1/true/false")
        if sid in truth:
            raise DataError(f"{path} row {row_no}: duplicate subject_id {sid!r}")
        truth[sid] = {"is_progressor": flag}
    return truth


def _eval_params(cfg):
    e = cfg.get("evaluation", {})
    return (e.get("n_splits", 10), e.get("test_frac", 0.10),
            e.get("calib_frac", 0.20))


def _alpha(cfg) -> float:
    return cfg.get("conformal", {}).get("alpha", 0.1)      # checked on load


def _cal_to_doc(cal) -> dict:
    if isinstance(cal, conformal.GroupCalibration):
        return {"group_by": cal.grouping_column,
                "per_group": {g: _cal_to_doc(c) for g, c in sorted(cal.per_group.items())},
                "fallback": _cal_to_doc(cal.fallback)}
    return {"alpha": cal.alpha, "n": cal.n, "rank": cal.rank,
            "radius": cal.radius if cal.finite else "inf"}


def cmd_generate(cfg, out: Path):
    ds, truth = generate(_synth_config(cfg))
    save_csv(ds, out / "cohort.csv")
    with open(out / "truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "is_progressor", "true_slope"])
        for sid in sorted(truth):
            writer.writerow([sid, int(truth[sid]["is_progressor"]),
                             repr(truth[sid]["true_slope"])])


def cmd_fit(cfg, out: Path):
    ds = _load_dataset(cfg)
    _, test_frac, calib_frac = _eval_params(cfg)
    kind, options = _predictor(cfg)
    model, stats, _, _ = fit_split(ds, kind, test_frac, calib_frac, cfg["seed"], options)
    save_model(model, out / "model.json")
    _write_json(out / "scaling.json",
                {"schema": SCHEMA_TAG, "mean": stats.mean, "std": stats.std})


def cmd_calibrate(cfg, out: Path):
    ds = _load_dataset(cfg)
    model_dir = Path(cfg.get("predictor", {}).get("model_dir", out))
    model = load_model(model_dir / "model.json")
    with open(model_dir / "scaling.json", encoding="utf-8") as fh:
        sc = json.load(fh)
    stats = StandardizationStats(*(read_checked(fh.name, sc, k) for k in ("mean", "std")))
    _, test_frac, calib_frac = _eval_params(cfg)
    idx = split(ds, test_frac, calib_frac, cfg["seed"])
    calib_std, _ = standardize(ds.subset(idx.calib), stats)
    cal = calibrate_groups(calib_std, conformal.score_dataset(model, calib_std),
                           _alpha(cfg), cfg.get("conformal", {}).get("group_by"))
    _write_json(out / "calibration.json", {"schema": SCHEMA_TAG, **_cal_to_doc(cal)})


def _report_rows(report, split_idx):
    overall = {"": {"coverage": report.mean_coverage, "width": report.mean_width,
                    "n_infinite_bands": report.n_infinite_bands}}
    return [{"split": split_idx, "group": g, "metric": m, "value": v}
            for g, stats in [*overall.items(), *sorted((report.per_group or {}).items())]
            for m, v in stats.items()]


def _write_rows(path: Path, rows, fieldnames):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def cmd_evaluate(cfg, out: Path):
    ds = _load_dataset(cfg)
    n_splits, test_frac, calib_frac = _eval_params(cfg)
    kind, options = _predictor(cfg)
    report = run_protocol(ds, kind, _alpha(cfg),
                          n_splits=n_splits, test_frac=test_frac,
                          calib_frac=calib_frac, seed=cfg["seed"],
                          group_by=cfg.get("conformal", {}).get("group_by"),
                          mode=cfg.get("evaluation", {}).get("mode", "conformal"),
                          predictor_opts=options)
    _write_json(out / "report.json", {
        "schema": SCHEMA_TAG, "mean": report.mean, "p95": report.p95,
        "deviation_p95": report.deviation_p95,
        "splits": [{"coverage": r.mean_coverage, "width": r.mean_width,
                    "n_test": r.n_test, "n_infinite_bands": r.n_infinite_bands,
                    "per_time_width": {str(k): v for k, v in r.per_time_width.items()},
                    "per_group": r.per_group}
                   for r in report.reports]})
    _write_rows(out / "report.csv",
                [row for i, r in enumerate(report.reports) for row in _report_rows(r, i)],
                ["split", "group", "metric", "value"])


def cmd_sweep(cfg, out: Path):
    ds = _load_dataset(cfg)
    kind, options = _predictor(cfg)
    _, test_frac, _ = _eval_params(cfg)
    rows = sweep_calibration_fraction(
        ds, kind, _alpha(cfg), fracs=cfg.get("evaluation", {}).get("fracs"),
        seed=cfg["seed"], test_frac=test_frac, predictor_opts=options)
    _write_rows(out / "sweep.csv", rows,
                ["calib_frac", "coverage", "width", "n_infinite_bands"])


def cmd_stratify(cfg, out: Path):
    ds = _load_dataset(cfg)
    group_by = cfg.get("conformal", {}).get("group_by")
    if not group_by:
        raise ConfigurationError("stratify requires conformal.group_by")
    kind, options = _predictor(cfg)
    _, test_frac, calib_frac = _eval_params(cfg)
    results = stratified_compare(ds, kind, _alpha(cfg), group_by, seed=cfg["seed"],
                                 test_frac=test_frac, calib_frac=calib_frac,
                                 predictor_opts=options)
    rows = [{"method": method, "group": g, **stats}
            for method in ("population", "group_conditional")
            for g, stats in sorted((results[method].per_group or {}).items())]
    _write_rows(out / "stratify.csv", rows, ["method", "group", "coverage", "width", "n"])


def cmd_risk(cfg, out: Path):
    ds = _load_dataset(cfg)
    truth = _load_truth(cfg)
    kind, options = _predictor(cfg)
    _, test_frac, calib_frac = _eval_params(cfg)
    model, _, calib_std, test_std = fit_split(ds, kind, test_frac, calib_frac,
                                              cfg["seed"], options)
    scores = conformal.score_dataset(model, calib_std)
    cal = conformal.calibrate(scores, _alpha(cfg))
    r = cfg.get("risk", {})
    records, reports = risk_mod.risk_pipeline(
        test_std, truth, model, cal, r.get("direction", "decreasing"),
        bootstrap_B=r.get("bootstrap_B", 2000), seed=cfg["seed"])

    rows = [{"method": name, "metric": m, "tau_star": reports[name].tau_star,
             "value": getattr(reports[name], m), "ci_lo": reports[name].ci_95[m][0],
             "ci_hi": reports[name].ci_95[m][1]}
            for name in ("roc_hat", "rocb")
            for m in ("precision", "recall", "f1", "balanced_accuracy")]
    _write_rows(out / "risk.csv", rows,
                ["method", "metric", "tau_star", "value", "ci_lo", "ci_hi"])
    _write_rows(out / "threshold_free.csv",
                [{"method": name, "roc_auc": reports[name].roc_auc,
                  "pr_auc": reports[name].pr_auc, "n": reports[name].n,
                  "n_excluded": reports[name].n_excluded}
                 for name in ("roc_hat", "rocb")],
                ["method", "roc_auc", "pr_auc", "n", "n_excluded"])


_COMMANDS = {"generate": cmd_generate, "fit": cmd_fit, "calibrate": cmd_calibrate,
             "evaluate": cmd_evaluate, "sweep": cmd_sweep,
             "stratify": cmd_stratify, "risk": cmd_risk}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conftraj",
        description="Conformal prediction bands for randomly-timed trajectories")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, out)
        _write_json(out / "resolved_config.json", {"schema": SCHEMA_TAG, "config": cfg})
    except NumericalError as exc:
        print(f"error [numerical]: {exc}", file=sys.stderr)
        return 2
    except (ConftrajError, OSError, json.JSONDecodeError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
