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
import inspect
import json
import sys
from dataclasses import MISSING, fields
from itertools import count
from pathlib import Path

from . import conformal, risk as risk_mod
from .data_model import (SPLIT_RULES, CsvSchema, StandardizationStats, csv_blocks, load_csv,
                         open_csv, save_csv, split, standardize)
from .errors import (ConfigurationError, ConftrajError, DataError, NumericalError,
                     check_rules, is_int)
from .evaluation import (EVALUATION_RULES, calibrate_groups, fit_split, run_protocol,
                         stratified_compare, sweep_calibration_fraction)
from .predictors import KINDS, PREDICTOR_RULES, load_model, read_checked, read_json, save_model
from .synth import SYNTH_RULES, GroupSpec, SynthConfig, generate

SCHEMA_TAG = "conftraj-output-v1"


def _defaults(fn):
    """Parameter name -> default, from fn's signature."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


_STRING = ("a string", lambda v: isinstance(v, str))
_STRINGS = ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))
_OBJECTS = ("a list of objects",
            lambda v: isinstance(v, list) and all(isinstance(g, dict) for g in v))
_EVALUATION = {**_defaults(sweep_calibration_fraction), **_defaults(run_protocol)}

# section -> key -> (default, rule) for every key a config may hold, a rule
# being (what the value must be, test); section None is the top level.  Every
# given value is checked on load, and _get reads it or its default; a MISSING
# default marks a key that each command reading it requires.  A key that a
# library function takes has that function's rule, from its module's *_RULES
# table (synth keys SynthConfig's, predictor.options the fits' in KINDS).
_CONFIG = {
    None: {"seed": (0, ("an int >= 0", lambda v: is_int(v) and v >= 0)),
           "out": (MISSING, _STRING)},
    "synth": {f.name: (f.default, SYNTH_RULES.get(f.name, _OBJECTS))
              for f in fields(SynthConfig) if f.name != "seed"},
    "data": {"path": (MISSING, _STRING), "truth_path": (MISSING, _STRING),
             **{f.name: (f.default, _STRING if f.type == "str" else _STRINGS)
                for f in fields(CsvSchema)}},
    "predictor": {"kind": ("gp", PREDICTOR_RULES["kind"]),
                  "options": ({}, ("an object", lambda v: isinstance(v, dict))),
                  "model_dir": (None, _STRING)},      # None: the output directory
    "conformal": {"alpha": (0.1, conformal.CONFORMAL_RULES["alpha"]),
                  "group_by": (_EVALUATION["group_by"], _STRING)},
    "evaluation": {key: (_EVALUATION[key], rule)
                   for key, rule in {**SPLIT_RULES, **EVALUATION_RULES}.items()},
    # risk_pipeline's direction has no default
    "risk": {"direction": ("decreasing", risk_mod.RISK_RULES["direction"]),
             "bootstrap_B": (_defaults(risk_mod.risk_pipeline)["bootstrap_B"],
                             risk_mod.RISK_RULES["bootstrap_B"])},
}


def _get(cfg, name):
    """The value of config key name ("section.key", or a top-level key):
    the config's own, checked on load, else the key's default."""
    section, _, key = name.rpartition(".")
    scope = cfg.get(section, {}) if section else cfg
    value = scope.get(key, _CONFIG[section or None][key][0])
    if value is MISSING:
        raise ConfigurationError(f"{name} is required for this command")
    return value


def _validate_config(cfg: dict):
    for key, value in cfg.items():
        if key in _CONFIG and not isinstance(value, dict):
            raise ConfigurationError(f"config section {key!r} must be an object")
        section, values = (key, value) if key in _CONFIG else (None, {key: value})
        prefix = f"{key}." if section else ""
        for sub, v in values.items():
            if sub not in _CONFIG[section]:
                raise ConfigurationError(f"unknown config key {prefix + sub!r}")
            check_rules({sub: _CONFIG[section][sub][1]}, {sub: v}, prefix)
    kind, options = _get(cfg, "predictor.kind"), _get(cfg, "predictor.options")
    accepted = KINDS[kind].options
    for name in options:
        if name not in accepted:
            raise ConfigurationError(
                f"unknown key predictor.options.{name!r} for predictor kind "
                f"{kind!r} (accepted: {', '.join(sorted(accepted))})")
    check_rules(accepted, options, "predictor.options.")
    _csv_schema(cfg)      # the data columns are distinct names
    group_by, group_cols = _get(cfg, "conformal.group_by"), _get(cfg, "data.group_cols")
    if group_by is not None and group_by not in group_cols:
        raise ConfigurationError(f"conformal.group_by must be one of data.group_cols "
                                 f"{list(group_cols)}, got {group_by!r}")


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        cfg = read_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"config {args.config} must be a JSON object")
    for key in ("seed", "out"):         # a flag replaces the config's value
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    _validate_config(cfg)
    cfg["seed"] = _get(cfg, "seed")     # the resolved config names the seed used
    return cfg


def _write_json(path: Path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _synth_config(cfg) -> SynthConfig:
    values = {key: _get(cfg, f"synth.{key}") for key in _CONFIG["synth"]}
    accepted = {f.name for f in fields(GroupSpec)}
    for i, g in enumerate(values["group_spec"]):
        for key in ("column", "categories", "probs"):
            if key not in g:
                raise ConfigurationError(f"synth.group_spec[{i}] needs key {key!r}")
        for key in g:
            if key not in accepted:
                raise ConfigurationError(f"unknown config key 'synth.group_spec[{i}].{key}'")
    values["group_spec"] = tuple(GroupSpec(**g) for g in values["group_spec"])
    return SynthConfig(seed=_get(cfg, "seed"), **values)


def _csv_schema(cfg) -> CsvSchema:
    columns = {f.name: _get(cfg, f"data.{f.name}") for f in fields(CsvSchema)}
    return CsvSchema(**{key: tuple(v) if isinstance(v, list) else v
                        for key, v in columns.items()})


def _load_dataset(cfg):
    return load_csv(_get(cfg, "data.path"), _csv_schema(cfg))


def _load_truth(cfg) -> dict:
    """subject_id -> {"is_progressor": bool} from the data.truth_path CSV."""
    path, truth = _get(cfg, "data.truth_path"), {}
    with open_csv(path) as fh:
        for first, (sids, cells) in csv_blocks(fh, ("subject_id", "is_progressor")):
            for row_no, sid, cell in zip(count(first), sids, cells):
                flag = {"1": True, "true": True, "0": False, "false": False}.get(cell.lower())
                if flag is None:
                    raise DataError(f"{path} row {row_no}: is_progressor {cell!r} is not "
                                    "0/1/true/false")
                if sid in truth:
                    raise DataError(f"{path} row {row_no}: duplicate subject_id {sid!r}")
                truth[sid] = {"is_progressor": flag}
    return truth


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


def _fit_split(cfg, ds):
    """fit_split of ds with the config's predictor, split and seed."""
    return fit_split(ds, _get(cfg, "predictor.kind"), _get(cfg, "evaluation.test_frac"),
                     _get(cfg, "evaluation.calib_frac"), _get(cfg, "seed"),
                     _get(cfg, "predictor.options"))


def cmd_fit(cfg, out: Path):
    ds = _load_dataset(cfg)
    model, stats, calib, test = _fit_split(cfg, ds)
    save_model(model, out / "model.json")
    _write_json(out / "scaling.json",
                {"schema": SCHEMA_TAG, "mean": stats.mean, "std": stats.std})
    held_out = {*calib.subject_ids, *test.subject_ids}
    _write_json(out / "train_subjects.json", {"schema": SCHEMA_TAG, "subject_ids": sorted(
        sid for sid in ds.subject_ids if sid not in held_out)})


def _training_ids(model_dir: Path) -> set:
    """The IDs of the subjects that trained the model in model_dir, as fit
    wrote them to train_subjects.json."""
    path = model_dir / "train_subjects.json"
    doc = read_json(path)
    ids = doc.get("subject_ids") if isinstance(doc, dict) else None
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise ConfigurationError(f"model file {path}: key 'subject_ids' must be a "
                                 f"list of strings, got {ids!r}")
    return set(ids)


def cmd_calibrate(cfg, out: Path):
    ds = _load_dataset(cfg)
    model_dir = _get(cfg, "predictor.model_dir")
    model_dir = out if model_dir is None else Path(model_dir)
    model = load_model(model_dir / "model.json")
    scaling = model_dir / "scaling.json"
    sc = read_json(scaling)
    stats = StandardizationStats(*(read_checked(scaling, sc, k) for k in ("mean", "std")))
    idx = split(ds, _get(cfg, "evaluation.test_frac"), _get(cfg, "evaluation.calib_frac"),
                _get(cfg, "seed"))
    calib = ds.subset(idx.calib)
    # split conformal's guarantee needs calibration subjects the model never saw
    trained = _training_ids(model_dir)
    overlap = sorted(sid for sid in calib.subject_ids if sid in trained)
    if overlap:
        raise ConfigurationError(
            f"{len(overlap)} of the {len(calib)} calibration subjects trained the model "
            f"in {model_dir}, first {overlap[0]!r}; calibrate with the seed, "
            "evaluation.test_frac and evaluation.calib_frac that fit used")
    calib_std, _ = standardize(calib, stats)
    cal = calibrate_groups(calib_std, conformal.score_dataset(model, calib_std),
                           _get(cfg, "conformal.alpha"), _get(cfg, "conformal.group_by"))
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
    report = run_protocol(
        _load_dataset(cfg), _get(cfg, "predictor.kind"), _get(cfg, "conformal.alpha"),
        n_splits=_get(cfg, "evaluation.n_splits"), test_frac=_get(cfg, "evaluation.test_frac"),
        calib_frac=_get(cfg, "evaluation.calib_frac"), seed=_get(cfg, "seed"),
        group_by=_get(cfg, "conformal.group_by"), mode=_get(cfg, "evaluation.mode"),
        predictor_opts=_get(cfg, "predictor.options"))
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
    rows = sweep_calibration_fraction(
        _load_dataset(cfg), _get(cfg, "predictor.kind"), _get(cfg, "conformal.alpha"),
        fracs=_get(cfg, "evaluation.fracs"), seed=_get(cfg, "seed"),
        test_frac=_get(cfg, "evaluation.test_frac"),
        predictor_opts=_get(cfg, "predictor.options"))
    _write_rows(out / "sweep.csv", rows,
                ["calib_frac", "coverage", "width", "n_infinite_bands"])


def cmd_stratify(cfg, out: Path):
    ds = _load_dataset(cfg)
    group_by = _get(cfg, "conformal.group_by")
    if not group_by:
        raise ConfigurationError("stratify requires conformal.group_by")
    results = stratified_compare(
        ds, _get(cfg, "predictor.kind"), _get(cfg, "conformal.alpha"), group_by,
        seed=_get(cfg, "seed"), test_frac=_get(cfg, "evaluation.test_frac"),
        calib_frac=_get(cfg, "evaluation.calib_frac"),
        predictor_opts=_get(cfg, "predictor.options"))
    rows = [{"method": method, "group": g, **stats}
            for method in ("population", "group_conditional")
            for g, stats in sorted((results[method].per_group or {}).items())]
    _write_rows(out / "stratify.csv", rows, ["method", "group", "coverage", "width", "n"])


def cmd_risk(cfg, out: Path):
    ds = _load_dataset(cfg)
    truth = _load_truth(cfg)
    model, _, calib_std, test_std = _fit_split(cfg, ds)
    cal = calibrate_groups(calib_std, conformal.score_dataset(model, calib_std),
                           _get(cfg, "conformal.alpha"), _get(cfg, "conformal.group_by"))
    _, reports = risk_mod.risk_pipeline(
        test_std, truth, model, cal, _get(cfg, "risk.direction"),
        bootstrap_B=_get(cfg, "risk.bootstrap_B"), seed=_get(cfg, "seed"))

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
        out = Path(_get(cfg, "out"))
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
