import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftraj.cli import _CONFIG, main
from conftraj.conformal import (CONFORMAL_RULES, ScoreSet, calibrate, mondrian_calibrate,
                                score_dataset)
from conftraj.data_model import SPLIT_RULES, CsvSchema, load_csv, split
from conftraj.errors import ConfigurationError
from conftraj.evaluation import (EVALUATION_RULES, MAX_SPLITS, evaluate_split, fit_split,
                                 run_protocol, sweep_calibration_fraction)
from conftraj.predictors import KINDS, PREDICTOR_RULES, fit_predictor
from conftraj.risk import RISK_RULES, risk_pipeline
from conftraj.synth import SYNTH_RULES, SynthConfig, generate
from tests import reference


def run(argv):
    return main(argv)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def gen_cohort(tmp_path, n=120, seed=0, extra=None):
    out = tmp_path / "gen"
    doc = {"synth": {"n_subjects": n, **(extra or {})}}
    cfg = write_config(tmp_path / "gen.json", doc)
    assert run(["generate", "--config", cfg, "--seed", str(seed),
                "--out", str(out)]) == 0
    return out


FEATURES = ("f0", "f1", "f2", "f3")


def data_section(gen_dir, feature_dim=4):
    return {"path": str(gen_dir / "cohort.csv"),
            "truth_path": str(gen_dir / "truth.csv"),
            "feature_cols": [f"f{i}" for i in range(feature_dim)],
            "group_cols": []}


def test_generate_outputs(tmp_path):
    out = gen_cohort(tmp_path, n=50)
    assert (out / "cohort.csv").exists()
    assert (out / "truth.csv").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["schema"] == "conftraj-output-v1"
    assert resolved["config"]["seed"] == 0
    with open(out / "truth.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert set(rows[0]) == {"subject_id", "is_progressor", "true_slope"}


def test_generate_then_evaluate_smoke(tmp_path):
    gen = gen_cohort(tmp_path, n=150)
    out = tmp_path / "eval"
    cfg = write_config(tmp_path / "eval.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap"},
        "conformal": {"alpha": 0.1},
        "evaluation": {"n_splits": 2, "test_frac": 0.2, "calib_frac": 0.2},
    })
    assert run(["evaluate", "--config", cfg, "--seed", "3",
                "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["mean"]["coverage"] <= 1.0
    assert len(report["splits"]) == 2
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["metric"] for r in rows} == {"coverage", "width", "n_infinite_bands"}


def test_fit_then_calibrate(tmp_path):
    gen = gen_cohort(tmp_path, n=150)
    out = tmp_path / "model"
    cfg = write_config(tmp_path / "fit.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap"},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.2},
    })
    assert run(["fit", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert (out / "model.json").exists()
    scaling = json.loads((out / "scaling.json").read_text())
    assert scaling["std"] > 0

    cal_out = tmp_path / "cal"
    cfg2 = write_config(tmp_path / "cal.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap", "model_dir": str(out)},
        "conformal": {"alpha": 0.2},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.2},
    })
    assert run(["calibrate", "--config", cfg2, "--seed", "1",
                "--out", str(cal_out)]) == 0
    cal = json.loads((cal_out / "calibration.json").read_text())
    assert cal["alpha"] == 0.2
    assert cal["rank"] >= 1
    assert cal["radius"] == "inf" or cal["radius"] >= 0

    ds = load_csv(gen / "cohort.csv", CsvSchema(feature_cols=FEATURES))
    train = json.loads((out / "train_subjects.json").read_text())
    assert train == {"schema": "conftraj-output-v1", "subject_ids": sorted(
        ds.subject_ids[i] for i in split(ds, 0.2, 0.2, 1).train)}


def calibrate_after_fit(tmp, gen, fit_seed, fit_fracs, cal_seed, cal_fracs):
    """Exit code and stderr of `calibrate` on the model that `fit` wrote, each
    with its own seed and (test_frac, calib_frac)."""
    for command, seed, fracs in (("fit", fit_seed, fit_fracs),
                                 ("calibrate", cal_seed, cal_fracs)):
        cfg = write_config(tmp / f"{command}.json", {
            "data": data_section(gen),
            "predictor": {"kind": "bootstrap", "model_dir": str(tmp / "fit")},
            "evaluation": dict(zip(("test_frac", "calib_frac"), fracs))})
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", cfg, "--seed", str(seed),
                        "--out", str(tmp / command)])
    return code, err.getvalue()


def test_calibrate_refuses_subjects_that_trained_the_model(tmp_path):
    # fit --seed 0 then calibrate --seed 1 draws a calibration set that is
    # mostly training subjects; the same seed draws none of them
    gen = gen_cohort(tmp_path, n=300)
    ds = load_csv(gen / "cohort.csv", CsvSchema(feature_cols=FEATURES))
    train = {ds.subject_ids[i] for i in split(ds, 0.1, 0.2, 0).train}
    calib = [ds.subject_ids[i] for i in split(ds, 0.1, 0.2, 1).calib]
    overlap = sorted(set(calib) & train)
    assert len(calib) == 54 and len(overlap) > 30
    code, err = calibrate_after_fit(tmp_path, gen, 0, (0.1, 0.2), 1, (0.1, 0.2))
    assert code == 1
    assert err == (f"error [ConfigurationError]: {len(overlap)} of the 54 calibration "
                   f"subjects trained the model in {tmp_path / 'fit'}, first "
                   f"{overlap[0]!r}; calibrate with the seed, evaluation.test_frac and "
                   "evaluation.calib_frac that fit used\n")
    assert not (tmp_path / "calibrate" / "calibration.json").exists()
    assert calibrate_after_fit(tmp_path, gen, 0, (0.1, 0.2), 0, (0.1, 0.2)) == (0, "")


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    gen = gen_cohort(tmp_path_factory.mktemp("small"), n=40)
    return gen, load_csv(gen / "cohort.csv", CsvSchema(feature_cols=FEATURES))


FRACTIONS = st.tuples(st.sampled_from([0.1, 0.2, 0.3]), st.sampled_from([0.2, 0.3, 0.5]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), FRACTIONS, st.integers(0, 3), FRACTIONS)
def test_calibrate_refuses_or_calibrates_on_unseen_subjects(small_cohort, fit_seed,
                                                            fit_fracs, cal_seed, cal_fracs):
    gen, ds = small_cohort
    train = {ds.subject_ids[i] for i in split(ds, *fit_fracs, fit_seed).train}
    calib = [ds.subject_ids[i] for i in split(ds, *cal_fracs, cal_seed).calib]
    overlap = sorted(set(calib) & train)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err = calibrate_after_fit(tmp, gen, fit_seed, fit_fracs, cal_seed, cal_fracs)
        if overlap:
            assert code == 1 and err.startswith(
                f"error [ConfigurationError]: {len(overlap)} of the {len(calib)} "
                f"calibration subjects trained the model in {tmp / 'fit'}, first "
                f"{overlap[0]!r}; ")
        else:
            assert (code, err) == (0, "")
            doc = json.loads((tmp / "calibrate" / "calibration.json").read_text())
            assert doc["n"] == len(calib)


@pytest.mark.parametrize("doc,error", [
    (None, "FileNotFoundError"),
    ({"schema": "conftraj-output-v1"}, "ConfigurationError"),
    ({"subject_ids": "s0001"}, "ConfigurationError"),
    ({"subject_ids": [1, 2]}, "ConfigurationError"),
    (["s0001"], "ConfigurationError"),
], ids=["missing", "no-ids", "ids-string", "ids-ints", "not-an-object"])
def test_calibrate_rejects_bad_training_subjects_file(tmp_path, capsys, fitted_dirs,
                                                     doc, error):
    gen, dirs = fitted_dirs
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for name in ("model.json", "scaling.json"):
        (model_dir / name).write_bytes((dirs["bootstrap"] / name).read_bytes())
    if doc is not None:
        (model_dir / "train_subjects.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "cal.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap", "model_dir": str(model_dir)},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.3}})
    assert run(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{error}]: ") and "train_subjects.json" in err
    if error == "ConfigurationError":
        assert "'subject_ids' must be a list of strings" in err


def test_sweep_and_stratify_and_risk(tmp_path):
    gen = gen_cohort(tmp_path, n=200, extra={
        "progressor_frac": 0.4, "feature_signal": 1.5,
        "varying_horizon": False,
        "group_spec": [{"column": "site", "categories": ["a", "b"],
                        "probs": [0.5, 0.5]}]})
    data = data_section(gen)
    data["group_cols"] = ["site"]

    sweep_out = tmp_path / "sweep"
    cfg = write_config(tmp_path / "sweep.json", {
        "data": data, "predictor": {"kind": "bootstrap"},
        "evaluation": {"fracs": [0.1, 0.2], "test_frac": 0.2},
    })
    assert run(["sweep", "--config", cfg, "--out", str(sweep_out)]) == 0
    with open(sweep_out / "sweep.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2

    strat_out = tmp_path / "strat"
    cfg = write_config(tmp_path / "strat.json", {
        "data": data, "predictor": {"kind": "bootstrap"},
        "conformal": {"alpha": 0.2, "group_by": "site"},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.3},
    })
    assert run(["stratify", "--config", cfg, "--out", str(strat_out)]) == 0
    with open(strat_out / "stratify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"population", "group_conditional"}

    risk_out = tmp_path / "risk"
    cfg = write_config(tmp_path / "risk.json", {
        "data": data, "predictor": {"kind": "bootstrap"},
        "conformal": {"alpha": 0.1},
        "evaluation": {"test_frac": 0.3, "calib_frac": 0.3},
        "risk": {"direction": "decreasing", "bootstrap_B": 50},
    })
    assert run(["risk", "--config", cfg, "--out", str(risk_out)]) == 0
    with open(risk_out / "risk.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"roc_hat", "rocb"}
    with open(risk_out / "threshold_free.csv") as fh:
        tf = list(csv.DictReader(fh))
    assert all(0.0 <= float(r["roc_auc"]) <= 1.0 for r in tf)


def test_calib_frac_zero_gives_infinite_bands(tmp_path, capsys):
    # split's own rule: no calibration subject, so every band is infinite
    gen = gen_cohort(tmp_path, n=60)
    cfg = write_config(tmp_path / "c.json", {
        "data": data_section(gen), "predictor": {"kind": "bootstrap"},
        "evaluation": {"calib_frac": 0, "n_splits": 2}})
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    splits = json.loads((tmp_path / "o" / "report.json").read_text())["splits"]
    assert [(s["n_infinite_bands"], s["coverage"]) for s in splits] == [(6, 1.0)] * 2
    assert all(s["n_test"] == 6 and math.isnan(s["width"]) for s in splits)


def test_invalid_alpha_exit_code_and_message(tmp_path, capsys):
    gen = gen_cohort(tmp_path, n=60)
    cfg = write_config(tmp_path / "bad.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap"},
        "conformal": {"alpha": 1.5},
        "evaluation": {"n_splits": 1},
    })
    code = run(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error [ConfigurationError]: conformal.alpha must be a number in (0,1), "
                   "got 1.5\n")


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {"synht": {"n_subjects": 5}})
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "synht" in capsys.readouterr().err


def test_missing_input_file_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "data": {"path": str(tmp_path / "nope.csv")},
        "evaluation": {"n_splits": 1}})
    assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_byte_identical_reruns(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    gen1 = gen_cohort(tmp_path / "a", n=80, seed=5)
    gen2 = gen_cohort(tmp_path / "b", n=80, seed=5)
    for name in ("cohort.csv", "truth.csv"):
        assert (gen1 / name).read_bytes() == (gen2 / name).read_bytes()

    outs = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        cfg = write_config(tmp_path / f"{sub}.json", {
            "data": data_section(gen1),
            "predictor": {"kind": "bootstrap"},
            "evaluation": {"n_splits": 2, "test_frac": 0.2, "calib_frac": 0.2},
        })
        assert run(["evaluate", "--config", cfg, "--seed", "9",
                    "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "g"
    cfg = write_config(tmp_path / "c.json",
                       {"synth": {"n_subjects": 30}, "seed": 1})
    assert run(["generate", "--config", cfg, "--seed", "2",
                "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["config"]["seed"] == 2


def config_error(tmp_path, capsys, command, doc):
    """Exit code and stderr of a run whose config is rejected on load."""
    cfg = write_config(tmp_path / "bad.json", doc)
    code = run([command, "--config", cfg, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0.1", True, None])
def test_non_numeric_alpha_rejected(tmp_path, capsys, alpha):
    # the data file does not exist: the config is rejected before any load
    code, err = config_error(tmp_path, capsys, "evaluate", {
        "data": {"path": str(tmp_path / "missing.csv")},
        "conformal": {"alpha": alpha}})
    assert code == 1
    assert "error [ConfigurationError]" in err and "conformal.alpha" in err


def test_unknown_predictor_option_rejected(tmp_path, capsys):
    code, err = config_error(tmp_path, capsys, "evaluate", {
        "data": {"path": str(tmp_path / "missing.csv")},
        "predictor": {"kind": "bootstrap", "options": {"Bee": 3}}})
    assert code == 1
    assert "error [ConfigurationError]" in err
    assert "predictor.options" in err and "'Bee'" in err
    # train and seed are set by the program, never by options
    code, err = config_error(tmp_path, capsys, "evaluate", {
        "data": {"path": str(tmp_path / "missing.csv")},
        "predictor": {"kind": "quantile", "options": {"seed": 3}}})
    assert code == 1 and "'seed'" in err
    # a value of the wrong type breaks the option's one rule, in predictors.KINDS
    for kind, name, value in [
            ("bootstrap", "B", "20"), ("bootstrap", "B", True), ("bootstrap", "B", 20.0),
            ("bootstrap", "ridge_lambda", "x"), ("bootstrap", "std_scale", [0.3]),
            ("gp", "noise_vars", []), ("gp", "lengthscales", 1.0),
            ("gp", "signal_vars", [1.0, "2"]), ("gp", "max_points", None),
            ("quantile", "levels", [0.1, "0.5", 0.9]), ("quantile", "steps", 1.5),
            ("quantile", "learning_rate", False)]:
        code, err = config_error(tmp_path, capsys, "evaluate", {
            "data": {"path": str(tmp_path / "missing.csv")},
            "predictor": {"kind": kind, "options": {name: value}}})
        assert code == 1 and err.startswith(
            f"error [ConfigurationError]: predictor.options.{name} must be "
            f"{KINDS[kind].options[name][0]}, got ")


def test_group_spec_missing_key_rejected(tmp_path, capsys):
    code, err = config_error(tmp_path, capsys, "generate", {
        "synth": {"n_subjects": 20,
                  "group_spec": [{"column": "site", "probs": [0.5, 0.5]}]}})
    assert code == 1
    assert "error [ConfigurationError]" in err and "categories" in err


# (section, key, a value its rule refuses)
BAD_CONFIG_VALUES = [
    ("evaluation", "n_splits", "2"), ("evaluation", "n_splits", 0),
    ("evaluation", "n_splits", 2.0), ("evaluation", "n_splits", True),
    ("evaluation", "test_frac", 0), ("evaluation", "test_frac", "0.1"),
    ("evaluation", "calib_frac", 1.0), ("evaluation", "calib_frac", None),
    ("risk", "bootstrap_B", 50.5), ("risk", "bootstrap_B", "20"),
    ("risk", "bootstrap_B", 0), ("risk", "bootstrap_B", False),
    ("risk", "direction", "sideways"), ("risk", "direction", ["decreasing"]),
    # section None is a top-level key
    (None, "seed", "x"), (None, "seed", 1.5), (None, "seed", -1), (None, "seed", True),
    ("synth", "n_subjects", "20"), ("synth", "n_subjects", 20.0),
    ("synth", "feature_dim", "4"), ("synth", "max_time", 120.5),
    ("synth", "min_horizon", None), ("synth", "visits_mean", "5"),
    ("synth", "noise_std", True), ("synth", "progressor_frac", "0.3"),
    ("synth", "slope_stable", None), ("synth", "slope_progressor", "-0.01"),
    ("synth", "heterogeneity_std", [0.1]), ("synth", "feature_signal", "1"),
    ("synth", "varying_horizon", "no"), ("synth", "varying_horizon", 0),
    ("evaluation", "mode", "bayes"), ("evaluation", "mode", None),
    ("evaluation", "fracs", 0.2), ("evaluation", "fracs", []),
    ("evaluation", "fracs", [0.1, 1.0]), ("evaluation", "fracs", [0.1, "0.2"]),
    ("evaluation", "fracs", [-0.1]), ("evaluation", "fracs", [True]),
    ("predictor", "kind", ["gp"]), ("predictor", "kind", "forest"),
    ("predictor", "kind", None), ("conformal", "group_by", ["site"]),
    ("conformal", "group_by", 3),
    # a path of 0 would read the cohort from standard input
    ("data", "path", 0), ("data", "path", ["cohort.csv"]), ("data", "truth_path", 1),
    ("data", "subject_col", 1), ("data", "time_col", None),
    ("data", "value_col", ["biomarker"]), ("data", "feature_cols", "f0"),
    ("data", "feature_cols", [1]), ("data", "group_cols", 5),
    ("predictor", "model_dir", 5), ("predictor", "options", ["B"]),
    (None, "out", 5),
    # each split refits, and run_protocol draws one seed per split up front
    ("evaluation", "n_splits", MAX_SPLITS + 1), ("evaluation", "n_splits", 10 ** 12),
    # a synth range is checked for every command, not only by generate
    ("synth", "noise_std", -5), ("synth", "n_subjects", 0), ("synth", "direction", "up"),
    ("conformal", "alpha", 1.5), ("conformal", "alpha", "0.1"), ("conformal", "alpha", 0),
    ("conformal", "alpha", True),
]


@pytest.mark.parametrize("section,key,value", BAD_CONFIG_VALUES)
def test_typed_config_value_rejected(tmp_path, capsys, section, key, value):
    # the data file does not exist: the config is rejected before any load
    doc = {"data": {"path": str(tmp_path / "missing.csv")}}
    if section is None:
        doc[key], name = value, key
    else:
        doc[section], name = {key: value}, f"{section}.{key}"
    cfg = write_config(tmp_path / "bad.json", doc)
    out_flag = [] if key == "out" else ["--out", str(tmp_path / "o")]
    assert run(["risk", "--config", cfg, *out_flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [ConfigurationError]: {name} must be ")


# config key -> (the rule table of the library function that takes the
# key's value, a call of that function with the value and no data, so that
# a call that reads the data before it checks the value fails)
OWNERS = {
    "conformal.alpha": (CONFORMAL_RULES, lambda v: calibrate(ScoreSet((), ()), v)),
    "evaluation.test_frac": (SPLIT_RULES, lambda v: split(None, v, 0.2, 0)),
    "evaluation.calib_frac": (SPLIT_RULES, lambda v: split(None, 0.1, v, 0)),
    "evaluation.n_splits": (EVALUATION_RULES,
                            lambda v: run_protocol(None, "gp", 0.1, n_splits=v)),
    "evaluation.mode": (EVALUATION_RULES,
                        lambda v: evaluate_split(None, "gp", 0.1, 0.1, 0.2, 0, mode=v)),
    "evaluation.fracs": (EVALUATION_RULES,
                         lambda v: sweep_calibration_fraction(None, "gp", 0.1, fracs=v)),
    "risk.direction": (RISK_RULES, lambda v: risk_pipeline(None, {}, None, None, v)),
    "risk.bootstrap_B": (RISK_RULES, lambda v: risk_pipeline(None, {}, None, None,
                                                             "decreasing", bootstrap_B=v)),
    "predictor.kind": (PREDICTOR_RULES, lambda v: fit_predictor(v, None)),
    "synth.direction": (RISK_RULES, lambda v: SynthConfig(n_subjects=1, direction=v)),
}


@pytest.mark.parametrize("name", OWNERS)
def test_a_config_key_has_the_rule_of_its_owner(name):
    # one rule object, not a copy that could drift from the owner's
    section, _, key = name.rpartition(".")
    assert _CONFIG[section][key][1] is OWNERS[name][0][key]


@pytest.mark.parametrize("section,key,value", [
    bad for bad in BAD_CONFIG_VALUES if f"{bad[0]}.{bad[1]}" in OWNERS])
def test_a_library_call_refuses_what_the_config_refuses(section, key, value):
    rules, call = OWNERS[f"{section}.{key}"]
    message = f"{key} must be {rules[key][0]}, got {value!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(value)


def test_in_range_numpy_scalars_are_accepted():
    # JSON never gives them, but a library call may
    ds, truth = generate(SynthConfig(n_subjects=np.int64(120), seed=3))
    scores = ScoreSet(tuple("abcdefghij"), np.arange(10.0))
    assert calibrate(scores, np.float32(0.2)).radius == calibrate(scores, 0.2).radius == 8.0
    assert split(ds, np.float32(0.1), np.float64(0.2), np.int64(0)) == split(ds, 0.1, 0.2, 0)
    model, _, calib, test = fit_split(ds, "bootstrap", 0.3, 0.2, 3)
    cal = calibrate(score_dataset(model, calib), np.float64(0.2))
    _, reports = risk_pipeline(test, truth, model, cal, np.str_("decreasing"),
                               bootstrap_B=np.int64(20))
    assert reports == risk_pipeline(test, truth, model, cal, "decreasing", bootstrap_B=20)[1]
    report = run_protocol(ds, "bootstrap", 0.1, n_splits=np.int64(1), seed=3)
    assert report == run_protocol(ds, "bootstrap", 0.1, n_splits=1, seed=3)
    rows = sweep_calibration_fraction(ds, "bootstrap", 0.1, fracs=np.array([0.2]))
    assert rows == sweep_calibration_fraction(ds, "bootstrap", 0.1, fracs=[0.2])


@pytest.mark.parametrize("name", [key if section is None else f"{section}.{key}"
                                  for section, keys in _CONFIG.items() for key in keys])
def test_every_config_key_is_checked(tmp_path, capsys, name):
    # null and a list of a list fit no key's type, so a key declared in the
    # table without a real check fails here
    section, _, key = name.rpartition(".")
    for value in (None, [[]]):
        cfg = write_config(tmp_path / "bad.json",
                           {section: {key: value}} if section else {key: value})
        assert run(["risk", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            f"error [ConfigurationError]: {name} must be ")


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in KINDS
                                       for name in KINDS[kind].options])
def test_every_predictor_option_is_checked(tmp_path, capsys, kind, name):
    # as for the config keys: null and a list of a list fit no option's rule,
    # and the data file does not exist, so the config is rejected before any load
    for value in (None, [[]]):
        code, err = config_error(tmp_path, capsys, "evaluate", {
            "data": {"path": str(tmp_path / "missing.csv")},
            "predictor": {"kind": kind, "options": {name: value}}})
        assert code == 1
        assert err.startswith(f"error [ConfigurationError]: predictor.options.{name} must be ")


@pytest.mark.parametrize("key,value,expected", [
    ("noise_std", math.nan, "a finite number >= 0"),
    ("noise_std", math.inf, "a finite number >= 0"),
    ("noise_std", -0.1, "a finite number >= 0"),
    ("slope_stable", math.nan, "a finite number"),
    ("slope_progressor", -math.inf, "a finite number"),
    ("feature_signal", math.nan, "a finite number"),
    ("visits_mean", math.inf, "a finite number >= 1"),
    ("visits_mean", math.nan, "a finite number >= 1"),
    ("visits_mean", 0.5, "a finite number >= 1"),
    ("heterogeneity_std", -1.0, "a finite number >= 0"),
    ("progressor_frac", 1.5, "a number in [0, 1]"),
    ("progressor_frac", -0.1, "a number in [0, 1]"),
    ("max_time", 0, "an int >= 1"),
    ("min_horizon", 0, "an int >= 1"),
    ("feature_dim", -1, "an int >= 0"),
    # a visit time beyond 2**53 - 1 would not load back
    ("max_time", 2 ** 53, "at most 2**53 - 1"),
    ("visits_mean", 1e19, "at most 2**53 - 1"),
    # a value that is a dict is the whole synth section: a cohort of more
    # than 10**7 expected visit rows, which would not fit in memory
    ("n_subjects * visits_mean", {"n_subjects": 1, "max_time": 10 ** 15,
                                  "visits_mean": 10 ** 15, "varying_horizon": False},
     "at most 10**7 expected visit rows"),
    ("n_subjects * visits_mean", {"n_subjects": 2, "visits_mean": 5_000_000.5},
     "at most 10**7 expected visit rows"),
    # a feature matrix of 10**12 values would not fit in memory
    ("n_subjects * feature_dim", {"n_subjects": 1, "feature_dim": 10 ** 12},
     "at most 10**7 feature values"),
    ("n_subjects * feature_dim", {"n_subjects": 10 ** 6 + 1, "feature_dim": 10,
                                  "visits_mean": 1},
     "at most 10**7 feature values"),
    # an int beyond the float range is not a finite number either
    pytest.param("slope_stable", 10 ** 400, "a finite number", id="slope_stable-10**400"),
])
def test_synth_value_out_of_range_rejected(tmp_path, capsys, key, value, expected):
    # a single key breaks its rule in synth.SYNTH_RULES when the config is
    # read; a whole section breaks a bound that SynthConfig checks across keys
    if isinstance(value, dict):
        synth, message = value, f"{key} must be {expected}, got "
    else:
        synth = {"n_subjects": 20, key: value}
        message = f"synth.{key} must be {SYNTH_RULES[key][0]}, got "
        assert expected in SYNTH_RULES[key][0]
    code, err = config_error(tmp_path, capsys, "generate", {"synth": synth})
    assert code == 1
    assert err.startswith(f"error [ConfigurationError]: {message}")
    assert not (tmp_path / "o" / "cohort.csv").exists()


@pytest.mark.parametrize("command,mode,group_by", [
    ("evaluate", "conformal", "sitee"), ("evaluate", "baseline", "sitee"),
    ("calibrate", "conformal", "sitee"), ("stratify", "conformal", "sitee"),
    ("risk", "conformal", "sitee"), ("evaluate", "conformal", "f0"),
])
def test_group_by_outside_group_cols_rejected(tmp_path, capsys, command, mode, group_by):
    # the data file does not exist: the config is rejected before any load
    code, err = config_error(tmp_path, capsys, command, {
        "data": {"path": str(tmp_path / "missing.csv"), "feature_cols": ["f0"],
                 "group_cols": ["site"]},
        "conformal": {"group_by": group_by}, "evaluation": {"mode": mode}})
    assert code == 1
    assert err == ("error [ConfigurationError]: conformal.group_by must be one of "
                   f"data.group_cols ['site'], got {group_by!r}\n")


SITE = {"column": "site", "categories": ["a", "b", "c"], "probs": [0.4, 0.4, 0.2],
        "noise_multipliers": {"c": 2.0}}


def reverse_subjects(src, dst):
    """Copy the cohort CSV at src to dst with its subjects in reverse order."""
    with open(src, newline="") as fh:
        header, *rows = csv.reader(fh)
    by_subject = {}
    for row in rows:
        by_subject.setdefault(row[0], []).append(row)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for sid in reversed(by_subject):
            writer.writerows(by_subject[sid])


def test_outputs_do_not_depend_on_subject_order(tmp_path):
    # the split permutes the subjects in subject_id order, not in file order
    gen = gen_cohort(tmp_path, n=300, extra={"group_spec": [SITE]})
    reverse_subjects(gen / "cohort.csv", tmp_path / "reversed.csv")
    for name, path in (("file", gen / "cohort.csv"), ("reversed", tmp_path / "reversed.csv")):
        cfg = write_config(tmp_path / f"{name}.json", {
            "data": {**data_section(gen), "path": str(path), "group_cols": ["site"]},
            "predictor": {"kind": "bootstrap"}, "conformal": {"group_by": "site"},
            "evaluation": {"n_splits": 3}, "risk": {"bootstrap_B": 100}})
        for command in ("evaluate", "risk"):
            assert run([command, "--config", cfg, "--seed", "0",
                        "--out", str(tmp_path / name / command)]) == 0
    for command, files in (("evaluate", ("report.json", "report.csv")),
                           ("risk", ("risk.csv", "threshold_free.csv"))):
        for f in files:
            assert (tmp_path / "file" / command / f).read_bytes() == \
                (tmp_path / "reversed" / command / f).read_bytes(), f


def test_risk_with_group_by_uses_mondrian_calibration(tmp_path):
    gen = gen_cohort(tmp_path, n=300, extra={"group_spec": [SITE]})
    cfg = write_config(tmp_path / "risk.json", {
        "data": {**data_section(gen), "group_cols": ["site"]},
        "predictor": {"kind": "bootstrap"}, "conformal": {"group_by": "site"},
        "evaluation": {"test_frac": 0.3}, "risk": {"bootstrap_B": 100}})
    assert run(["risk", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "o")]) == 0

    ds = load_csv(gen / "cohort.csv", CsvSchema(feature_cols=FEATURES, group_cols=("site",)))
    model, _, calib, test = fit_split(ds, "bootstrap", 0.3, 0.2, 2)
    gcal = mondrian_calibrate(calib, score_dataset(model, calib), "site", 0.1)
    _, reports = risk_pipeline(test, reference.load_truth(gen / "truth.csv"), model, gcal,
                               "decreasing", bootstrap_B=100, seed=2)
    assert_tables_are(tmp_path / "o", reports, 0)


def test_bootstrap_B_above_bound_rejected(tmp_path, capsys, fitted_dirs):
    # the counts of 10**15 replicates would not fit in memory
    gen, _ = fitted_dirs
    code, err = config_error(tmp_path, capsys, "risk", {
        "data": data_section(gen), "predictor": {"kind": "bootstrap"},
        "risk": {"bootstrap_B": 10**15}})
    assert code == 1
    assert err == ("error [ConfigurationError]: risk.bootstrap_B must be an int in "
                   "[1, 1000000], got 1000000000000000\n")
    assert _CONFIG["risk"]["bootstrap_B"][1][1](10**6)


def test_seed_checked_after_flag_override(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"synth": {"n_subjects": 10}, "seed": "x"})
    assert run(["generate", "--config", cfg, "--seed", "-1",
                "--out", str(tmp_path / "bad")]) == 1
    assert "error [ConfigurationError]: seed must be an int >= 0, got -1" in \
        capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    # a valid --seed replaces the bad config value before the check
    assert run(["generate", "--config", cfg, "--seed", "3",
                "--out", str(tmp_path / "ok")]) == 0
    resolved = json.loads((tmp_path / "ok" / "resolved_config.json").read_text())
    assert resolved["config"]["seed"] == 3


def test_failed_command_writes_no_resolved_config(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.json", {
        "data": {"path": str(tmp_path / "missing.csv")}})
    assert run(["evaluate", "--config", cfg, "--out", str(out)]) == 1
    assert out.is_dir() and not (out / "resolved_config.json").exists()


@pytest.fixture(scope="module")
def fitted_dirs(tmp_path_factory):
    """A cohort and, per predictor kind, the output directory of `fit` on it."""
    root = tmp_path_factory.mktemp("fitted")
    gen = gen_cohort(root, n=60)
    dirs = {}
    for kind in ("gp", "bootstrap"):
        dirs[kind] = root / kind
        cfg = write_config(root / f"{kind}.json", {
            "data": data_section(gen), "predictor": {"kind": kind},
            "evaluation": {"test_frac": 0.2, "calib_frac": 0.3}})
        assert run(["fit", "--config", cfg, "--out", str(dirs[kind])]) == 0
    return gen, dirs


# (kind, key the error names, edit of the saved model JSON)
@pytest.mark.parametrize("kind,key,edit", [
    ("bootstrap", "members", lambda doc: doc.pop("members")),
    ("bootstrap", "kind", lambda doc: doc.pop("kind")),
    ("bootstrap", "members",
     lambda doc: doc.__setitem__("members", [r[:-1] for r in doc["members"]])),
    ("bootstrap", "members", lambda doc: doc["members"][0].pop()),
    ("gp", "K_inv", lambda doc: doc.__setitem__("K_inv", doc["K_inv"][:-1])),
    ("gp", "alpha", lambda doc: doc.__setitem__("alpha", doc["alpha"][:-1])),
], ids=["members-missing", "kind-missing", "members-column-short", "members-ragged",
        "K_inv-row-short", "alpha-short"])
def test_calibrate_rejects_bad_model_file(tmp_path, capsys, fitted_dirs, kind, key, edit):
    gen, dirs = fitted_dirs
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    doc = json.loads((dirs[kind] / "model.json").read_text())
    edit(doc)
    (model_dir / "model.json").write_text(json.dumps(doc))
    (model_dir / "scaling.json").write_bytes((dirs[kind] / "scaling.json").read_bytes())
    cfg = write_config(tmp_path / "cal.json", {
        "data": data_section(gen),
        "predictor": {"kind": kind, "model_dir": str(model_dir)},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.3}})
    assert run(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ConfigurationError]: model file ")
    assert "model.json" in err and repr(key) in err


def rewrite_csv(src, dst, edit):
    """Copy the CSV at src to dst with edit applied to its list of rows."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def drop_column(name):
    def edit(rows):
        i = rows[0].index(name)
        for row in rows:
            del row[i]
    return edit


def risk_with_truth(tmp_path, fitted_dirs, edit):
    """Exit code of `conftraj risk` on the fitted cohort with an edited truth CSV."""
    gen, _ = fitted_dirs
    truth = tmp_path / "truth.csv"
    rewrite_csv(gen / "truth.csv", truth, edit)
    data = {**data_section(gen), "truth_path": str(truth)}
    cfg = write_config(tmp_path / "risk.json", {
        "data": data, "predictor": {"kind": "bootstrap"},
        "evaluation": {"test_frac": 0.3, "calib_frac": 0.3},
        "risk": {"bootstrap_B": 20}})
    return run(["risk", "--config", cfg, "--out", str(tmp_path / "risk")])


@pytest.mark.parametrize("edit,expected", [
    (drop_column("subject_id"), "SchemaError]: missing column 'subject_id'"),
    (drop_column("is_progressor"), "SchemaError]: missing column 'is_progressor'"),
], ids=["no-subject_id", "no-is_progressor"])
def test_risk_rejects_truth_csv_without_column(tmp_path, capsys, fitted_dirs, edit, expected):
    assert risk_with_truth(tmp_path, fitted_dirs, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [") and expected in err and "truth.csv" in err


def test_truth_csv_errors_name_the_row(tmp_path, capsys, fitted_dirs):
    assert risk_with_truth(tmp_path, fitted_dirs,
                           lambda rows: rows[3].__setitem__(1, "yes")) == 1
    assert "truth.csv row 4: is_progressor 'yes' is not 0/1/true/false" in capsys.readouterr().err
    assert risk_with_truth(tmp_path, fitted_dirs,
                           lambda rows: rows[5].__setitem__(0, rows[2][0])) == 1
    assert "truth.csv row 6: duplicate subject_id" in capsys.readouterr().err


def test_risk_reads_truth_flags_without_true_slope(tmp_path, fitted_dirs):
    # flags are case-insensitive, and true_slope is not needed
    def edit(rows):
        drop_column("true_slope")(rows)
        for row in rows[1:]:
            row[1] = {"0": "False", "1": "TRUE"}[row[1]]
    assert risk_with_truth(tmp_path, fitted_dirs, edit) == 0


@pytest.mark.parametrize("edit,error,key", [
    (lambda sc: sc.pop("mean"), "ConfigurationError", "mean"),
    (lambda sc: sc.__setitem__("mean", "0.5"), "ConfigurationError", "mean"),
    (lambda sc: sc.__setitem__("std", True), "ConfigurationError", "std"),
    (lambda sc: sc.__setitem__("std", float("nan")), "ConfigurationError", "std"),
    (lambda sc: sc.__setitem__("std", 0.0), "DataError", "std"),
], ids=["mean-missing", "mean-string", "std-bool", "std-nan", "std-zero"])
def test_calibrate_rejects_bad_scaling_file(tmp_path, capsys, fitted_dirs, edit,
                                            error, key):
    gen, dirs = fitted_dirs
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    (model_dir / "model.json").write_bytes((dirs["bootstrap"] / "model.json").read_bytes())
    sc = json.loads((dirs["bootstrap"] / "scaling.json").read_text())
    edit(sc)
    (model_dir / "scaling.json").write_text(json.dumps(sc))
    cfg = write_config(tmp_path / "cal.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap", "model_dir": str(model_dir)},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.3}})
    assert run(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{error}]: ") and key in err
    if error == "ConfigurationError":
        assert "scaling.json" in err and repr(key) in err


# (keys replaced in a valid group_spec entry, expected error)
@pytest.mark.parametrize("entry,expected", [
    ({"probs": ["0.5", "0.5"]}, "group site: prob '0.5' is not a number in [0, 1]"),
    ({"probs": [1.5, -0.5]}, "group site: prob 1.5 is not a number in [0, 1]"),
    ({"probs": [True, 0]}, "group site: prob True is not a number in [0, 1]"),
    ({"probs": 0.5}, "group site: probs must be a list, got 0.5"),
    ({"noise_multipliers": {"a": "2"}},
     "group site: noise_multipliers['a'] '2' is not a positive finite number"),
    ({"noise_multipliers": {"b": 0}},
     "group site: noise_multipliers['b'] 0 is not a positive finite number"),
    ({"noise_multipliers": {"a": float("inf")}},
     "group site: noise_multipliers['a'] inf is not a positive finite number"),
    ({"noise_multipliers": {"a": 10 ** 400}},
     "group site: noise_multipliers['a'] 1000"),
    ({"noise_multipliers": [2.0]}, "group site: noise_multipliers must be an object"),
    ({"noise_multipliers": {"c": 2.0}},
     "group site: noise_multipliers names undeclared category 'c'"),
    ({"progressor_rates": {"a": 1.5}},
     "group site: progressor_rates['a'] 1.5 is not a number in [0, 1]"),
    ({"progressor_rates": {"b": True}},
     "group site: progressor_rates['b'] True is not a number in [0, 1]"),
    ({"progressor_rates": 0.5}, "group site: progressor_rates must be an object"),
    ({"noise_multiplier": {"a": 2.0}},
     "unknown config key 'synth.group_spec[0].noise_multiplier'"),
    ({"categories": [1, 2]}, "group site: categories must be a list of strings, got (1, 2)"),
    ({"column": 5}, "group 5: column must be a string"),
], ids=["strings", "out-of-range", "bool", "not-a-list", "multiplier-string",
        "multiplier-zero", "multiplier-inf", "multiplier-huge-int", "multipliers-list",
        "multiplier-category",
        "rate-above-one", "rate-bool", "rates-number", "misspelt-key", "categories-ints",
        "column-int"])
def test_group_spec_bad_probs_rejected(tmp_path, capsys, entry, expected):
    code, err = config_error(tmp_path, capsys, "generate", {
        "synth": {"n_subjects": 20, "group_spec": [
            {"column": "site", "categories": ["a", "b"], "probs": [0.5, 0.5], **entry}]}})
    assert code == 1
    assert err.startswith("error [ConfigurationError]: ") and expected in err


@pytest.mark.parametrize("kind,name,value,expected", [
    ("bootstrap", "std_scale", 0.0, "a finite number > 0"),
    ("bootstrap", "std_scale", -1.0, "a finite number > 0"),
    ("bootstrap", "std_scale", math.inf, "a finite number > 0"),
    ("bootstrap", "ridge_lambda", -1.0, "a finite number >= 0"),
    ("quantile", "steps", -5, "an int >= 1"),
    ("quantile", "steps", 0, "an int >= 1"),
    ("quantile", "learning_rate", 0.0, "a finite number > 0"),
    ("quantile", "learning_rate", -1.0, "a finite number > 0"),
    ("quantile", "learning_rate", math.nan, "a finite number > 0"),
    ("gp", "max_points", 0, "an int >= 2"),
    ("gp", "max_points", 1, "an int >= 2"),
    ("gp", "lengthscales", [0.0], "a non-empty list of finite numbers > 0"),
    ("gp", "lengthscales", [1.0, math.inf], "a non-empty list of finite numbers > 0"),
    ("gp", "signal_vars", [-1.0], "a non-empty list of finite numbers > 0"),
    ("gp", "noise_vars", [-1.0], "a non-empty list of finite numbers >= 0"),
    ("gp", "noise_vars", [math.nan], "a non-empty list of finite numbers >= 0"),
    ("bootstrap", "B", 1, "an int >= 2"),
    ("quantile", "levels", [0.2, 0.5, 0.9], "whose first and last sum to 1"),
    ("quantile", "levels", [0.9, 0.5, 0.1], "a strictly increasing list"),
    ("quantile", "levels", [0.5], "2 or more numbers in (0, 1)"),
])
def test_fit_option_out_of_range_rejected(tmp_path, capsys, kind, name, value, expected):
    # the option's rule in predictors.KINDS, the one its fit applies too,
    # refuses the value when the config is read: the data file does not exist
    code, err = config_error(tmp_path, capsys, "evaluate", {
        "data": {"path": str(tmp_path / "missing.csv")},
        "predictor": {"kind": kind, "options": {name: value}}})
    assert code == 1
    assert err.startswith(f"error [ConfigurationError]: predictor.options.{name} must be "
                          f"{KINDS[kind].options[name][0]}, got ")
    assert expected in KINDS[kind].options[name][0]


def test_truth_csv_over_long_field_names_line(tmp_path, capsys, fitted_dirs):
    assert risk_with_truth(tmp_path, fitted_dirs,
                           lambda rows: rows[2].__setitem__(0, "s" * 200_000)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [DataError]: ")
    assert "truth.csv line 3: field larger than field limit" in err


@pytest.mark.parametrize("which", ["path", "truth_path"])
@pytest.mark.parametrize("quoted", [False, True], ids=["commas", "csv-module"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, capsys, fitted_dirs, which, quoted):
    # a Latin-1 byte on line 5 of the cohort or of the truth CSV; a quoted
    # cell on line 2 makes the csv module read the file from its first block
    gen, _ = fitted_dirs
    data = data_section(gen)
    lines = Path(data[which]).read_bytes().split(b"\n")
    if quoted:
        lines[1] = b'"' + lines[1].replace(b",", b'",', 1)
    lines[4] = lines[4].replace(b",", b",\xe9", 1)
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"\n".join(lines))
    cfg = write_config(tmp_path / "risk.json", {
        "data": {**data, which: str(bad)}, "predictor": {"kind": "bootstrap"},
        "risk": {"bootstrap_B": 20}})
    assert run(["risk", "--config", cfg, "--out", str(tmp_path / "risk")]) == 1
    assert capsys.readouterr().err == \
        f"error [DataError]: {bad} line 5: a byte that is not UTF-8\n"


@pytest.mark.parametrize("name", ["config", "model.json", "scaling.json",
                                  "train_subjects.json"])
def test_a_json_byte_that_is_not_utf8_names_the_file(tmp_path, capsys, fitted_dirs, name):
    # a Latin-1 byte on line 2 of the run config or of a file calibrate reads
    gen, dirs = fitted_dirs
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    for f in ("model.json", "scaling.json", "train_subjects.json"):
        (model_dir / f).write_bytes((dirs["bootstrap"] / f).read_bytes())
    cfg = write_config(tmp_path / "cal.json", {
        "data": data_section(gen),
        "predictor": {"kind": "bootstrap", "model_dir": str(model_dir)},
        "evaluation": {"test_frac": 0.2, "calib_frac": 0.3}})
    bad = Path(cfg) if name == "config" else model_dir / name
    assert bad.read_bytes().startswith(b"{")
    bad.write_bytes(b'{\n"note": "caf\xe9",' + bad.read_bytes()[1:])
    assert run(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal")]) == 1
    assert capsys.readouterr().err == \
        f"error [ConfigurationError]: {bad}: a byte that is not UTF-8 on line 2\n"


def test_malformed_json_config_keeps_the_json_error(tmp_path, capsys):
    # the message json.load gives for the file read as text, CRLF line ends and all
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"seed": 1,\r\n "out": "o",\r\n}')
    with pytest.raises(json.JSONDecodeError) as want:
        with open(cfg, encoding="utf-8") as fh:
            json.load(fh)
    assert run(["evaluate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error [JSONDecodeError]: {want.value}\n"


@pytest.mark.parametrize("data,named", [
    ({"feature_cols": ["f0", "f0"]}, "f0"),
    ({"feature_cols": ["f0"], "group_cols": ["f0"]}, "f0"),
    ({"group_cols": ["subject_id"]}, "subject_id"),
    ({"time_col": "biomarker"}, "biomarker")])
def test_data_column_named_twice_rejected(tmp_path, capsys, data, named):
    # the data file does not exist: the config is rejected before any load
    code, err = config_error(tmp_path, capsys, "evaluate", {
        "data": {"path": str(tmp_path / "missing.csv"), **data}})
    assert code == 1
    assert err.startswith(f"error [SchemaError]: column '{named}' is named twice")


def test_generate_refuses_a_group_column_it_writes_already(tmp_path, capsys):
    code, err = config_error(tmp_path, capsys, "generate", {"synth": {
        "n_subjects": 20, "group_spec": [{**SITE, "column": "f0"}]}})
    assert code == 1
    assert err == ("error [ConfigurationError]: group f0: column 'f0' is already "
                   "a column of the generated cohort CSV\n")
    assert not (tmp_path / "o" / "cohort.csv").exists()


# ---------------------------------------------------------------------------
# evaluate and risk against the per-subject reference pipeline of
# tests/reference.py, which loads the cohort with its own reader, fits each
# split as the CLI does, and scores, calibrates, bands and covers one
# subject at a time.  A linear predictor predicts a row alike whatever else
# is in its batch, so its outputs match bit for bit; a GP's go through BLAS
# and match within 1e-9.

REF_SEED, ALPHA, N_SPLITS, TEST_FRAC, CALIB_FRAC = 5, 0.1, 2, 0.3, 0.3
# site c is rare: with generate's seed 7, the first split's calibration set
# lacks it, so its test subjects take the population radius, and the
# second's holds one c subject, too few for a finite radius
RARE_SITE = {"column": "site", "categories": ["a", "b", "c"], "probs": [0.49, 0.49, 0.02],
             "noise_multipliers": {"b": 2.0}}


@pytest.fixture(scope="module")
def rare_site_cohort(tmp_path_factory):
    """A generated 200-subject cohort's directory, and its Dataset as the
    reference loads it."""
    gen = gen_cohort(tmp_path_factory.mktemp("rare_site"), n=200, seed=7,
                     extra={"progressor_frac": 0.4, "group_spec": [RARE_SITE]})
    return gen, reference.load_csv(gen / "cohort.csv",
                                   CsvSchema(feature_cols=FEATURES, group_cols=("site",)))


def run_on(tmp, gen, command, kind, **sections):
    """The output directory of command on the cohort at gen, with kind, the
    reference split fractions and the given config sections."""
    cfg = write_config(tmp / "run.json", {
        "data": {**data_section(gen), "group_cols": ["site"]}, "predictor": {"kind": kind},
        "evaluation": {"n_splits": N_SPLITS, "test_frac": TEST_FRAC, "calib_frac": CALIB_FRAC},
        **sections})
    assert run([command, "--config", cfg, "--seed", str(REF_SEED),
                "--out", str(tmp / command)]) == 0
    return tmp / command


def assert_same(got, want, tol, where="output"):
    """got equals want, nested dicts and lists of numbers and strings: each
    number bit for bit when tol is 0, else within tol relative or absolute,
    and NaN only where want is NaN."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, tol, f"{where}[{k}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), (where, got)
    else:
        assert got == want or (tol and math.isclose(got, want, rel_tol=tol, abs_tol=tol)), \
            (where, got, want)


def assert_tables_are(out, reports, tol):
    """risk.csv and threshold_free.csv in out hold the reports of risk_pipeline."""
    def rows(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return [{k: v if k in ("method", "metric") else float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
    assert_same(rows("risk.csv"), [
        {"method": name, "metric": m, "tau_star": r.tau_star, "value": getattr(r, m),
         "ci_lo": r.ci_95[m][0], "ci_hi": r.ci_95[m][1]}
        for name, r in reports.items()
        for m in ("precision", "recall", "f1", "balanced_accuracy")], tol, "risk.csv")
    assert_same(rows("threshold_free.csv"), [
        {"method": name, "roc_auc": r.roc_auc, "pr_auc": r.pr_auc, "n": r.n,
         "n_excluded": r.n_excluded} for name, r in reports.items()], tol, "threshold_free.csv")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("group_by", [None, "site"], ids=["population", "mondrian"])
def test_evaluate_report_is_the_reference(tmp_path, rare_site_cohort, kind, group_by):
    gen, ds = rare_site_cohort
    conformal = {"alpha": ALPHA, **({"group_by": group_by} if group_by else {})}
    got = json.loads((run_on(tmp_path, gen, "evaluate", kind, conformal=conformal)
                      / "report.json").read_text())
    want, fallbacks = [], 0
    for seed in np.random.default_rng(REF_SEED).integers(0, 2 ** 31 - 1, N_SPLITS).tolist():
        model, _, calib, test = fit_split(ds, kind, TEST_FRAC, CALIB_FRAC, seed)
        r = reference.evaluate_split(model, calib, test, ALPHA, group_by)
        want.append({"coverage": r.mean_coverage, "width": r.mean_width, "n_test": r.n_test,
                     "n_infinite_bands": r.n_infinite_bands,
                     "per_time_width": {str(k): w for k, w in r.per_time_width.items()},
                     "per_group": r.per_group})
        seen = {s.labels["site"] for s in reference.scored(reference.subjects_of(calib))}
        fallbacks += sum(s.labels["site"] not in seen
                         for s in reference.scored(reference.subjects_of(test)))
    if group_by:
        assert fallbacks > 0 and any(split["n_infinite_bands"] for split in want)
    assert_same(got["splits"], want, 1e-9 if kind == "gp" else 0, "report.json")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("direction", ["decreasing", "increasing"])
def test_risk_tables_are_the_reference(tmp_path, rare_site_cohort, kind, direction):
    gen, ds = rare_site_cohort
    out = run_on(tmp_path, gen, "risk", kind, conformal={"alpha": ALPHA},
                 risk={"direction": direction, "bootstrap_B": 200})
    model, _, calib, test = fit_split(ds, kind, TEST_FRAC, CALIB_FRAC, REF_SEED)
    cal = reference.calibrate(model, reference.subjects_of(calib), ALPHA)
    _, reports = reference.risk_scores(test, reference.load_truth(gen / "truth.csv"), model,
                                       cal, direction, 200, REF_SEED)
    assert_tables_are(out, reports, 1e-9 if kind == "gp" else 0)
