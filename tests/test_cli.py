import csv
import json

import pytest

from conftraj.cli import main


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
    assert "1.5" in err
    assert "conformal.calibrate precondition" in err


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


def test_group_spec_missing_key_rejected(tmp_path, capsys):
    code, err = config_error(tmp_path, capsys, "generate", {
        "synth": {"n_subjects": 20,
                  "group_spec": [{"column": "site", "probs": [0.5, 0.5]}]}})
    assert code == 1
    assert "error [ConfigurationError]" in err and "categories" in err


@pytest.mark.parametrize("section,key,value", [
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
])
def test_typed_config_value_rejected(tmp_path, capsys, section, key, value):
    # the data file does not exist: the config is rejected before any load
    doc = {"data": {"path": str(tmp_path / "missing.csv")}}
    if section is None:
        doc[key], name = value, key
    else:
        doc[section], name = {key: value}, f"{section}.{key}"
    code, err = config_error(tmp_path, capsys, "risk", doc)
    assert code == 1
    assert "error [ConfigurationError]" in err and name in err


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
    ("gp", "L", lambda doc: doc.__setitem__("L", doc["L"][:-1])),
    ("gp", "alpha", lambda doc: doc.__setitem__("alpha", doc["alpha"][:-1])),
], ids=["members-missing", "kind-missing", "members-column-short", "members-ragged",
        "L-row-short", "alpha-short"])
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


@pytest.mark.parametrize("probs,expected", [
    (["0.5", "0.5"], "group site: prob '0.5' is not a number in [0, 1]"),
    ([1.5, -0.5], "group site: prob 1.5 is not a number in [0, 1]"),
    ([True, 0], "group site: prob True is not a number in [0, 1]"),
    (0.5, "synth.group_spec[0].probs must be a list"),
], ids=["strings", "out-of-range", "bool", "not-a-list"])
def test_group_spec_bad_probs_rejected(tmp_path, capsys, probs, expected):
    code, err = config_error(tmp_path, capsys, "generate", {
        "synth": {"n_subjects": 20, "group_spec": [
            {"column": "site", "categories": ["a", "b"], "probs": probs}]}})
    assert code == 1
    assert err.startswith("error [ConfigurationError]: ") and expected in err
