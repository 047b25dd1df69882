import pytest

from conftraj.data_model import standardize
from conftraj.predictors import fit_predictor
from conftraj.synth import SynthConfig, generate

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fitted_cohort():
    """A standardized synthetic cohort and, per kind, a model fitted on it."""
    ds, _ = generate(SynthConfig(n_subjects=240, seed=31))
    ds, _ = standardize(ds)
    return ds, {kind: fit_predictor(kind, ds, seed=0) for kind in ("bootstrap", "quantile", "gp")}
