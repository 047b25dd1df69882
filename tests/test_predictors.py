import json
import logging
import math
import tracemalloc
from collections import namedtuple
from dataclasses import fields, replace
from itertools import accumulate

import numpy as np
import pytest

from conftraj import predictors
from conftraj.data_model import split, standardize
from conftraj.errors import ConfigurationError, DataError, NumericalError
from conftraj.predictors import (GP_TILE, KINDS, MEMBER_CHUNK, SIGMA_FLOOR, SUBJECT_BLOCK,
                                 BootstrapModel, InputScaler, QuantileModel, _rbf,
                                 design_matrix, fit_bootstrap, fit_gp, fit_quantile,
                                 load_model, predict_batch, save_model, visit_rows)
from conftraj.synth import SynthConfig, generate
from tests.reference import (Subject, dataset_from_rows, dataset_of, dense_gp_oracle,
                             linear_dataset, multi_visit_dataset, pinball_loss,
                             subjects_of, times_of)

Point = namedtuple("Point", "mean std")


def predict_one(model, x, t):
    """Mean and std at one input row [x; t], through predict_batch."""
    means, stds = predict_batch(model, np.asarray(x, dtype=float)[None, :], [t])
    assert means.shape == stds.shape == (1,)
    return Point(float(means[0]), float(stds[0]))


# ---------------------------------------------------------------------------
# GP

@pytest.mark.parametrize("d", [0, 3])
def test_visit_rows_are_per_subject_rows(d):
    # subjects of 0, 1 and 2 visits; feature_dim 0 leaves the baseline alone
    rng = np.random.default_rng(d)
    subjects = [Subject(f"s{i}", rng.standard_normal(d), {}, float(rng.standard_normal()),
                        tuple((6 * (j + 1), 0.0) for j in range(i % 3)))
                for i in range(7)]
    times = [times_of(s) for s in subjects]
    ds = dataset_of(subjects, tuple(f"f{j}" for j in range(d)), ())
    X = visit_rows(ds, ds.visit_counts)
    want = [[*s.features, s.baseline] for s in subjects for _ in s.visits]
    assert X.shape == (len(want), d + 1) and X.tolist() == want
    assert ds.times.tolist() == [tv for ts in times for tv in ts]
    assert ds.offsets.tolist() == list(accumulate(map(len, times), initial=0))


def test_gp_matches_dense_oracle():
    ds, X, ts, ys = linear_dataset(40, seed=1, noise=0.1)
    m = fit_gp(ds, seed=0)
    rng = np.random.default_rng(2)
    Xq = rng.standard_normal((5, 2))
    tq = rng.integers(1, 60, size=5)
    for i in range(5):
        p = predict_one(m, np.concatenate([Xq[i], [0.0]]), int(tq[i]))
        Zq = m.scaler.apply(
            np.concatenate([Xq[i], [0.0], [tq[i]]])[None, :])
        om, ov = dense_gp_oracle(m.Z, m.y, Zq, m.signal_var, m.lengthscale,
                                 m.noise_var)
        assert p.mean == pytest.approx(om[0], abs=1e-8)
        assert p.std == pytest.approx(max(math.sqrt(max(ov[0], 0)), SIGMA_FLOOR),
                                      abs=1e-8)


def test_gp_noiseless_interpolation():
    ds, X, ts, ys = linear_dataset(25, seed=3, noise=0.0)
    m = fit_gp(ds, noise_vars=[0.0], seed=0)
    assert_is_gp_factor(m)        # a noiseless grid is scored by the fallback
    rows, targets = design_matrix(ds)
    for row, y in zip(rows[:10], targets[:10]):
        p = predict_one(m, row[:-1], int(row[-1]))
        assert p.mean == pytest.approx(y, abs=1e-3)


def test_gp_single_point_interpolates():
    # two identical rows: one training location, noise grid forced to zero
    ds = dataset_from_rows(np.array([[0.5], [0.5]]), [6, 6], [1.25, 1.25])
    m = fit_gp(ds, noise_vars=[0.0], seed=0)
    p = predict_one(m, np.array([0.5, 0.0]), 6)
    assert p.mean == pytest.approx(1.25, abs=1e-6)


def default_gp_grid(ds, seed=0, max_points=512):
    """Standardized inputs, targets and the default grid, as fit_gp builds them."""
    from conftraj.predictors import _median_heuristic
    rows, y = design_matrix(ds)
    rng = np.random.default_rng(seed)
    if len(y) > max_points:
        keep = rng.choice(len(y), size=max_points, replace=False)
        rows, y = rows[keep], y[keep]
    Z = InputScaler.fit(rows).apply(rows)
    med = _median_heuristic(Z, rng)
    var_y = float(np.var(y))
    return (Z, y, [m * med for m in (0.5, 1.0, 2.0, 4.0)],
            [m * var_y for m in (0.5, 1.0, 2.0)],
            [m * var_y for m in (0.01, 0.05, 0.1, 0.25)])


def brute_force_grid(Z, y, lengthscales, signal_vars, noise_vars):
    """Every grid point factorized with _gp_factor: (lml, ls, sv, nv) in grid order."""
    from conftraj.predictors import _gp_factor
    return [(_gp_factor(Z, y, sv, ls, nv)[2], ls, sv, nv)
            for ls in lengthscales for sv in signal_vars for nv in noise_vars]


def assert_picks_brute_force_argmax(m, Z, y, lengthscales, signal_vars, noise_vars):
    """m holds the brute-force argmax's hyperparameters, and as its log
    marginal the grid's own score of that point, which agrees with the
    Cholesky one."""
    from conftraj.predictors import _grid_search
    grid = (Z, y, lengthscales, signal_vars, noise_vars)
    lml, ls, sv, nv = max(brute_force_grid(*grid), key=lambda g: g[0])   # first maximum wins
    assert (m.lengthscale, m.signal_var, m.noise_var) == (ls, sv, nv)
    scored, _ = _grid_search(*grid)[:2]
    assert m.log_marginal == next(g[0] for g in scored if g[1:] == (ls, sv, nv))
    assert m.log_marginal == pytest.approx(lml, rel=0.0, abs=1e-6)


def assert_is_gp_factor(m):
    """m's K_inv, alpha and log marginal are _gp_factor's at its hyperparameters."""
    from conftraj.predictors import _gp_factor
    K_inv, alpha, lml, _ = _gp_factor(m.Z, m.y, m.signal_var, m.lengthscale, m.noise_var)
    assert np.array_equal(m.K_inv, K_inv) and np.array_equal(m.alpha, alpha)
    assert m.log_marginal == lml


def test_gp_argmax_log_marginal():
    ds, *_ = linear_dataset(30, seed=5, noise=0.2)
    m = fit_gp(ds, seed=0)
    # the selected hyperparameters beat every other grid point
    assert_picks_brute_force_argmax(m, *default_gp_grid(ds))


@pytest.mark.parametrize("seed", range(6))
def test_gp_eigen_grid_matches_factor(seed):
    from conftraj.predictors import _grid_search
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(5, 60)), int(rng.integers(1, 4))
    ds, *_ = linear_dataset(n, d=d, seed=200 + seed, noise=float(rng.uniform(0.01, 0.5)))
    Z, y, lss, svs, nvs = default_gp_grid(ds)
    scored, n_fallback = _grid_search(Z, y, lss, svs, nvs)[:2]
    brute = brute_force_grid(Z, y, lss, svs, nvs)
    assert n_fallback == 0
    assert [g[1:] for g in scored] == [g[1:] for g in brute]
    assert np.allclose([g[0] for g in scored], [g[0] for g in brute],
                       rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("seed", (11, 22, 33))
def test_gp_grid_argmax_on_acceptance_cohorts(seed):
    # same split as the acceptance Monte Carlo: 100 train, 500 calib, 500 test
    ds, _ = generate(SynthConfig(n_subjects=1100, seed=seed))
    idx = split(ds, 500 / 1100, 500 / 600, seed)
    train, _ = standardize(ds.subset(idx.train))
    m = fit_gp(train, seed=seed)
    assert_picks_brute_force_argmax(m, *default_gp_grid(train, seed))


def test_gp_degenerate_grid_falls_back_to_factor(caplog):
    from conftraj.predictors import _grid_search
    ds, X, ts, ys = linear_dataset(30, seed=4, noise=0.2)
    # every row twice: the noiseless kernel matrix is singular
    ds = dataset_from_rows(np.vstack([X, X]), np.concatenate([ts, ts]),
                           np.concatenate([ys, ys]))
    Z, y, lss, svs, _ = default_gp_grid(ds)
    nvs = [0.0, 0.01 * float(np.var(y))]
    scored, n_fallback = _grid_search(Z, y, lss, svs, nvs)[:2]
    assert 0 < n_fallback < len(scored)
    with caplog.at_level(logging.DEBUG, logger="conftraj.predictors"):
        m = fit_gp(ds, noise_vars=nvs, seed=0)
    assert_picks_brute_force_argmax(m, Z, y, lss, svs, nvs)
    assert m.noise_var == 0.0     # the chosen point was scored by the fallback
    assert_is_gp_factor(m)
    assert f"fallback_points={n_fallback}/{len(scored)}" in caplog.text
    assert "jitter=" in caplog.text and "log_marginal=" in caplog.text


def test_gp_far_query_variance_saturates():
    ds, *_ = linear_dataset(20, seed=7, noise=0.1)
    m = fit_gp(ds, seed=0)
    far = np.full(2, 1e6)
    p = predict_one(m, np.concatenate([far, [0.0]]), 59)
    assert p.std ** 2 == pytest.approx(m.signal_var + m.noise_var, abs=1e-6)


def test_gp_variance_bounds():
    ds, X, ts, _ = linear_dataset(30, seed=9, noise=0.3)
    m = fit_gp(ds, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = predict_one(m, rng.standard_normal(3), int(rng.integers(1, 120)))
        assert 0 <= p.std ** 2 <= m.signal_var + m.noise_var + 1e-6


def one_shot_gp_predict(m, Zq_raw):
    """The GP posterior with the whole query kernel formed at once: the
    formula each tile of the batch predict applies to its own rows."""
    Zq = m.scaler.apply(Zq_raw)
    Ks = _rbf(m.Z, Zq, m.signal_var, m.lengthscale)
    mean = Ks.T @ m.alpha
    var = m.signal_var - np.sum(Ks * (m.K_inv @ Ks), axis=0) + m.noise_var
    return mean, np.maximum(np.sqrt(np.maximum(var, 0.0)), SIGMA_FLOOR)


@pytest.fixture(scope="module")
def tiled_gp():
    m = fit_gp(multi_visit_dataset(60, seed=29, noise=0.1), seed=0)    # 240 rows
    return m, GP_TILE // len(m.Z)


@pytest.mark.parametrize("tiles,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["0", "1", "tile-1", "tile", "tile+1", "3tile+7"])
def test_gp_tiles_match_one_shot(tiled_gp, tiles, extra):
    m, tile = tiled_gp
    n = tiles * tile + extra
    rng = np.random.default_rng(n)
    X, t = rng.standard_normal((n, 3)), rng.integers(1, 60, n)
    means, stds = predict_batch(m, X, t)
    want_means, want_stds = one_shot_gp_predict(m, np.column_stack([X, t]))
    np.testing.assert_allclose(means, want_means, rtol=1e-10, atol=0)
    np.testing.assert_allclose(stds, want_stds, rtol=1e-10, atol=0)


def test_gp_tiles_keep_the_std_floor_and_the_nan_check(monkeypatch):
    ds, *_ = linear_dataset(25, seed=3, noise=0.0)
    m = fit_gp(ds, noise_vars=[0.0], seed=0)
    monkeypatch.setattr(predictors, "GP_TILE", 4 * len(m.Z))      # 4 query rows a tile
    rows, _ = design_matrix(ds)
    means, stds = predict_batch(m, rows[:, :-1], rows[:, -1])      # 7 tiles
    want_means, want_stds = one_shot_gp_predict(m, rows)
    np.testing.assert_allclose(means, want_means, rtol=1e-10, atol=0)
    np.testing.assert_allclose(stds, want_stds, rtol=1e-10, atol=0)
    assert np.all(stds == SIGMA_FLOOR)    # noiseless, at its own training rows
    X = rows[:, :-1].copy()
    X[-1, 0] = np.nan                     # a NaN std in the last tile only
    with pytest.raises(NumericalError, match="below floor"):
        predict_batch(m, X, rows[:, -1])


def test_gp_prediction_memory_is_bounded_by_the_tile():
    m = fit_gp(multi_visit_dataset(200, seed=31, noise=0.1), max_points=512, seed=0)
    assert len(m.Z) == 512
    rng = np.random.default_rng(0)
    X, t = rng.standard_normal((20_000, 3)), rng.integers(1, 60, 20_000)
    tracemalloc.start()
    try:
        predict_batch(m, X, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 512 x 20,000 kernel would be 82 MB, and each of its temporaries as much
    assert peak < 16 * 2 ** 20


def test_gp_dimension_mismatch():
    # named for the GP; predict_batch checks every kind
    ds, *_ = linear_dataset(10, seed=11)
    for m in (fit_gp(ds, seed=0), fit_quantile(ds, steps=10),
              fit_bootstrap(ds, B=3, seed=0)):
        for width in (2, 7):
            with pytest.raises(DataError, match="dimension"):
                predict_one(m, np.zeros(width), 6)
        assert predict_one(m, np.zeros(3), 6).std >= SIGMA_FLOOR


# ---------------------------------------------------------------------------
# Quantile regression

def test_quantile_constant_targets():
    ds = dataset_from_rows(np.zeros((40, 1)), np.arange(1, 41),
                           np.full(40, 2.5))
    m = fit_quantile(ds, steps=800, learning_rate=0.5)
    p = predict_one(m, np.array([0.0, 0.0]), 10)
    assert p.mean == pytest.approx(2.5, abs=1e-3)
    assert p.std == SIGMA_FLOOR


def test_quantile_loss_not_worse_than_zero_weights():
    ds, *_ = linear_dataset(60, seed=13, noise=0.3)
    m = fit_quantile(ds)
    rows, y = design_matrix(ds)
    Z1 = np.column_stack([m.scaler.apply(rows), np.ones(len(y))])
    assert (pinball_loss(m.weights, Z1, y, m.levels)
            <= pinball_loss(np.zeros_like(m.weights), Z1, y, m.levels) + 1e-12)


def test_quantile_normal_noise_offset():
    # y = N(0,1) noise around zero; fitted 0.9 quantile ~ empirical oracle
    rng = np.random.default_rng(21)
    n = 4000
    noise = rng.standard_normal(n)
    ds = dataset_from_rows(np.zeros((n, 1)), np.full(n, 10), noise)
    m = fit_quantile(ds, steps=1500, learning_rate=0.5)
    Z1 = np.concatenate([m.scaler.apply(np.array([[0.0, 0.0, 10.0]]))[0], [1.0]])
    fitted_hi = float(Z1 @ m.weights[-1])
    oracle = float(np.quantile(noise, 0.9))
    assert fitted_hi == pytest.approx(oracle, abs=0.15)
    assert oracle == pytest.approx(1.2816, abs=0.1)


def recomputing_quantile_weights(train, levels=(0.1, 0.5, 0.9), steps=600,
                                 learning_rate=0.1):
    """fit_quantile's descent with every step's residuals and loss
    computed afresh from its weights."""
    Zraw, y = design_matrix(train)
    scaler = InputScaler.fit(Zraw)
    Z1 = np.column_stack([scaler.apply(Zraw), np.ones(len(y))])
    W = np.zeros((len(levels), Z1.shape[1]))
    for k, q in enumerate(levels):
        w = W[k]
        lr = learning_rate
        loss = pinball_loss([w], Z1, y, (q,))
        for _ in range(steps):
            u = y - Z1 @ w
            grad = -Z1.T @ np.where(u >= 0, q, q - 1.0) / len(y)
            w_new = w - lr * grad
            loss_new = pinball_loss([w_new], Z1, y, (q,))
            if loss_new > loss:
                lr *= 0.5
            else:
                w, loss = w_new, loss_new
                lr *= 1.1
        W[k] = w
    return W


@pytest.mark.parametrize("make,opts", [
    (lambda: linear_dataset(60, seed=13, noise=0.3)[0], {}),
    (lambda: multi_visit_dataset(40, seed=5, noise=0.2), {"levels": (0.05, 0.5, 0.95)}),
    (lambda: dataset_from_rows(np.zeros((40, 1)), np.arange(1, 41), np.full(40, 2.5)),
     {"steps": 800, "learning_rate": 0.5}),
    (lambda: standardize(generate(SynthConfig(n_subjects=300, seed=7))[0])[0],
     {"levels": (0.25, 0.75), "learning_rate": 0.4})],
    ids=["linear", "multi-visit", "constant", "synthetic"])
def test_quantile_descent_matches_recomputing_reference(make, opts):
    ds = make()
    assert np.array_equal(fit_quantile(ds, **opts).weights,
                          recomputing_quantile_weights(ds, **opts))


def test_quantile_std_z_scaling():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    z = 1.6448536269514722
    # weights produce (lo, med, hi) = (-z, 0, z) for any input
    W = np.array([[0.0, 0.0, -z], [0.0, 0.0, 0.0], [0.0, 0.0, z]])
    m = QuantileModel(scaler, (0.1, 0.5, 0.9), W, z)
    p = predict_one(m, np.zeros(1), 1)
    assert p.std == pytest.approx(1.0, abs=1e-9)


def test_quantile_floor_on_equal_quantiles():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    W = np.zeros((3, 3))
    m = QuantileModel(scaler, (0.1, 0.5, 0.9), W, 1.6449)
    p = predict_one(m, np.zeros(1), 1)
    assert p.std == SIGMA_FLOOR


def test_quantile_monotone_rearrangement():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    # raw (lo, med, hi) = (0.5, 0.2, 0.9) at the bias
    W = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.2], [0.0, 0.0, 0.9]])
    m = QuantileModel(scaler, (0.1, 0.5, 0.9), W, 1.6449)
    p = predict_one(m, np.zeros(1), 1)
    assert p.mean == pytest.approx(0.5)
    assert p.std == pytest.approx((0.9 - 0.2) / (2 * 1.6449))


def test_quantile_bad_levels():
    ds, *_ = linear_dataset(10, seed=1)
    with pytest.raises(ConfigurationError):
        fit_quantile(ds, levels=(0.2, 0.5, 0.9))
    # one level has no spread (z = 0); a level outside (0, 1) has no z-score
    for levels in ((0.5,), (-0.1, 0.5, 1.1), ()):
        with pytest.raises(ConfigurationError, match="levels"):
            fit_quantile(ds, levels=levels)


# ---------------------------------------------------------------------------
# Bootstrap ensemble

def ridge_oracle(Z1, y, lam):
    P = lam * np.eye(Z1.shape[1])
    P[-1, -1] = 0.0
    return np.linalg.solve(Z1.T @ Z1 + P, Z1.T @ y)


def test_bootstrap_noiseless_matches_ridge_oracle():
    ds = multi_visit_dataset(30, seed=3, noise=0.0)
    m = fit_bootstrap(ds, B=5, ridge_lambda=1e-8, seed=0)
    rows, y = design_matrix(ds)
    Z1 = np.column_stack([m.scaler.apply(rows), np.ones(len(y))])
    w_full = ridge_oracle(Z1, y, 1e-8)
    for member in m.members:
        assert np.allclose(member, w_full, atol=1e-6)
    p = predict_one(m, np.array([1.0, 0.0, 0.3]), 12)
    assert p.mean == pytest.approx(float(
        np.concatenate([m.scaler.apply(np.array([[1.0, 0.0, 0.3, 12.0]]))[0],
                        [1.0]]) @ w_full), abs=1e-8)


def test_bootstrap_two_point_std():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    members = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
    m = BootstrapModel(scaler, members, 1.0)
    p = predict_one(m, np.zeros(1), 1)
    assert p.mean == pytest.approx(2.0)
    assert p.std == pytest.approx(np.sqrt(2.0))


def test_bootstrap_identical_members_floor():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    members = np.tile(np.array([[0.1, 0.2, 0.3]]), (4, 1))
    m = BootstrapModel(scaler, members, 1.0)
    p = predict_one(m, np.zeros(1), 1)
    assert p.std == SIGMA_FLOOR


def test_bootstrap_recompute_oracle():
    ds = multi_visit_dataset(20, seed=5, noise=0.2)
    m = fit_bootstrap(ds, B=5, seed=1)
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal(3)
        t = int(rng.integers(1, 48))
        p = predict_one(m, x, t)
        z1 = np.concatenate([m.scaler.apply(np.concatenate([x, [t]])[None, :])[0],
                             [1.0]])
        preds = m.members @ z1
        assert p.mean == pytest.approx(float(np.mean(preds)), abs=1e-12)
        assert p.std == pytest.approx(
            max(float(np.std(preds, ddof=1)), SIGMA_FLOOR), abs=1e-12)


def test_bootstrap_deterministic():
    ds = multi_visit_dataset(15, seed=7, noise=0.1)
    m1 = fit_bootstrap(ds, B=8, seed=42)
    m2 = fit_bootstrap(ds, B=8, seed=42)
    assert np.array_equal(m1.members, m2.members)


def test_bootstrap_requires_two_members():
    ds = multi_visit_dataset(5, seed=1)
    with pytest.raises(ConfigurationError):
        fit_bootstrap(ds, B=1)


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in KINDS
                                       for name in KINDS[kind].options])
def test_fit_wrong_type_names_the_option(kind, name):
    # the rule a fit applies to its own arguments is the one the CLI applies
    # to predictor.options
    ds = multi_visit_dataset(5, seed=1)
    for value in ("x", [[]]):
        with pytest.raises(ConfigurationError, match=f"^{name} must be "):
            KINDS[kind].fit(ds, **{name: value})


@pytest.mark.parametrize("kind,name,value", [
    ("bootstrap", "B", 3.0), ("bootstrap", "B", "3"), ("bootstrap", "B", True),
    ("quantile", "steps", 2.5), ("gp", "max_points", 512.0)])
def test_fit_refuses_a_non_int_count(kind, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be an int >= "):
        KINDS[kind].fit(multi_visit_dataset(5, seed=1), **{name: value})


def test_bootstrap_mean_converges_to_full_ridge():
    ds = multi_visit_dataset(60, seed=11, noise=0.2)
    m = fit_bootstrap(ds, B=200, ridge_lambda=1.0, seed=3)
    rows, y = design_matrix(ds)
    Z1 = np.column_stack([m.scaler.apply(rows), np.ones(len(y))])
    w_full = ridge_oracle(Z1, y, 1.0)
    w_mean = m.members.mean(axis=0)
    se = m.members.std(axis=0, ddof=1) / np.sqrt(len(m.members))
    assert np.all(np.abs(w_mean - w_full) <= 3 * se + 1e-6)


# ---------------------------------------------------------------------------
# Common surface

def test_predict_trajectory_empty_and_order():
    # one subject's trajectory through predict_batch: no rows give empty
    # vectors, and rows come back in query order
    ds, *_ = linear_dataset(15, seed=17)
    m = fit_bootstrap(ds, B=3, seed=0)
    x = np.zeros(3)
    means, stds = predict_batch(m, np.zeros((0, 3)), [])
    assert means.shape == stds.shape == (0,)
    means, stds = predict_batch(m, np.tile(x, (2, 1)), [6, 12])
    assert len(means) == len(stds) == 2
    singles = [predict_one(m, x, t) for t in (6, 12)]
    for a_mean, a_std, b in zip(means, stds, singles):
        assert a_mean == pytest.approx(b.mean, abs=1e-12)
        assert a_std == pytest.approx(b.std, abs=1e-12)


def test_std_floor_everywhere():
    ds, *_ = linear_dataset(20, seed=19, noise=0.0)
    for m in (fit_gp(ds, seed=0), fit_quantile(ds), fit_bootstrap(ds, B=3, seed=0)):
        _, stds = predict_batch(m, np.zeros((3, 3)), [1, 30, 120])
        assert np.all(stds >= SIGMA_FLOOR)


def test_predict_batch_rejects_nan_std():
    scaler = InputScaler(np.zeros(2), np.ones(2))
    members = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
    m = BootstrapModel(scaler, members, 1.0, std_scale=math.nan)
    with pytest.raises(NumericalError, match="floor"):
        predict_batch(m, np.zeros((2, 1)), [1, 2])


def test_save_load_round_trip(tmp_path):
    ds = multi_visit_dataset(12, seed=23, noise=0.1)
    for name, m in (("gp", fit_gp(ds, seed=0)),
                    ("quantile", fit_quantile(ds, steps=100)),
                    ("bootstrap", fit_bootstrap(ds, B=4, seed=0))):
        path = tmp_path / f"{name}.json"
        save_model(m, path)
        m2 = load_model(path)
        x = np.array([0.3, -0.2, 0.1])
        p1 = predict_one(m, x, 17)
        p2 = predict_one(m2, x, 17)
        assert p1.mean == pytest.approx(p2.mean, abs=1e-12)
        assert p1.std == pytest.approx(p2.std, abs=1e-10)


# ---------------------------------------------------------------------------
# Row offsets and the bootstrap gather

def ragged_visit_dataset(n_subjects, seed):
    """Subjects with 0 to 5 visits each, so some have no rows at all."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n_subjects):
        x = rng.standard_normal(2)
        times = np.sort(rng.choice(np.arange(1, 48), size=int(rng.integers(0, 6)),
                                   replace=False))
        subjects.append(Subject(f"s{i}", x, {}, float(rng.standard_normal()),
                                tuple((int(t), float(0.2 * x[0] - 0.01 * t
                                                     + rng.normal(0, 0.1)))
                                      for t in times)))
    return dataset_of(subjects, ("f0", "f1"), ())


def ridge_solve(Z1, y, lam):
    """One ridge member from its gathered rows, as fit_bootstrap solved it
    when it copied each member's resampled rows."""
    penalty = lam * np.eye(Z1.shape[1])
    penalty[-1, -1] = 0.0         # intercept unpenalized
    A = Z1.T @ Z1 + penalty
    try:
        return np.linalg.solve(A, Z1.T @ y)
    except np.linalg.LinAlgError:
        raise NumericalError("singular ridge normal equations")


def dict_regrouping_members(ds, B, ridge_lambda, seed):
    """The ensemble as fit_bootstrap built it from per-row owners and a dict:
    each member's picked subjects' rows gathered, in pick order."""
    rows, y = design_matrix(ds)
    owners = [i for i, s in enumerate(subjects_of(ds)) for _ in s.visits]
    Z1 = np.column_stack([InputScaler.fit(rows).apply(rows), np.ones(len(y))])
    subject_rows = {}
    for row, owner in enumerate(owners):
        subject_rows.setdefault(owner, []).append(row)
    subject_ids = sorted(subject_rows)
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(B):
        picks = rng.choice(len(subject_ids), size=len(subject_ids), replace=True)
        idx = np.concatenate([subject_rows[subject_ids[p]] for p in picks])
        members.append(ridge_solve(Z1[idx], y[idx], ridge_lambda))
    return np.asarray(members)


def test_design_matrix_offsets_partition_rows():
    ds = ragged_visit_dataset(30, seed=1)
    assert any(not s.visits for s in subjects_of(ds))
    rows, y = design_matrix(ds)
    offsets = ds.offsets
    assert offsets[0] == 0 and offsets[-1] == len(rows) == len(y)
    for i, s in enumerate(subjects_of(ds)):
        lo, hi = offsets[i], offsets[i + 1]
        assert list(rows[lo:hi, -1]) == times_of(s)
        assert list(y[lo:hi]) == [v for _, v in s.visits]
        assert np.all(rows[lo:hi, :-1] == np.append(s.features, s.baseline))


# the weighted sums add the rows in another order than the gathered rows'
# products, so members agree to rounding, not bit for bit
GATHER_RTOL = 1e-10


@pytest.mark.parametrize("seed", (0, 7, 31))
@pytest.mark.parametrize("B", (2, 5, 40))
def test_bootstrap_gather_matches_dict_regrouping(seed, B):
    ds = ragged_visit_dataset(25 + seed, seed=seed)
    assert any(not s.visits for s in subjects_of(ds))
    m = fit_bootstrap(ds, B=B, ridge_lambda=0.5, seed=seed)
    np.testing.assert_allclose(m.members, dict_regrouping_members(ds, B, 0.5, seed),
                               rtol=GATHER_RTOL, atol=0)


@pytest.mark.parametrize("n_subjects,B", [
    (2000, 3),                          # more subjects than one subject block
    (40, 2 * MEMBER_CHUNK + 3),         # more members than one member chunk
    (1200, MEMBER_CHUNK + 3)])          # both
def test_bootstrap_blocks_and_chunks_match_dict_regrouping(n_subjects, B):
    ds = ragged_visit_dataset(n_subjects, seed=5)
    assert (np.count_nonzero(ds.visit_counts) > SUBJECT_BLOCK) == (n_subjects > 40)
    m = fit_bootstrap(ds, B=B, ridge_lambda=0.5, seed=2)
    np.testing.assert_allclose(m.members, dict_regrouping_members(ds, B, 0.5, 2),
                               rtol=GATHER_RTOL, atol=0)


def test_bootstrap_subjects_without_visits_match_dict_regrouping():
    # subjects with no follow-up visits sit between subjects with visits,
    # alone and in runs, so their row offsets repeat inside the sums
    pattern = (3, 0, 1, 0, 0, 4, 2, 0, 0, 0, 1, 5, 0, 2)
    rng = np.random.default_rng(12)
    subjects = []
    for i, n_visits in enumerate(pattern * 3):
        x = rng.standard_normal(2)
        times = np.sort(rng.choice(np.arange(1, 48), size=n_visits, replace=False))
        subjects.append(Subject(f"s{i:02d}", x, {}, float(rng.standard_normal()),
                                tuple((int(t), float(0.2 * x[0] - 0.01 * t
                                                     + rng.normal(0, 0.1)))
                                      for t in times)))
    ds = dataset_of(subjects, ("f0", "f1"), ())
    assert list(ds.visit_counts) == list(pattern * 3)
    for seed in (0, 1):
        m = fit_bootstrap(ds, B=6, ridge_lambda=0.5, seed=seed)
        np.testing.assert_allclose(m.members, dict_regrouping_members(ds, 6, 0.5, seed),
                                   rtol=GATHER_RTOL, atol=0)


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_bootstrap_scaler_from_visit_moments_matches_the_design_fit(seed):
    # subjects without visits, which weigh nothing, and a constant feature
    # column, which scales by 1; a mean is compared on the scale of its
    # column's std, as the scaler applies it
    ds = ragged_visit_dataset(400, seed=seed)
    assert any(ds.visit_counts == 0)
    features = ds.features.copy()
    features[:, 1] = 70.0
    ds = replace(ds, features=features)
    want = InputScaler.fit(design_matrix(ds)[0])
    got = InputScaler.fit_visits(ds)
    assert got.std[1] == want.std[1] == 1.0 and got.mean[1] == want.mean[1] == 70.0
    np.testing.assert_allclose(got.std, want.std, rtol=1e-12, atol=0)
    assert np.all(abs(got.mean - want.mean) <= 1e-12 * want.std)
    fitted = fit_bootstrap(ds, B=2, seed=seed).scaler
    assert (fitted.mean.tobytes(), fitted.std.tobytes()) == (got.mean.tobytes(),
                                                             got.std.tobytes())
    # a constant whose sum over the visits rounds: both take the column as
    # constant
    features[:, 1] = 0.1
    got = InputScaler.fit_visits(replace(ds, features=features))
    want = InputScaler.fit(design_matrix(replace(ds, features=features))[0])
    assert got.mean[1] == want.mean[1] == 0.1 and got.std[1] == want.std[1] == 1.0


@pytest.mark.parametrize("kind", ("gp", "quantile"))
def test_a_constant_column_scales_to_zero(kind):
    # 0.1 on every row: the column's mean rounds off 0.1, and a std of that
    # rounding error (3e-16) once scaled the column to -1 on every row
    ds = ragged_visit_dataset(150, seed=0)
    features = ds.features.copy()
    features[:, 1] = 0.1
    ds = replace(ds, features=features)
    rows = design_matrix(ds)[0]
    assert len(rows) <= 512 and rows.mean(axis=0)[1] != 0.1
    scaler = (fit_gp(ds, seed=0) if kind == "gp" else fit_quantile(ds)).scaler
    assert scaler.mean[1] == 0.1 and scaler.std[1] == 1.0
    assert np.all(scaler.apply(rows)[:, 1] == 0.0)
    # every other column keeps its mean and std over the rows, bit for bit
    others = [0, 2, 3]
    assert scaler.mean[others].tobytes() == rows.mean(axis=0)[others].tobytes()
    assert scaler.std[others].tobytes() == rows.std(axis=0)[others].tobytes()


def test_bootstrap_fit_memory_is_two_designs():
    # the fit's largest arrays are a chunk's draw counts and the visit
    # moments (a peak of 1.8 designs); it builds no design, scaled or not,
    # and no per-row owner or outer product (3.5 designs when it did)
    ds = standardize(generate(SynthConfig(n_subjects=7200, seed=3))[0])[0]
    design_bytes = design_matrix(ds)[0].nbytes          # 36,010 x 6 floats
    tracemalloc.start()
    try:
        fit_bootstrap(ds, B=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * design_bytes


def test_bootstrap_singular_normal_equations_raise():
    # no ridge penalty and a constant feature: the standardized column is
    # exactly zero, so every member's system is singular
    ds = ragged_visit_dataset(30, seed=4)
    ds = replace(ds, features=np.column_stack([ds.features[:, :1],
                                               np.full(len(ds), 3.0)]))
    with pytest.raises(NumericalError, match="singular ridge normal equations"):
        dict_regrouping_members(ds, 3, 0.0, 0)
    with pytest.raises(NumericalError, match="singular ridge normal equations"):
        fit_bootstrap(ds, B=3, ridge_lambda=0.0, seed=0)


# ---------------------------------------------------------------------------
# Model files

@pytest.fixture(scope="module")
def fitted():
    ds = multi_visit_dataset(12, seed=23, noise=0.1)
    return {"gp": fit_gp(ds, seed=0), "quantile": fit_quantile(ds, steps=100),
            "bootstrap": fit_bootstrap(ds, B=4, seed=0)}


@pytest.mark.parametrize("kind", ("gp", "quantile", "bootstrap"))
def test_save_load_save_byte_identical(tmp_path, fitted, kind):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(fitted[kind], first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["kind"] == kind
    if kind == "gp":
        assert np.array_equal(loaded.K_inv, fitted[kind].K_inv)


def model_arrays(model):
    """Every array of a model, its scaler's included, by field name."""
    arrays = {f"scaler.{name}": getattr(model.scaler, name) for name in ("mean", "std")}
    for f in fields(model):
        if isinstance(getattr(model, f.name), np.ndarray):
            arrays[f.name] = getattr(model, f.name)
    return arrays


@pytest.mark.parametrize("kind", ("gp", "quantile", "bootstrap"))
def test_model_arrays_are_read_only_after_fit_and_load(tmp_path, fitted, kind):
    save_model(fitted[kind], tmp_path / "model.json")
    for model in (fitted[kind], load_model(tmp_path / "model.json")):
        arrays = model_arrays(model)
        assert set(arrays) == {"scaler.mean", "scaler.std", *KINDS[kind].shapes} - {"levels"}
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[...] = 0


@pytest.mark.parametrize("kind", ("gp", "quantile", "bootstrap"))
def test_models_leave_the_callers_arrays_writeable(fitted, kind):
    model = fitted[kind]
    given = {name: np.array(array) for name, array in model_arrays(model).items()}
    built = replace(model, scaler=InputScaler(given["scaler.mean"], given["scaler.std"]),
                    **{name: array for name, array in given.items() if "." not in name})
    for name, array in given.items():
        assert array.flags.writeable, name
        array[...] = 99
    for name, array in model_arrays(built).items():
        assert not array.flags.writeable, name
        assert np.array_equal(array, model_arrays(model)[name]), name


def _drop_last(key):
    return lambda doc: doc.__setitem__(key, doc[key][:-1])


def _drop_last_column(key):
    return lambda doc: doc.__setitem__(key, [row[:-1] for row in doc[key]])


# (kind, what is wrong with the file, key the error names, edit of the saved JSON)
BAD_MODEL_FILES = [
    ("bootstrap", "members missing", "members", lambda doc: doc.pop("members")),
    ("bootstrap", "kind missing", "kind", lambda doc: doc.pop("kind")),
    ("bootstrap", "members one column short", "members", _drop_last_column("members")),
    ("bootstrap", "members ragged", "members",
     lambda doc: doc["members"][0].pop()),
    ("gp", "K_inv one row short", "K_inv", _drop_last("K_inv")),
    ("gp", "alpha one element short", "alpha", _drop_last("alpha")),
    ("gp", "y one element short", "y", _drop_last("y")),
    ("gp", "Z one column short", "Z", _drop_last_column("Z")),
    ("gp", "log_marginal missing", "log_marginal", lambda doc: doc.pop("log_marginal")),
    ("gp", "signal_var a string", "signal_var",
     lambda doc: doc.__setitem__("signal_var", "1.0")),
    ("quantile", "z_score missing", "z_score", lambda doc: doc.pop("z_score")),
    ("quantile", "one level too few", "levels", _drop_last("levels")),
    ("quantile", "weights one column short", "weights", _drop_last_column("weights")),
    ("quantile", "weights non-finite", "weights",
     lambda doc: doc["weights"][0].__setitem__(0, math.nan)),
    ("bootstrap", "std_scale missing", "std_scale", lambda doc: doc.pop("std_scale")),
    ("bootstrap", "unknown kind", "kind", lambda doc: doc.__setitem__("kind", "forest")),
    ("bootstrap", "scaler std too wide", "std",
     lambda doc: doc["scaler"]["std"].append(1.0)),
    # values out of range: a fit option's own rule, else the field's
    ("bootstrap", "std_scale negative", "std_scale",
     lambda doc: doc.__setitem__("std_scale", -1.0)),
    ("bootstrap", "ridge_lambda negative", "ridge_lambda",
     lambda doc: doc.__setitem__("ridge_lambda", -0.5)),
    ("quantile", "levels decreasing", "levels",
     lambda doc: doc.__setitem__("levels", [0.9, 0.5, 0.1])),
    ("quantile", "z_score negative", "z_score",
     lambda doc: doc.__setitem__("z_score", -1.2816)),
    ("gp", "lengthscale zero", "lengthscale", lambda doc: doc.__setitem__("lengthscale", 0)),
    ("gp", "signal_var zero", "signal_var", lambda doc: doc.__setitem__("signal_var", 0.0)),
    ("gp", "noise_var negative", "noise_var",
     lambda doc: doc.__setitem__("noise_var", -1e-3)),
    ("gp", "scaler std all zero", "std",
     lambda doc: doc["scaler"].__setitem__("std", [0.0] * len(doc["scaler"]["std"]))),
    ("quantile", "scaler std one zero", "std",
     lambda doc: doc["scaler"]["std"].__setitem__(0, 0.0)),
]


@pytest.mark.parametrize("kind,what,key,edit", BAD_MODEL_FILES,
                         ids=[f"{k}-{w}" for k, w, _, _ in BAD_MODEL_FILES])
def test_load_model_rejects_bad_file(tmp_path, fitted, kind, what, key, edit):
    path = tmp_path / "model.json"
    save_model(fitted[kind], path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as err:
        load_model(path)
    assert str(path) in str(err.value) and repr(key) in str(err.value)


def test_load_model_names_unreadable_schema_version(tmp_path, fitted):
    # a version-1 GP file stored the Cholesky factor L instead of K_inv
    path = tmp_path / "model.json"
    save_model(fitted["gp"], path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 1
    doc["L"] = doc.pop("K_inv")
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError) as err:
        load_model(path)
    assert str(path) in str(err.value) and "schema_version 1" in str(err.value)
