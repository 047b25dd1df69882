"""Uncertainty-aware trajectory predictors.

All predictors consume rows [x; t] (covariates plus baseline, plus a time
input) through one call, predict_batch, which returns a vector of means
and a vector of stds.  Three std mechanisms are provided: an
exact-inference RBF Gaussian process (analytic posterior), linear quantile
regression (quantile spread scaled by a z-score), and a bootstrap ridge
ensemble (sample std across members).  Every predictor applies a common
std floor so downstream normalized scores stay finite.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .data_model import UNDECODED, Dataset, open_fresh
from .errors import (ConfigurationError, DataError, NumericalError, check_rules, is_finite,
                     is_int, is_numbers)

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-3

_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


class _ReadOnlyArrays:
    """A frozen dataclass whose np.ndarray fields are copied into read-only
    float arrays on construction, as a Dataset's columns are: the caller's
    arrays stay writeable, and no write can change a model under a
    prediction kept for it (see conformal._visit_prediction)."""

    def __post_init__(self):
        for f in fields(self):
            if f.type == "np.ndarray":
                array = np.array(getattr(self, f.name), dtype=float)
                array.flags.writeable = False
                object.__setattr__(self, f.name, array)


@dataclass(frozen=True)
class InputScaler(_ReadOnlyArrays):
    """Column-wise standardization of the [x; t] design matrix."""
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, Z):
        """A constant column's mean is its value and its std 0: the mean of
        its sum can round off its value and leave a std of rounding error."""
        constant = np.ptp(Z, axis=0) == 0
        return cls._of(np.where(constant, Z[0], Z.mean(axis=0)),
                       np.where(constant, 0.0, Z.std(axis=0)))

    @classmethod
    def fit_visits(cls, train: Dataset):
        """fit(design_matrix(train)[0]) from each subject's [x; baseline]
        weighted by its visit count, and from the visit times: the same
        means and stds up to the order of summation.  Deviations are taken
        from a subject with visits, so a constant column's mean is exact and
        its std 0, as in fit."""
        counts, S = train.visit_counts, np.column_stack([train.features, train.baseline])
        shift = S[np.argmax(counts)]
        mean = shift + counts @ (S - shift) / len(train.times)
        var = counts @ (S - mean) ** 2 / len(train.times)
        return cls._of(np.append(mean, train.times.mean()),
                       np.sqrt(np.append(var, train.times.var())))

    @classmethod
    def _of(cls, mean, std):
        """A zero std (a constant column) scales by 1."""
        return cls(mean, np.where(std > 0, std, 1.0))

    def apply(self, Z):
        return (np.asarray(Z, dtype=float) - self.mean) / self.std


def _linear_rows(Z1, W):
    """Z1 @ W.T, each row computed the same way whatever the batch holds.

    numpy's @ takes a vector path for a one-row operand that can differ
    from the batched product in the last bit, so a subject's band would
    depend on what it was predicted with; einsum without BLAS does not.
    """
    return np.einsum("ij,kj->ik", Z1, W)


def visit_rows(ds: Dataset, counts):
    """Inputs X = [x; baseline] of each subject of ds, repeated counts[i]
    times for subject i (one row per query time)."""
    return np.repeat(np.column_stack([ds.features, ds.baseline]), counts, axis=0)


def design_matrix(train: Dataset):
    """Rows [x; baseline; t] and targets at every visit, in train's row order."""
    if not len(train.times):
        raise DataError("training set has no visit rows")
    return np.column_stack([visit_rows(train, train.visit_counts), train.times]), train.values


# ---------------------------------------------------------------------------
# Gaussian process (exact inference, RBF kernel)

@dataclass(frozen=True)
class GpModel(_ReadOnlyArrays):
    scaler: InputScaler
    Z: np.ndarray                 # standardized training inputs
    y: np.ndarray
    signal_var: float
    lengthscale: float
    noise_var: float
    K_inv: np.ndarray             # (K + noise_var I)^-1, reused across queries
    alpha: np.ndarray             # (K + noise_var I)^-1 y
    log_marginal: float


def _sqdist(Z1, Z2):
    d2 = np.add.outer(np.sum(Z1 ** 2, axis=1), np.sum(Z2 ** 2, axis=1))
    d2 -= 2.0 * Z1 @ Z2.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _rbf(Z1, Z2, signal_var, lengthscale):
    return signal_var * np.exp(-0.5 * _sqdist(Z1, Z2) / lengthscale ** 2)


def _gp_factor(Z, y, signal_var, lengthscale, noise_var):
    """K_inv, alpha, log marginal likelihood and jitter from the Cholesky
    factor L of K + noise_var I plus the first of _JITTERS that factorizes."""
    A = _rbf(Z, Z, signal_var, lengthscale) + noise_var * np.eye(len(Z))
    for jitter in _JITTERS:
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(len(A)))
        except np.linalg.LinAlgError:
            continue
        L_inv = np.linalg.inv(L)
        alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
        lml = (-0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L))))
               - 0.5 * len(y) * math.log(2.0 * math.pi))
        return L_inv.T @ L_inv, alpha, lml, jitter
    raise NumericalError("Cholesky failed at maximum jitter 1e-4")


def _median_heuristic(Z, rng):
    m = min(len(Z), 256)
    sub = Z[rng.choice(len(Z), size=m, replace=False)] if len(Z) > m else Z
    d = np.sqrt(_sqdist(sub, sub)[np.triu_indices(m, k=1)])
    med = float(np.median(d)) if len(d) else 1.0
    return med if med > 0 else 1.0


def _grid_search(Z, y, lengthscales, signal_vars, noise_vars):
    """(lml, ls, sv, nv) of every grid point in (ls, sv, nv) order, how many
    took the fallback, and the first best point's (ls, sv, nv) and (K_inv,
    alpha, lml, jitter).

    For a fixed lengthscale, K + nv I = sv R + nv I shares the eigenvectors
    U of the unit-variance kernel R = U diag(lam) U^T, so with b = U^T y and
    d = sv lam + nv

        lml = -1/2 sum(b^2 / d) - 1/2 sum(log d) - n/2 log(2 pi),
        K_inv = U diag(1/d) U^T,   alpha = U (b / d),

    and each (sv, nv) pair is scored in O(n) after one eigendecomposition
    per lengthscale (Rasmussen & Williams 2006, sections 2.2 and 5.4).  A
    numerically singular point (d.min() <= 1e-8 d.max(), e.g. a noiseless
    grid) is scored by _gp_factor's jittered Cholesky instead.  Only the
    running best's (U, b, d) or _gp_factor result is kept, and each R is
    formed in one reused n x n buffer.
    """
    d2 = _sqdist(Z, Z)
    R = np.empty_like(d2)
    const = 0.5 * len(y) * math.log(2.0 * math.pi)
    scored, n_fallback, best = [], 0, None
    for ls in lengthscales:
        np.multiply(d2, -0.5, out=R)
        np.divide(R, ls ** 2, out=R)
        lam, U = np.linalg.eigh(np.exp(R, out=R))
        b = U.T @ y
        for sv in signal_vars:
            for nv in noise_vars:
                d = sv * lam + nv
                if d.min() <= 1e-8 * d.max():
                    factor = _gp_factor(Z, y, sv, ls, nv)
                    lml = factor[2]
                    n_fallback += 1
                else:
                    factor = (U, b, d)
                    lml = (-0.5 * float(np.sum(b ** 2 / d))
                           - 0.5 * float(np.sum(np.log(d))) - const)
                scored.append((lml, ls, sv, nv))
                if best is None or lml > best[0]:    # first maximum wins
                    best = (lml, ls, sv, nv, factor)
        del U, factor                 # unless best, freed before the next eigh
    del d2, R
    lml, ls, sv, nv, factor = best
    if len(factor) == 3:              # scored from the spectrum
        U, b, d = factor
        alpha = U @ (b / d)
        U /= np.sqrt(d)               # W = U diag(d)^-1/2, in U's own storage
        factor = (U @ U.T, alpha, lml, 0.0)
    return scored, n_fallback, (ls, sv, nv), factor


# option -> (what it must be, test), for each option of a fit; a None grid
# in a library call is the default grid
_GRID = ("a non-empty list of finite numbers > 0",
         lambda v: is_numbers(v, is_finite) and min(v) > 0)
_GP_OPTIONS = {"lengthscales": _GRID, "signal_vars": _GRID,
               "noise_vars": ("a non-empty list of finite numbers >= 0",
                              lambda v: is_numbers(v, is_finite) and min(v) >= 0),
               "max_points": ("an int >= 2", lambda v: is_int(v) and v >= 2)}


def fit_gp(train: Dataset, lengthscales=None, signal_vars=None, noise_vars=None,
           max_points: int = 512, seed: int = 0) -> GpModel:
    """Fit an exact RBF GP by grid search over the log marginal likelihood.

    Default grids anchor the lengthscale at the median pairwise distance
    and the variances at the target variance.  Training rows beyond
    max_points are subsampled (seeded) to keep the cubic cost bounded.
    The model keeps K_inv, alpha and the log marginal of the factorization
    that scored the first best grid point (see _grid_search).
    """
    grids = dict(lengthscales=lengthscales, signal_vars=signal_vars, noise_vars=noise_vars)
    check_rules(_GP_OPTIONS, {"max_points": max_points,
                              **{name: g for name, g in grids.items() if g is not None}})
    Zraw, y = design_matrix(train)
    if len(y) < 2:
        raise DataError("GP fitting needs at least 2 visit rows")
    rng = np.random.default_rng(seed)
    if len(y) > max_points:
        keep = rng.choice(len(y), size=max_points, replace=False)
        Zraw, y = Zraw[keep], y[keep]
    scaler = InputScaler.fit(Zraw)
    Z = scaler.apply(Zraw)

    med = _median_heuristic(Z, rng)
    var_y = float(np.var(y))
    var_y = var_y if var_y > 0 else 1.0
    if lengthscales is None:
        lengthscales = [m * med for m in (0.5, 1.0, 2.0, 4.0)]
    if signal_vars is None:
        signal_vars = [m * var_y for m in (0.5, 1.0, 2.0)]
    if noise_vars is None:
        noise_vars = [m * var_y for m in (0.01, 0.05, 0.1, 0.25)]

    scored, n_fallback, (ls, sv, nv), (K_inv, alpha, lml, jitter) = _grid_search(
        Z, y, lengthscales, signal_vars, noise_vars)
    log.debug("fit_gp: lengthscale=%.6g signal_var=%.6g noise_var=%.6g "
              "log_marginal=%.6f jitter=%g fallback_points=%d/%d",
              ls, sv, nv, lml, jitter, n_fallback, len(scored))
    return GpModel(scaler, Z, y, sv, ls, nv, K_inv, alpha, lml)


GP_TILE = 2 ** 18      # kernel entries per tile of query rows (2 MB of float64)


def _gp_predict_batch(m: GpModel, Zq_raw):
    """Posterior mean and floored std of each query row, predicted over
    consecutive tiles of GP_TILE // len(m.Z) rows, so the kernel and its
    temporaries take O(len(m.Z) × tile) memory whatever the query count."""
    n = len(Zq_raw)
    mean, std = np.empty(n), np.empty(n)
    rows = max(1, GP_TILE // len(m.Z))
    for lo in range(0, n, rows):
        Zq = m.scaler.apply(Zq_raw[lo:lo + rows])
        Ks = _rbf(m.Z, Zq, m.signal_var, m.lengthscale)
        mean[lo:lo + rows] = Ks.T @ m.alpha
        var = m.signal_var - np.sum(Ks * (m.K_inv @ Ks), axis=0) + m.noise_var
        std[lo:lo + rows] = np.sqrt(np.maximum(var, 0.0))
    return mean, np.maximum(std, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# Linear quantile regression (pinball loss, subgradient descent)

@dataclass(frozen=True)
class QuantileModel(_ReadOnlyArrays):
    scaler: InputScaler
    levels: tuple                 # strictly increasing, lo + hi == 1
    weights: np.ndarray           # (n_levels, p+1), bias last
    z_score: float


def _pinball_slope(u, q):
    """The pinball loss's slope at level q at each residual of u: its loss
    there is u times its slope."""
    return np.where(u >= 0, q, q - 1.0)


_QUANTILE_OPTIONS = {
    "levels": ("a strictly increasing list of 2 or more numbers in (0, 1) "
               "whose first and last sum to 1",
               lambda v: is_numbers(v) and len(v) >= 2 and 0 < v[0] and v[-1] < 1
               and all(a < b for a, b in zip(v, v[1:])) and abs(v[0] + v[-1] - 1) <= 1e-9),
    "steps": ("an int >= 1", lambda v: is_int(v) and v >= 1),
    "learning_rate": ("a finite number > 0", lambda v: is_finite(v) and v > 0)}


def fit_quantile(train: Dataset, levels=(0.1, 0.5, 0.9), steps: int = 600,
                 learning_rate: float = 0.1) -> QuantileModel:
    """Minimize mean pinball loss by full-batch subgradient descent.

    Starts from zero weights; an update that increases the loss is
    reverted and the step size halved, so the recorded loss sequence is
    non-increasing.
    """
    check_rules(_QUANTILE_OPTIONS,
                {"levels": levels, "steps": steps, "learning_rate": learning_rate})
    levels = tuple(levels)
    Zraw, y = design_matrix(train)
    scaler = InputScaler.fit(Zraw)
    Z1 = np.column_stack([scaler.apply(Zraw), np.ones(len(y))])
    W = np.zeros((len(levels), Z1.shape[1]))

    n = len(y)
    # the per-level losses are separable, so each head descends on its own
    for k, q in enumerate(levels):
        w = W[k]
        lr = learning_rate
        u = y - Z1 @ w         # residuals of w, kept with w, its slopes, loss and gradient
        g = _pinball_slope(u, q)
        loss = float(np.add.reduce(u * g)) / n
        grad = -(Z1.T @ g) / n
        for _ in range(steps):
            w_new = w - lr * grad
            u_new = y - Z1 @ w_new
            g_new = _pinball_slope(u_new, q)
            loss_new = float(np.add.reduce(u_new * g_new)) / n
            if not math.isfinite(loss_new):
                raise NumericalError("quantile training diverged (non-finite loss)")
            if loss_new > loss:
                lr *= 0.5      # reject the step, keep the loss monotone
            else:
                w, u, g, loss = w_new, u_new, g_new, loss_new
                grad = -(Z1.T @ g) / n
                lr *= 1.1      # regrow so rejected steps do not stall descent
        W[k] = w
    conf = levels[-1] - levels[0]
    z = NormalDist().inv_cdf((1.0 + conf) / 2.0)
    return QuantileModel(scaler, levels, W, z)


def _quantile_predict_batch(m: QuantileModel, Zq_raw):
    Z1 = np.column_stack([m.scaler.apply(Zq_raw), np.ones(len(Zq_raw))])
    preds = _linear_rows(Z1, m.weights)   # (n, n_levels)
    preds = np.sort(preds, axis=1)        # monotone rearrangement repairs crossings
    mean = preds[:, len(m.levels) // 2]
    std = (preds[:, -1] - preds[:, 0]) / (2.0 * m.z_score)
    return mean, np.maximum(std, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# Bootstrap ridge ensemble

@dataclass(frozen=True)
class BootstrapModel(_ReadOnlyArrays):
    scaler: InputScaler
    members: np.ndarray           # (B, p+1) ridge weights, bias last
    ridge_lambda: float
    std_scale: float = 1.0        # deliberate std miscalibration, for experiments


SUBJECT_BLOCK = 512   # subjects summed at a time
MEMBER_CHUNK = 32     # bootstrap members drawn and solved at a time


def _subject_moments(train: Dataset, scaler: InputScaler):
    """For each subject of train with visits: u = [v; 0; 1], v its scaled
    [x; baseline], so that its design row at scaled visit time τ is u + τ e
    (e the time axis), and the sums Σw and Σwτ over its visits of w = 1,
    τ, y (its visit count, Στ, Σy and Στ, Στ², Σyτ)."""
    has = train.visit_counts > 0
    v = (np.column_stack([train.features, train.baseline])[has]
         - scaler.mean[:-1]) / scaler.std[:-1]
    u = np.column_stack([v, np.zeros(len(v)), np.ones(len(v))])
    tau = (train.times - scaler.mean[-1]) / scaler.std[-1]
    w = np.column_stack([np.ones(len(tau)), tau, train.values])
    starts = train.offsets[:-1][has]
    return u, np.add.reduceat(w, starts), np.add.reduceat(w * tau[:, None], starts)


def _member_normal_equations(u, sw, swt, counts):
    """[Z1ᵀ W Z1; yᵀ W Z1] for each row of counts, W the diagonal of its
    counts of the rows' subjects: shape (len(counts), q + 1, q).

    A subject's Σ w z is (Σw) u + (Σwτ) e for w = 1, τ, y.  Row i of its
    Σ z zᵀ is u_i Σ z for every input i but time, and Σ τ z for time.
    These per-subject matrices are built SUBJECT_BLOCK subjects at a time
    and weighted by the counts in one product per block, so no design row
    is ever formed."""
    q = u.shape[1]
    t = q - 2                     # the time axis; u[:, t] == 0
    sums = np.zeros((len(counts), (q + 1) * q))
    for lo in range(0, len(u), SUBJECT_BLOCK):
        ub = u[lo:lo + SUBJECT_BLOCK]
        wz = sw[lo:lo + SUBJECT_BLOCK, :, None] * ub[:, None, :]
        wz[:, :, t] = swt[lo:lo + SUBJECT_BLOCK]
        M = np.empty((len(ub), q + 1, q))
        M[:, :q] = ub[:, :, None] * wz[:, :1]
        M[:, t] = wz[:, 1]
        M[:, q] = wz[:, 2]
        sums += counts[:, lo:lo + SUBJECT_BLOCK] @ M.reshape(len(ub), -1)
    return sums.reshape(len(counts), q + 1, q)


_BOOTSTRAP_OPTIONS = {
    "B": ("an int >= 2", lambda v: is_int(v) and v >= 2),
    "ridge_lambda": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "std_scale": ("a finite number > 0", lambda v: is_finite(v) and v > 0)}


def fit_bootstrap(train: Dataset, B: int = 20, ridge_lambda: float = 1.0,
                  seed: int = 0, std_scale: float = 1.0) -> BootstrapModel:
    """Fit B closed-form ridge regressors on subject-level bootstrap resamples.

    Each member resamples the subjects with visits; its normal equations
    are each subject's sums over its visit rows weighted by how often the
    subject was drawn (see _member_normal_equations), which equals fitting
    on the gathered rows up to the order of summation (about 1e-12
    relative).  Members are drawn and solved MEMBER_CHUNK at a time."""
    check_rules(_BOOTSTRAP_OPTIONS, {"B": B, "ridge_lambda": ridge_lambda,
                                     "std_scale": std_scale})
    k = np.count_nonzero(train.visit_counts)      # subjects with visits
    if k < 2:
        raise DataError("bootstrap fitting needs at least 2 training subjects with visits")
    scaler = InputScaler.fit_visits(train)
    u, sw, swt = _subject_moments(train, scaler)
    q = u.shape[1]
    penalty = ridge_lambda * np.eye(q)
    penalty[-1, -1] = 0.0         # intercept unpenalized
    rng = np.random.default_rng(seed)
    members = np.empty((B, q))
    for lo in range(0, B, MEMBER_CHUNK):
        counts = np.array([np.bincount(rng.choice(k, size=k, replace=True), minlength=k)
                           for _ in range(min(MEMBER_CHUNK, B - lo))], dtype=float)
        sums = _member_normal_equations(u, sw, swt, counts)
        try:
            members[lo:lo + len(counts)] = np.linalg.solve(
                sums[:, :q] + penalty, sums[:, q, :, None])[..., 0]
        except np.linalg.LinAlgError:
            raise NumericalError("singular ridge normal equations")
    return BootstrapModel(scaler, members, ridge_lambda, std_scale)


def _bootstrap_predict_batch(m: BootstrapModel, Zq_raw):
    Z1 = np.column_stack([m.scaler.apply(Zq_raw), np.ones(len(Zq_raw))])
    preds = _linear_rows(Z1, m.members)   # (n, B)
    mean = preds.mean(axis=1)
    std = preds.std(axis=1, ddof=1) * m.std_scale
    return mean, np.maximum(std, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# The predictor kinds

class Kind(NamedTuple):
    model: type
    fit: Callable                 # fit(train, **options); seeded kinds also take seed
    predict: Callable             # predict(model, rows) -> (means, stds)
    shapes: dict                  # array field -> one letter per axis (see load_model)
    options: dict                 # option of fit -> (what it must be, test)


KINDS = {
    "gp": Kind(GpModel, fit_gp, _gp_predict_batch,
               {"Z": "np", "y": "n", "K_inv": "nn", "alpha": "n"}, _GP_OPTIONS),
    "quantile": Kind(QuantileModel, fit_quantile, _quantile_predict_batch,
                     {"levels": "k", "weights": "kq"}, _QUANTILE_OPTIONS),
    "bootstrap": Kind(BootstrapModel, fit_bootstrap, _bootstrap_predict_batch,
                      {"members": "Bq"}, _BOOTSTRAP_OPTIONS),
}
# parameter -> (what it must be, test), for fit_predictor's kind
PREDICTOR_RULES = {"kind": (f"one of {', '.join(KINDS)}",
                            lambda v: isinstance(v, str) and v in KINDS)}


def _kind_of(model):
    for name, kind in KINDS.items():
        if type(model) is kind.model:
            return name
    raise ConfigurationError(f"not a predictor model: {type(model).__name__}")


def fit_predictor(kind: str, train: Dataset, seed: int = 0, **opts):
    """Fit a predictor of the given kind; a seeded fit also gets seed."""
    check_rules(PREDICTOR_RULES, {"kind": kind})
    fit = KINDS[kind].fit
    if "seed" in inspect.signature(fit).parameters:
        opts["seed"] = seed
    return fit(train, **opts)


def predict_batch(model, X, times):
    """(means, stds) for the rows of X paired element-wise with times.

    The one prediction call of every predictor.  Rejects rows whose width
    does not match the fitted model, and a std below SIGMA_FLOOR (or NaN).
    A linear predictor's row is bit-identical whatever else is in the
    batch; a GP's goes through BLAS and matches to about 1e-12.
    """
    rows = np.column_stack([np.asarray(X, dtype=float),
                            np.asarray(times, dtype=float)])
    if rows.shape[1] != len(model.scaler.mean):
        raise DataError(f"input dimension {rows.shape[1] - 1} does not match "
                        f"fitted model ({len(model.scaler.mean) - 1})")
    means, stds = KINDS[_kind_of(model)].predict(model, rows)
    if not np.all(stds >= SIGMA_FLOOR):
        raise NumericalError(f"prediction std {float(np.min(stds))} below floor "
                             f"{SIGMA_FLOOR}")
    return means, stds


# ---------------------------------------------------------------------------
# Serialization

def _arr(a):
    return np.asarray(a).tolist()


SCHEMA_VERSION = 2      # 2: GpModel stores K_inv, not its Cholesky factor L


def save_model(model, path):
    """Write the model's kind, its scaler and every other field as JSON."""
    doc = {"kind": _kind_of(model), "schema_version": SCHEMA_VERSION,
           "scaler": {"mean": _arr(model.scaler.mean), "std": _arr(model.scaler.std)}}
    for f in fields(model):
        if f.name != "scaler":
            value = getattr(model, f.name)
            doc[f.name] = _arr(value) if isinstance(value, (np.ndarray, tuple)) else value
    with open_fresh(path) as fh:
        json.dump(doc, fh, sort_keys=True)


def _file_error(path, key, why):
    return ConfigurationError(f"model file {path}: key {key!r} {why}")


def read_json(path):
    """The JSON document in the file at path.  A byte that is not UTF-8 raises
    ConfigurationError naming the file and the line; malformed JSON raises
    json.JSONDecodeError, as json.load does."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = UNDECODED.search(text)
    if bad:
        line = text.count("\n", 0, bad.start()) + 1
        raise ConfigurationError(f"{path}: a byte that is not UTF-8 on line {line}")
    return json.loads(text)


def read_checked(path, doc, key, axes=None, sizes=None):
    """doc[key] from the JSON file at path: a finite number (not a bool) when
    axes is None, else a finite float array with one axis per letter of
    axes, a letter being one length across calls that share sizes.  Anything
    else raises ConfigurationError naming the file and the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise _file_error(path, key, "is missing")
    value = doc[key]
    if axes is None:
        if type(value) not in (int, float) or not math.isfinite(value):
            raise _file_error(path, key, f"must be a finite number, got {value!r}")
        return value
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise _file_error(path, key, "is not a rectangular list of numbers")
    if not np.all(np.isfinite(a)):
        raise _file_error(path, key, "holds a non-finite value")
    if a.ndim != len(axes):
        raise _file_error(path, key, f"has shape {a.shape}, not {len(axes)} axes")
    sizes = {} if sizes is None else sizes
    for axis, n in zip(axes, a.shape):
        size, owner = sizes.setdefault(axis, (n, key))
        if n != size:
            raise _file_error(path, key, f"has shape {a.shape}, which does not fit {owner!r}")
    return a


# model field -> (what it must be, test), for the scalars a fit computes; a
# field that is an option of the fit takes the option's rule (see load_model)
_POSITIVE = ("a number > 0", lambda v: v > 0)
_FIELD_RULES = {"lengthscale": _POSITIVE, "signal_var": _POSITIVE, "z_score": _POSITIVE,
                "noise_var": ("a number >= 0", lambda v: v >= 0)}


def load_model(path):
    """Read a model written by save_model.  A missing or unknown kind, a
    missing field, a value that is not finite numbers, arrays whose shapes
    do not fit together, or a value out of its range (a fit option's rule
    in KINDS options, else _FIELD_RULES; scaler stds > 0) raise
    ConfigurationError naming the file and the key.  In KINDS shapes a
    letter is one length wherever it appears; p is the scaler's width and
    q = p + 1."""
    doc = read_json(path)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"model file {path}: cannot read schema_version {version!r}")
    kind = doc.get("kind")
    expected, ok = PREDICTOR_RULES["kind"]
    if not ok(kind):
        raise _file_error(path, "kind", f"must be {expected}, got {kind!r}")
    if not isinstance(doc.get("scaler"), dict):
        raise _file_error(path, "scaler", "is missing or not an object")
    sizes = {}
    values = {"scaler": InputScaler(read_checked(path, doc["scaler"], "mean", "p", sizes),
                                    read_checked(path, doc["scaler"], "std", "p", sizes))}
    if not np.all(values["scaler"].std > 0):
        raise _file_error(path, "std", "must hold numbers > 0 only")
    sizes["q"] = (sizes["p"][0] + 1, "mean")
    shapes, rules = KINDS[kind].shapes, {**_FIELD_RULES, **KINDS[kind].options}
    for f in fields(KINDS[kind].model):
        if f.name != "scaler":
            value = read_checked(path, doc, f.name, shapes.get(f.name), sizes)
            values[f.name] = tuple(value.tolist()) if f.type == "tuple" else value
            if f.name in rules and not rules[f.name][1](values[f.name]):
                raise _file_error(path, f.name,
                                  f"must be {rules[f.name][0]}, got {values[f.name]!r}")
    return KINDS[kind].model(**values)
