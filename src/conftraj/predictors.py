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
from dataclasses import dataclass, field, fields
from itertools import accumulate
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .data_model import Dataset
from .errors import ConfigurationError, DataError, NumericalError

log = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-3

_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


@dataclass(frozen=True)
class InputScaler:
    """Column-wise standardization of the [x; t] design matrix."""
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, Z):
        mean = Z.mean(axis=0)
        std = Z.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean, std)

    def apply(self, Z):
        return (np.asarray(Z, dtype=float) - self.mean) / self.std


def subject_row(s):
    """Model input vector for one subject: covariates plus baseline."""
    return np.concatenate([s.features, [s.baseline_value]])


def visit_rows(subjects, times):
    """Inputs X = [x; baseline] and t for each time in each subject's list of
    times, and the row offsets: subject i owns rows offsets[i]:offsets[i + 1]."""
    counts = [len(ts) for ts in times]
    X = np.repeat([subject_row(s) for s in subjects], counts, axis=0)
    return X, np.concatenate(times), list(accumulate(counts, initial=0))


def design_matrix(train: Dataset):
    """Rows [x; baseline; t] and targets at every visit, and the row offsets."""
    if not train.scored_subjects():
        raise DataError("training set has no visit rows")
    X, t, offsets = visit_rows(train.subjects, [s.visit_times for s in train.subjects])
    targets = [y for s in train.subjects for y in s.visit_values]
    return np.column_stack([X, t]), np.asarray(targets, dtype=float), np.asarray(offsets)


# ---------------------------------------------------------------------------
# Gaussian process (exact inference, RBF kernel)

@dataclass(frozen=True)
class GpModel:
    scaler: InputScaler
    Z: np.ndarray                 # standardized training inputs
    y: np.ndarray
    signal_var: float
    lengthscale: float
    noise_var: float
    L: np.ndarray                 # Cholesky factor of K + noise_var I (+ jitter)
    alpha: np.ndarray             # (K + noise_var I)^-1 y
    log_marginal: float
    K_inv: np.ndarray = field(init=False)   # (K + noise_var I)^-1 from L, reused across queries

    def __post_init__(self):
        L_inv = np.linalg.inv(self.L)
        object.__setattr__(self, "K_inv", L_inv.T @ L_inv)


def _sqdist(Z1, Z2):
    d2 = (np.sum(Z1 ** 2, axis=1)[:, None] + np.sum(Z2 ** 2, axis=1)[None, :]
          - 2.0 * Z1 @ Z2.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _rbf(Z1, Z2, signal_var, lengthscale):
    return signal_var * np.exp(-0.5 * _sqdist(Z1, Z2) / lengthscale ** 2)


def _chol_with_jitter(A):
    for jit in _JITTERS:
        try:
            return np.linalg.cholesky(A + jit * np.eye(len(A))), jit
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("Cholesky failed at maximum jitter 1e-4")


def _gp_factor(Z, y, signal_var, lengthscale, noise_var):
    """Cholesky factor, alpha, log marginal likelihood and the jitter used."""
    K = _rbf(Z, Z, signal_var, lengthscale)
    L, jitter = _chol_with_jitter(K + noise_var * np.eye(len(Z)))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    lml = (-0.5 * float(y @ alpha) - float(np.sum(np.log(np.diag(L))))
           - 0.5 * len(y) * math.log(2.0 * math.pi))
    return L, alpha, lml, jitter


def _median_heuristic(Z, rng):
    m = min(len(Z), 256)
    sub = Z[rng.choice(len(Z), size=m, replace=False)] if len(Z) > m else Z
    d = np.sqrt(_sqdist(sub, sub)[np.triu_indices(m, k=1)])
    med = float(np.median(d)) if len(d) else 1.0
    return med if med > 0 else 1.0


def _grid_log_marginals(Z, y, lengthscales, signal_vars, noise_vars):
    """(lml, ls, sv, nv) for every grid point, in (ls, sv, nv) order.

    For a fixed lengthscale, K + nv I = sv R + nv I shares the eigenvectors
    U of the unit-variance kernel R = U diag(lam) U^T, so with b = U^T y

        lml = -1/2 sum(b^2 / d) - 1/2 sum(log d) - n/2 log(2 pi),
        d = sv lam + nv,

    and each (sv, nv) pair costs O(n) after one eigendecomposition per
    lengthscale (Rasmussen & Williams 2006, sections 2.2 and 5.4).  A point
    whose spectrum is numerically singular (d.min() <= 1e-8 d.max(), e.g.
    a noiseless grid or duplicate rows) is scored by _gp_factor instead,
    which applies the Cholesky jitter ladder.  Also returns how many points
    took that fallback.
    """
    d2 = _sqdist(Z, Z)
    n = len(y)
    const = 0.5 * n * math.log(2.0 * math.pi)
    scored, n_fallback = [], 0
    for ls in lengthscales:
        lam, U = np.linalg.eigh(np.exp(-0.5 * d2 / ls ** 2))
        b2 = (U.T @ y) ** 2
        for sv in signal_vars:
            for nv in noise_vars:
                d = sv * lam + nv
                if d.min() <= 1e-8 * d.max():
                    lml = _gp_factor(Z, y, sv, ls, nv)[2]
                    n_fallback += 1
                else:
                    lml = (-0.5 * float(np.sum(b2 / d))
                           - 0.5 * float(np.sum(np.log(d))) - const)
                scored.append((lml, ls, sv, nv))
    return scored, n_fallback


def fit_gp(train: Dataset, lengthscales=None, signal_vars=None, noise_vars=None,
           max_points: int = 512, seed: int = 0) -> GpModel:
    """Fit an exact RBF GP by grid search over the log marginal likelihood.

    Default grids anchor the lengthscale at the median pairwise distance
    and the variances at the target variance.  Training rows beyond
    max_points are subsampled (seeded) to keep the cubic cost bounded.

    The grid is scored from one eigendecomposition of the kernel per
    lengthscale (see _grid_log_marginals); numerically singular points
    fall back to a jittered Cholesky factorization.  The first best point
    in (lengthscale, signal_var, noise_var) order is then factorized once
    with _gp_factor, which supplies the stored L, alpha and log marginal.
    """
    Zraw, y, _ = design_matrix(train)
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

    scored, n_fallback = _grid_log_marginals(Z, y, lengthscales, signal_vars,
                                             noise_vars)
    _, ls, sv, nv = max(scored, key=lambda g: g[0])   # first maximum wins
    L, alpha, lml, jitter = _gp_factor(Z, y, sv, ls, nv)
    log.debug("fit_gp: lengthscale=%.6g signal_var=%.6g noise_var=%.6g "
              "log_marginal=%.6f jitter=%g fallback_points=%d/%d",
              ls, sv, nv, lml, jitter, n_fallback, len(scored))
    return GpModel(scaler, Z, y, sv, ls, nv, L, alpha, lml)


def _gp_predict_batch(m: GpModel, Zq_raw):
    Zq = m.scaler.apply(Zq_raw)
    Ks = _rbf(m.Z, Zq, m.signal_var, m.lengthscale)
    mean = Ks.T @ m.alpha
    var = m.signal_var - np.sum(Ks * (m.K_inv @ Ks), axis=0) + m.noise_var
    std = np.sqrt(np.maximum(var, 0.0))
    return mean, np.maximum(std, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# Linear quantile regression (pinball loss, subgradient descent)

@dataclass(frozen=True)
class QuantileModel:
    scaler: InputScaler
    levels: tuple                 # strictly increasing, lo + hi == 1
    weights: np.ndarray           # (n_levels, p+1), bias last
    z_score: float


def pinball_loss(weights, Z1, y, levels):
    """Mean pinball loss summed over quantile levels; Z1 carries the bias column."""
    total = 0.0
    for w, q in zip(weights, levels):
        u = y - Z1 @ w
        total += float(np.mean(np.where(u >= 0, q * u, (q - 1.0) * u)))
    return total


def fit_quantile(train: Dataset, levels=(0.1, 0.5, 0.9), steps: int = 600,
                 learning_rate: float = 0.1) -> QuantileModel:
    """Minimize mean pinball loss by full-batch subgradient descent.

    Starts from zero weights; an update that increases the loss is
    reverted and the step size halved, so the recorded loss sequence is
    non-increasing.
    """
    levels = tuple(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("quantile levels must be strictly increasing")
    if abs(levels[0] + levels[-1] - 1.0) > 1e-9:
        raise ConfigurationError("outer quantile levels must satisfy lo + hi = 1")

    Zraw, y, _ = design_matrix(train)
    scaler = InputScaler.fit(Zraw)
    Z1 = np.column_stack([scaler.apply(Zraw), np.ones(len(y))])
    W = np.zeros((len(levels), Z1.shape[1]))

    # the per-level losses are separable, so each head descends on its own
    for k, q in enumerate(levels):
        w = W[k]
        lr = learning_rate
        loss = pinball_loss([w], Z1, y, (q,))
        for _ in range(steps):
            u = y - Z1 @ w
            grad = -Z1.T @ np.where(u >= 0, q, q - 1.0) / len(y)
            w_new = w - lr * grad
            loss_new = pinball_loss([w_new], Z1, y, (q,))
            if not math.isfinite(loss_new):
                raise NumericalError("quantile training diverged (non-finite loss)")
            if loss_new > loss:
                lr *= 0.5      # reject the step, keep the loss monotone
            else:
                w, loss = w_new, loss_new
                lr *= 1.1      # regrow so rejected steps do not stall descent
        W[k] = w
    conf = levels[-1] - levels[0]
    z = NormalDist().inv_cdf((1.0 + conf) / 2.0)
    return QuantileModel(scaler, levels, W, z)


def _quantile_predict_batch(m: QuantileModel, Zq_raw):
    Z1 = np.column_stack([m.scaler.apply(Zq_raw), np.ones(len(Zq_raw))])
    preds = Z1 @ m.weights.T            # (n, n_levels)
    preds = np.sort(preds, axis=1)      # monotone rearrangement repairs crossings
    mean = preds[:, len(m.levels) // 2]
    std = (preds[:, -1] - preds[:, 0]) / (2.0 * m.z_score)
    return mean, np.maximum(std, SIGMA_FLOOR)


# ---------------------------------------------------------------------------
# Bootstrap ridge ensemble

@dataclass(frozen=True)
class BootstrapModel:
    scaler: InputScaler
    members: np.ndarray           # (B, p+1) ridge weights, bias last
    ridge_lambda: float
    std_scale: float = 1.0        # deliberate std miscalibration, for experiments


def _ridge_solve(Z1, y, lam):
    penalty = lam * np.eye(Z1.shape[1])
    penalty[-1, -1] = 0.0         # intercept unpenalized
    A = Z1.T @ Z1 + penalty
    try:
        return np.linalg.solve(A, Z1.T @ y)
    except np.linalg.LinAlgError:
        raise NumericalError("singular ridge normal equations")


def fit_bootstrap(train: Dataset, B: int = 20, ridge_lambda: float = 1.0,
                  seed: int = 0, std_scale: float = 1.0) -> BootstrapModel:
    """Fit B closed-form ridge regressors on subject-level bootstrap resamples."""
    if B < 2:
        raise ConfigurationError("ensemble size B must be >= 2")
    if len(train.scored_subjects()) < 2:
        raise DataError("bootstrap fitting needs at least 2 training subjects with visits")
    Zraw, y, offsets = design_matrix(train)
    scaler = InputScaler.fit(Zraw)
    Z1 = np.column_stack([scaler.apply(Zraw), np.ones(len(y))])

    # resample subjects with visits; gather the picked row ranges in pick order
    lens = np.diff(offsets)
    starts, lens = offsets[:-1][lens > 0], lens[lens > 0]
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(B):
        picks = rng.choice(len(starts), size=len(starts), replace=True)
        n = lens[picks]
        ends = np.cumsum(n)
        rows = np.repeat(starts[picks] - ends + n, n) + np.arange(ends[-1])
        members.append(_ridge_solve(Z1[rows], y[rows], ridge_lambda))
    return BootstrapModel(scaler, np.asarray(members), ridge_lambda, std_scale)


def _bootstrap_predict_batch(m: BootstrapModel, Zq_raw):
    Z1 = np.column_stack([m.scaler.apply(Zq_raw), np.ones(len(Zq_raw))])
    preds = Z1 @ m.members.T            # (n, B)
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


KINDS = {
    "gp": Kind(GpModel, fit_gp, _gp_predict_batch,
               {"Z": "np", "y": "n", "L": "nn", "alpha": "n"}),
    "quantile": Kind(QuantileModel, fit_quantile, _quantile_predict_batch,
                     {"levels": "k", "weights": "kq"}),
    "bootstrap": Kind(BootstrapModel, fit_bootstrap, _bootstrap_predict_batch,
                      {"members": "Bq"}),
}


def _kind(name):
    if name not in KINDS:
        raise ConfigurationError(f"unknown predictor kind {name!r}")
    return KINDS[name]


def _kind_of(model):
    for name, kind in KINDS.items():
        if type(model) is kind.model:
            return name
    raise ConfigurationError(f"not a predictor model: {type(model).__name__}")


def predictor_options(kind: str):
    """Option names the fit of a predictor kind accepts (fit_predictor
    supplies train and seed itself)."""
    return set(inspect.signature(_kind(kind).fit).parameters) - {"train", "seed"}


def fit_predictor(kind: str, train: Dataset, seed: int = 0, **opts):
    """Fit a predictor of the given kind; a seeded fit also gets seed."""
    fit = _kind(kind).fit
    if "seed" in inspect.signature(fit).parameters:
        opts["seed"] = seed
    return fit(train, **opts)


def predict_batch(model, X, times):
    """(means, stds) for the rows of X paired element-wise with times.

    The one prediction call of every predictor.  Rejects rows whose width
    does not match the fitted model, and a std below SIGMA_FLOOR (or NaN).
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


def save_model(model, path):
    """Write the model's kind, its scaler and every other field it is built
    from as JSON (GpModel.K_inv is rebuilt from L on load)."""
    doc = {"kind": _kind_of(model), "schema_version": 1,
           "scaler": {"mean": _arr(model.scaler.mean), "std": _arr(model.scaler.std)}}
    for f in fields(model):
        if f.init and f.name != "scaler":
            value = getattr(model, f.name)
            doc[f.name] = _arr(value) if isinstance(value, (np.ndarray, tuple)) else value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _file_error(path, key, why):
    return ConfigurationError(f"model file {path}: key {key!r} {why}")


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


def load_model(path):
    """Read a model written by save_model.  A missing or unknown kind, a
    missing field, a value that is not finite numbers, or arrays whose
    shapes do not fit together raise ConfigurationError naming the file and
    the key.  In KINDS shapes a letter is one length wherever it appears; p
    is the scaler's width and q = p + 1."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise ConfigurationError(f"model file {path}: unsupported schema_version")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise _file_error(path, "kind", f"must be one of {', '.join(KINDS)}, got {kind!r}")
    if not isinstance(doc.get("scaler"), dict):
        raise _file_error(path, "scaler", "is missing or not an object")
    sizes = {}
    values = {"scaler": InputScaler(read_checked(path, doc["scaler"], "mean", "p", sizes),
                                    read_checked(path, doc["scaler"], "std", "p", sizes))}
    sizes["q"] = (sizes["p"][0] + 1, "mean")
    shapes = KINDS[kind].shapes
    for f in fields(KINDS[kind].model):
        if f.init and f.name != "scaler":
            value = read_checked(path, doc, f.name, shapes.get(f.name), sizes)
            values[f.name] = tuple(value.tolist()) if f.type == "tuple" else value
    try:
        return KINDS[kind].model(**values)
    except np.linalg.LinAlgError as exc:      # GpModel inverts L
        raise _file_error(path, "L", f"cannot be inverted ({exc})")
