"""Synthetic cohorts of randomly-timed biomarker trajectories.

Subjects are drawn i.i.d. (hence exchangeable), with known ground truth:
a latent progressor flag and a per-subject true slope.  Trajectories follow

    y_t = baseline + (slope + eta) * t + eps_t,

with eta a per-subject slope perturbation and eps_t i.i.d. observation
noise.  Visit times are drawn without replacement from {1..horizon} and
sorted, so they are strictly increasing integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .data_model import CSV_COLUMNS, MAX_TIME, Dataset, _offsets
from .errors import ConfigurationError, check_rules, is_finite, is_int, is_number
from .risk import RISK_RULES


@dataclass(frozen=True)
class GroupSpec:
    column: str
    categories: tuple
    probs: tuple
    # optional per-category modifiers, keyed by category
    noise_multipliers: dict = field(default_factory=dict)
    progressor_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.column, str):
            raise ConfigurationError(f"group {self.column!r}: column must be a string")
        for key in ("categories", "probs"):       # a list, as JSON gives it, is kept as a tuple
            if isinstance(getattr(self, key), list):
                object.__setattr__(self, key, tuple(getattr(self, key)))
        if not (isinstance(self.categories, tuple)
                and all(isinstance(c, str) for c in self.categories)):
            raise ConfigurationError(f"group {self.column}: categories must be a list of "
                                     f"strings, got {self.categories!r}")
        if not isinstance(self.probs, tuple):
            raise ConfigurationError(f"group {self.column}: probs must be a list, "
                                     f"got {self.probs!r}")
        if len(self.categories) != len(self.probs):
            raise ConfigurationError(f"group {self.column}: categories/probs length mismatch")
        for p in self.probs:
            if not (is_number(p) and 0 <= p <= 1):
                raise ConfigurationError(
                    f"group {self.column}: prob {p!r} is not a number in [0, 1]")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigurationError(f"group {self.column}: probabilities must sum to 1")
        for key, expected, ok in (
                ("noise_multipliers", "a positive finite number",
                 lambda v: is_finite(v) and v > 0),
                ("progressor_rates", "a number in [0, 1]",
                 lambda v: is_number(v) and 0 <= v <= 1)):
            per_category = getattr(self, key)
            if not isinstance(per_category, dict):
                raise ConfigurationError(f"group {self.column}: {key} must be an object "
                                         f"keyed by category, got {per_category!r}")
            for cat, v in per_category.items():
                if cat not in self.categories:
                    raise ConfigurationError(
                        f"group {self.column}: {key} names undeclared category {cat!r}")
                if not ok(v):
                    raise ConfigurationError(
                        f"group {self.column}: {key}[{cat!r}] {v!r} is not {expected}")


# field -> (what it must be, test), for every field but seed and group_spec
# (GroupSpec checks its own).  A visit time beyond MAX_TIME would not load back.
SYNTH_RULES = {
    "n_subjects": ("an int >= 1", lambda v: is_int(v) and v >= 1),
    "feature_dim": ("an int >= 0", lambda v: is_int(v) and v >= 0),
    "max_time": ("an int >= 1 and at most 2**53 - 1",
                 lambda v: is_int(v) and 1 <= v <= MAX_TIME),
    "visits_mean": ("a finite number >= 1 and at most 2**53 - 1",
                    lambda v: is_number(v) and 1 <= v <= MAX_TIME),
    "noise_std": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "progressor_frac": ("a number in [0, 1]", lambda v: is_number(v) and 0 <= v <= 1),
    "slope_stable": ("a finite number", is_finite),
    "slope_progressor": ("a finite number", is_finite),
    "heterogeneity_std": ("a finite number >= 0", lambda v: is_finite(v) and v >= 0),
    "feature_signal": ("a finite number", is_finite),
    "direction": RISK_RULES["direction"],
    "varying_horizon": ("true or false", lambda v: isinstance(v, bool)),
    "min_horizon": ("an int >= 1", lambda v: is_int(v) and v >= 1),
}


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int
    feature_dim: int = 4
    max_time: int = 120
    visits_mean: float = 5.0
    noise_std: float = 0.25
    progressor_frac: float = 0.3
    slope_stable: float = -0.002
    slope_progressor: float = -0.015
    heterogeneity_std: float = 0.002
    feature_signal: float = 1.0      # shift of feature 0 for progressors
    group_spec: tuple = ()           # tuple of GroupSpec
    direction: str = "decreasing"
    varying_horizon: bool = True     # per-subject follow-up length, mimics real cohorts
    min_horizon: int = 12
    seed: int = 0

    def __post_init__(self):
        check_rules(SYNTH_RULES, {key: getattr(self, key) for key in SYNTH_RULES})
        if self.n_subjects * self.visits_mean > 10 ** 7:     # expected visit rows
            raise ConfigurationError(
                "n_subjects * visits_mean must be at most 10**7 expected visit rows, "
                f"got {self.n_subjects} * {self.visits_mean!r}")
        if self.n_subjects * self.feature_dim > 10 ** 7:     # generated feature values
            raise ConfigurationError(
                "n_subjects * feature_dim must be at most 10**7 feature values, "
                f"got {self.n_subjects} * {self.feature_dim}")
        written = set(CSV_COLUMNS)    # and f0 ... f{d-1}
        for gs in self.group_spec:
            # a feature column's index has at most 8 digits (feature_dim <= 10**7)
            feature = re.fullmatch("f(0|[1-9][0-9]{0,7})", gs.column)
            if gs.column in written or (feature and int(feature[1]) < self.feature_dim):
                raise ConfigurationError(f"group {gs.column}: column {gs.column!r} is "
                                         "already a column of the generated cohort CSV")
            written.add(gs.column)
        sign = -1.0 if self.direction == "decreasing" else 1.0
        if sign * self.slope_progressor <= sign * self.slope_stable:
            raise ConfigurationError(
                "slope_progressor must be steeper than slope_stable in the "
                f"{self.direction} direction")


def generate(cfg: SynthConfig):
    """Generate an exchangeable cohort and its ground truth.

    Returns (Dataset, truth) where truth maps subject_id ->
    {"is_progressor": bool, "true_slope": float}.
    """
    rng = np.random.default_rng(cfg.seed)
    features, baselines, times, values, codes = [], [], [], [], []
    truth = {}
    for i in range(cfg.n_subjects):
        row_codes = []
        noise_mult = 1.0
        prog_rate = cfg.progressor_frac
        for gs in cfg.group_spec:
            code = rng.choice(len(gs.categories), p=np.asarray(gs.probs))
            cat = gs.categories[code]
            row_codes.append(code)
            noise_mult *= gs.noise_multipliers.get(cat, 1.0)
            if cat in gs.progressor_rates:
                prog_rate = gs.progressor_rates[cat]

        is_prog = bool(rng.random() < prog_rate)
        slope = cfg.slope_progressor if is_prog else cfg.slope_stable
        slope += rng.normal(0.0, cfg.heterogeneity_std)

        x = rng.standard_normal(cfg.feature_dim)
        if cfg.feature_dim > 0 and is_prog:
            x[0] += cfg.feature_signal
        baseline = float(rng.standard_normal())

        horizon = cfg.max_time
        if cfg.varying_horizon:
            horizon = int(rng.integers(min(cfg.min_horizon, cfg.max_time), cfg.max_time + 1))
        n_visits = 1 + rng.poisson(cfg.visits_mean - 1.0)
        n_visits = min(n_visits, horizon)
        # the draw of choice(arange(1, horizon + 1)) without its O(horizon) array
        t = np.sort(rng.choice(horizon, size=n_visits, replace=False) + 1)

        noise = rng.normal(0.0, cfg.noise_std * noise_mult, size=n_visits)
        features.append(x)
        baselines.append(baseline)
        times.append(t)
        values.append(baseline + slope * t + noise)
        codes.append(row_codes)
        truth[f"s{i:05d}"] = {"is_progressor": is_prog, "true_slope": float(slope)}

    n, groups = cfg.n_subjects, len(cfg.group_spec)
    return Dataset(subject_ids=tuple(truth), features=np.reshape(features, (n, cfg.feature_dim)),
                   baseline=baselines, offsets=_offsets(list(map(len, times))),
                   times=np.concatenate(times), values=np.concatenate(values),
                   group_codes=np.reshape(codes, (n, groups)).astype(np.intp),
                   group_categories=tuple(tuple(gs.categories) for gs in cfg.group_spec),
                   feature_names=tuple(f"f{j}" for j in range(cfg.feature_dim)),
                   group_columns=tuple(gs.column for gs in cfg.group_spec)), truth
