"""Synthetic cohorts of randomly-timed biomarker trajectories.

Subjects are drawn i.i.d. (hence exchangeable), with known ground truth:
a latent progressor flag and a per-subject true slope.  Trajectories follow

    y_t = baseline + (slope + eta) * t + eps_t,

with eta a per-subject slope perturbation and eps_t i.i.d. observation
noise.  Visit times are drawn without replacement from {1..horizon} and
sorted, so they are strictly increasing integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, SubjectRecord
from .errors import ConfigurationError


@dataclass(frozen=True)
class GroupSpec:
    column: str
    categories: tuple
    probs: tuple
    # optional per-category modifiers, keyed by category
    noise_multipliers: dict = field(default_factory=dict)
    progressor_rates: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.categories) != len(self.probs):
            raise ConfigurationError(f"group {self.column}: categories/probs length mismatch")
        for p in self.probs:
            if isinstance(p, bool) or not (isinstance(p, (int, float)) and 0 <= p <= 1):
                raise ConfigurationError(
                    f"group {self.column}: prob {p!r} is not a number in [0, 1]")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ConfigurationError(f"group {self.column}: probabilities must sum to 1")


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
        if self.n_subjects < 1:
            raise ConfigurationError("n_subjects must be positive")
        if self.visits_mean < 1:
            raise ConfigurationError("visits_mean must be >= 1")
        if self.direction not in ("decreasing", "increasing"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
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
    subjects = []
    truth = {}
    for i in range(cfg.n_subjects):
        labels = {}
        noise_mult = 1.0
        prog_rate = cfg.progressor_frac
        for gs in cfg.group_spec:
            cat = gs.categories[rng.choice(len(gs.categories), p=np.asarray(gs.probs))]
            labels[gs.column] = cat
            noise_mult *= gs.noise_multipliers.get(cat, 1.0)
            if cat in gs.progressor_rates:
                prog_rate = gs.progressor_rates[cat]

        is_prog = bool(rng.random() < prog_rate)
        slope = cfg.slope_progressor if is_prog else cfg.slope_stable
        slope += rng.normal(0.0, cfg.heterogeneity_std)

        features = rng.standard_normal(cfg.feature_dim)
        if cfg.feature_dim > 0 and is_prog:
            features[0] += cfg.feature_signal
        baseline = float(rng.standard_normal())

        horizon = cfg.max_time
        if cfg.varying_horizon:
            horizon = int(rng.integers(min(cfg.min_horizon, cfg.max_time), cfg.max_time + 1))
        n_visits = 1 + rng.poisson(cfg.visits_mean - 1.0)
        n_visits = min(n_visits, horizon)
        times = np.sort(rng.choice(np.arange(1, horizon + 1), size=n_visits, replace=False))

        noise = rng.normal(0.0, cfg.noise_std * noise_mult, size=n_visits)
        values = baseline + slope * times + noise
        sid = f"s{i:05d}"
        subjects.append(SubjectRecord(
            sid, features, labels, baseline,
            tuple((int(t), float(y)) for t, y in zip(times, values))))
        truth[sid] = {"is_progressor": is_prog, "true_slope": float(slope)}

    feature_names = tuple(f"f{j}" for j in range(cfg.feature_dim))
    group_columns = tuple(gs.column for gs in cfg.group_spec)
    return Dataset(tuple(subjects), feature_names, group_columns), truth
