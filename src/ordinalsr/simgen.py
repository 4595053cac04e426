"""Seeded simulation generators for ordinal-treatment trials.

Covariates are Uniform[-1, 1]^p, arms uniform over 1..K, and outcomes are
Normal(mu(X) - effect_scale * loss(A, D*(X)), 1).  Ten shipped settings: P1-P6 have
parallel decision boundaries driven by a common index of X1..X5; N7-N10 have
nonparallel boundaries (circles, parabola, square/ellipse) in (X1, X2).
Boundary parameters and mu(X) are package constants; the benchmark manifest
records them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TrialDataset, _check_integer, _feature_rows, _whole_numbers
from .exceptions import DataError

__all__ = [
    "SettingSpec",
    "SETTINGS",
    "get_setting",
    "true_optimal",
    "loss",
    "mean_effect",
    "generate",
]


@dataclass(frozen=True)
class SettingSpec:
    id: str
    k_arms: int
    p: int
    loss_kind: str  # 'absolute' or 'quadratic'
    kind: str  # 'parallel', 'quadratic-index', or a nonparallel geometry tag
    params: tuple = ()
    effect_scale: float = 1.0  # multiplier on the loss inside the outcome mean

    def with_noise(self, p):
        """Pad with pure-noise covariates up to dimension p (signal dims unchanged)."""
        _check_integer("p", p, self.p)  # the covariate dimension cannot shrink
        return replace(self, p=p)


_P_WEIGHTS = (1.0, 1.0, 0.5, 0.5, 0.5)

# Loss multiplier inside the outcome mean.  The shipped value reproduces the
# treatment-effect-to-noise ratio implied by the reference benchmarks (value
# drops of roughly 5 outcome units per unit of misclassification across
# methods); it is recorded in every benchmark manifest.
DEFAULT_EFFECT_SCALE = 5.0

SETTINGS = {
    # parallel linear index with shifted thresholds; intercepts vary so the
    # class-1 share ranges from ~10% (P2) to >60% (P3)
    "P1": SettingSpec("P1", 3, 5, "absolute", "parallel", (-0.5, 0.5), DEFAULT_EFFECT_SCALE),
    "P2": SettingSpec("P2", 3, 5, "absolute", "parallel", (-1.2, 0.0), DEFAULT_EFFECT_SCALE),
    "P3": SettingSpec("P3", 3, 5, "absolute", "parallel", (0.3, 1.2), DEFAULT_EFFECT_SCALE),
    "P4": SettingSpec("P4", 3, 5, "absolute", "parallel", (-0.8, 0.8), DEFAULT_EFFECT_SCALE),
    "P5": SettingSpec("P5", 4, 5, "absolute", "parallel", (-0.8, 0.0, 0.8), DEFAULT_EFFECT_SCALE),
    # parallel level sets of a quadratic index, quadratic loss
    "P6": SettingSpec("P6", 3, 5, "quadratic", "quadratic-index", (1.2, 2.2), DEFAULT_EFFECT_SCALE),
    # quarter circle + parabola on the unit-square view u = (x+1)/2
    "N7": SettingSpec("N7", 3, 2, "absolute", "quarter-parabola", (0.64, 0.3), DEFAULT_EFFECT_SCALE),
    # concentric circles, expanding radius
    "N8": SettingSpec("N8", 3, 2, "absolute", "circles", (0.4, 1.2), DEFAULT_EFFECT_SCALE),
    # inner square, outer ellipse
    "N9": SettingSpec("N9", 3, 2, "absolute", "square-ellipse", (0.5, 1.21, 0.64), DEFAULT_EFFECT_SCALE),
    "N10": SettingSpec("N10", 4, 2, "absolute", "circles", (0.25, 0.7, 1.3), DEFAULT_EFFECT_SCALE),
}


def get_setting(setting_id, p=None) -> SettingSpec:
    try:
        spec = SETTINGS[setting_id]
    except KeyError:
        raise DataError(f"unknown setting id {setting_id!r}") from None
    return spec.with_noise(p) if p is not None else spec


def true_optimal(spec: SettingSpec, X) -> np.ndarray:
    """Optimal arm in 1..K from boundary membership; vectorized over rows of
    spec.p finite features (a vector is one row), else DataError."""
    X = _feature_rows(X, spec.p)
    if spec.kind == "parallel":
        z = X[:, :5] @ np.array(_P_WEIGHTS)
        return 1 + np.sum(z[:, None] > np.array(spec.params)[None, :], axis=1)
    if spec.kind == "quadratic-index":
        q = np.sum(X[:, :5] ** 2, axis=1)
        return 1 + np.sum(q[:, None] > np.array(spec.params)[None, :], axis=1)
    if spec.kind == "circles":
        r2 = X[:, 0] ** 2 + X[:, 1] ** 2
        return 1 + np.sum(r2[:, None] > np.array(spec.params)[None, :], axis=1)
    if spec.kind == "quarter-parabola":
        r2_cut, par_shift = spec.params
        u = (X[:, :2] + 1.0) / 2.0
        inner = u[:, 0] ** 2 + u[:, 1] ** 2 < r2_cut
        below = u[:, 1] < u[:, 0] ** 2 - par_shift
        return np.where(inner, 1, np.where(below, 3, 2))
    if spec.kind == "square-ellipse":
        half, a2, b2 = spec.params
        in_square = np.maximum(np.abs(X[:, 0]), np.abs(X[:, 1])) < half
        in_ellipse = X[:, 0] ** 2 / a2 + X[:, 1] ** 2 / b2 < 1.0
        return np.where(in_square, 1, np.where(in_ellipse, 2, 3))
    raise DataError(f"unknown setting kind {spec.kind!r}")


def loss(spec: SettingSpec, assigned, optimal):
    """Outcome penalty for a nonoptimal arm: |a-d| or (a-d)^2; DataError
    unless assigned and optimal are equal-shaped arrays of arms in 1..K."""
    a, d = _whole_numbers("assigned", assigned), _whole_numbers("optimal", optimal)
    if a.shape != d.shape:
        raise DataError(f"assigned and optimal arms differ in shape: {a.shape}, {d.shape}")
    if np.any(a < 1) or np.any(a > spec.k_arms) or np.any(d < 1) or np.any(d > spec.k_arms):
        raise DataError("arms outside 1..K")
    diff = np.abs(a - d)
    return diff if spec.loss_kind == "absolute" else diff**2


def mean_effect(spec: SettingSpec, X) -> np.ndarray:
    """Main effect mu(X): 5 + X1 + 2 X2 for parallel settings, constant 5
    otherwise; DataError unless X holds finite rows of spec.p features."""
    X = _feature_rows(X, spec.p)
    if spec.kind in ("parallel", "quadratic-index"):
        return 5.0 + X[:, 0] + 2.0 * X[:, 1]
    return np.full(X.shape[0], 5.0)


def generate(spec: SettingSpec, n, seed) -> TrialDataset:
    """Draw a fully reproducible trial of size n under uniform randomization."""
    _check_integer("n", n, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, spec.p))
    A = rng.integers(1, spec.k_arms + 1, size=n)
    d_star = true_optimal(spec, X)
    Y = (
        mean_effect(spec, X)
        - spec.effect_scale * loss(spec, A, d_star)
        + rng.standard_normal(n)
    )
    return TrialDataset(
        features=X,
        treatment=A,
        outcome=Y,
        k_arms=spec.k_arms,
        propensity=np.full(n, 1.0 / spec.k_arms),
        true_optimal=d_star,
    )
