"""Trial data containers, CSV ingestion, covariate scaling, and utility outcomes.

The canonical CSV layout is ``x1,...,xp,a,y[,prop][,d_star]`` with a header
row.  Treatments are integer arm labels in ``1..K`` where arm 1 is the least
intensive (reference) arm.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError

__all__ = [
    "TrialDataset",
    "ScalingParams",
    "load_csv",
    "save_csv",
    "fit_scaling",
    "apply_scaling",
    "compute_utility",
]


# load_csv reads these header names as the non-feature columns
_RESERVED_COLUMNS = ("a", "y", "prop", "d_star")


def _check_integer(name, value, low):
    """DataError unless value is an integer >= low; bools are not integers here."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise DataError(f"{name} must be an integer >= {low}, not {value!r}")


_MAX_EXACT_INT = 2.0**53


def _whole_numbers(name, values):
    """values as an int array; DataError unless all are whole numbers below 2**53."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{name} labels must be numbers") from None
    whole = (np.abs(v) < _MAX_EXACT_INT) & (np.trunc(v) == v)  # NaN fails both
    if not whole.all():
        raise DataError(f"{name} label {v[~whole][0]:g} is not a whole number below 2**53")
    return v.astype(int)


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TrialDataset:
    """Immutable per-subject trial data.

    propensity holds P(A_i | X_i) for the *observed* arm; when absent the
    dataset is treated as uniformly randomized with constant 1/K.
    """

    features: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    k_arms: int
    propensity: np.ndarray | None = None
    true_optimal: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain non-finite values")
        a = _whole_numbers("treatment", self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        n = X.shape[0]
        if a.shape != (n,) or y.shape != (n,):
            raise DataError("treatment/outcome length does not match features")
        _check_integer("k_arms", self.k_arms, 2)
        if n and (a.min() < 1 or a.max() > self.k_arms):
            raise DataError(
                f"treatment labels must lie in 1..{self.k_arms}, "
                f"got range [{a.min()}, {a.max()}]"
            )
        if not np.all(np.isfinite(y)):
            raise DataError("outcomes contain non-finite values")
        prop = self.propensity
        if prop is not None:
            prop = np.asarray(prop, dtype=float)
            if prop.shape != (n,):
                raise DataError("propensity length mismatch")
            if not np.all((prop > 0) & (prop <= 1)):  # NaN fails too
                raise DataError("propensities must lie in (0, 1]")
            prop = _readonly(prop)
        opt = self.true_optimal
        if opt is not None:
            opt = _whole_numbers("true_optimal", opt)
            if opt.shape != (n,):
                raise DataError("true_optimal length mismatch")
            if n and (opt.min() < 1 or opt.max() > self.k_arms):
                raise DataError("true_optimal labels outside 1..K")
            opt = _readonly(opt)
        names = tuple(self.feature_names) or tuple(
            f"x{j + 1}" for j in range(X.shape[1])
        )
        if len(names) != X.shape[1]:
            raise DataError("feature_names length mismatch")
        if len(set(names)) != len(names) or set(names) & set(_RESERVED_COLUMNS):
            raise DataError(f"feature names must be distinct and not in {_RESERVED_COLUMNS}: {names}")
        object.__setattr__(self, "features", _readonly(X))
        object.__setattr__(self, "treatment", _readonly(a))
        object.__setattr__(self, "outcome", _readonly(y))
        object.__setattr__(self, "propensity", prop)
        object.__setattr__(self, "true_optimal", opt)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def p(self):
        return self.features.shape[1]

    def effective_propensity(self):
        """Observed-arm propensities, defaulting to uniform 1/K when absent."""
        if self.propensity is not None:
            return self.propensity
        return np.full(self.n, 1.0 / self.k_arms)

    def relabel_reversed(self):
        """Map arm k to K+1-k, for trials whose reference arm is the most intensive."""
        opt = None
        if self.true_optimal is not None:
            opt = self.k_arms + 1 - self.true_optimal
        return TrialDataset(
            features=self.features,
            treatment=self.k_arms + 1 - self.treatment,
            outcome=self.outcome,
            k_arms=self.k_arms,
            propensity=self.propensity,
            true_optimal=opt,
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature [min, max] ranges mapped onto [-1, 1]."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise DataError("scaling min/max must be 1-D and equal length")
        if np.any(maxs < mins):
            raise DataError("scaling max < min")
        object.__setattr__(self, "mins", _readonly(mins))
        object.__setattr__(self, "maxs", _readonly(maxs))

    @property
    def p(self):
        return self.mins.shape[0]

    @property
    def degenerate(self):
        """True for a constant training column, which apply_scaling maps to 0."""
        return self.maxs == self.mins


def fit_scaling(data) -> ScalingParams:
    """Learn per-feature min/max from training features (matrix or TrialDataset)."""
    X = data.features if isinstance(data, TrialDataset) else np.asarray(data, float)
    if X.shape[0] < 1:
        raise DataError("cannot fit scaling on an empty dataset")
    return ScalingParams(mins=X.min(axis=0), maxs=X.max(axis=0))


def apply_scaling(params: ScalingParams, features) -> np.ndarray:
    """Affine map of each column onto [-1, 1]; out-of-range values are not clipped.

    Degenerate (constant) training columns map to 0.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != params.p:
        raise DataError(f"expected {params.p} features, got {X.shape[1]}")
    span = params.maxs - params.mins
    safe = np.where(params.degenerate, 1.0, span)
    out = 2.0 * (X - params.mins) / safe - 1.0
    out[:, params.degenerate] = 0.0
    return out


def _read_text(path, newline=None):
    """The whole file as a string; DataError if it is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return io.StringIO(text, newline=newline)


def compute_utility(benefit, risk, b):
    """Risk-discounted utility U = G - b * R (b >= 0 trades one risk unit for b benefit units)."""
    if b < 0:
        raise DataError("trade-off parameter b must be >= 0")
    return np.asarray(benefit, dtype=float) - b * np.asarray(risk, dtype=float)


def load_csv(path, k_arms=None, reverse_arms=False) -> TrialDataset:
    """Read the canonical trial CSV.

    Columns: x1..xp (any names not in {a, y, prop, d_star} are features, in
    file order), a, y, optional prop, optional d_star.  Header names are
    taken as written, surrounding spaces included.  K defaults to the largest
    observed treatment label.
    """
    with _read_text(path, newline="") as fh:
        try:
            header, *records = csv.reader(fh)
        except ValueError:  # no header row to unpack
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{path}: unreadable CSV ({exc})") from None
    feat_cols = [i for i, h in enumerate(header) if h not in _RESERVED_COLUMNS]
    col = {h: i for i, h in enumerate(header)}
    if "a" not in col or "y" not in col or len(col) != len(header):
        raise DataError(f"{path}: header must contain 'a' and 'y' and no name twice")
    rows_x, rows_a, rows_y, rows_p, rows_d = [], [], [], [], []
    for lineno, row in enumerate(records, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
        try:
            rows_x.append([float(row[i]) for i in feat_cols])
            rows_a.append(float(row[col["a"]]))
            rows_y.append(float(row[col["y"]]))
            if "prop" in col:
                rows_p.append(float(row[col["prop"]]))
            if "d_star" in col:
                rows_d.append(float(row[col["d_star"]]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
    if not rows_a:
        raise DataError(f"{path}: no data rows")
    treatment = _whole_numbers("treatment", rows_a)
    k = k_arms if k_arms is not None else int(treatment.max())
    data = TrialDataset(
        features=np.array(rows_x, dtype=float).reshape(len(rows_a), len(feat_cols)),
        treatment=treatment,
        outcome=np.array(rows_y),
        k_arms=k,
        propensity=np.array(rows_p) if rows_p else None,
        true_optimal=np.array(rows_d) if rows_d else None,
        feature_names=tuple(header[i] for i in feat_cols),
    )
    if reverse_arms:
        data = data.relabel_reversed()
    return data


def save_csv(data: TrialDataset, path):
    """Write a TrialDataset back to the canonical CSV layout (repr round-trip exact)."""
    columns = {"a": data.treatment, "y": data.outcome, "prop": data.propensity,
               "d_star": data.true_optimal}
    columns = {name: col.tolist() for name, col in columns.items() if col is not None}
    rows = ([*x, *rest] for x, *rest in zip(data.features.tolist(), *columns.values()))
    _write_csv(path, [*data.feature_names, *columns], rows)


def _write_csv(path, header, rows):
    """One CSV table: floats as repr(float(v)), None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                "" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else v
                for v in row
            )
