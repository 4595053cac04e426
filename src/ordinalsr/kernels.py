"""Linear and Gaussian RBF kernels, Gram matrices, and the median bandwidth heuristic."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import _check_integer, _feature_rows
from .exceptions import DataError

__all__ = ["KernelSpec", "gram_matrix", "median_bandwidth"]

MEDIAN_SUBSAMPLE_CAP = 1000


@dataclass(frozen=True)
class KernelSpec:
    """kind is 'linear' or 'gaussian'; bandwidth is the Gaussian sigma."""

    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            # gram_matrix divides by 2 * bandwidth**2, which must be finite and nonzero
            bw = self.bandwidth
            if (not isinstance(bw, numbers.Real) or isinstance(bw, bool)
                    or not (bw > 0 and 0 < 2.0 * bw * bw < math.inf)):
                raise DataError(f"gaussian bandwidth must be > 0, with a finite square: {bw!r}")


def _squared_distances(A, B, out=None, cross=None) -> np.ndarray:
    """Squared Euclidean distances between rows of A and rows of B, floored at 0.

    |a|^2 + |b|^2 comes first and 2 a'b is subtracted in place, so at most two
    result-sized blocks are alive at once: out and cross, new unless given.
    """
    out = np.add(np.sum(A**2, axis=1)[:, None], np.sum(B**2, axis=1)[None, :], out=out)
    cross = np.matmul(A, B.T, out=cross)
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _gaussian_from_squared(sq, bandwidth, out=None) -> np.ndarray:
    """exp(-sq / (2 bandwidth^2)) into out (a new array unless given; may be sq)."""
    out = np.negative(sq, out=out)
    out /= 2.0 * bandwidth**2
    return np.exp(out, out=out)


def _gram_into(spec: KernelSpec, A, B, out=None, cross=None) -> np.ndarray:
    """gram_matrix(spec, A, B) for float arrays, written into out; cross is the
    Gaussian's scratch block.  Both are new arrays unless given."""
    if spec.kind == "linear":
        return np.matmul(A, B.T, out=out)
    sq = _squared_distances(A, B, out, cross)
    return _gaussian_from_squared(sq, spec.bandwidth, out=sq)


def gram_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """m x q matrix of kernel values between rows of A and rows of B; DataError
    unless both hold finite rows of the same number of features."""
    A, B = _feature_rows(A, None), _feature_rows(B, None)
    if A.shape[1] != B.shape[1]:
        raise DataError("gram_matrix column counts differ")
    return _gram_into(spec, A, B)


def median_bandwidth(X, seed=0) -> float:
    """Median pairwise Euclidean distance, subsampled to at most 1000 rows.

    The subsample is deterministic under the given seed, an integer >= 0.
    """
    _check_integer("seed", seed, 0)
    X = _feature_rows(X, None)
    if X.shape[0] < 2:
        raise DataError("median_bandwidth needs at least two rows")
    if X.shape[0] > MEDIAN_SUBSAMPLE_CAP:
        idx = np.random.default_rng(seed).choice(
            X.shape[0], MEDIAN_SUBSAMPLE_CAP, replace=False
        )
        X = X[np.sort(idx)]
    return _median_distance(_squared_distances(X, X))


def _median_distance(sq) -> float:
    """Median of sqrt(sq) above the diagonal of an m x m (m >= 2) matrix of squared
    distances; the roots and the median's partition run in place on one copy."""
    pairs = sq[np.triu(np.ones(sq.shape, dtype=bool), k=1)]
    med = float(np.median(np.sqrt(pairs, out=pairs), overwrite_input=True))
    if med <= 0:
        raise DataError("all rows identical; median bandwidth undefined")
    return med
