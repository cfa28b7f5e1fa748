"""Gradient coherence: per-example gradient statistics of an id subset.

Per subset: the mean per-example gradient and the total variance (trace of
the per-example gradient covariance, divide-by-n), whole-model and per layer.
No (n, P) gradient matrix is built: a
layer's per-example gradient is [r_j a_j^T, r_j] for its output residual r_j
and input a_j, so its squared norm is ||r_j||^2 (||a_j||^2 + 1) (Goodfellow,
arXiv 1510.01799), and variance = mean squared norm - ||mean||^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ParameterError
from .trainer import Model


@dataclass(frozen=True)
class GradientSet:
    n: int                           # examples in the set
    mean: np.ndarray                 # (P,) mean flat gradient
    sq_norms: tuple[float, ...]      # per segment: mean squared per-example norm
    segments: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        if self.n < 1 or mean.ndim != 1 or len(self.sq_norms) != len(self.segments):
            raise ParameterError("gradient set needs n >= 1, a flat mean and one norm per segment")
        if not (np.isfinite(mean).all() and np.isfinite(self.sq_norms).all()):
            raise ParameterError("gradient set contains non-finite values")
        object.__setattr__(self, "mean", mean)


def gradient_set(model: Model, ids, ds: Dataset) -> GradientSet:
    """Mean gradient and per-segment mean squared norms of the examples `ids`
    (repeats count once per occurrence), from one forward pass."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if n == 0:
        raise ParameterError("ids must be non-empty")
    means, sq_norms = [], []
    for r, a in model._gradient_factors(ds.X[ids], ds.y[ids]):
        means += [(r.T @ a).ravel() / n, r.sum(axis=0) / n]
        norms = np.einsum("ij,ij->i", r, r) * (np.einsum("ij,ij->i", a, a) + 1.0)
        sq_norms.append(float(norms.mean()))
    return GradientSet(n=n, mean=np.concatenate(means), sq_norms=tuple(sq_norms),
                       segments=model.segments)


def total_variance(gs: GradientSet) -> tuple[float, dict[str, float]]:
    """Trace of the per-example gradient covariance (divide-by-n), plus the
    per-layer breakdown, which sums to the whole-model value. A zero variance
    that rounding takes below 0 is clamped to 0."""
    per_layer = {name: max(sq - float(gs.mean[start:stop] @ gs.mean[start:stop]), 0.0)
                 for (name, start, stop), sq in zip(gs.segments, gs.sq_norms)}
    return float(sum(per_layer.values())), per_layer
