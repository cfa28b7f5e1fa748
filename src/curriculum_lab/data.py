"""Datasets: synthetic Gaussian mixtures, CSV ingestion, stratified splits.

Examples carry contiguous integer ids 0..N-1 so score tables and embedding
tables can be plain arrays indexed by id.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataLoadError, ParameterError


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def largest_remainder_quotas(counts: np.ndarray, total: int) -> np.ndarray:
    """Proportional integer quotas for `total` drawn from groups of size `counts`.

    Floor quotas first, then the remainder goes to the largest fractional
    parts, ties broken by ascending group index.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if not 0 <= total <= n:
        raise ParameterError(f"quota total {total} out of range [0, {n}]")
    exact = total * counts / n
    quotas = np.floor(exact).astype(np.int64)
    remainder = total - int(quotas.sum())
    if remainder > 0:
        frac = exact - quotas
        # sort by (-frac, index): largest fractional part first, ties to low index
        order = np.lexsort((np.arange(len(counts)), -frac))
        quotas[order[:remainder]] += 1
    return quotas


class Example(NamedTuple):
    id: int
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class BayesMixture:
    """Ground-truth parameters of an isotropic Gaussian mixture.

    Sufficient to compute exact class posteriors for any point, which gives
    an oracle difficulty score for controlled experiments.
    """

    means: np.ndarray        # (K, d)
    variance: float          # shared isotropic variance
    class_priors: np.ndarray  # (K,)

    def log_posteriors(self, X: np.ndarray) -> np.ndarray:
        """log p(class | x) for each row of X, shape (n, K)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        sq = ((X[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        logits = -sq / (2.0 * self.variance) + np.log(self.class_priors)[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(logits).sum(axis=1))
        return logits - log_norm[:, None]

    def to_json(self) -> dict:
        return {
            "means": self.means.tolist(),
            "variance": float(self.variance),
            "class_priors": self.class_priors.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BayesMixture":
        return cls(
            means=np.asarray(obj["means"], dtype=np.float64),
            variance=float(obj["variance"]),
            class_priors=np.asarray(obj["class_priors"], dtype=np.float64),
        )


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors with stable contiguous ids.

    Immutable after construction; safe to share across threads read-only.
    """

    X: np.ndarray            # (N, d) float64
    y: np.ndarray            # (N,) int64 labels in [0, K)
    K: int
    bayes: BayesMixture | None = None

    def __post_init__(self):
        # private copies: the dataset freezes its arrays, never the caller's
        X = np.array(self.X, dtype=np.float64, order="C")
        y = np.array(self.y, dtype=np.int64, order="C")
        if X.ndim != 2 or len(y) != X.shape[0]:
            raise ParameterError("features must be (N, d) with one label per row")
        if X.shape[0] == 0:
            raise ParameterError("dataset must contain at least one example")
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if y.min() < 0 or y.max() >= self.K:
            raise ParameterError(f"labels must lie in [0, {self.K})")
        counts = np.bincount(y, minlength=self.K)
        if (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ParameterError(f"empty class {empty}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.K)

    def example(self, i: int) -> Example:
        return Example(i, self.X[i], int(self.y[i]))

    def examples(self) -> Iterator[Example]:
        for i in range(self.N):
            yield self.example(i)


@dataclass(frozen=True)
class EmbeddingTable:
    """External feature vectors, one row per example id of the paired Dataset."""

    vectors: np.ndarray  # (N, e) float64

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.float64, order="C")
        if v.ndim != 2 or v.shape[0] == 0:
            raise ParameterError("embedding table must be a non-empty (N, e) matrix")
        if not np.isfinite(v).all():
            raise ParameterError("embedding table contains non-finite values")
        object.__setattr__(self, "vectors", v)
        v.setflags(write=False)

    @property
    def N(self) -> int:
        return self.vectors.shape[0]

    @property
    def e(self) -> int:
        return self.vectors.shape[1]


def generate_gaussian_mixture(K: int, d: int, n_per_class: int, spread: float,
                              seed: int) -> Dataset:
    """Sample a balanced K-class isotropic Gaussian mixture.

    Class means are drawn once from a standard normal; class c's examples are
    mean_c + spread * N(0, I). Deterministic given seed, and the returned
    Dataset carries the exact mixture parameters for Bayes-oracle scoring.
    """
    if K < 2:
        raise ParameterError(f"K must be >= 2, got {K}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if n_per_class < 1:
        raise ParameterError(f"n_per_class must be >= 1, got {n_per_class}")
    if not spread > 0:
        raise ParameterError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(K, d))
    X = np.empty((K * n_per_class, d), dtype=np.float64)
    y = np.empty(K * n_per_class, dtype=np.int64)
    for c in range(K):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        X[rows] = means[c] + spread * rng.normal(size=(n_per_class, d))
        y[rows] = c
    bayes = BayesMixture(means=means, variance=float(spread) ** 2,
                         class_priors=np.full(K, 1.0 / K))
    return Dataset(X=X, y=y, K=K, bayes=bayes)


def stratified_split_ids(ds: Dataset, fraction: float,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids of each side of `stratified_split`, ascending."""
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    counts = ds.class_counts
    target = round_half_up(fraction * ds.N)
    quotas = largest_remainder_quotas(counts, target)
    for c in range(ds.K):
        if quotas[c] < 1 or quotas[c] > counts[c] - 1:
            raise ParameterError(
                f"fraction {fraction} leaves class {c} empty on one side "
                f"(quota {int(quotas[c])} of {int(counts[c])})")
    rng = np.random.default_rng(seed)
    train_mask = np.zeros(ds.N, dtype=bool)
    for c in range(ds.K):
        ids_c = np.flatnonzero(ds.y == c)
        picked = rng.permutation(ids_c)[: quotas[c]]
        train_mask[picked] = True
    return np.flatnonzero(train_mask), np.flatnonzero(~train_mask)


def select_examples(ds: Dataset, ids: np.ndarray) -> Dataset:
    """The examples `ids` of `ds`, re-indexed to contiguous ids, with the
    parent's Bayes metadata."""
    return Dataset(X=ds.X[ids], y=ds.y[ids], K=ds.K, bayes=ds.bayes)


def stratified_split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split per class: floor quotas plus largest-remainder, ties to low class id.

    `fraction` is the first (train) side. Within each class, membership is a
    seeded permutation; both sides are re-indexed to contiguous ids and keep
    the parent's Bayes metadata.
    """
    train_ids, val_ids = stratified_split_ids(ds, fraction, seed)
    return select_examples(ds, train_ids), select_examples(ds, val_ids)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def save_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "label"] + [f"f{j}" for j in range(ds.d)])
        for i in range(ds.N):
            w.writerow([i, int(ds.y[i])] + [_fmt(v) for v in ds.X[i]])


def load_dataset_csv(path) -> Dataset:
    """Load a dataset from CSV with header id,label,f0,...,f{d-1}.

    Rejects malformed rows, duplicate or non-contiguous ids, and label sets
    with empty classes, naming the offender in the error message.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"{path}: empty file")
        d = len(header) - 2
        if d < 1 or header[:2] != ["id", "label"] or header[2:] != [f"f{j}" for j in range(d)]:
            raise DataLoadError(f"{path}: bad header {header!r}, expected id,label,f0,...")
        rows: dict[int, tuple[int, list[float]]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataLoadError(f"{path}: row {lineno} has {len(row)} fields, expected {d + 2}")
            try:
                i = int(row[0])
                label = int(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataLoadError(f"{path}: row {lineno} is malformed: {exc}") from exc
            if i in rows:
                raise DataLoadError(f"{path}: duplicate id {i}")
            if label < 0:
                raise DataLoadError(f"{path}: row {lineno} has negative label {label}")
            rows[i] = (label, feats)
    if not rows:
        raise DataLoadError(f"{path}: no data rows")
    n = len(rows)
    if sorted(rows) != list(range(n)):
        missing = sorted(set(range(n)) - set(rows))[:3]
        raise DataLoadError(f"{path}: ids are not contiguous 0..{n - 1} (missing {missing})")
    y = np.array([rows[i][0] for i in range(n)], dtype=np.int64)
    X = np.array([rows[i][1] for i in range(n)], dtype=np.float64)
    K = int(y.max()) + 1
    counts = np.bincount(y, minlength=K)
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise DataLoadError(f"{path}: empty class {empty}")
    return Dataset(X=X, y=y, K=K)


def save_embeddings_csv(emb: EmbeddingTable, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id"] + [f"e{j}" for j in range(emb.e)])
        for i in range(emb.N):
            w.writerow([i] + [_fmt(v) for v in emb.vectors[i]])


def load_embeddings_csv(path) -> EmbeddingTable:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataLoadError(f"{path}: empty file")
        e = len(header) - 1
        if e < 1 or header != ["id"] + [f"e{j}" for j in range(e)]:
            raise DataLoadError(f"{path}: bad header {header!r}, expected id,e0,...")
        rows: dict[int, list[float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != e + 1:
                raise DataLoadError(f"{path}: row {lineno} has {len(row)} fields, expected {e + 1}")
            try:
                i = int(row[0])
                vec = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataLoadError(f"{path}: row {lineno} is malformed: {exc}") from exc
            if i in rows:
                raise DataLoadError(f"{path}: duplicate id {i}")
            rows[i] = vec
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise DataLoadError(f"{path}: ids are not contiguous 0..{n - 1}")
    return EmbeddingTable(vectors=np.array([rows[i] for i in range(n)], dtype=np.float64))


def save_bayes_json(bayes: BayesMixture, path) -> None:
    with open(path, "w") as f:
        json.dump(bayes.to_json(), f, sort_keys=True, indent=2)
        f.write("\n")


def load_bayes_json(path) -> BayesMixture:
    with open(path) as f:
        return BayesMixture.from_json(json.load(f))
