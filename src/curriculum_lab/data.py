"""Datasets: synthetic Gaussian mixtures, CSV interchange, stratified splits.

Examples carry contiguous integer ids 0..N-1 so score tables and embedding
tables can be plain arrays indexed by id. `read_id_rows` is the one reader of
the id-keyed CSV inputs (datasets, embeddings, scores), `write_csv` the one
writer of every CSV artifact and `write_json` of every JSON artifact.
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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
        if not np.isfinite(X).all():
            raise ParameterError("features contain non-finite values")
        if self.K < 1:
            raise ParameterError(f"K must be >= 1, got {self.K}")
        if y.min() < 0 or y.max() >= self.K:
            raise ParameterError(f"labels must lie in [0, {self.K})")
        # the first empty class is below N + 1, as N examples cannot fill N + 1
        n = min(self.K, len(y) + 1)
        counts = np.bincount(y[y < n], minlength=n)
        if counts.min() == 0:
            raise ParameterError(f"empty class {counts.argmin()}")
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

@contextmanager
def open_input(path):
    """Open an input file for reading; a failure to read or decode it, here
    or while the caller reads, is a `DataLoadError` naming the path."""
    try:
        with open(path, newline="") as f:
            yield f
    except (OSError, UnicodeDecodeError) as exc:
        raise DataLoadError(f"{path}: cannot read file: {exc}") from exc


def write_csv(path, header: list[str], columns) -> None:
    """Write a CSV artifact: `header`, then one row per entry of `columns`,
    each an array of one value (1-D) or one block of values (2-D) per row.
    `tolist` makes an integer array Python ints and a float array Python
    floats, which csv writes as ints and as repr(float), exact to the bit."""
    blocks = [np.asarray(column).reshape(len(column), -1).tolist() for column in columns]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([v for block in row for v in block] for row in zip(*blocks))


def json_text(obj) -> str:
    """The text of a JSON artifact: keys sorted, indent 2, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    """Write a JSON artifact: `json_text` of `obj`."""
    Path(path).write_text(json_text(obj))


def _csv_rows(path, f):
    """csv.reader(f); a row it cannot parse is a `DataLoadError` naming its line."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as exc:  # a field past the size limit; a NUL byte on Python 3.10
        raise DataLoadError(f"{path}: line {reader.line_num} cannot be parsed: {exc}") from exc


def read_id_rows(path, fixed_columns: tuple[str, ...], stem: str | None, parse) -> list:
    """The rows of an id-keyed CSV file in id order, each as `parse` of the
    fields after its id.

    The rules every id-keyed input shares: the header is `fixed_columns`
    (starting with "id"), then, given a `stem`, stem0, stem1, ... (at least
    one); each row has one field per column; a field that int() (the id) or
    `parse` cannot read, a ValueError, names its row; ids are distinct and
    contiguous 0..N-1; and N >= 1. A breach, or a file that cannot be read,
    is a `DataLoadError` naming the path.
    """
    with open_input(path) as f:
        reader = _csv_rows(path, f)
        header = next(reader, None)
        if header is None:
            raise DataLoadError(f"{path}: empty file")
        extra = [f"{stem}{j}" for j in range(len(header) - len(fixed_columns))] if stem else []
        if header != [*fixed_columns, *extra] or (stem and not extra):
            expected = ",".join(fixed_columns) + (f",{stem}0,..." if stem else "")
            raise DataLoadError(f"{path}: bad header {header!r}, expected {expected}")
        rows = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataLoadError(
                    f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                i, value = int(row[0]), parse(row[1:])
            except ValueError as exc:
                raise DataLoadError(f"{path}: row {lineno} is malformed: {exc}") from exc
            if i in rows:
                raise DataLoadError(f"{path}: duplicate id {i}")
            rows[i] = value
    n = len(rows)
    if n == 0:
        raise DataLoadError(f"{path}: no data rows")
    if min(rows) != 0 or max(rows) != n - 1:
        missing = sorted(set(range(n)) - set(rows))[:3]
        raise DataLoadError(f"{path}: ids are not contiguous 0..{n - 1} (missing {missing})")
    return [rows[i] for i in range(n)]


def build_from_file(path, make, *args):
    """make(*args) for a table read from `path`; its `ParameterError` is a
    `DataLoadError` naming the path."""
    try:
        return make(*args)
    except ParameterError as exc:
        raise DataLoadError(f"{path}: {exc}") from exc


def _floats(fields: list[str]) -> np.ndarray:
    """float() of each field, as one float64 array: a row holds no Python
    float objects."""
    return np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))


def _labelled(fields: list[str]) -> tuple[int, np.ndarray]:
    label = int(fields[0])
    if not 0 <= label < 2**63:
        raise ValueError(f"label {label} outside [0, 2**63)")
    return label, _floats(fields[1:])


def save_dataset_csv(ds: Dataset, path) -> None:
    write_csv(path, ["id", "label"] + [f"f{j}" for j in range(ds.d)],
              [np.arange(ds.N), ds.y, ds.X])


def load_dataset_csv(path) -> Dataset:
    """Load a dataset from CSV with header id,label,f0,...,f{d-1}: the rules
    of `read_id_rows`, labels in [0, 2**63), and no empty class below the
    largest label."""
    labels, features = zip(*read_id_rows(path, ("id", "label"), "f", _labelled))
    y = np.array(labels, dtype=np.int64)
    return build_from_file(path, Dataset, np.array(features, dtype=np.float64), y,
                           int(y.max()) + 1)


def load_embeddings_csv(path) -> EmbeddingTable:
    """Load embeddings from CSV with header id,e0,...,e{e-1}: the rules of
    `read_id_rows`, and finite values."""
    rows = read_id_rows(path, ("id",), "e", _floats)
    return build_from_file(path, EmbeddingTable, np.array(rows, dtype=np.float64))


def load_bayes_json(path) -> BayesMixture:
    """Read a mixture written as `write_json` of `BayesMixture.to_json`; a
    malformed one is a `DataLoadError` naming the path."""
    with open_input(path) as f:
        text = f.read()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a huge integer or deep nesting
        raise DataLoadError(f"{path}: not valid JSON: {exc}") from exc
    keys = ("means", "variance", "class_priors")
    missing = [key for key in keys if not isinstance(obj, dict) or key not in obj]
    if missing:
        raise DataLoadError(f"{path}: missing key(s) {', '.join(missing)}")
    try:
        bayes = BayesMixture.from_json(obj)
    except (TypeError, ValueError) as exc:
        raise DataLoadError(f"{path}: malformed mixture: {exc}") from exc
    if not (math.isfinite(bayes.variance) and bayes.variance > 0):
        raise DataLoadError(f"{path}: variance must be finite and > 0, got {bayes.variance}")
    if bayes.means.ndim != 2:
        raise DataLoadError(f"{path}: means must be a (K, d) matrix, got shape {bayes.means.shape}")
    K = len(bayes.means)
    if bayes.class_priors.shape != (K,):
        raise DataLoadError(f"{path}: class_priors must hold {K} values, one per class, "
                            f"got shape {bayes.class_priors.shape}")
    return bayes
