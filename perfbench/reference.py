"""The benchmark's own implementations, kept apart from the program.

File formats, the stratified split, seed derivation, oracle difficulty, the
embedding generator, softmax losses and per-example gradient norms are
written here from their definitions, so that the checks compare the
program's outputs against an independent computation rather than against
the program itself.
"""
from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

# roles of the program's documented seed derivation (seed, role) -> sub-seed
SPLIT = 3
SUBSET = 4


class Data(NamedTuple):
    X: np.ndarray
    y: np.ndarray


def derived_seed(base: int, role: int) -> int:
    return int(np.random.SeedSequence([int(base), int(role)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_curve(path) -> dict[str, list]:
    """A learning-curve CSV as columns; header iteration,train_loss,test_acc,subset_size,lr."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    if header != ["iteration", "train_loss", "test_acc", "subset_size", "lr"]:
        raise ValueError(f"{path}: unexpected curve header {header!r}")
    cols = list(zip(*body))
    return {"iteration": [int(v) for v in cols[0]],
            "train_loss": [float(v) for v in cols[1]],
            "test_acc": [float(v) for v in cols[2]],
            "subset_size": [int(v) for v in cols[3]],
            "lr": [float(v) for v in cols[4]]}


def read_scores_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["id", "score"]:
        raise ValueError(f"{path}: unexpected score header {rows[0]!r}")
    ids = [int(r[0]) for r in rows[1:]]
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: ids are not 0..{len(ids) - 1} in order")
    return np.array([float(r[1]) for r in rows[1:]])


def read_dataset_csv(path) -> Data:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    ids = [int(r[0]) for r in rows[1:]]
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: ids are not 0..{len(ids) - 1} in order")
    return Data(X=np.array([[float(v) for v in r[2:]] for r in rows[1:]]),
                y=np.array([int(r[1]) for r in rows[1:]], dtype=np.int64))


def write_dataset_csv(ds: Data, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "label"] + [f"f{j}" for j in range(ds.X.shape[1])])
        for i, (x, label) in enumerate(zip(ds.X, ds.y)):
            w.writerow([i, int(label)] + [repr(float(v)) for v in x])


def write_embeddings_csv(E: np.ndarray, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id"] + [f"e{j}" for j in range(E.shape[1])])
        for i, row in enumerate(E):
            w.writerow([i] + [repr(float(v)) for v in row])


def make_embeddings(X: np.ndarray, seed: int, dim: int, noise: float) -> np.ndarray:
    """A seeded noisy nonlinear projection of the features:
    tanh(Z A / sqrt(d) + c) + noise * N(0, 1), with Z the standardized
    features, A ~ N(0, 1) of shape (d, dim) and c ~ U(-0.5, 0.5)."""
    rng = np.random.default_rng(seed)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    A = rng.normal(size=(X.shape[1], dim))
    c = rng.uniform(-0.5, 0.5, size=dim)
    return np.tanh(Z @ A / math.sqrt(X.shape[1]) + c) + noise * rng.normal(size=(len(X), dim))


# ---------------------------------------------------------------------------
# splits and subsets
# ---------------------------------------------------------------------------

def largest_remainder_quotas(counts: np.ndarray, total: int) -> np.ndarray:
    """Floor quotas of total * count / sum, the remainder to the largest
    fractional parts, ties to the lower group index."""
    counts = np.asarray(counts, dtype=np.int64)
    exact = [total * int(c) / int(counts.sum()) for c in counts]
    quotas = [math.floor(e) for e in exact]
    order = sorted(range(len(counts)), key=lambda g: (-(exact[g] - quotas[g]), g))
    for g in order[:total - sum(quotas)]:
        quotas[g] += 1
    return np.array(quotas, dtype=np.int64)


def stratified_split(ds: Data, fraction: float, seed: int) -> tuple[Data, Data]:
    """Per class, a seeded permutation picks the first side's quota; both
    sides keep ascending original order."""
    K = int(ds.y.max()) + 1
    counts = np.bincount(ds.y, minlength=K)
    quotas = largest_remainder_quotas(counts, math.floor(fraction * len(ds.y) + 0.5))
    rng = np.random.default_rng(seed)
    first = np.zeros(len(ds.y), dtype=bool)
    for c in range(K):
        first[rng.permutation(np.flatnonzero(ds.y == c))[:quotas[c]]] = True
    pick = lambda mask: Data(X=ds.X[mask], y=ds.y[mask])
    return pick(first), pick(~first)


def easiest_balanced(scores: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """The `size` easiest ids by (score, id), class-balanced by quota."""
    K = int(y.max()) + 1
    quotas = largest_remainder_quotas(np.bincount(y, minlength=K), size)
    parts = []
    for c in range(K):
        ids = np.flatnonzero(y == c)
        parts.append(ids[np.lexsort((ids, scores[ids]))][:quotas[c]])
    return np.sort(np.concatenate(parts))


# ---------------------------------------------------------------------------
# models and scores
# ---------------------------------------------------------------------------

def _logsumexp(Z: np.ndarray) -> np.ndarray:
    m = Z.max(axis=1)
    return m + np.log(np.exp(Z - m[:, None]).sum(axis=1))


def oracle_difficulty(X: np.ndarray, y: np.ndarray, means: np.ndarray, spread: float) -> np.ndarray:
    """-log p(true class | x) under the isotropic mixture with equal priors."""
    Z = -((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2) / (2.0 * spread ** 2)
    return _logsumexp(Z) - Z[np.arange(len(y)), y]


def softmax_losses(W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy per example of the linear softmax model."""
    Z = X @ W.T + b
    return _logsumexp(Z) - Z[np.arange(len(y)), y]


def mlp_mean_loss(params: tuple, X: np.ndarray, y: np.ndarray) -> float:
    W1, b1, W2, b2 = params
    Z = np.maximum(X @ W1.T + b1, 0.0) @ W2.T + b2
    return float((_logsumexp(Z) - Z[np.arange(len(y)), y]).mean())


def mlp_gradient_stats(params: tuple, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean gradient (flat W1, b1, W2, b2) and total variance of the
    per-example gradients of a one-hidden-layer ReLU softmax network.

    Per layer with input a_j and output residual r_j the per-example
    gradient is r_j (x) [a_j, 1], so ||g_j||^2 = ||r_j||^2 (||a_j||^2 + 1);
    total variance = mean_j ||g_j||^2 - ||mean_j g_j||^2.
    """
    W1, b1, W2, b2 = params
    n = len(y)
    z1 = X @ W1.T + b1
    a1 = np.maximum(z1, 0.0)
    Z = a1 @ W2.T + b2
    r2 = np.exp(Z - _logsumexp(Z)[:, None])
    r2[np.arange(n), y] -= 1.0
    r1 = (r2 @ W2) * (z1 > 0)
    sq = ((r1 ** 2).sum(axis=1) * ((X ** 2).sum(axis=1) + 1.0)
          + (r2 ** 2).sum(axis=1) * ((a1 ** 2).sum(axis=1) + 1.0))
    mean = np.concatenate([(r1.T @ X).ravel() / n, r1.mean(axis=0),
                           (r2.T @ a1).ravel() / n, r2.mean(axis=0)])
    return mean, float(sq.mean() - mean @ mean)


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation, ties given their average rank."""
    def ranks(v):
        _vals, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        starts = np.cumsum(counts) - counts
        return (starts + (counts - 1) / 2.0)[inverse]
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


# ---------------------------------------------------------------------------
# utility-landscape theory
# ---------------------------------------------------------------------------

def draw_theory_tables(seed: int, count: int):
    """Loss tables (T x n, uniform in [0, 5]) with normalized positive priors."""
    rng = np.random.default_rng([seed, 1])
    for _ in range(count):
        T, n = int(rng.integers(2, 51)), int(rng.integers(1, 21))
        weights = rng.uniform(0.0, 1.0, size=n) + 1e-9
        yield rng.uniform(0.0, 5.0, size=(T, n)), weights / weights.sum()


def direct_residual(L: np.ndarray, p: np.ndarray) -> float:
    """max_t |sum_i U_ti p_i - mean_i U_ti - sum_i (U_ti - mean U_t)(p_i - mean p)|."""
    worst = 0.0
    for u in np.exp(-L):
        value = sum(u * p) - u.mean() - sum((u - u.mean()) * (p - p.mean()))
        worst = max(worst, abs(float(value)))
    return worst
