"""Difficulty scoring: every construction yields a ScoreTable over all ids.

Difficulty is canonically -log p(true class); larger means harder. Sorting a
ScoreTable ascending therefore puts the easiest examples first, which is the
only property the sequencer relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, EmbeddingTable, build_from_file, read_id_rows, write_csv
from .errors import ParameterError
from .trainer import Model, ModelSpec


@dataclass(frozen=True)
class ScoreTable:
    scores: np.ndarray  # difficulty per example id
    warnings: tuple[str, ...] = ()  # e.g. a transfer probe that did not converge

    def __post_init__(self):
        s = np.array(self.scores, dtype=np.float64, order="C")
        if s.ndim != 1 or len(s) == 0:
            raise ParameterError("scores must be a non-empty 1-D array")
        if not np.isfinite(s).all():
            raise ParameterError("scores contain non-finite values")
        object.__setattr__(self, "scores", s)
        s.setflags(write=False)

    def __len__(self) -> int:
        return len(self.scores)


def score_by_model_loss(ds: Dataset, model: Model) -> ScoreTable:
    """Cross-entropy loss of the model on each example."""
    if model.d != ds.d:
        raise ParameterError(f"model expects d={model.d}, dataset has d={ds.d}")
    return ScoreTable(model.example_losses(ds.X, ds.y))


def random_score(ds: Dataset, seed: int) -> ScoreTable:
    """Random permutation of {0..N-1} as scores: sorting is a uniform shuffle."""
    rng = np.random.default_rng(seed)
    return ScoreTable(rng.permutation(ds.N).astype(np.float64))


def invert(t: ScoreTable) -> ScoreTable:
    """Negate scores, turning a curriculum ordering into anti-curriculum."""
    return ScoreTable(-t.scores, t.warnings)


def oracle_bayes_score(ds: Dataset) -> ScoreTable:
    """-log exact Bayes posterior of the true class (synthetic datasets only)."""
    if ds.bayes is None:
        raise ParameterError("dataset carries no mixture metadata; oracle scoring unavailable")
    logp = ds.bayes.log_posteriors(ds.X)
    return ScoreTable(-logp[np.arange(ds.N), ds.y])


# probe settings for transfer scoring: full-batch GD on a convex objective,
# stopped on a gradient-sup-norm tolerance
_PROBE_LR = 1.0
_PROBE_TOL = 1e-5
_PROBE_MAX_ITER = 2000
SCORE_CLAMP = 50.0


def _fit_probe(E: np.ndarray, y: np.ndarray, K: int) -> tuple[Model, float]:
    """The probe and its gradient sup-norm; it converged iff that is below
    `_PROBE_TOL`, which may take up to `_PROBE_MAX_ITER` steps."""
    probe = Model.zeros(ModelSpec("linear_softmax"), K, E.shape[1])
    for _ in range(_PROBE_MAX_ITER):
        _, grad = probe.loss_and_grad(E, y)
        sup = float(np.abs(grad).max())
        if sup < _PROBE_TOL:
            return probe, sup
        probe.params -= _PROBE_LR * grad
    return probe, float(np.abs(probe.loss_and_grad(E, y)[1]).max())


def transfer_score(ds: Dataset, emb: EmbeddingTable, folds: int, seed: int) -> ScoreTable:
    """Out-of-fold confidence of a linear probe trained on external embeddings.

    Stratified k-fold: each example is scored by -log of the probability a
    probe trained on the other folds assigns to its true label, clamped to
    [0, 50]. A fold whose probe stops at the iteration cap unconverged is
    named in the table's `warnings`.
    """
    if emb.N != ds.N:
        raise ParameterError(f"embedding table covers {emb.N} ids, dataset has {ds.N}")
    if folds < 2:
        raise ParameterError(f"folds must be >= 2, got {folds}")
    min_class = int(ds.class_counts.min())
    if folds > min_class:
        raise ParameterError(f"folds={folds} exceeds smallest class count {min_class}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(ds.N, dtype=np.int64)
    for c in range(ds.K):
        ids_c = rng.permutation(np.flatnonzero(ds.y == c))
        fold_of[ids_c] = np.arange(len(ids_c)) % folds
    scores = np.empty(ds.N, dtype=np.float64)
    warnings = []
    for f in range(folds):
        held = fold_of == f
        probe, sup = _fit_probe(emb.vectors[~held], ds.y[~held], ds.K)
        if sup >= _PROBE_TOL:
            warnings.append(f"transfer probe of fold {f} did not converge in "
                            f"{_PROBE_MAX_ITER} iterations (gradient sup-norm {sup:.3e}, "
                            f"tolerance {_PROBE_TOL:g})")
        losses = probe.example_losses(emb.vectors[held], ds.y[held])
        scores[held] = np.clip(losses, 0.0, SCORE_CLAMP)
    return ScoreTable(scores, tuple(warnings))


# ---------------------------------------------------------------------------
# CSV interchange: "id,score" at full float precision
# ---------------------------------------------------------------------------

def save_scores_csv(table: ScoreTable, path) -> None:
    write_csv(path, ["id", "score"], [np.arange(len(table)), table.scores])


def load_scores_csv(path) -> ScoreTable:
    """Load a score table from CSV with header id,score: the rules of
    `read_id_rows`, and finite scores."""
    rows = read_id_rows(path, ("id", "score"), None, lambda fields: float(fields[0]))
    return build_from_file(path, ScoreTable, np.array(rows, dtype=np.float64))
