"""Difficulty scoring: every construction yields a ScoreTable over all ids.

Difficulty is canonically -log p(true class); larger means harder. Sorting a
ScoreTable ascending therefore puts the easiest examples first, which is the
only property the sequencer relies on.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import Dataset, EmbeddingTable, build_from_file, read_id_rows, write_csv
from .errors import NumericalError, ParameterError
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


# transfer probe: L-BFGS (Liu & Nocedal, 1989) with Armijo backtracking on
# the unregularised mean softmax cross-entropy, stopped on a gradient-sup-norm
# tolerance or after _PROBE_MAX_ITER accepted steps
_PROBE_TOL = 1e-5
_PROBE_MAX_ITER = 2000
_PROBE_HISTORY = 10  # (s, y) pairs kept
_PROBE_ARMIJO = 1e-4  # sufficient-decrease constant
_PROBE_MAX_HALVINGS = 40  # step halvings before a line search gives up
SCORE_CLAMP = 50.0


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """-H grad by the two-loop recursion over the stored (s, y, s.y) pairs,
    with the initial inverse Hessian scaled by s.y / y.y of the newest pair."""
    q = grad.copy()
    alphas = []
    for s, yv, sy in reversed(pairs):
        a = (s @ q) / sy
        q -= a * yv
        alphas.append(a)
    if pairs:
        s, yv, sy = pairs[-1]
        q *= sy / (yv @ yv)
    for (s, yv, sy), a in zip(pairs, reversed(alphas)):
        q += (a - (yv @ q) / sy) * s
    return -q


def _probe_eval(probe: Model, x: np.ndarray, E: np.ndarray, y: np.ndarray):
    """Loss and gradient of the probe at parameters x; an infinite loss where
    the logits are non-finite."""
    probe.params[:] = x
    try:
        return probe.loss_and_grad(E, y)
    except NumericalError:
        return np.inf, None


# past the float range, a slope or trial point is a step the line search rejects
@np.errstate(over="ignore", invalid="ignore")
def _fit_probe(E: np.ndarray, y: np.ndarray, K: int) -> tuple[Model, float, int]:
    """The probe, its gradient sup-norm and its accepted L-BFGS steps.

    It converged iff the sup-norm is below `_PROBE_TOL`. Otherwise it stopped
    at `_PROBE_MAX_ITER` steps, or when `_PROBE_MAX_HALVINGS` halvings found
    no step with sufficient decrease (a trial with non-finite logits or an
    infinite loss counts as none). A pair with s.y <= 0 is not stored, and a
    direction that does not descend resets the history to the gradient.
    """
    probe = Model.zeros(ModelSpec("linear_softmax"), K, E.shape[1])
    x = probe.params.copy()
    loss, grad = probe.loss_and_grad(E, y)
    pairs = deque(maxlen=_PROBE_HISTORY)
    for step in range(_PROBE_MAX_ITER + 1):
        sup = float(np.abs(grad).max())
        if sup < _PROBE_TOL or step == _PROBE_MAX_ITER:
            return probe, sup, step
        direction = _lbfgs_direction(grad, pairs)
        slope = float(grad @ direction)
        if not slope < 0:
            pairs.clear()
            direction, slope = -grad, -float(grad @ grad)
        t = 1.0
        for _ in range(_PROBE_MAX_HALVINGS):
            trial = x + t * direction
            trial_loss, trial_grad = _probe_eval(probe, trial, E, y)
            if trial_loss <= loss + _PROBE_ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            probe.params[:] = x
            return probe, sup, step
        s, yv = trial - x, trial_grad - grad
        sy = float(s @ yv)
        if sy > 0:
            pairs.append((s, yv, sy))
        x, loss, grad = trial, trial_loss, trial_grad


def transfer_score(ds: Dataset, emb: EmbeddingTable, folds: int, seed: int) -> ScoreTable:
    """Out-of-fold confidence of a linear probe trained on external embeddings.

    Stratified k-fold: each example is scored by -log of the probability a
    probe trained on the other folds assigns to its true label, clamped to
    [0, 50]. Each probe minimises the unregularised mean cross-entropy by
    L-BFGS (`_fit_probe`); a fold whose probe stops with its gradient
    sup-norm at or above `_PROBE_TOL` is named in the table's `warnings`.
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
        probe, sup, steps = _fit_probe(emb.vectors[~held], ds.y[~held], ds.K)
        if sup >= _PROBE_TOL:
            warnings.append(f"transfer probe of fold {f} did not converge in "
                            f"{steps} iterations (gradient sup-norm {sup:.3e}, "
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
