"""Difficulty scoring: every construction yields a ScoreTable over all ids.

Difficulty is canonically -log p(true class); larger means harder. Sorting a
ScoreTable ascending therefore puts the easiest examples first, which is the
only property the sequencer relies on.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, EmbeddingTable
from .errors import DataLoadError, ExperimentError, ParameterError, \
    TrainingDivergedError
from .pacing import PacingSpec
from .seeding import BATCH, INIT, SCORE, derived_seed
from .sequencer import build_plan
from .trainer import Model, ModelSpec, train_stack


@dataclass(frozen=True)
class ScoreTable:
    scores: np.ndarray  # difficulty per example id
    provenance: str
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
    return ScoreTable(model.example_losses(ds.X, ds.y), "model_loss")


def random_score(ds: Dataset, seed: int) -> ScoreTable:
    """Random permutation of {0..N-1} as scores: sorting is a uniform shuffle."""
    rng = np.random.default_rng(seed)
    return ScoreTable(rng.permutation(ds.N).astype(np.float64), "random")


def invert(t: ScoreTable) -> ScoreTable:
    """Negate scores, turning a curriculum ordering into anti-curriculum."""
    return ScoreTable(-t.scores, f"invert({t.provenance})", t.warnings)


def oracle_bayes_score(ds: Dataset) -> ScoreTable:
    """-log exact Bayes posterior of the true class (synthetic datasets only)."""
    if ds.bayes is None:
        raise ParameterError("dataset carries no mixture metadata; oracle scoring unavailable")
    logp = ds.bayes.log_posteriors(ds.X)
    return ScoreTable(-logp[np.arange(ds.N), ds.y], "oracle_bayes")


def self_taught_score(ds: Dataset, config: ExperimentConfig, seeds,
                      schedules=None) -> list:
    """Train one vanilla model per seed to completion, all seeds in one stack,
    then score by each final model's loss.

    `config` supplies the model, learning-rate schedule, batch size and
    iteration count; `schedules`, when given, holds one schedule per seed in
    place of the config's, so the scorers of several grid cells train as one
    stack. Seed derivation matches the experiment harness, so each table
    equals the one an explicit vanilla run with that base seed would induce.
    A seed whose model diverges gets an `ExperimentError` in place of its
    table.
    """
    pacing = PacingSpec(variant="vanilla", N=ds.N, M=config.iterations)
    # the seeded random order of a vanilla run in the harness
    plans = [build_plan(ds, random_score(ds, derived_seed(seed, SCORE)), pacing,
                        config.batch_size, seed=derived_seed(seed, BATCH)) for seed in seeds]
    outcomes = train_stack(ds, ds, plans, schedules or [config.schedule] * len(plans),
                           config.model_spec, [derived_seed(seed, INIT) for seed in seeds],
                           record_every=config.iterations)
    return [ExperimentError(f"self-taught scorer of seed {seed} diverged at iteration "
                            f"{outcome.iteration}")
            if isinstance(outcome, TrainingDivergedError)
            else ScoreTable(score_by_model_loss(ds, outcome[0]).scores, "self_taught")
            for seed, outcome in zip(seeds, outcomes)]


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
    return ScoreTable(scores, "transfer", tuple(warnings))


# ---------------------------------------------------------------------------
# CSV interchange: "id,score" at full float precision
# ---------------------------------------------------------------------------

def save_scores_csv(table: ScoreTable, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "score"])
        for i, s in enumerate(table.scores):
            w.writerow([i, repr(float(s))])


def load_scores_csv(path) -> ScoreTable:
    rows: dict[int, float] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["id", "score"]:
            raise DataLoadError(f"{path}: bad header {header!r}, expected id,score")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataLoadError(f"{path}: row {lineno} has {len(row)} fields, expected 2")
            try:
                i, s = int(row[0]), float(row[1])
            except ValueError as exc:
                raise DataLoadError(f"{path}: row {lineno} is malformed: {exc}") from exc
            if i in rows:
                raise DataLoadError(f"{path}: duplicate id {i}")
            rows[i] = s
    n = len(rows)
    if n == 0 or sorted(rows) != list(range(n)):
        raise DataLoadError(f"{path}: score ids are not contiguous 0..{n - 1}")
    return ScoreTable(np.array([rows[i] for i in range(n)]), f"file:{path}")
