"""Single-model conveniences for the tests, built on the package's stacked
engine: one row of `train_stack`, one row's batch at an iteration, one
model's test accuracy, an embeddings CSV writer and a learning-curve CSV
reader."""
import csv

import numpy as np

from curriculum_lab.data import write_csv
from curriculum_lab.errors import TrainingDivergedError
from curriculum_lab.sequencer import _batch_positions, balanced_prefix
from curriculum_lab.trainer import LearningCurve, _forward, train_stack


def train(ds_train, ds_test, plan, schedule, model_spec, record_every=50, seed=0,
          self_paced=False):
    """`train_stack` with one row: (Model, LearningCurve), or raises the row's
    `TrainingDivergedError`."""
    (outcome,) = train_stack(ds_train, ds_test, [plan], [schedule], model_spec, [seed],
                             record_every=record_every, self_paced=[self_paced])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome


# the latest plan seed -> the generator that `minibatch_at` resets and reuses,
# as a stack does; one entry, so a loop over many seeds holds no more
_rngs: dict = {}


def minibatch_at(plan, i):
    """Iteration i's batch ids: the balanced prefix of size g(i) at the drawn positions."""
    if plan.seed not in _rngs:
        _rngs.clear()
    return balanced_prefix(plan, plan.pacing.sizes[i])[_batch_positions(plan, i, _rngs)]


def accuracy(model, ds):
    """Fraction of argmax-correct predictions from the model's own R=1
    forward; ties go to the lowest class id."""
    logits = _forward(model.spec, model._views, ds.X[None])[0][0]
    return float((np.argmax(logits, axis=1) == ds.y).mean())


def save_embeddings_csv(emb, path):
    """Write an `EmbeddingTable` in the format `load_embeddings_csv` reads."""
    write_csv(path, ["id"] + [f"e{j}" for j in range(emb.vectors.shape[1])],
              [np.arange(emb.N), emb.vectors])


def load_curve_csv(path):
    """Read a `LearningCurve` written by its `to_csv`."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    assert header == ["iteration", "train_loss", "test_acc", "subset_size", "lr"], header
    return LearningCurve._from_rows([(int(r[0]), float(r[1]), float(r[2]), int(r[3]), float(r[4]))
                                     for r in rows])
