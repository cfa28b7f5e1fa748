"""Desk-scale differentiable classifiers trained by plain SGD.

Two architectures: a linear softmax classifier and a one-hidden-layer ReLU
network. Parameters live in a single flat float64 vector with named per-layer
segments, which keeps SGD updates, finite-difference checks, and per-example
gradient analysis all operating on the same layout.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError, ParameterError, TrainingDivergedError
from .sequencer import CurriculumPlan, minibatch_at

ARCHITECTURES = ("linear_softmax", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    architecture: str
    hidden: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ParameterError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "mlp1" and self.hidden < 1:
            raise ParameterError(f"mlp1 needs hidden >= 1, got {self.hidden}")


@dataclass(frozen=True)
class LRSchedule:
    """Learning rate as a function of the iteration index.

    exponential: lr0 / decrease_factor ** floor(t / lr_step_length)
    cyclical:    symmetric triangular wave between lr_min and lr_max with
                 period cycle_length, starting at lr_min.
    """

    variant: str
    lr0: float = 0.0
    decrease_factor: float = 0.0
    lr_step_length: int = 0
    lr_min: float = 0.0
    lr_max: float = 0.0
    cycle_length: int = 0

    def __post_init__(self):
        if self.variant == "exponential":
            if not self.lr0 > 0:
                raise ParameterError(f"lr0 must be > 0, got {self.lr0}")
            if not self.decrease_factor > 1:
                raise ParameterError(f"decrease_factor must be > 1, got {self.decrease_factor}")
            if self.lr_step_length < 1:
                raise ParameterError(f"lr_step_length must be >= 1, got {self.lr_step_length}")
        elif self.variant == "cyclical":
            if not 0 < self.lr_min <= self.lr_max:
                raise ParameterError(f"need 0 < lr_min <= lr_max, got {self.lr_min}, {self.lr_max}")
            if self.cycle_length < 2:
                raise ParameterError(f"cycle_length must be >= 2, got {self.cycle_length}")
        else:
            raise ParameterError(f"unknown LR schedule variant {self.variant!r}")

    def value(self, t: int) -> float:
        if self.variant == "exponential":
            return self.lr0 / self.decrease_factor ** (t // self.lr_step_length)
        half = self.cycle_length / 2.0
        phase = t % self.cycle_length
        return self.lr_min + (self.lr_max - self.lr_min) * (1.0 - abs(phase - half) / half)


@dataclass(frozen=True)
class TrainSettings:
    """Everything one training run needs besides the data and a score table."""

    model_spec: ModelSpec
    schedule: LRSchedule
    batch_size: int
    iterations: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")


def _layer_arrays(spec: ModelSpec, K: int, d: int):
    """(name, shape) for every parameter array, in flat layout order."""
    if spec.architecture == "linear_softmax":
        return [("W", (K, d)), ("b", (K,))]
    H = spec.hidden
    return [("W1", (H, d)), ("b1", (H,)), ("W2", (K, H)), ("b2", (K,))]


class Model:
    """Softmax classifier over a flat parameter vector."""

    def __init__(self, spec: ModelSpec, K: int, d: int, params: np.ndarray):
        self.spec = spec
        self.K = K
        self.d = d
        arrays = []
        offset = 0
        for name, shape in _layer_arrays(spec, K, d):
            size = int(np.prod(shape))
            arrays.append((name, shape, offset, offset + size))
            offset += size
        self.arrays = tuple(arrays)
        self.n_params = offset
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (offset,):
            raise ParameterError(f"expected {offset} parameters, got {params.shape}")
        self.params = params.copy()
        # per-layer views into the flat vector; in-place updates show through
        self._views = {name: self.params[start:stop].reshape(shape)
                       for name, shape, start, stop in self.arrays}
        if spec.architecture == "linear_softmax":
            self.segments = (("layer1", 0, offset),)
        else:
            split = self.arrays[2][2]  # start of W2
            self.segments = (("layer1", 0, split), ("layer2", split, offset))

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, spec: ModelSpec, K: int, d: int, seed: int) -> "Model":
        """Per-layer uniform init in +-sqrt(6 / (fan_in + fan_out)), seeded."""
        rng = np.random.default_rng(seed)
        chunks = []
        limit = 0.0
        for name, shape in _layer_arrays(spec, K, d):
            if len(shape) == 2:
                fan_out, fan_in = shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
            # biases reuse the limit of the weight matrix they belong to
            chunks.append(rng.uniform(-limit, limit, size=int(np.prod(shape))))
        return cls(spec, K, d, np.concatenate(chunks))

    @classmethod
    def zeros(cls, spec: ModelSpec, K: int, d: int) -> "Model":
        size = sum(int(np.prod(shape)) for _, shape in _layer_arrays(spec, K, d))
        return cls(spec, K, d, np.zeros(size))

    def copy(self) -> "Model":
        return Model(self.spec, self.K, self.d, self.params)

    def array(self, name: str) -> np.ndarray:
        return self._views[name]

    # -- forward -------------------------------------------------------------

    def _forward(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ParameterError(f"model expects d={self.d} features, got {X.shape[1]}")
        v = self._views
        if self.spec.architecture == "linear_softmax":
            logits = X @ v["W"].T + v["b"]
            return logits, (X,)
        z1 = X @ v["W1"].T + v["b1"]
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ v["W2"].T + v["b2"]
        return logits, (X, z1, a1)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        logits = self.logits(X)
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def example_losses(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cross-entropy -log p(true class) per example."""
        return self._losses_and_residual(X, y)[0]

    # -- gradients -----------------------------------------------------------

    def _losses_and_residual(self, X, y):
        """One forward pass: per-example losses, the softmax residual
        P - onehot(y), and the forward cache. The max-shifted exponentials and
        their row sums serve both the log-sum-exp and the softmax."""
        logits, cache = self._forward(X)
        if not np.isfinite(logits).all():
            raise NumericalError("non-finite activations in forward pass")
        y = np.asarray(y, dtype=np.int64)
        rows = np.arange(len(y))
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        total = e.sum(axis=1, keepdims=True)
        losses = m[:, 0] + np.log(total[:, 0]) - logits[rows, y]
        G = e / total
        G[rows, y] -= 1.0
        return losses, G, cache

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over the batch and its flat gradient."""
        losses, G, cache = self._losses_and_residual(X, y)
        G /= len(losses)
        if self.spec.architecture == "linear_softmax":
            (X2,) = cache
            grad = np.concatenate([(G.T @ X2).ravel(), G.sum(axis=0)])
        else:
            X2, z1, a1 = cache
            dz1 = (G @ self._views["W2"]) * (z1 > 0)
            grad = np.concatenate([
                (dz1.T @ X2).ravel(), dz1.sum(axis=0),
                (G.T @ a1).ravel(), G.sum(axis=0),
            ])
        return float(losses.mean()), grad

    def per_example_grads(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row j = flat gradient of example j's individual loss, shape (n, P)."""
        _losses, G, cache = self._losses_and_residual(X, y)
        n = G.shape[0]
        if self.spec.architecture == "linear_softmax":
            (X2,) = cache
            dW = np.einsum("nk,nd->nkd", G, X2).reshape(n, -1)
            return np.concatenate([dW, G], axis=1)
        X2, z1, a1 = cache
        dz1 = (G @ self._views["W2"]) * (z1 > 0)
        dW1 = np.einsum("nh,nd->nhd", dz1, X2).reshape(n, -1)
        dW2 = np.einsum("nk,nh->nkh", G, a1).reshape(n, -1)
        return np.concatenate([dW1, dz1, dW2, G], axis=1)


def evaluate(model: Model, ds: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class id."""
    pred = np.argmax(model.logits(ds.X), axis=1)
    return float((pred == ds.y).mean())


@dataclass(frozen=True)
class LearningCurve:
    iterations: np.ndarray
    train_loss: np.ndarray
    test_acc: np.ndarray
    subset_size: np.ndarray
    lr: np.ndarray

    def __post_init__(self):
        it = np.asarray(self.iterations, dtype=np.int64)
        if len(it) == 0 or (np.diff(it) <= 0).any():
            raise ParameterError("curve iterations must be non-empty and strictly increasing")
        acc = np.asarray(self.test_acc, dtype=np.float64)
        if (acc < 0).any() or (acc > 1).any():
            raise ParameterError("test accuracy must lie in [0, 1]")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "train_loss", "test_acc", "subset_size", "lr"])
            for row in zip(self.iterations, self.train_loss, self.test_acc,
                           self.subset_size, self.lr):
                w.writerow([int(row[0]), repr(float(row[1])), repr(float(row[2])),
                            int(row[3]), repr(float(row[4]))])

    @classmethod
    def from_csv(cls, path) -> "LearningCurve":
        rows = []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if header != ["iteration", "train_loss", "test_acc", "subset_size", "lr"]:
                raise ParameterError(f"{path}: unexpected curve header {header!r}")
            for row in reader:
                rows.append((int(row[0]), float(row[1]), float(row[2]), int(row[3]),
                             float(row[4])))
        cols = list(zip(*rows))
        return cls(iterations=np.array(cols[0]), train_loss=np.array(cols[1]),
                   test_acc=np.array(cols[2]), subset_size=np.array(cols[3]),
                   lr=np.array(cols[4]))


def train(ds_train: Dataset, ds_test: Dataset, plan: CurriculumPlan,
          schedule: LRSchedule, model_spec: ModelSpec, record_every: int = 50,
          seed: int = 0, boundary_hook=None) -> tuple[Model, LearningCurve]:
    """Run M SGD steps over the plan's mini-batch stream.

    theta <- theta - lr(t) * grad(mean batch loss). The curve records every
    `record_every` iterations and always at the final iteration; the recorded
    loss is the pre-update batch loss, accuracy is measured after the update.
    `boundary_hook(plan, model, t)`, when given, replaces the plan at t=0 and
    at every pacing-step boundary (the self-paced control).
    """
    if plan.N != ds_train.N:
        raise ParameterError("plan was built over a different dataset")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    model = Model.initialize(model_spec, ds_train.K, ds_train.d, seed)
    M = plan.M
    recorded = []
    prev_size = None
    current = plan
    sizes = plan.pacing.sizes
    for t in range(M):
        size = sizes[t]
        if boundary_hook is not None and (prev_size is None or size != prev_size):
            current = boundary_hook(current, model, t)
        prev_size = size
        ids = minibatch_at(current, t)
        X, y = ds_train.X[ids], ds_train.y[ids]
        try:
            loss, grad = model.loss_and_grad(X, y)
        except NumericalError as exc:
            raise TrainingDivergedError(t, f"{exc} at iteration {t}") from exc
        if not np.isfinite(loss) or not np.isfinite(grad).all():
            raise TrainingDivergedError(t)
        lr = schedule.value(t)
        model.params -= lr * grad
        if t % record_every == 0 or t == M - 1:
            recorded.append((t, loss, evaluate(model, ds_test), size, lr))
    cols = list(zip(*recorded))
    curve = LearningCurve(iterations=np.array(cols[0]), train_loss=np.array(cols[1]),
                          test_acc=np.array(cols[2]), subset_size=np.array(cols[3]),
                          lr=np.array(cols[4]))
    return model, curve
