"""Desk-scale differentiable classifiers trained by plain SGD.

Two architectures: a linear softmax classifier and a one-hidden-layer ReLU
network. Parameters live in a single flat float64 vector with named per-layer
segments, which keeps SGD updates, finite-difference checks, and per-example
gradient analysis all operating on the same layout. A stack of R models,
such as the repetition seeds of one condition or every cell × seed of a grid
stage, keeps its vectors as the rows of one (R, P) array and trains in one
loop (`train_stack`).
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


def _layer_arrays(spec: ModelSpec, K: int, d: int):
    """(name, shape) for every parameter array, in flat layout order."""
    if spec.architecture == "linear_softmax":
        return [("W", (K, d)), ("b", (K,))]
    H = spec.hidden
    return [("W1", (H, d)), ("b1", (H,)), ("W2", (K, H)), ("b2", (K,))]


def _layout(spec: ModelSpec, K: int, d: int):
    """(name, shape, start, stop) for every parameter array, and the total size."""
    arrays = []
    offset = 0
    for name, shape in _layer_arrays(spec, K, d):
        size = int(np.prod(shape))
        arrays.append((name, shape, offset, offset + size))
        offset += size
    return tuple(arrays), offset


def _stack_views(arrays, params: np.ndarray) -> dict[str, np.ndarray]:
    """Per-layer views (R, *shape) into an (R, P) parameter stack; in-place
    updates of the stack show through."""
    R = params.shape[0]
    return {name: params[:, start:stop].reshape((R,) + shape)
            for name, shape, start, stop in arrays}


# ---------------------------------------------------------------------------
# The stacked kernel. Every array carries a leading axis of R independent
# rows (models); each row's arithmetic is the same sequence of operations, on
# the same layouts, as for that row on its own, so R=1 and R>1 agree bitwise.
# ---------------------------------------------------------------------------

def _forward(spec: ModelSpec, v: dict, X: np.ndarray):
    """Logits (R, n, K) of X (R, n, d) under the stacked views `v`, and the
    activations the backward pass needs."""
    if spec.architecture == "linear_softmax":
        return np.matmul(X, v["W"].swapaxes(1, 2)) + v["b"][:, None], (X,)
    z1 = np.matmul(X, v["W1"].swapaxes(1, 2)) + v["b1"][:, None]
    a1 = np.maximum(z1, 0.0)
    return np.matmul(a1, v["W2"].swapaxes(1, 2)) + v["b2"][:, None], (X, z1, a1)


def _losses_and_residual(logits: np.ndarray, y: np.ndarray):
    """Per-example cross-entropy (R, n) and the softmax residual
    P - onehot(y) (R, n, K). The max-shifted exponentials and their sums
    serve both the log-sum-exp and the softmax."""
    R, n = y.shape
    r = np.arange(R)[:, None]
    rows = np.arange(n)
    # a running maximum over the K class columns: exact in any order, and far
    # cheaper than a reduction along the short last axis
    m = logits[..., :1]
    for k in range(1, logits.shape[2]):
        m = np.maximum(m, logits[..., k:k + 1])
    e = np.exp(logits - m)
    total = e.sum(axis=2, keepdims=True)
    losses = m[..., 0] + np.log(total[..., 0]) - logits[r, rows, y]
    G = e / total
    G[r, rows, y] -= 1.0
    return losses, G


def _mean_loss_and_grad(spec: ModelSpec, v: dict, logits, cache, y):
    """Mean batch loss (R,) and its flat gradient (R, P)."""
    losses, G = _losses_and_residual(logits, y)
    R, n = y.shape
    G /= n
    if spec.architecture == "linear_softmax":
        (X,) = cache
        parts = [np.matmul(G.swapaxes(1, 2), X), G.sum(axis=1)]
    else:
        X, z1, a1 = cache
        dz1 = np.matmul(G, v["W2"]) * (z1 > 0)
        parts = [np.matmul(dz1.swapaxes(1, 2), X), dz1.sum(axis=1),
                 np.matmul(G.swapaxes(1, 2), a1), G.sum(axis=1)]
    return losses.mean(axis=1), np.concatenate([p.reshape(R, -1) for p in parts], axis=1)


def _init_params(spec: ModelSpec, K: int, d: int, seed: int) -> np.ndarray:
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
    return np.concatenate(chunks)


class Model:
    """Softmax classifier over a flat parameter vector: the R=1 case of the
    stacked kernel."""

    def __init__(self, spec: ModelSpec, K: int, d: int, params: np.ndarray):
        self.spec = spec
        self.K = K
        self.d = d
        self.arrays, self.n_params = _layout(spec, K, d)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ParameterError(f"expected {self.n_params} parameters, got {params.shape}")
        self.params = params.copy()
        # per-layer views into the flat vector; in-place updates show through
        self._views = _stack_views(self.arrays, self.params[None])
        if spec.architecture == "linear_softmax":
            self.segments = (("layer1", 0, self.n_params),)
        else:
            split = self.arrays[2][2]  # start of W2
            self.segments = (("layer1", 0, split), ("layer2", split, self.n_params))

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(cls, spec: ModelSpec, K: int, d: int, seed: int) -> "Model":
        """Per-layer uniform init in +-sqrt(6 / (fan_in + fan_out)), seeded."""
        return cls(spec, K, d, _init_params(spec, K, d, seed))

    @classmethod
    def zeros(cls, spec: ModelSpec, K: int, d: int) -> "Model":
        return cls(spec, K, d, np.zeros(_layout(spec, K, d)[1]))

    def array(self, name: str) -> np.ndarray:
        return self._views[name][0]

    # -- forward -------------------------------------------------------------

    def _forward(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ParameterError(f"model expects d={self.d} features, got {X.shape[1]}")
        return _forward(self.spec, self._views, X[None])

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)[0][0]

    def _checked_forward(self, X):
        logits, cache = self._forward(X)
        if not np.isfinite(logits).all():
            raise NumericalError("non-finite activations in forward pass")
        return logits, cache

    def example_losses(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cross-entropy -log p(true class) per example."""
        logits, _cache = self._checked_forward(X)
        return _losses_and_residual(logits, np.asarray(y, dtype=np.int64)[None])[0][0]

    # -- gradients -----------------------------------------------------------

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over the batch and its flat gradient."""
        logits, cache = self._checked_forward(X)
        loss, grad = _mean_loss_and_grad(self.spec, self._views, logits, cache,
                                         np.asarray(y, dtype=np.int64)[None])
        return float(loss[0]), grad[0]

    def _gradient_factors(self, X: np.ndarray, y: np.ndarray) -> list:
        """Per layer segment, the residual r (n, out) at the layer's output and
        the layer's input a (n, in): example j's gradient of that segment is
        [r_j a_j^T, r_j], flattened as in the parameter layout."""
        logits, cache = self._checked_forward(X)
        G = _losses_and_residual(logits, np.asarray(y, dtype=np.int64)[None])[1][0]
        if self.spec.architecture == "linear_softmax":
            return [(G, cache[0][0])]
        X2, z1, a1 = (c[0] for c in cache)
        dz1 = G @ self.array("W2")
        dz1 *= z1 > 0
        return [(dz1, X2), (G, a1)]

    def per_example_grads(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row j = flat gradient of example j's individual loss, shape (n, P)."""
        parts = []
        for r, a in self._gradient_factors(X, y):
            parts += [np.einsum("nk,nd->nkd", r, a).reshape(len(r), -1), r]
        return np.concatenate(parts, axis=1)


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
        return cls._from_rows(rows)

    @classmethod
    def _from_rows(cls, rows) -> "LearningCurve":
        """From (iteration, train_loss, test_acc, subset_size, lr) tuples."""
        cols = list(zip(*rows))
        return cls(iterations=np.array(cols[0]), train_loss=np.array(cols[1]),
                   test_acc=np.array(cols[2]), subset_size=np.array(cols[3]),
                   lr=np.array(cols[4]))


def train_stack(ds_train: Dataset, ds_test: Dataset, plans: list[CurriculumPlan],
                schedules: list[LRSchedule], model_spec: ModelSpec, seeds: list[int],
                record_every: int = 50, boundary_hooks: list | None = None) -> list:
    """Run M SGD steps for R models at once: row r follows plans[r] and
    schedules[r] from the init of seeds[r], and every row equals that row
    trained alone, bitwise. Rows may differ in pacing and learning rate; they
    share the horizon M and the batch size.

    theta <- theta - lr(t) * grad(mean batch loss). Each curve records every
    `record_every` iterations and always at the final iteration; the recorded
    loss is the pre-update batch loss, accuracy is measured after the update.
    `boundary_hooks[r](plan, model, t)`, when given and not None, replaces row
    r's plan at t=0 and at every start of a stage of its pacing (the
    self-paced control).

    Returns one outcome per row: `(Model, LearningCurve)`, or the
    `TrainingDivergedError` that training the row alone raises. A diverged
    row leaves the stack at that iteration; the other rows go on unchanged.
    """
    R = len(plans)
    hooks = [None] * R if boundary_hooks is None else list(boundary_hooks)
    if not len(schedules) == len(seeds) == len(hooks) == R:
        raise ParameterError(f"{R} plans for {len(schedules)} schedules, {len(seeds)} seeds "
                             f"and {len(hooks)} hooks")
    if any(plan.N != ds_train.N for plan in plans):
        raise ParameterError("plan was built over a different dataset")
    if len({(plan.M, plan.batch_size) for plan in plans}) > 1:
        raise ParameterError("stacked plans must share one horizon M and one batch size")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    if not plans:
        return []
    K, d = ds_train.K, ds_train.d
    M = plans[0].M
    arrays, _ = _layout(model_spec, K, d)
    params = np.stack([_init_params(model_spec, K, d, seed) for seed in seeds])
    views = _stack_views(arrays, params)
    live = list(range(R))   # stack row j holds plan live[j]
    current = list(plans)
    sizes = [plan.pacing.sizes for plan in plans]
    # lrs[t, j, 0] is live row j's learning rate at t: each schedule is
    # evaluated once per iteration, and a row is scaled by that same float64
    values = {s: [s.value(t) for t in range(M)] for s in set(schedules)}
    lrs = np.array([values[s] for s in schedules]).T[:, :, None].copy()
    # iteration -> the rows whose hook fires there: the stage starts of their pacing
    due: dict[int, list[int]] = {}
    for r, hook in enumerate(hooks):
        if hook is not None:
            for t in np.flatnonzero(np.diff(sizes[r], prepend=-1)).tolist():
                due.setdefault(t, []).append(r)
    recorded: list[list] = [[] for _ in plans]
    outcomes: list = [None] * R

    def drop(ok: np.ndarray, t: int, message: str = "") -> None:
        nonlocal params, views, live, lrs
        for j in np.flatnonzero(~ok):
            outcomes[live[j]] = TrainingDivergedError(t, message)
        params = params[ok]
        views = _stack_views(arrays, params)
        live = [r for r, keep in zip(live, ok) if keep]
        lrs = lrs[:, ok]

    # a diverging row is a typed outcome: its overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(M):
            for r in due.get(t, ()):
                if r in live:
                    j = live.index(r)
                    current[r] = hooks[r](current[r], Model(model_spec, K, d, params[j]), t)
            ids = np.stack([minibatch_at(current[r], t) for r in live])
            logits, cache = _forward(model_spec, views, ds_train.X[ids])
            ok = np.isfinite(logits).all(axis=(1, 2))
            if not ok.all():
                drop(ok, t, f"non-finite activations in forward pass at iteration {t}")
                logits, cache, ids = logits[ok], tuple(c[ok] for c in cache), ids[ok]
            if live:
                loss, grad = _mean_loss_and_grad(model_spec, views, logits, cache,
                                                 ds_train.y[ids])
                ok = np.isfinite(loss) & np.isfinite(grad).all(axis=1)
                if not ok.all():
                    drop(ok, t)
                    loss, grad = loss[ok], grad[ok]
            if not live:
                break
            grad *= lrs[t]
            params -= grad
            if t % record_every == 0 or t == M - 1:
                for j, r in enumerate(live):
                    acc = evaluate(Model(model_spec, K, d, params[j]), ds_test)
                    recorded[r].append((t, float(loss[j]), acc, sizes[r][t],
                                        float(lrs[t, j, 0])))
    for j, r in enumerate(live):
        outcomes[r] = (Model(model_spec, K, d, params[j]), LearningCurve._from_rows(recorded[r]))
    return outcomes


def train(ds_train: Dataset, ds_test: Dataset, plan: CurriculumPlan,
          schedule: LRSchedule, model_spec: ModelSpec, record_every: int = 50,
          seed: int = 0, boundary_hook=None) -> tuple[Model, LearningCurve]:
    """One model: `train_stack` with a single row. Raises the row's
    `TrainingDivergedError` if it diverges."""
    (outcome,) = train_stack(ds_train, ds_test, [plan], [schedule], model_spec, [seed],
                             record_every=record_every, boundary_hooks=[boundary_hook])
    if isinstance(outcome, TrainingDivergedError):
        raise outcome
    return outcome
