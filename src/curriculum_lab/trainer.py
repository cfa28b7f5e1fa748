"""Desk-scale differentiable classifiers trained by plain SGD.

One layer table (`_layers`) lists each architecture's dense layers, a ReLU
after every layer but the last: the linear softmax classifier has one layer,
mlp1 two. All else reads the table: the flat float64 parameter vector and its
named per-layer segments, one forward loop over the layers, and one backward
(`_layer_factors`) for both the SGD gradient and per-example gradient
analysis. A stack of R models, such as the repetition seeds of one condition
or every cell × seed of a grid stage, keeps its vectors as the rows of one
(R, P) array and trains in one loop (`train_stack`), the only training loop:
a single model trains as a stack of one row. `Model` is one row of that
kernel, for what reads a trained model (loss scoring and gradient coherence).
"""
from __future__ import annotations

import bisect
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_csv
from .errors import NumericalError, ParameterError, TrainingDivergedError
from .sequencer import CurriculumPlan, _batch_positions, balanced_prefix, reranked

ARCHITECTURES = ("linear_softmax", "mlp1")
_NONFINITE = "non-finite activations in forward pass at iteration {}"
# the most steps a store-less draw group draws ahead of the step it serves
_DRAW_WINDOW = 64


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

    exponential: lr0 / decrease_factor ** floor(t / lr_step_length), and 0.0
                 once that power leaves the float range
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
            try:
                return self.lr0 / self.decrease_factor ** (t // self.lr_step_length)
            except OverflowError:  # the divisor passed the float range: lr0 / inf
                return 0.0
        half = self.cycle_length / 2.0
        phase = t % self.cycle_length
        return self.lr_min + (self.lr_max - self.lr_min) * (1.0 - abs(phase - half) / half)


_Layer = namedtuple("_Layer", "W b hidden out dz dW db")


@functools.cache
def _layers(spec: ModelSpec) -> tuple[_Layer, ...]:
    """The layer table: the dense layers, output = input @ W.T + b, in flat
    layout order; each reads the output of the one before (the first, the d
    features). `hidden` is a hidden layer's width, a ReLU after it, and 0 for
    the last layer (K wide); `out` keys the output array ("a<i>" for hidden
    layer i, "logits" for the last), `dz` a hidden layer's residual ("dz<i>"),
    and `dW`, `db` the gradient views ("d" + name)."""
    if spec.architecture == "linear_softmax":
        table = [("W", "b", 0)]
    else:
        table = [("W1", "b1", spec.hidden), ("W2", "b2", 0)]
    return tuple(_Layer(W, b, h, f"a{i}" if h else "logits", f"dz{i}" if h else None,
                        "d" + W, "d" + b) for i, (W, b, h) in enumerate(table, 1))


def _layout(spec: ModelSpec, K: int, d: int):
    """(name, shape, start, stop) for every parameter array, in flat layout
    order (each layer's weight (out, in), then its bias), and the total size."""
    arrays, offset, fan_in = [], 0, d
    for layer in _layers(spec):
        out = layer.hidden or K
        for name, shape in ((layer.W, (out, fan_in)), (layer.b, (out,))):
            arrays.append((name, shape, offset, offset + math.prod(shape)))
            offset += math.prod(shape)
        fan_in = out
    return tuple(arrays), offset


def _stack_views(arrays, params: np.ndarray) -> dict[str, np.ndarray]:
    """Per-layer views (R, *shape) into an (R, P) parameter stack; in-place
    updates of the stack show through."""
    R = params.shape[0]
    return {name: params[:, start:stop].reshape((R,) + shape)
            for name, shape, start, stop in arrays}


def _forward_arrays(spec: ModelSpec, R: int, n: int, K: int) -> dict:
    """Arrays for `_forward` to write R rows of n examples into: each layer's
    output. The first L rows of each serve L rows."""
    return {layer.out: np.empty((R, n, layer.hidden or K)) for layer in _layers(spec)}


def _grad_arrays(spec: ModelSpec, arrays, P: int, R: int, n: int) -> dict:
    """Arrays for `_mean_loss_and_grad` to write R rows of n examples into:
    the flat gradient (R, P) of the layout `arrays`, its views keyed "d" +
    name, and each hidden layer's residual. The first L rows of each serve L rows."""
    grad = np.empty((R, P))
    return {"grad": grad, **{"d" + name: g for name, g in _stack_views(arrays, grad).items()},
            **{layer.dz: np.empty((R, n, layer.hidden)) for layer in _layers(spec)[:-1]}}


# ---------------------------------------------------------------------------
# The stacked kernel. Every array carries a leading axis of R independent
# rows (models); each row's arithmetic is the same sequence of operations, on
# the same layouts, as for that row on its own, so R=1 and R>1 agree bitwise.
# ---------------------------------------------------------------------------

def _forward(spec: ModelSpec, v: dict, X: np.ndarray, work: dict | None = None):
    """Logits (R, n, K) of X (R, n, d) under the stacked views `v`, and each
    layer's input for the backward: (X,), or for mlp1 (X, a1); written into
    `work`'s arrays (see `_forward_arrays`) when given, into new ones when it
    is None. A hidden layer's ReLU acts in place, and the backward reads its
    mask as a > 0, which is z > 0 for every float64 pre-activation z
    (np.maximum keeps a NaN, and turns none of ±0.0 positive)."""
    a, inputs = X, []
    for layer in _layers(spec):
        inputs.append(a)
        a = np.matmul(a, v[layer.W].swapaxes(1, 2), out=None if work is None else work[layer.out])
        a += v[layer.b][:, None]
        if layer.hidden:
            np.maximum(a, 0.0, out=a)
    return a, tuple(inputs)


def _sum_columns(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1, keepdims=True) for a contiguous float64 `a`, bit for
    bit, as whole-column adds: far cheaper than numpy's reduction along a
    short last axis. The columns are added in the order of numpy's pairwise
    sum: below 8 in turn; up to 128 as 8 running sums, combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the rest in turn; above 128 as two
    halves, the first rounded down to a multiple of 8. The leading 0.0 is
    numpy's starting value, which turns a sum of -0.0 into 0.0."""
    K = a.shape[-1]
    if K > 128:
        half = K // 2 - K // 2 % 8
        return _sum_columns(a[..., :half]) + _sum_columns(a[..., half:])
    if K < 8:
        total, rest = 0.0 + a[..., :1], 1
    else:
        rest = K - K % 8
        r = 0.0 + a[..., :8]
        for i in range(8, rest, 8):
            r += a[..., i:i + 8]
        r = r[..., 0::2] + r[..., 1::2]
        r = r[..., 0::2] + r[..., 1::2]
        total = r[..., :1] + r[..., 1:]
    for k in range(rest, K):
        total += a[..., k:k + 1]
    return total


def _losses_and_residual(logits: np.ndarray, y: np.ndarray):
    """Per-example cross-entropy (R, n) and the softmax residual
    P - onehot(y) (R, n, K). The max-shifted exponentials and their sums
    serve both the log-sum-exp and the softmax."""
    R, n, K = logits.shape
    # the flat index of each example's true-class entry in an (R, n, K) array
    target = np.arange(0, R * n * K, K).reshape(R, n) + y
    # a running maximum over the K class columns: exact in any order, and far
    # cheaper than a reduction along the short last axis
    m = logits[..., :1]
    for k in range(1, K):
        m = np.maximum(m, logits[..., k:k + 1])
    e = np.exp(logits - m)
    total = _sum_columns(e)
    losses = m[..., 0] + np.log(total[..., 0]) - logits.reshape(-1)[target]
    G = np.divide(e, total, out=e)
    G.reshape(-1)[target] -= 1.0
    return losses, G


def _layer_factors(spec: ModelSpec, v: dict, G: np.ndarray, inputs, work: dict | None = None):
    """Per layer, the residual r (R, n, out) at its output and its input a
    (R, n, in), from the residual G at the logits and `_forward`'s inputs:
    example j's gradient of the layer is [r_j a_j^T, r_j]. A hidden layer's r
    is the next r times the next weight, masked by a > 0 (see `_forward`)."""
    layers, factors = _layers(spec), [(G, inputs[-1])]
    for i in range(len(layers) - 2, -1, -1):  # the hidden layers, last first
        r = np.matmul(factors[0][0], v[layers[i + 1].W],
                      out=None if work is None else work[layers[i].dz])
        r *= inputs[i + 1] > 0
        factors.insert(0, (r, inputs[i]))
    return factors


def _mean_loss_and_grad(spec: ModelSpec, v: dict, logits, inputs, y, work: dict | None = None):
    """Mean batch loss (R,) and its flat gradient (R, P), written into
    `work`'s arrays (see `_grad_arrays`) when given, else into new ones."""
    losses, G = _losses_and_residual(logits, y)
    R, n = y.shape
    G /= n
    if work is None:
        work = _grad_arrays(spec, *_layout(spec, logits.shape[2], inputs[0].shape[2]), R, n)
    for layer, (r, a) in zip(_layers(spec), _layer_factors(spec, v, G, inputs, work)):
        np.matmul(r.swapaxes(1, 2), a, out=work[layer.dW])
        # einsum adds along n in order, as .sum(axis=1) does for K >= 2 (G is 0 for K = 1);
        # a hidden bias keeps .sum(axis=1), which sums pairwise along n when it is 1 wide
        if layer.hidden:
            np.sum(r, axis=1, out=work[layer.db])
        else:
            np.einsum("rnk->rk", r, out=work[layer.db])
    return losses.mean(axis=1), work["grad"]


def _init_params(spec: ModelSpec, K: int, d: int, seed: int) -> np.ndarray:
    """Per-layer uniform init in +-sqrt(6 / (fan_in + fan_out)), seeded;
    a bias reuses the limit of its layer's weight."""
    rng, chunks = np.random.default_rng(seed), []
    for _name, shape, start, stop in _layout(spec, K, d)[0]:
        if len(shape) == 2:  # a weight (fan_out, fan_in)
            limit = np.sqrt(6.0 / (shape[1] + shape[0]))
        chunks.append(rng.uniform(-limit, limit, size=stop - start))
    return np.concatenate(chunks)


class Model:
    """Softmax classifier over a flat parameter vector: the R=1 case of the
    stacked kernel."""

    def __init__(self, spec: ModelSpec, K: int, d: int, params: np.ndarray):
        self.spec, self.K, self.d = spec, K, d
        self.arrays, self.n_params = _layout(spec, K, d)
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ParameterError(f"expected {self.n_params} parameters, got {params.shape}")
        self.params = params.copy()
        # per-layer views into the flat vector; in-place updates show through
        self._views = _stack_views(self.arrays, self.params[None])
        # per layer i, "layer<i>" and the span of its weight and bias
        self.segments = tuple((f"layer{i}", W[2], b[3]) for i, (W, b) in
                              enumerate(zip(self.arrays[::2], self.arrays[1::2]), 1))

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

    def _checked_forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ParameterError(f"model expects d={self.d} features, got {X.shape[1]}")
        # an overflow is the typed error below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            logits, cache = _forward(self.spec, self._views, X[None])
        if not np.isfinite(logits).all():
            raise NumericalError("non-finite activations in forward pass")
        return logits, cache

    def example_losses(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cross-entropy -log p(true class) per example; inf where finite
        logits far apart overflow it."""
        logits, _cache = self._checked_forward(X)
        with np.errstate(over="ignore"):
            return _losses_and_residual(logits, np.asarray(y, dtype=np.int64)[None])[0][0]

    # -- gradients -----------------------------------------------------------

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over the batch (inf past the float range) and its flat gradient."""
        logits, cache = self._checked_forward(X)
        with np.errstate(over="ignore"):
            loss, grad = _mean_loss_and_grad(self.spec, self._views, logits, cache,
                                             np.asarray(y, dtype=np.int64)[None])
        return float(loss[0]), grad[0]

    def _gradient_factors(self, X: np.ndarray, y: np.ndarray) -> list:
        """Per layer segment, `_layer_factors`' (residual r (n, out), input
        a (n, in)): example j's gradient of that segment is [r_j a_j^T, r_j]."""
        logits, inputs = self._checked_forward(X)
        G = _losses_and_residual(logits, np.asarray(y, dtype=np.int64)[None])[1]
        return [(r[0], a[0]) for r, a in _layer_factors(self.spec, self._views, G, inputs)]

    def per_example_grads(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row j = flat gradient of example j's individual loss, shape (n, P)."""
        parts = []
        for r, a in self._gradient_factors(X, y):
            parts += [np.einsum("nk,nd->nkd", r, a).reshape(len(r), -1), r]
        return np.concatenate(parts, axis=1)


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
        write_csv(path, ["iteration", "train_loss", "test_acc", "subset_size", "lr"],
                  [self.iterations, self.train_loss, self.test_acc, self.subset_size, self.lr])

    @classmethod
    def _from_rows(cls, rows) -> "LearningCurve":
        """From (iteration, train_loss, test_acc, subset_size, lr) tuples."""
        cols = list(zip(*rows))
        return cls(iterations=np.array(cols[0]), train_loss=np.array(cols[1]),
                   test_acc=np.array(cols[2]), subset_size=np.array(cols[3]),
                   lr=np.array(cols[4]))


class BatchStore:
    """The full-size batch positions drawn by the stacks of one command.

    A row at g(t) = N draws the positions of (plan seed, t) among all N ids,
    whatever its condition, so a later stack over the same plan seeds reads
    them here instead of drawing again. Per (plan seed, N, batch size) and
    horizon M it holds an (M, B) block in the smallest unsigned dtype that
    holds N - 1, and which of its rows are filled."""

    def __init__(self):
        self._blocks: dict = {}

    def block(self, plan: CurriculumPlan) -> tuple[np.ndarray, np.ndarray]:
        """(positions, filled) of the plan's key."""
        key = (plan.seed, plan.N, plan.batch_size, plan.M)
        if key not in self._blocks:
            self._blocks[key] = (
                np.empty((plan.M, plan.batch_size), dtype=np.min_scalar_type(plan.N - 1)),
                np.zeros(plan.M, dtype=bool))
        return self._blocks[key]


def _draw_window(groups: list, start: int, stop: int, N: int, B: int, rngs: dict) -> np.ndarray:
    """The batch positions of steps start..stop-1 of every draw group, an
    (stop - start, G, B) array in the smallest unsigned dtype that holds
    N - 1. Each store-less group draws its steps back to back; a group with
    a store (plan, (block, filled)) is left for its step to fill."""
    window = np.empty((stop - start, len(groups), B), dtype=np.min_scalar_type(N - 1))
    for g, (plan, store) in enumerate(groups):
        if store is None:
            for t in range(start, stop):
                window[t - start, g] = _batch_positions(plan, t, rngs)
    return window


def train_stack(ds_train: Dataset, ds_test: Dataset, plans: list[CurriculumPlan],
                schedules: list[LRSchedule], model_spec: ModelSpec, seeds: list[int],
                record_every: int = 50, self_paced: list[bool] | None = None,
                batch_store: BatchStore | None = None) -> list:
    """Run M SGD steps for R models at once: row r follows plans[r] and
    schedules[r] from the init of seeds[r], and every row equals that row
    trained alone, bitwise. Rows may differ in pacing and learning rate; they
    share the horizon M and the batch size.

    theta <- theta - lr(t) * grad(mean batch loss). Each curve records every
    `record_every` iterations and always at the final iteration; the recorded
    loss is the pre-update batch loss, accuracy is measured after the update,
    by one stacked forward of the test set through every live row (argmax,
    ties to the lowest class id); a row whose forward of the test set is
    non-finite diverges at that iteration.
    A row r with `self_paced[r]` true (the self-paced control) re-ranks its
    plan ascending by (its current loss on each training example, id) at
    t=0 and at each stage start of its pacing; a non-finite forward diverges it.
    `batch_store`, when given, supplies and keeps every full-size draw: a row
    at g(t) = N draws only when no stack of the store drew (plan seed, t).
    Rows that share a plan seed and g(t) share one draw of batch positions.
    Each draw group without a store draws a window of steps back to back,
    up to the next stage start of any row, M, or `_DRAW_WINDOW` steps on,
    and the window's steps then read it; a group with a store reads or
    draws at its own step. A draw depends on (plan seed, t, g(t)) alone, so
    the window changes when a batch is drawn, never what it holds.

    Returns one outcome per row: `(Model, LearningCurve)`, or the
    `TrainingDivergedError` that training the row alone raises. A diverged
    row leaves the stack at that iteration; the other rows go on unchanged.
    """
    R = len(plans)
    self_paced = [False] * R if self_paced is None else list(self_paced)
    if not len(schedules) == len(seeds) == len(self_paced) == R:
        raise ParameterError(f"{R} plans for {len(schedules)} schedules, {len(seeds)} seeds "
                             f"and {len(self_paced)} self-paced flags")
    if any(plan.N != ds_train.N for plan in plans):
        raise ParameterError("plan was built over a different dataset")
    if len({(plan.M, plan.batch_size) for plan in plans}) > 1:
        raise ParameterError("stacked plans must share one horizon M and one batch size")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    if not plans:
        return []
    K, d, N = ds_train.K, ds_train.d, ds_train.N
    M, B = plans[0].M, plans[0].batch_size
    arrays, P = _layout(model_spec, K, d)
    params = np.stack([_init_params(model_spec, K, d, seed) for seed in seeds])
    views = _stack_views(arrays, params)
    # what a training step writes (the gathered batch, the forward and the
    # gradient) and what a record step's forward of the test set writes: one
    # set per stack, of which the live rows use the first len(live) rows
    step = {"X": np.empty((R, B, d)), **_forward_arrays(model_spec, R, B, K),
            **_grad_arrays(model_spec, arrays, P, R, B)}
    record = _forward_arrays(model_spec, R, ds_test.N, K)
    live = list(range(R))   # stack row j holds plan live[j]
    current = list(plans)
    sizes = [plan.pacing.sizes for plan in plans]
    # lrs[t, j, 0] is live row j's learning rate at t: each schedule is
    # evaluated once per iteration, and a row is scaled by that same float64
    values = {s: [s.value(t) for t in range(M)] for s in set(schedules)}
    lrs = np.array([values[s] for s in schedules]).T[:, :, None].copy()
    # the stage starts of each row's pacing, where its g(t) changes
    starts = [np.flatnonzero(np.diff(s, prepend=-1)).tolist() for s in sizes]
    # a row's draw group and prefix change only at its stage starts (where a
    # self-paced row re-ranks) and at the step after the stack drops rows
    changes = set().union(*starts)
    # a window of draws ends at the next stage start of any row, at M, or
    # _DRAW_WINDOW steps after it starts, whichever comes first
    bounds = sorted(changes | {M})
    start = stop = 0  # the window holds the draws of steps start..stop-1
    recorded: list[list] = [[] for _ in plans]
    outcomes: list = [None] * R
    # each row's store block, for its full-size draws
    stored = [None if batch_store is None else batch_store.block(plan) for plan in plans]
    # live row j's class-balanced prefix of size g(t) is prefixes[j, :g(t)]
    prefixes = np.empty((R, N), dtype=np.int64)
    rngs: dict = {}  # plan seed -> the generator that each of its draws resets

    def drop(ok: np.ndarray, t: int, message: str = "") -> None:
        nonlocal params, views, live, lrs, step, record
        for j in np.flatnonzero(~ok):
            outcomes[live[j]] = TrainingDivergedError(t, message)
        params = params[ok]
        views = _stack_views(arrays, params)
        live = [r for r, keep in zip(live, ok) if keep]
        step = {key: a[:len(live)] for key, a in step.items()}
        record = {key: a[:len(live)] for key, a in record.items()}
        lrs = lrs[:, ok]
        changes.add(t + 1)

    # a diverging row is a typed outcome: its overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(M):
            if t in changes:
                # a self-paced row re-ranks at its stage starts, one row at a time
                for r in [r for r in live if self_paced[r] and t in starts[r]]:
                    j = live.index(r)
                    try:
                        current[r] = reranked(current[r], Model(model_spec, K, d, params[j])
                                              .example_losses(ds_train.X, ds_train.y))
                    except NumericalError:
                        drop(np.arange(len(live)) != j, t, _NONFINITE.format(t))
                if not live:
                    break
                # one draw group per (plan seed, g(t)), a full-size one
                # reading the row's store block
                keys, groups, group_of = {}, [], []
                for j, r in enumerate(live):
                    plan, size = current[r], sizes[r][t]
                    g = keys.setdefault((plan.seed, size), len(groups))
                    if g == len(groups):
                        groups.append((plan, stored[r] if size == N else None))
                    group_of.append(g)
                    prefixes[j, :size] = balanced_prefix(plan, size)
                if t < stop:  # the step after a drop: the groups are some of the window's
                    window = window[:, [previous[key] for key in keys]]
                previous = keys
                group_of = np.array(group_of)
                store_groups = [(g, plan, *store) for g, (plan, store) in enumerate(groups)
                                if store is not None]
                # live row j's batch ids are prefixes.flat[offsets[j] + its positions]
                offsets = np.arange(0, len(live) * N, N)[:, None]
            if t == stop:
                start, stop = t, min(bounds[bisect.bisect_right(bounds, t)], t + _DRAW_WINDOW)
                window = _draw_window(groups, start, stop, N, B, rngs)
            drawn = window[t - start]
            # a full-size group reads or fills its store block at its own step,
            # so a row that diverges leaves its later draws to the next stack
            for g, plan, block, filled in store_groups:
                if not filled[t]:
                    block[t], filled[t] = _batch_positions(plan, t, rngs), True
                drawn[g] = block[t]
            ids = np.take(prefixes, drawn[group_of] + offsets)
            # every id is in range; mode "raise" would gather into a copy of out
            X = np.take(ds_train.X, ids, axis=0, out=step["X"], mode="clip")
            logits, cache = _forward(model_spec, views, X, step)
            ok = np.isfinite(logits).all(axis=(1, 2))
            if not ok.all():
                drop(ok, t, _NONFINITE.format(t))
                logits, cache, ids = logits[ok], tuple(c[ok] for c in cache), ids[ok]
            if live:
                loss, grad = _mean_loss_and_grad(model_spec, views, logits, cache,
                                                 np.take(ds_train.y, ids), step)
                ok = np.isfinite(loss) & np.isfinite(grad).all(axis=1)
                if not ok.all():
                    drop(ok, t)
                    loss, grad = loss[ok], grad[ok]
            if not live:
                break
            grad *= lrs[t]
            params -= grad
            if t % record_every == 0 or t == M - 1:
                logits = _forward(model_spec, views, ds_test.X[None], record)[0]
                ok = np.isfinite(logits).all(axis=(1, 2))
                if not ok.all():
                    drop(ok, t, _NONFINITE.format(t))
                    logits, loss = logits[ok], loss[ok]
                    if not live:
                        break
                acc = (np.argmax(logits, axis=2) == ds_test.y).mean(axis=1)
                for j, r in enumerate(live):
                    recorded[r].append((t, float(loss[j]), float(acc[j]), sizes[r][t],
                                        float(lrs[t, j, 0])))
    for j, r in enumerate(live):
        outcomes[r] = (Model(model_spec, K, d, params[j]), LearningCurve._from_rows(recorded[r]))
    return outcomes
