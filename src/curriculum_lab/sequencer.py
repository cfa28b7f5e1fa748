"""Turn (scores, pacing, dataset) into a deterministic stream of mini-batches.

The plan sorts examples by difficulty once, then each iteration i samples a
mini-batch uniformly (without replacement) from the class-balanced easiest
prefix of size g(i). Batch sampling uses a counter-based RNG keyed by
(seed, i), so any iteration's batch can be recomputed in isolation. A plan
holds no generator: its caller (a training stack) keeps one Philox generator
per plan seed, which each draw resets to Philox(key=seed, counter=i << 128)
by assigning a fresh generator's state dict with counter word 2 set to i.
That dict holds its counter, key and buffer as lists of Python ints, because
numpy's state setter reads arrays one numpy scalar at a time: ~0.5 us per
reset, against 1.6-1.8 us from arrays, beside ~9.5 us for the draw itself at
g(i) = 2500 and B = 100 (timeit, numpy 2.4, one Xeon core).
A draw is positions within the prefix (`_batch_positions`), and iteration
i's batch is the prefix's ids at those positions. The positions depend on
(seed, i, g(i)) alone, not on the order, so the rows of a training stack that
share a seed and g(i) share one draw, even across a self-paced re-rank, and
the stack may draw up to 64 iterations ahead of the one a batch serves
(`trainer._draw_window`): draws made back to back cost about what timeit
measures, and 12.4-14.2 us each when interleaved with the SGD steps they
serve (the acceptance pair in process, same core).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, largest_remainder_quotas
from .errors import ParameterError
from .pacing import PacingSpec, subset_size


@dataclass(frozen=True)
class CurriculumPlan:
    ds: Dataset
    order: np.ndarray   # all ids, easiest first: ascending by (score, id)
    batch_size: int
    pacing: PacingSpec
    seed: int

    @property
    def N(self) -> int:
        return self.ds.N

    @property
    def M(self) -> int:
        return self.pacing.M


def _order(scores: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.arange(len(scores)), scores))
    order.setflags(write=False)
    return order


def min_starting_percent(batch_size: int, N: int) -> float:
    """Smallest starting_percent whose rounded initial subset fits one batch."""
    return (batch_size - 0.5) / N


def build_plan(ds: Dataset, scores, pacing: PacingSpec, batch_size: int,
               seed: int) -> CurriculumPlan:
    """Sort ascending by (score, id) and bind the pacing function.

    Requires batch_size <= N and g(0) >= batch_size; the error names the
    minimal legal starting_percent when the initial subset is too small.
    """
    values = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    if values.shape != (ds.N,):
        raise ParameterError(f"scores cover {values.shape[0]} ids, dataset has {ds.N}")
    if not np.isfinite(values).all():
        raise ParameterError("scores contain non-finite values")
    if pacing.N != ds.N:
        raise ParameterError(f"pacing built for N={pacing.N}, dataset has N={ds.N}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if batch_size > ds.N:
        raise ParameterError(f"batch_size={batch_size} exceeds the dataset's N={ds.N} examples")
    g0 = subset_size(pacing, 0)
    if g0 < batch_size:
        raise ParameterError(
            f"initial subset size g(0)={g0} is smaller than batch_size={batch_size}; "
            f"starting_percent must be at least {min_starting_percent(batch_size, ds.N)}")
    return CurriculumPlan(ds=ds, order=_order(values),
                          batch_size=batch_size, pacing=pacing, seed=seed)


def balanced_prefix(plan: CurriculumPlan, size: int) -> np.ndarray:
    """The easiest `size` ids, class-balanced by proportional quota.

    Per-class quotas follow the largest-remainder rule on the training class
    proportions; within each class the easiest examples win. Output is sorted
    by (score, id).
    """
    if not 1 <= size <= plan.N:
        raise ParameterError(f"size {size} outside [1, {plan.N}]")
    if size == plan.N:
        return plan.order
    quotas = largest_remainder_quotas(plan.ds.class_counts, size)
    # walking the easiest-first order, keep each id whose rank within its
    # class is below the class quota; the kept ids stay in (score, id) order
    labels = plan.ds.y[plan.order]
    rank = np.empty(plan.N, dtype=np.int64)
    for c, count in enumerate(plan.ds.class_counts):
        rank[labels == c] = np.arange(count)
    return plan.order[rank < quotas[labels]]


def _batch_positions(plan: CurriculumPlan, i: int, rngs: dict) -> np.ndarray:
    """Iteration i's batch as positions within the balanced prefix of size g(i);
    `rngs` maps plan seed to (Generator, its Philox, a fresh state dict), filled here."""
    cached = rngs.get(plan.seed)
    if cached is None:
        bit_gen = np.random.Philox(key=plan.seed)
        state = bit_gen.state
        state["state"] = {name: words.tolist() for name, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        cached = rngs[plan.seed] = (np.random.Generator(bit_gen), bit_gen, state)
    rng, bit_gen, state = cached
    # `state` is a fresh generator's (empty output buffer); with counter word 2
    # set to i it is the state of Philox(key=seed, counter=i << 128)
    state["state"]["counter"][2] = i
    bit_gen.state = state
    # the same draws as rng.choice(prefix, ...), without converting the prefix
    return rng.choice(plan.pacing.sizes[i], size=plan.batch_size, replace=False)


def reranked(plan: CurriculumPlan, losses: np.ndarray) -> CurriculumPlan:
    """A new plan ordered ascending by (loss, id), the self-paced re-rank by
    a model's current per-example losses; the input plan is unchanged."""
    return replace(plan, order=_order(losses))
