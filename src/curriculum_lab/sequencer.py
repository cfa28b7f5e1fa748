"""Turn (scores, pacing, dataset) into a deterministic stream of mini-batches.

The plan sorts examples by difficulty once, then each iteration i samples a
mini-batch uniformly (without replacement) from the class-balanced easiest
prefix of size g(i). Batch sampling uses a counter-based RNG keyed by
(seed, i), so any iteration's batch can be recomputed in isolation; one
Philox generator per plan is reused, its counter set to i before each draw.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    _prefix_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # seed -> (Generator, Philox state dict) reused by every minibatch_at call
    _batch_rng: dict = field(default_factory=dict, repr=False, compare=False)

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

    Requires g(0) >= batch_size; the error names the minimal legal
    starting_percent when the initial subset is too small.
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
    cached = plan._prefix_cache.get(size)
    if cached is not None:
        return cached
    quotas = largest_remainder_quotas(plan.ds.class_counts, size)
    # walking the easiest-first order, keep each id whose rank within its
    # class is below the class quota; the kept ids stay in (score, id) order
    labels = plan.ds.y[plan.order]
    rank = np.empty(plan.N, dtype=np.int64)
    for c, count in enumerate(plan.ds.class_counts):
        rank[labels == c] = np.arange(count)
    ids = plan.order[rank < quotas[labels]]
    ids.setflags(write=False)
    plan._prefix_cache[size] = ids
    return ids


def minibatch_at(plan: CurriculumPlan, i: int) -> np.ndarray:
    """Sample iteration i's mini-batch: uniform, without replacement, from the
    balanced prefix of size g(i). Reproducible and random-access via a Philox
    stream keyed by (seed, i)."""
    if not 0 <= i < plan.M:
        raise ParameterError(f"iteration {i} outside [0, {plan.M})")
    subset = balanced_prefix(plan, plan.pacing.sizes[i])
    cached = plan._batch_rng.get(plan.seed)
    if cached is None:
        bit_gen = np.random.Philox(key=plan.seed)
        cached = plan._batch_rng[plan.seed] = (np.random.Generator(bit_gen), bit_gen.state)
    rng, state = cached
    # `state` is a fresh generator's (empty output buffer); with counter word 2
    # set to i it is the state of Philox(key=seed, counter=i << 128)
    state["state"]["counter"][:] = (0, 0, i, 0)
    rng.bit_generator.state = state
    # the same draws as rng.choice(subset, ...), without converting `subset`
    return subset[rng.choice(len(subset), size=plan.batch_size, replace=False)]


def self_paced_rescore_hook(plan: CurriculumPlan, model, i: int) -> CurriculumPlan:
    """Re-rank the plan by the current model's per-example loss.

    Used only for the self-paced control condition, at pacing-step
    boundaries. Returns a new plan; the input plan is unchanged.
    """
    losses = np.asarray(model.example_losses(plan.ds.X, plan.ds.y), dtype=np.float64)
    return replace(plan, order=_order(losses), _prefix_cache={})
