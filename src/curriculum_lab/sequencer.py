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
reset, against 1.6-1.8 us from arrays.
A draw is positions within the prefix, and iteration i's batch is the
prefix's ids at those positions. The positions depend on (seed, i, g(i))
alone, not on the order, so the rows of a training stack that share a seed
and g(i) share one draw, even across a self-paced re-rank, and the stack may
draw up to 64 iterations ahead of the one a batch serves, across any row's
stage starts (`trainer._draw_window`).

Two paths make the same draws. `_batch_positions`, the definition and the
tests' reference, makes one `Generator.choice` per draw: ~9.5 us at
g(i) = 2500 and B = 100 (timeit, numpy 2.4, one Xeon core), 11-13 us in a
stack's windows. `_batch_positions_many` makes a list of draws at once. Per
draw it resets the generator and takes B raw words from numpy's own Philox
(~2.5 us); then it replays `choice` across all the draws together. The
2B - 1 32-bit halves, low half first, become Lemire draws (u * b) >> 32
(arXiv:1805.10941) with bounds g - B + 1 ... g for Floyd's sample and
B ... 2 for the Fisher-Yates shuffle. Floyd runs as B vectorised steps over
a seen-mask of (draws x max g) bytes, the shuffle as B - 1 vectorised swaps.
Each step costs a few numpy calls whatever the number of draws, so a call
pays ~0.5 ms at B = 100 before its first draw: 128 draws cost ~7 us each
back to back, and in a stack's windows the bulk path wins from ~48 draws on
(`_BULK_MIN`). The draws numpy makes another way go per call: a Lemire word
that numpy rejects and draws again (the product's low half below
2**32 mod b: 5 of the acceptance pair's 150 000 draws), g == B, and numpy's
tail shuffle (g > 10000 and B > g // 50).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, largest_remainder_quotas
from .errors import ParameterError
from .pacing import PacingSpec, subset_size

# fewer draws than this go per call in `_batch_positions_many`: below it the
# bulk steps' fixed cost exceeds the per-call draws' (one-row stacks, W = 32 to 96)
_BULK_MIN = 48


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
    counts = plan.ds.class_counts
    quotas = largest_remainder_quotas(counts, size)
    # walking the easiest-first order, keep each id whose rank within its
    # class is below the class quota; the kept ids stay in (score, id) order
    labels = plan.ds.y[plan.order]
    rank = np.empty(plan.N, dtype=np.int64)
    for c, count in enumerate(counts):
        rank[labels == c] = np.arange(count)
    return plan.order[rank < quotas[labels]]


def _generator(plan: CurriculumPlan, i: int, rngs: dict):
    """The plan seed's (Generator, Philox), reset to Philox(key=seed,
    counter=i << 128); `rngs` maps plan seed to (Generator, its Philox, a
    fresh state dict), filled here."""
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
    return rng, bit_gen


def _batch_positions(plan: CurriculumPlan, i: int, rngs: dict) -> np.ndarray:
    """Iteration i's batch as positions within the balanced prefix of size g(i),
    drawn by the generator of `_generator(plan, i, rngs)`."""
    # the same draws as rng.choice(prefix, ...), without converting the prefix
    return _generator(plan, i, rngs)[0].choice(plan.pacing.sizes[i], size=plan.batch_size,
                                               replace=False)


def _bulk_positions(requests: list, rngs: dict):
    """`_batch_positions` of each (plan, i) in `requests`, all of one batch
    size B, made across the draws at once: a (len(requests), B) int64 array,
    and a mask of the rows that numpy's `choice` draws another way, whose
    values are arbitrary. See the module docstring for the stream."""
    C, B = len(requests), requests[0][0].batch_size
    words = np.empty((C, B), dtype=np.uint64)
    g = np.empty(C, dtype=np.int64)
    for c, (plan, i) in enumerate(requests):
        g[c] = plan.pacing.sizes[i]
        words[c] = _generator(plan, i, rngs)[1].random_raw(B)
    # the 2B - 1 32-bit words a draw reads, low half of each raw word first,
    # one row per word; the last high half is unused
    prod = np.empty((2 * B - 1, C), dtype=np.uint64)
    np.bitwise_and(words.T, 0xFFFFFFFF, out=prod[0::2])
    np.right_shift(words.T[:B - 1], 32, out=prod[1::2])
    del words
    # Lemire: word u with bound b gives (u * b) >> 32; Floyd's bounds are
    # g - B + 1 ... g, the shuffle's B ... 2
    prod[:B] *= np.add.outer(np.arange(B, dtype=np.uint32), (g - B + 1).astype(np.uint32))
    prod[B:] *= np.arange(B, 1, -1, dtype=np.uint64)[:, None]
    # numpy draws again when the product's low half is below 2**32 mod b,
    # which is below b <= max(g); so only those few words need the exact test
    gmax = int(g.max())
    # numpy's first Floyd bound takes no word when g == B, and it shuffles
    # a whole arange instead of Floyd when g > 10000 and B > g // 50
    redraw = (g == B) | ((g > 10000) & (B > g // 50))
    near = prod.astype(np.uint32) < gmax
    if near.any():
        word, c = np.nonzero(near)
        bound = np.where(word < B, g[c] - B + 1 + word, 2 * B - word)
        redraw[c[prod[word, c] % 2 ** 32 < 2 ** 32 % bound]] = True
    del near
    prod >>= 32
    values = prod.view(np.int64)
    # Floyd: step k takes its value unless this draw already has it, then
    # its bound's top, g - B + k; `seen` flags each draw's taken values
    floyd = values[:B]
    offsets = np.arange(0, C * gmax, gmax)
    floyd += offsets
    top = offsets + g - B
    seen = np.zeros(C * gmax, dtype=bool)
    for step in floyd:
        np.copyto(step, top, where=seen[step])
        seen[step] = True
        top += 1
    del seen  # before the subtract, whose 64 KB numpy buffer would add to the peak
    floyd -= offsets
    # Fisher-Yates: for i = B - 1 ... 1, swap each draw's values i and j,
    # j its Lemire draw below i + 1, addressed as the flat index j * C + c
    swaps = values[B:]
    swaps *= C
    swaps += np.arange(C)
    flat = floyd.reshape(-1)
    for i, j in zip(range(B - 1, 0, -1), swaps):
        held = flat[j]
        flat[j] = floyd[i]
        floyd[i] = held
    return floyd.T, redraw


def _batch_positions_many(requests: list, rngs: dict) -> np.ndarray:
    """`_batch_positions(plan, i, rngs)` of each (plan, i) in `requests`, all
    of one batch size, as the rows of a (len(requests), B) int64 array. At
    least `_BULK_MIN` requests are drawn in bulk (`_bulk_positions`), fewer
    per call, and so is each draw that numpy's `choice` makes another way.
    Every draw of a training stack passes here once."""
    if len(requests) < _BULK_MIN:
        return np.array([_batch_positions(plan, i, rngs) for plan, i in requests])
    drawn, redraw = _bulk_positions(requests, rngs)
    for c in np.flatnonzero(redraw):
        drawn[c] = _batch_positions(*requests[c], rngs)
    return drawn


def reranked(plan: CurriculumPlan, losses: np.ndarray) -> CurriculumPlan:
    """A new plan ordered ascending by (loss, id), the self-paced re-rank by
    a model's current per-example losses; the input plan is unchanged."""
    return replace(plan, order=_order(losses))
