"""Pacing functions: staircase maps from iteration index to prefix size.

Every variant is one staircase: sorted stage starts, the first 0, with one
subset size per stage, strictly increasing up to the dataset size N. Fractional
sizes are rounded half up, then clamped to [1, N]; the saturation test runs in
log space so large exponents cannot overflow.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import round_half_up
from .errors import ParameterError

# the variants, each with the optional fields it reads; a spec stores None in the others
_READS = {
    "fixed_exp": ("starting_percent", "increase", "step_length"),
    "varied_exp": ("starting_percent", "increase", "boundaries"),
    "single_step": ("starting_percent", "step_length"),
    "vanilla": (),
}


def num_steps(starting_percent: float, increase: float) -> int:
    """Number of size increases before the full dataset is reached.

    Smallest k with starting_percent * increase**k >= 1, i.e.
    ceil(-log_increase(starting_percent)); 0 when starting_percent is 1.
    """
    if not 0.0 < starting_percent <= 1.0:
        raise ParameterError(f"starting_percent must be in (0, 1], got {starting_percent}")
    if increase is None or not increase > 1.0:
        raise ParameterError(f"increase must be > 1, got {increase}")
    ratio = -math.log(starting_percent) / math.log(increase)
    # guard against log round-off pushing exact integers upward
    return max(0, math.ceil(ratio - 1e-12))


def stage_starts(variant: str, starting_percent: float | None = 1.0,
                 increase: float | None = None, step_length: int | None = None,
                 boundaries: tuple[int, ...] | None = None) -> list[int]:
    """The first iteration of each stage of a staircase variant, up to the
    first stage at size N, after checking every rule of the variant's
    settings that does not read N (what the variant does not read is
    ignored). Stage z of fixed_exp and varied_exp has exponent z; a
    single_step with step_length 0 has only its full-size stage."""
    if variant not in _READS:
        raise ParameterError(f"unknown pacing variant {variant!r}")
    if variant == "vanilla":
        return [0]
    if starting_percent is None or not 0.0 < starting_percent <= 1.0:
        raise ParameterError(f"starting_percent must be in (0, 1], got {starting_percent}")
    if variant == "single_step":
        # step_length 0 is legal: the first phase is empty and g == N throughout
        if step_length is None or step_length < 0:
            raise ParameterError(f"step_length must be >= 0, got {step_length}")
        return [0, step_length] if step_length else [0]
    k = num_steps(starting_percent, increase)  # also validates increase
    if variant == "fixed_exp":
        if step_length is None or step_length < 1:
            raise ParameterError(f"step_length must be >= 1, got {step_length}")
        return [z * step_length for z in range(k + 1)]
    if boundaries is None or len(boundaries) != k:
        got = None if boundaries is None else len(boundaries)
        raise ParameterError(f"varied_exp needs exactly num_steps={k} boundaries, got {got}")
    if any(b < 0 for b in boundaries):
        raise ParameterError("boundaries must be non-negative iteration indices")
    if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ParameterError(f"boundaries must be strictly increasing, got {boundaries}")
    return [0] + [b + 1 for b in boundaries]


@dataclass(frozen=True)
class PacingSpec:
    """One pacing function instance, bound to a dataset size N and horizon M.

    `boundaries` (varied_exp only) are cumulative iteration indices; the
    subset size increases strictly after each boundary, so the boundary
    iteration itself still uses the smaller size. Fields the variant does not
    read are stored as None, so stray settings cannot tell equal specs apart.
    """

    variant: str
    N: int
    M: int
    starting_percent: float | None = 1.0
    increase: float | None = None
    step_length: int | None = None
    boundaries: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in _READS:
            raise ParameterError(f"unknown pacing variant {self.variant!r}")
        if self.N < 1 or self.M < 1:
            raise ParameterError(f"N and M must be >= 1, got N={self.N}, M={self.M}")
        for name in ("starting_percent", "increase", "step_length", "boundaries"):
            if name not in _READS[self.variant]:
                object.__setattr__(self, name, None)
        starts, sizes = [], []
        for start, size in self._stages():
            if not sizes or size != sizes[-1]:
                starts.append(start)
                sizes.append(size)
        # stage k holds size sizes[k] on iterations [starts[k], starts[k + 1])
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_sizes", tuple(sizes))

    def _stages(self) -> list[tuple[int, int]]:
        """Validate the variant's settings; (start, size) per stage, up to
        the first stage at size N."""
        if self.boundaries is not None:
            object.__setattr__(self, "boundaries", tuple(int(b) for b in self.boundaries))
        starts = stage_starts(self.variant, self.starting_percent, self.increase,
                              self.step_length, self.boundaries)
        if self.variant == "vanilla":
            return [(0, self.N)]
        first = round_half_up(self.starting_percent * self.N)
        if first < 1:
            raise ParameterError(
                f"starting_percent {self.starting_percent} rounds to an empty subset "
                f"for N={self.N}")
        if self.variant == "single_step":
            return list(zip(starts, (first, self.N) if len(starts) > 1 else (self.N,)))
        return [(start, _sized(self, z)) for z, start in enumerate(starts)]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """The whole schedule g(0), ..., g(M-1), computed once per spec."""
        n = bisect_left(self._starts, self.M)
        bounds = self._starts[:n] + (self.M,)
        return tuple(np.repeat(self._sizes[:n], np.diff(bounds)).tolist())


def _sized(spec: PacingSpec, exponent: int) -> int:
    """round_half_up(min(sp * inc**exponent, 1) * N), overflow-safe."""
    sp, inc = spec.starting_percent, spec.increase
    if math.log(sp) + exponent * math.log(inc) >= 0.0:
        fraction = 1.0
    else:
        fraction = min(sp * inc ** exponent, 1.0)
    return max(1, min(spec.N, round_half_up(fraction * spec.N)))


def subset_size(spec: PacingSpec, i: int) -> int:
    """g(i): the size of the stage that holds iteration i."""
    if not 0 <= i < spec.M:
        raise ParameterError(f"iteration {i} outside [0, {spec.M})")
    return spec._sizes[bisect_right(spec._starts, i) - 1]


def saturation_iteration(spec: PacingSpec) -> int:
    """First iteration at which the subset size equals N (may exceed M)."""
    return spec._starts[-1]


def extend_boundaries(bounds, starting_percent: float,
                      increase: float) -> tuple[int, ...]:
    """Complete a partial boundary list to the num_steps length varied_exp needs.

    Only the leading boundaries are tuned (typically the first two); trailing
    ones repeat the gap between the last two given.
    """
    k = num_steps(starting_percent, increase)
    out = [int(b) for b in bounds]
    if len(out) > k:
        raise ParameterError(f"varied_exp takes at most num_steps={k} boundaries, got {len(out)}")
    if len(out) == k:
        return tuple(out)
    if len(out) < 2:
        raise ParameterError(
            f"need at least the first two boundaries to derive the remaining {k - len(out)}")
    gap = out[-1] - out[-2]
    if gap < 1:
        raise ParameterError(f"boundaries must be strictly increasing, got {bounds}")
    while len(out) < k:
        out.append(out[-1] + gap)
    return tuple(out)
