"""Pacing functions: staircase maps from iteration index to prefix size.

All variants are non-decreasing and bounded by the dataset size N. Fractional
sizes are rounded half up, then clamped to [1, N]; the saturation test runs in
log space so large exponents cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError

VARIANTS = ("fixed_exp", "varied_exp", "single_step", "vanilla")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def num_steps(starting_percent: float, increase: float) -> int:
    """Number of size increases before the full dataset is reached.

    Smallest k with starting_percent * increase**k >= 1, i.e.
    ceil(-log_increase(starting_percent)); 0 when starting_percent is 1.
    """
    if not 0.0 < starting_percent <= 1.0:
        raise ParameterError(f"starting_percent must be in (0, 1], got {starting_percent}")
    if not increase > 1.0:
        raise ParameterError(f"increase must be > 1, got {increase}")
    ratio = -math.log(starting_percent) / math.log(increase)
    # guard against log round-off pushing exact integers upward
    return max(0, math.ceil(ratio - 1e-12))


@dataclass(frozen=True)
class PacingSpec:
    """One pacing function instance, bound to a dataset size N and horizon M.

    `boundaries` (varied_exp only) are cumulative iteration indices; the
    subset size increases strictly after each boundary, so the boundary
    iteration itself still uses the smaller size.
    """

    variant: str
    N: int
    M: int
    starting_percent: float = 1.0
    increase: float | None = None
    step_length: int | None = None
    boundaries: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown pacing variant {self.variant!r}")
        if self.N < 1 or self.M < 1:
            raise ParameterError(f"N and M must be >= 1, got N={self.N}, M={self.M}")
        if self.variant == "vanilla":
            return
        if not 0.0 < self.starting_percent <= 1.0:
            raise ParameterError(
                f"starting_percent must be in (0, 1], got {self.starting_percent}")
        if _round_half_up(self.starting_percent * self.N) < 1:
            raise ParameterError(
                f"starting_percent {self.starting_percent} rounds to an empty subset for N={self.N}")
        if self.variant in ("fixed_exp", "varied_exp"):
            if self.increase is None or not self.increase > 1.0:
                raise ParameterError(f"increase must be > 1, got {self.increase}")
        if self.variant == "fixed_exp":
            if self.step_length is None or self.step_length < 1:
                raise ParameterError(f"step_length must be >= 1, got {self.step_length}")
        if self.variant == "single_step":
            # step_length 0 is legal: the first phase is empty and g == N throughout
            if self.step_length is None or self.step_length < 0:
                raise ParameterError(f"step_length must be >= 0, got {self.step_length}")
        if self.variant == "varied_exp":
            k = num_steps(self.starting_percent, self.increase)
            if self.boundaries is None or len(self.boundaries) != k:
                got = None if self.boundaries is None else len(self.boundaries)
                raise ParameterError(
                    f"varied_exp needs exactly num_steps={k} boundaries, got {got}")
            object.__setattr__(self, "boundaries", tuple(int(b) for b in self.boundaries))
            if any(b < 0 for b in self.boundaries):
                raise ParameterError("boundaries must be non-negative iteration indices")
            if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
                raise ParameterError(f"boundaries must be strictly increasing, got {self.boundaries}")

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """The whole schedule g(0), ..., g(M-1), computed once per spec.

        `subset_size` is evaluated only where the staircase may step up, and
        each value is repeated until the next such iteration.
        """
        starts = sorted({0, self.M} | {s for s in _step_starts(self) if 0 < s < self.M})
        out: list[int] = []
        for start, stop in zip(starts, starts[1:]):
            out += [subset_size(self, start)] * (stop - start)
        return tuple(out)


def _step_starts(spec: PacingSpec):
    """Iterations at which the subset size may differ from the iteration before."""
    if spec.variant == "fixed_exp":
        return range(spec.step_length, spec.M, spec.step_length)
    if spec.variant == "single_step":
        return (spec.step_length,)
    if spec.variant == "varied_exp":
        return tuple(b + 1 for b in spec.boundaries)
    return ()


def _check_iteration(spec: PacingSpec, i: int) -> None:
    if not 0 <= i < spec.M:
        raise ParameterError(f"iteration {i} outside [0, {spec.M})")


def _sized(spec: PacingSpec, exponent: int) -> int:
    """round_half_up(min(sp * inc**exponent, 1) * N), overflow-safe."""
    sp, inc = spec.starting_percent, spec.increase
    if math.log(sp) + exponent * math.log(inc) >= 0.0:
        fraction = 1.0
    else:
        fraction = min(sp * inc ** exponent, 1.0)
    return max(1, min(spec.N, _round_half_up(fraction * spec.N)))


def g_fixed_exp(spec: PacingSpec, i: int) -> int:
    """Fixed step length, exponentially growing subset size."""
    _check_iteration(spec, i)
    return _sized(spec, i // spec.step_length)


def g_single_step(spec: PacingSpec, i: int) -> int:
    """starting_percent * N before step_length, N afterward."""
    _check_iteration(spec, i)
    if i < spec.step_length:
        return max(1, min(spec.N, _round_half_up(spec.starting_percent * spec.N)))
    return spec.N


def g_varied_exp(spec: PacingSpec, i: int) -> int:
    """Exponential growth with explicit cumulative step boundaries."""
    _check_iteration(spec, i)
    z = sum(1 for b in spec.boundaries if i > b)
    return _sized(spec, z)


def subset_size(spec: PacingSpec, i: int) -> int:
    """Dispatch to the spec's variant; `vanilla` always uses the full dataset."""
    if spec.variant == "vanilla":
        _check_iteration(spec, i)
        return spec.N
    if spec.variant == "fixed_exp":
        return g_fixed_exp(spec, i)
    if spec.variant == "single_step":
        return g_single_step(spec, i)
    return g_varied_exp(spec, i)


def saturation_iteration(spec: PacingSpec) -> int:
    """First iteration at which the subset size equals N (may exceed M)."""
    if spec.variant == "vanilla":
        return 0
    if spec.starting_percent >= 1.0:
        return 0
    if spec.variant == "fixed_exp":
        return spec.step_length * num_steps(spec.starting_percent, spec.increase)
    if spec.variant == "single_step":
        return spec.step_length
    return spec.boundaries[-1] + 1 if spec.boundaries else 0


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
