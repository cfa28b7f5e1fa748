import numpy as np
import pytest

from curriculum_lab.errors import ParameterError
from curriculum_lab.pacing import (PacingSpec, extend_boundaries, g_fixed_exp,
                                   g_single_step, g_varied_exp, num_steps,
                                   saturation_iteration, subset_size)


def fixed_spec(N=100, M=200, sp=0.1, inc=2.0, step=10):
    return PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp,
                      increase=inc, step_length=step)


class TestFixedExp:
    @pytest.mark.parametrize("i,expected", [(0, 10), (9, 10), (10, 20), (25, 40), (40, 100)])
    def test_staircase_values(self, i, expected):
        assert g_fixed_exp(fixed_spec(), i) == expected

    def test_full_start_is_constant(self):
        spec = PacingSpec("fixed_exp", N=57, M=50, starting_percent=1.0,
                          increase=2.0, step_length=5)
        assert all(g_fixed_exp(spec, i) == 57 for i in range(50))

    def test_four_percent_of_2500_is_one_batch(self):
        spec = PacingSpec("fixed_exp", N=2500, M=1000, starting_percent=0.04,
                          increase=1.9, step_length=100)
        assert g_fixed_exp(spec, 0) == 100

    def test_iteration_out_of_range(self):
        with pytest.raises(ParameterError):
            g_fixed_exp(fixed_spec(M=50), 50)
        with pytest.raises(ParameterError):
            g_fixed_exp(fixed_spec(), -1)

    def test_huge_exponent_does_not_overflow(self):
        spec = PacingSpec("fixed_exp", N=10, M=10**9, starting_percent=0.1,
                          increase=3.0, step_length=1)
        assert g_fixed_exp(spec, 10**9 - 1) == 10


class TestSingleStep:
    def test_step_values(self):
        spec = PacingSpec("single_step", N=2500, M=100, starting_percent=0.04,
                          step_length=50)
        assert g_single_step(spec, 0) == 100
        assert g_single_step(spec, 49) == 100
        assert g_single_step(spec, 50) == 2500

    def test_zero_step_length_skips_first_phase(self):
        spec = PacingSpec("single_step", N=40, M=20, starting_percent=0.25,
                          step_length=0)
        assert all(g_single_step(spec, i) == 40 for i in range(20))

    def test_full_start_degenerates(self):
        spec = PacingSpec("single_step", N=40, M=20, starting_percent=1.0,
                          step_length=10)
        assert all(g_single_step(spec, i) == 40 for i in range(20))


class TestVariedExp:
    def varied(self, boundaries, N=100, M=100, sp=0.1, inc=2.0):
        return PacingSpec("varied_exp", N=N, M=M, starting_percent=sp,
                          increase=inc, boundaries=boundaries)

    def test_boundary_iteration_keeps_smaller_size(self):
        spec = self.varied([5, 15, 25, 35])
        assert g_varied_exp(spec, 5) == 10
        assert g_varied_exp(spec, 6) == 20
        assert g_varied_exp(spec, 16) == 40
        assert g_varied_exp(spec, 36) == 100

    def test_boundary_count_counts_strict_exceedances(self):
        spec = self.varied([5, 15, 25, 35])
        sizes = [g_varied_exp(spec, i) for i in range(100)]
        assert sizes == sorted(sizes)  # z(i) non-decreasing

    def test_non_increasing_boundaries_rejected(self):
        with pytest.raises(ParameterError):
            self.varied([5, 5, 25, 35])

    def test_reaches_full_size_after_last_boundary(self):
        spec = self.varied([5, 15, 25, 35])
        assert saturation_iteration(spec) == 36
        assert g_varied_exp(spec, 35) < 100
        assert g_varied_exp(spec, 36) == 100

    def test_wrong_boundary_count_rejected(self):
        with pytest.raises(ParameterError):
            self.varied([5, 15])

    def test_equal_gaps_reproduce_fixed_exp(self):
        # with the strict i > boundary convention, boundaries at k*L - 1
        # reproduce a fixed step of length L on every iteration, including
        # the off-by-boundary check at i = L exactly
        rng = np.random.default_rng(42)
        for _ in range(100):
            N = int(rng.integers(20, 400))
            L = int(rng.integers(1, 30))
            sp = float(rng.uniform(0.02, 0.8))
            inc = float(rng.uniform(1.1, 3.0))
            if round(sp * N) < 1:
                continue
            k = num_steps(sp, inc)
            if k == 0:
                continue
            M = L * (k + 2) + 5
            fixed = PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp,
                               increase=inc, step_length=L)
            varied = PacingSpec("varied_exp", N=N, M=M, starting_percent=sp,
                                increase=inc,
                                boundaries=[j * L - 1 for j in range(1, k + 1)])
            for i in range(M):
                assert g_varied_exp(varied, i) == g_fixed_exp(fixed, i), (N, L, sp, inc, i)


class TestNumSteps:
    @pytest.mark.parametrize("sp,inc,expected", [
        (0.04, 1.9, 6),
        (0.5, 2.0, 1),
        (1.0, 3.0, 0),
        (0.25, 2.0, 2),
    ])
    def test_values(self, sp, inc, expected):
        assert num_steps(sp, inc) == expected

    def test_smallest_k_property(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            sp = float(rng.uniform(0.01, 1.0))
            inc = float(rng.uniform(1.05, 4.0))
            k = num_steps(sp, inc)
            assert sp * inc ** k >= 1.0 - 1e-9
            if k > 0:
                assert sp * inc ** (k - 1) < 1.0 + 1e-9


class TestProperties:
    def random_spec(self, rng):
        variant = rng.choice(["fixed_exp", "single_step", "varied_exp"])
        N = int(rng.integers(5, 3000))
        sp = float(rng.uniform(0.01, 1.0))
        if round(sp * N) < 1:
            sp = 1.0 / N * 2
        inc = float(rng.uniform(1.1, 3.0))
        step = int(rng.integers(1, 200))
        if variant == "varied_exp":
            k = num_steps(sp, inc)
            if k == 0:
                variant = "fixed_exp"
            else:
                gaps = rng.integers(1, 150, size=k)
                bounds = np.cumsum(gaps)
                M = int(bounds[-1] + rng.integers(2, 100))
                return PacingSpec("varied_exp", N=N, M=M, starting_percent=sp,
                                  increase=inc, boundaries=[int(b) for b in bounds])
        M = int(rng.integers(step + 1, step * 10 + 2))
        if variant == "fixed_exp":
            return PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp,
                              increase=inc, step_length=step)
        return PacingSpec("single_step", N=N, M=M, starting_percent=sp,
                          step_length=step)

    def test_monotone_bounded_staircase(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            spec = self.random_spec(rng)
            sizes = np.array([subset_size(spec, i) for i in range(spec.M)])
            assert (np.diff(sizes) >= 0).all()
            start = max(1, int(np.floor(spec.starting_percent * spec.N + 0.5)))
            assert sizes[0] == min(start, spec.N)
            assert sizes.max() <= spec.N
            # staircase: value changes only at step/boundary iterations
            changes = np.flatnonzero(np.diff(sizes)) + 1
            if spec.variant == "fixed_exp":
                assert all(c % spec.step_length == 0 for c in changes)
            elif spec.variant == "single_step":
                assert all(c == spec.step_length for c in changes)
            else:
                assert set(changes) <= {b + 1 for b in spec.boundaries}

    def test_fixed_exp_reaches_full_size_at_saturation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            spec = self.random_spec(rng)
            if spec.variant != "fixed_exp":
                continue
            sat = saturation_iteration(spec)
            assert sat == spec.step_length * num_steps(spec.starting_percent, spec.increase)
            if sat < spec.M:
                assert subset_size(spec, sat) == spec.N
                if sat > 0:
                    assert subset_size(spec, sat - 1) < spec.N

    def test_sizes_equal_subset_size_at_every_iteration(self):
        rng = np.random.default_rng(19)
        specs = [self.random_spec(rng) for _ in range(200)]
        specs += [
            PacingSpec("vanilla", N=30, M=7),
            PacingSpec("single_step", N=40, M=20, starting_percent=0.25, step_length=0),
            PacingSpec("single_step", N=40, M=20, starting_percent=0.25, step_length=35),
            PacingSpec("varied_exp", N=100, M=12, starting_percent=0.1, increase=2.0,
                       boundaries=[5, 15, 25, 35]),
            fixed_spec(M=1),
        ]
        for spec in specs:
            assert spec.sizes == tuple(subset_size(spec, i) for i in range(spec.M))

    def test_sizes_computed_once_per_spec(self):
        spec = fixed_spec()
        assert spec.sizes is spec.sizes


class TestValidationAndHelpers:
    def test_vanilla_variant(self):
        spec = PacingSpec("vanilla", N=30, M=10)
        assert all(subset_size(spec, i) == 30 for i in range(10))

    def test_empty_initial_subset_rejected(self):
        with pytest.raises(ParameterError):
            PacingSpec("fixed_exp", N=100, M=10, starting_percent=0.001,
                       increase=2.0, step_length=5)

    def test_extend_boundaries_repeats_second_gap(self):
        assert extend_boundaries([10, 30], 0.04, 1.9) == (10, 30, 50, 70, 90, 110)
        assert extend_boundaries([5, 15, 25, 35, 45, 55], 0.04, 1.9) == (5, 15, 25, 35, 45, 55)

    def test_extend_boundaries_rejects_too_many(self):
        with pytest.raises(ParameterError):
            extend_boundaries([1, 2, 3], 0.5, 2.0)
