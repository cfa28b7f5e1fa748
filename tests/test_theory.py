import math

import numpy as np
import pytest

from curriculum_lab.data import Dataset
from curriculum_lab.errors import DataLoadError, ParameterError
from curriculum_lab.pacing import PacingSpec
from curriculum_lab.scoring import ScoreTable
from curriculum_lab.sequencer import balanced_prefix, build_plan
from curriculum_lab.theory import (LossTable, Prior, matched_argmax_holds,
                                   check_constant_variance_case, decomposition_residual, check_argmax_preservation,
                                   check_ideal_prior_amplification, constant_variance_family,
                                   curriculum_to_prior, ideal_prior,
                                   load_loss_table_csv, prior_utility,
                                   random_instance, run_verification,
                                   save_loss_table_csv, sum_covariance,
                                   sum_variance, utility)

# worked 2x2 instance: losses t1=[0,2], t2=[1,1]; every expected value below
# was computed by direct evaluation of the defining formulas with math.exp
TABLE_2X2 = LossTable(np.array([[0.0, 2.0], [1.0, 1.0]]))
E2 = math.exp(-2.0)
C_2X2 = 1.0 + E2                        # 1.1353352832366127
P_IDEAL = (1.0 / C_2X2, E2 / C_2X2)     # (0.8807970779778823, 0.11920292202211755)


class TestUtility:
    def test_zero_losses_give_unit_utility(self):
        table = LossTable(np.zeros((2, 3)))
        U, mean = utility(table, 0)
        assert np.array_equal(U, np.ones(3))
        assert mean == 1.0

    def test_direct_exponentiation(self):
        U, mean = utility(TABLE_2X2, 0)
        assert U[0] == 1.0
        assert U[1] == pytest.approx(0.1353352832366127, abs=1e-15)
        assert mean == pytest.approx((1.0 + E2) / 2.0, abs=1e-15)

    def test_permutation_invariance_of_mean(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 4, size=(3, 7))
        t1 = LossTable(losses)
        t2 = LossTable(losses[:, ::-1])
        assert utility(t1, 1)[1] == pytest.approx(utility(t2, 1)[1], abs=1e-15)

    def test_utility_matrix_in_unit_interval(self):
        rng = np.random.default_rng(1)
        table = LossTable(rng.uniform(0, 6, size=(4, 5)))
        U = table.utilities()
        assert U.shape == (4, 5)
        assert (U > 0).all() and (U <= 1).all()


class TestPriorUtility:
    def test_uniform_prior_reduces_to_mean(self):
        rng = np.random.default_rng(1)
        table = LossTable(rng.uniform(0, 3, size=(4, 6)))
        p = Prior(np.full(6, 1 / 6))
        for t in range(4):
            assert prior_utility(table, t, p) == pytest.approx(utility(table, t)[1],
                                                               abs=1e-15)

    def test_point_mass_selects_single_utility(self):
        table = LossTable(np.array([[0.5, 1.5, 2.5]]))
        p = Prior(np.array([0.0, 1.0, 0.0]))
        assert prior_utility(table, 0, p) == pytest.approx(math.exp(-1.5), abs=1e-15)

    def test_worked_instance(self):
        p = Prior(np.array(P_IDEAL))
        up1 = prior_utility(TABLE_2X2, 0, p)
        up2 = prior_utility(TABLE_2X2, 1, p)
        # oracle: 1*p0 + e^-2*p1 and e^-1*(p0+p1)
        assert up1 == pytest.approx(1.0 * P_IDEAL[0] + E2 * P_IDEAL[1], abs=1e-15)
        assert up1 == pytest.approx(0.8969294391923774, abs=1e-12)
        assert up2 == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert up2 == pytest.approx(0.3678794411714423, abs=1e-12)


class TestSumCovariance:
    def test_constant_vector_has_zero_covariance(self):
        assert sum_covariance(np.full(5, 0.3), np.random.default_rng(0).uniform(size=5)) == 0.0

    def test_uniform_prior_has_zero_covariance_with_anything(self):
        u = np.random.default_rng(1).uniform(size=8)
        assert sum_covariance(u, np.full(8, 1 / 8)) == pytest.approx(0.0, abs=1e-15)

    def test_worked_instance_decomposition(self):
        p = np.array(P_IDEAL)
        U1 = np.exp(-TABLE_2X2.losses[0])
        cov = sum_covariance(U1, p)
        assert cov == pytest.approx(0.3292617975740712, abs=1e-12)
        mean = U1.mean()
        assert mean + cov == pytest.approx(0.8969294391923774, abs=1e-12)

    def test_variance_of_worked_instance(self):
        U1 = np.exp(-TABLE_2X2.losses[0])
        assert sum_variance(U1) == pytest.approx(0.3738225362077544, abs=1e-12)


class TestDecompositionIdentity:
    def test_any_random_instance_satisfies_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            table, prior = random_instance(rng)
            assert decomposition_residual(table, prior) <= 1e-12

    def test_single_example_instance_is_exact(self):
        table = LossTable(np.array([[0.7], [1.1]]))
        prior = Prior(np.array([1.0]))
        assert decomposition_residual(table, prior) == 0.0


class TestMatchedArgmax:
    def test_ideal_prior_on_worked_instance_holds(self):
        holds, a, b = matched_argmax_holds(TABLE_2X2, Prior(np.array(P_IDEAL)))
        assert holds
        assert a == b == frozenset({0})

    def test_uniform_prior_holds_only_for_constant_utility(self):
        rng = np.random.default_rng(3)
        table = LossTable(rng.uniform(0, 3, size=(5, 4)))
        holds, a, b = matched_argmax_holds(table, Prior(np.full(4, 0.25)))
        assert b == frozenset(range(5))  # covariance identically zero
        assert not holds
        const = LossTable(np.tile(rng.uniform(0, 3, size=4), (3, 1)))
        holds2, _, _ = matched_argmax_holds(const, Prior(np.full(4, 0.25)))
        assert holds2

    def test_single_hypothesis_vacuously_true(self):
        table = LossTable(np.array([[0.1, 0.9, 0.4]]))
        holds, a, b = matched_argmax_holds(table, Prior(np.array([0.2, 0.3, 0.5])))
        assert holds and a == b == frozenset({0})


class TestArgmaxPreservation:
    def test_worked_instance_gaps(self):
        report = check_argmax_preservation(TABLE_2X2, Prior(np.array(P_IDEAL)))
        assert report["applicable"]
        assert report["argmax_set_equal"] and report["gap_amplified"]
        # frozen oracle gaps: with-prior 0.52905..., without 0.19979...
        gap_p = 0.8969294391923774 - 0.3678794411714423
        gap = (1.0 + E2) / 2.0 - math.exp(-1.0)
        assert gap_p == pytest.approx(0.5290499980209351, abs=1e-12)
        assert gap == pytest.approx(0.1997882004468641, abs=1e-12)
        assert gap_p >= gap

    def test_uniform_prior_on_constant_table_gives_equality(self):
        table = LossTable(np.tile(np.array([0.3, 0.8, 1.2]), (4, 1)))
        report = check_argmax_preservation(table, Prior(np.full(3, 1 / 3)))
        assert report["applicable"]
        assert report["argmax_set_equal"] and report["gap_amplified"]
        assert report["max_gap_violation"] == pytest.approx(0.0, abs=1e-15)

    def test_not_applicable_reported(self):
        rng = np.random.default_rng(4)
        table = LossTable(rng.uniform(0, 3, size=(6, 5)))
        prior = Prior(np.full(5, 0.2))
        report = check_argmax_preservation(table, prior)
        if not report["applicable"]:
            assert report["argmax_set_equal"] is None
            assert report["reason"] == "precondition unmet"

    def test_randomized_no_violations_when_assumption_holds(self):
        rng = np.random.default_rng(5)
        held = 0
        for _ in range(500):
            table, prior = random_instance(rng)
            report = check_argmax_preservation(table, prior)
            if report["applicable"]:
                held += 1
                assert report["argmax_set_equal"] and report["gap_amplified"]
        assert held > 0


class TestIdealPrior:
    def test_equal_losses_give_uniform_prior(self):
        table = LossTable(np.array([[0.5, 0.5, 0.5], [2.0, 0.1, 0.4]]))
        p = ideal_prior(table, 0)
        assert np.allclose(p.p, 1 / 3)

    def test_worked_instance_values(self):
        p = ideal_prior(TABLE_2X2, 0)
        assert p.p[0] == pytest.approx(P_IDEAL[0], abs=1e-12)
        assert p.p[1] == pytest.approx(P_IDEAL[1], abs=1e-12)
        assert p.p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_covariance_identity_with_normalizer(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            table, _ = random_instance(rng)
            best = int(np.argmax(np.exp(-table.losses).mean(axis=1)))
            p = ideal_prior(table, best)
            U_best = np.exp(-table.losses[best])
            C = U_best.sum()
            for t in range(table.n_hypotheses):
                U_t = np.exp(-table.losses[t])
                lhs = sum_covariance(U_t, p.p)
                rhs = sum_covariance(U_t, U_best) / C
                assert abs(lhs - rhs) <= 1e-12


class TestIdealPriorAmplification:
    def test_worked_instance(self):
        report = check_ideal_prior_amplification(TABLE_2X2)
        assert report["optimal_index"] == 0
        # hypothesis 2 has constant utility: covariance 0 <= var ~ 0.3738
        assert report["n_qualifying"] == 2
        assert report["passed"]

    def test_duplicated_hypotheses_reach_equality(self):
        row = np.array([0.2, 1.4, 0.6])
        table = LossTable(np.tile(row, (3, 1)))
        report = check_ideal_prior_amplification(table)
        assert report["passed"]
        assert report["max_gap_violation"] == pytest.approx(0.0, abs=1e-14)

    def test_randomized_no_violations(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            table, _ = random_instance(rng)
            report = check_ideal_prior_amplification(table)
            assert report["optimum_value_residual"] <= 1e-12
            assert report["ideal_identity_residual"] <= 1e-12
            assert report["gap_ok"]
            assert report["cauchy_schwarz_ok"]


class TestConstantVarianceCase:
    def test_pure_permutation_family_passes(self):
        # permuting one utility vector keeps the variance constant exactly;
        # the attainment-form conclusions must hold even though every
        # hypothesis ties in mean utility
        rng = np.random.default_rng(8)
        base = rng.uniform(0.2, 0.8, size=10)
        U = np.stack([rng.permutation(base) for _ in range(6)])
        table = LossTable(-np.log(U))
        report = check_constant_variance_case(table)
        assert report["applicable"]
        assert report["passed"]

    def test_unequal_variances_precondition_unmet(self):
        table = LossTable(np.array([[0.0, 2.0], [1.0, 1.0]]))
        report = check_constant_variance_case(table, variance_tol=0.0)
        assert not report["applicable"]
        assert "precondition unmet" in report["reason"]

    def test_shifted_permutation_families_satisfy_set_form(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            table = constant_variance_family(rng, n_examples=10, n_hypotheses=6)
            report = check_constant_variance_case(table)
            assert report["applicable"] and report["passed"]
            assert report["matched_argmax_set_form"]
            p = ideal_prior(table, report["optimal_index"])
            preservation = check_argmax_preservation(table, p)
            assert preservation["applicable"] and preservation["argmax_set_equal"] and preservation["gap_amplified"]

    def test_no_family_repeats_a_permutation(self):
        # three examples have six orderings: six hypotheses must use each once
        rng = np.random.default_rng(3)
        for n_examples, n_hypotheses in [(3, 6), (3, 4), (4, 12), (8, 12)]:
            for _ in range(50):
                table = constant_variance_family(rng, n_examples, n_hypotheses)
                orders = {tuple(np.argsort(row)) for row in table.losses}
                assert len(orders) == n_hypotheses

    def test_more_hypotheses_than_permutations_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="distinct permutations"):
            constant_variance_family(rng, n_examples=3, n_hypotheses=7)
        constant_variance_family(rng, n_examples=3, n_hypotheses=6)

    def test_family_that_drew_a_repeated_permutation_passes(self):
        # the last of these families drew one permutation twice before
        # repeats were re-drawn, and was reported as a violation
        report = run_verification(instances=0, constant_variance_families=1498, seed=9)
        assert report["constant_variance_violations"] == 0
        assert report["passed"]


class TestCurriculumToPrior:
    def plan(self, sp=0.5):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        y = np.repeat([0, 1], 10)
        ds = Dataset(X=X, y=y, K=2)
        pacing = PacingSpec("fixed_exp", N=20, M=30, starting_percent=sp,
                            increase=2.0, step_length=10)
        return ds, build_plan(ds, rng.normal(size=20), pacing, 4, seed=0)

    def test_full_subset_gives_uniform_prior(self):
        _, plan = self.plan()
        p = curriculum_to_prior(plan, 29)
        assert np.allclose(p.p, 1 / 20)

    def test_mass_on_easiest_prefix(self):
        ds, plan = self.plan()
        p = curriculum_to_prior(plan, 0)
        prefix = balanced_prefix(plan, 10)
        assert np.allclose(p.p[prefix], 0.1)
        assert p.p.sum() == pytest.approx(1.0, abs=1e-12)
        outside = np.setdiff1d(np.arange(20), prefix)
        assert (p.p[outside] == 0.0).all()

    def test_prior_non_increasing_in_difficulty_rank(self):
        ds, plan = self.plan()
        for i in range(30):
            p = curriculum_to_prior(plan, i)
            easiest_first = balanced_prefix(plan, plan.N)
            per_class_ranked = [p.p[easiest_first[ds.y[easiest_first] == c]]
                                for c in range(ds.K)]
            for ranked in per_class_ranked:
                assert (np.diff(ranked) <= 1e-15).all()

    def test_support_grows_with_iteration(self):
        ds, plan = self.plan()
        prev = set()
        for i in range(30):
            support = set(np.flatnonzero(curriculum_to_prior(plan, i).p).tolist())
            assert prev <= support  # balanced classes keep quotas monotone
            prev = support


class TestVerificationSuite:
    def test_small_run_passes(self):
        report = run_verification(instances=100, constant_variance_families=20, seed=3)
        assert report["passed"]
        assert report["max_decomposition_residual"] <= 1e-12
        assert report["argmax_preservation_violations"] == 0
        assert report["constant_variance_violations"] == 0

    def test_deterministic_given_seed(self):
        a = run_verification(instances=50, constant_variance_families=10, seed=4)
        b = run_verification(instances=50, constant_variance_families=10, seed=4)
        assert a == b


class TestTableIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        table = LossTable(rng.uniform(0, 5, size=(4, 7)))
        path = tmp_path / "losses.csv"
        save_loss_table_csv(table, path)
        loaded = load_loss_table_csv(path)
        assert np.array_equal(loaded.losses, table.losses)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataLoadError):
            load_loss_table_csv(path)

    def test_negative_losses_rejected(self):
        with pytest.raises(ParameterError):
            LossTable(np.array([[-0.1, 0.2]]))

    def test_prior_validation(self):
        with pytest.raises(ParameterError):
            Prior(np.array([0.5, 0.4]))
        with pytest.raises(ParameterError):
            Prior(np.array([-0.2, 1.2]))
