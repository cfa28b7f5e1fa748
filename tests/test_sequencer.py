import numpy as np
import pytest

from curriculum_lab.data import Dataset, largest_remainder_quotas
from curriculum_lab.errors import ParameterError
from curriculum_lab.pacing import PacingSpec, subset_size
from curriculum_lab.scoring import ScoreTable, invert
from curriculum_lab.sequencer import (balanced_prefix, build_plan, minibatch_at,
                                      self_paced_rescore_hook)
from curriculum_lab.trainer import Model, ModelSpec


def make_ds(counts, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X=X, y=y, K=len(counts))


def vanilla_pacing(N, M=10):
    return PacingSpec("vanilla", N=N, M=M)


class TestBuildPlan:
    def test_sorts_ascending_by_score(self):
        ds = make_ds([3])
        plan = build_plan(ds, np.array([0.3, 0.1, 0.2]), vanilla_pacing(3), 1, seed=0)
        assert list(balanced_prefix(plan, plan.N)) == [1, 2, 0]

    def test_ties_break_by_id(self):
        ds = make_ds([4])
        plan = build_plan(ds, np.zeros(4), vanilla_pacing(4), 1, seed=0)
        assert list(balanced_prefix(plan, plan.N)) == [0, 1, 2, 3]

    def test_inverted_scores_reverse_order(self):
        ds = make_ds([6])
        scores = ScoreTable(np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2]), "t")
        plan = build_plan(ds, scores, vanilla_pacing(6), 1, seed=0)
        anti = build_plan(ds, invert(scores), vanilla_pacing(6), 1, seed=0)
        assert list(balanced_prefix(anti, anti.N)) == list(balanced_prefix(plan, plan.N))[::-1]

    def test_small_initial_subset_names_minimal_start(self):
        ds = make_ds([50, 50])
        pacing = PacingSpec("fixed_exp", N=100, M=10, starting_percent=0.05,
                            increase=2.0, step_length=5)
        with pytest.raises(ParameterError, match="starting_percent must be at least"):
            build_plan(ds, np.zeros(100), pacing, batch_size=20, seed=0)

    def test_score_coverage_checked(self):
        ds = make_ds([4])
        with pytest.raises(ParameterError):
            build_plan(ds, np.zeros(3), vanilla_pacing(4), 1, seed=0)


class TestBalancedPrefix:
    def test_two_balanced_classes(self):
        ds = make_ds([4, 4])
        scores = np.array([0.1, 0.2, 0.3, 0.4, 0.4, 0.3, 0.2, 0.1])
        plan = build_plan(ds, scores, vanilla_pacing(8), 1, seed=0)
        prefix = balanced_prefix(plan, 4)
        assert sorted(prefix) == [0, 1, 6, 7]  # 2 easiest per class

    def test_full_size_returns_everything(self):
        ds = make_ds([5, 3])
        plan = build_plan(ds, np.arange(8.0), vanilla_pacing(8), 1, seed=0)
        assert sorted(balanced_prefix(plan, 8)) == list(range(8))

    def test_proportional_quota(self):
        ds = make_ds([6, 3])
        plan = build_plan(ds, np.arange(9.0), vanilla_pacing(9), 1, seed=0)
        prefix = balanced_prefix(plan, 3)
        labels = ds.y[prefix]
        assert (labels == 0).sum() == 2 and (labels == 1).sum() == 1

    def test_output_sorted_by_score_then_id(self):
        ds = make_ds([10, 10], seed=3)
        rng = np.random.default_rng(1)
        scores = rng.normal(size=20)
        plan = build_plan(ds, scores, vanilla_pacing(20), 1, seed=0)
        prefix = balanced_prefix(plan, 11)
        keys = [(scores[i], i) for i in prefix]
        assert keys == sorted(keys)

    def test_quota_rule_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            counts = [int(c) for c in rng.integers(1, 30, size=int(rng.integers(2, 6)))]
            ds = make_ds(counts, seed=int(rng.integers(1e6)))
            plan = build_plan(ds, rng.normal(size=ds.N), vanilla_pacing(ds.N), 1, seed=0)
            size = int(rng.integers(1, ds.N + 1))
            prefix = balanced_prefix(plan, size)
            assert len(prefix) == size
            quotas = largest_remainder_quotas(ds.class_counts, size)
            got = np.bincount(ds.y[prefix], minlength=ds.K)
            assert np.array_equal(got, quotas)

    def test_prefix_nesting_under_monotone_quotas(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            counts = [int(c) for c in rng.integers(2, 25, size=3)]
            ds = make_ds(counts, seed=int(rng.integers(1e6)))
            plan = build_plan(ds, rng.normal(size=ds.N), vanilla_pacing(ds.N), 1, seed=0)
            sizes = sorted(rng.integers(1, ds.N + 1, size=4))
            quota_list = [largest_remainder_quotas(ds.class_counts, s) for s in sizes]
            for (s1, q1), (s2, q2) in zip(zip(sizes, quota_list), zip(sizes[1:], quota_list[1:])):
                if not (q1 <= q2).all():
                    continue  # nesting is only promised when quotas are monotone
                p1 = set(balanced_prefix(plan, s1).tolist())
                p2 = set(balanced_prefix(plan, s2).tolist())
                assert p1 <= p2


class TestMinibatchAt:
    def plan_with(self, counts, batch, sp, seed=0, M=40, step=10):
        ds = make_ds(counts, seed=1)
        pacing = PacingSpec("fixed_exp", N=ds.N, M=M, starting_percent=sp,
                            increase=2.0, step_length=step)
        rng = np.random.default_rng(9)
        return ds, build_plan(ds, rng.normal(size=ds.N), pacing, batch, seed=seed)

    def test_batch_equals_subset_when_sizes_match(self):
        ds, plan = self.plan_with([10, 10], batch=4, sp=0.2)
        batch = minibatch_at(plan, 0)
        assert sorted(batch) == sorted(balanced_prefix(plan, 4))

    def test_reproducible_and_seed_sensitive(self):
        _, plan_a = self.plan_with([20, 20], batch=5, sp=0.5, seed=3)
        _, plan_b = self.plan_with([20, 20], batch=5, sp=0.5, seed=3)
        _, plan_c = self.plan_with([20, 20], batch=5, sp=0.5, seed=4)
        seq_a = [minibatch_at(plan_a, i).tolist() for i in range(40)]
        seq_b = [minibatch_at(plan_b, i).tolist() for i in range(40)]
        seq_c = [minibatch_at(plan_c, i).tolist() for i in range(40)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_no_duplicates_and_membership(self):
        rng = np.random.default_rng(13)
        for seed in range(100):
            counts = [int(c) for c in rng.integers(5, 20, size=3)]
            ds = make_ds(counts, seed=seed)
            pacing = PacingSpec("fixed_exp", N=ds.N, M=20, starting_percent=0.5,
                                increase=2.0, step_length=7)
            plan = build_plan(ds, rng.normal(size=ds.N), pacing, 4, seed=seed)
            for i in range(20):
                batch = minibatch_at(plan, i)
                assert len(set(batch.tolist())) == len(batch)
                subset = set(balanced_prefix(plan, subset_size(pacing, i)).tolist())
                assert set(batch.tolist()) <= subset

    def test_uniform_membership_frequency(self):
        # batch of 5 from a subset of 10: each member should appear in half
        # of the batches across independent plan seeds
        ds = make_ds([10, 10], seed=2)
        pacing = PacingSpec("fixed_exp", N=20, M=4, starting_percent=0.5,
                            increase=2.0, step_length=10)
        scores = np.random.default_rng(0).normal(size=20)
        counts = {}
        n_samples = 20000
        for seed in range(n_samples):
            plan = build_plan(ds, scores, pacing, 5, seed=seed)
            for i in minibatch_at(plan, 0):
                counts[int(i)] = counts.get(int(i), 0) + 1
        subset = balanced_prefix(build_plan(ds, scores, pacing, 5, seed=0), 10)
        assert set(counts) == set(subset.tolist())
        for member, c in counts.items():
            assert abs(c / n_samples - 0.5) < 0.02, (member, c / n_samples)

    @staticmethod
    def fresh_batch(plan, i):
        subset = balanced_prefix(plan, subset_size(plan.pacing, i))
        rng = np.random.Generator(np.random.Philox(key=plan.seed, counter=i << 128))
        return rng.choice(subset, size=plan.batch_size, replace=False)

    def test_reused_generator_matches_fresh_stream_in_any_order(self):
        _, plan = self.plan_with([20, 20], batch=5, sp=0.25, seed=12345, M=40)
        for i in (5, 2, 5, plan.M - 1, 0, 17, 17, 3):
            assert np.array_equal(minibatch_at(plan, i), self.fresh_batch(plan, i)), i

    def test_rescored_plan_keeps_the_keyed_stream(self):
        ds, plan = self.plan_with([20, 20], batch=5, sp=0.25, seed=7, M=40)
        minibatch_at(plan, 9)  # the generator is built and used before rescoring
        model = Model.initialize(ModelSpec("linear_softmax"), ds.K, ds.d, seed=3)
        rescored = self_paced_rescore_hook(plan, model, 10)
        for i in (5, 2, 5, rescored.M - 1, 0):
            assert np.array_equal(minibatch_at(rescored, i), self.fresh_batch(rescored, i)), i
            assert np.array_equal(minibatch_at(plan, i), self.fresh_batch(plan, i)), i

    def test_anti_curriculum_prefix_disjoint(self):
        rng = np.random.default_rng(17)
        for seed in range(50):
            counts = [20, 20]
            ds = make_ds(counts, seed=seed)
            scores = ScoreTable(rng.permutation(ds.N).astype(float), "r")
            pacing = PacingSpec("fixed_exp", N=ds.N, M=10, starting_percent=0.25,
                                increase=2.0, step_length=5)
            plan = build_plan(ds, scores, pacing, 5, seed=seed)
            anti = build_plan(ds, invert(scores), pacing, 5, seed=seed)
            p = set(balanced_prefix(plan, 10).tolist())
            a = set(balanced_prefix(anti, 10).tolist())
            assert not (p & a)  # 2 * g(0) <= N per class


class TestSelfPacedHook:
    def test_uniform_predictor_collapses_to_id_order(self):
        ds = make_ds([3, 3], d=4, seed=1)
        plan = build_plan(ds, np.random.default_rng(2).normal(size=6),
                          vanilla_pacing(6), 2, seed=0)
        model = Model.zeros(ModelSpec("linear_softmax"), ds.K, ds.d)
        updated = self_paced_rescore_hook(plan, model, 0)
        assert list(balanced_prefix(updated, updated.N)) == [0, 1, 2, 3, 4, 5]

    def test_without_hook_plan_unchanged(self):
        ds = make_ds([3, 3], d=4, seed=1)
        scores = np.random.default_rng(2).normal(size=6)
        plan = build_plan(ds, scores, vanilla_pacing(6), 2, seed=0)
        model = Model.zeros(ModelSpec("linear_softmax"), ds.K, ds.d)
        before = balanced_prefix(plan, plan.N).copy()
        updated = self_paced_rescore_hook(plan, model, 0)
        assert np.array_equal(balanced_prefix(plan, plan.N), before)  # original untouched
        assert updated is not plan
