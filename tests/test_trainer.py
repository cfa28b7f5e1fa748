import math

import numpy as np
import pytest

from curriculum_lab.data import Dataset
from curriculum_lab.errors import ParameterError, TrainingDivergedError
from curriculum_lab.pacing import PacingSpec
from curriculum_lab.sequencer import (balanced_prefix, build_plan, minibatch_at,
                                      self_paced_rescore_hook)
from curriculum_lab.trainer import (LearningCurve, LRSchedule, Model, ModelSpec,
                                    evaluate, train, train_stack)

LINEAR = ModelSpec("linear_softmax")
MLP = ModelSpec("mlp1", hidden=6)


def make_ds(counts, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X=X, y=y, K=len(counts))


def random_model(spec, K, d, seed):
    return Model.initialize(spec, K, d, seed)


class TestForward:
    def test_uniform_predictor_loss_is_log_k(self):
        ds = make_ds([4, 4, 4, 4, 4], d=3)
        model = Model.zeros(LINEAR, 5, 3)
        per = model.example_losses(ds.X, ds.y)
        mean, _ = model.loss_and_grad(ds.X, ds.y)
        assert mean == pytest.approx(math.log(5), abs=1e-12)
        assert np.allclose(per, math.log(5))

    def test_confident_correct_prediction_has_zero_loss(self):
        # one-hot features with a huge aligned weight matrix force p ~ 1
        K, d = 4, 4
        model = Model.zeros(LINEAR, K, d)
        W = model.array("W")
        model.params[: K * d] = (np.eye(K) * 200.0).ravel()
        X = np.eye(K)
        y = np.arange(K)
        per = model.example_losses(X, y)
        mean, _ = model.loss_and_grad(X, y)
        assert mean < 1e-12
        assert (per >= 0).all()

    def test_duplicated_example_has_equal_losses(self):
        ds = make_ds([3, 3], d=4, seed=2)
        model = random_model(MLP, 2, 4, seed=5)
        X = np.vstack([ds.X[0], ds.X[0]])
        y = np.array([ds.y[0], ds.y[0]])
        per = model.example_losses(X, y)
        assert per[0] == per[1]

    def test_probabilities_are_normalized(self):
        # example_losses(X, k) = -log p(k | x): the class probabilities it
        # implies sum to 1 over k for every row
        ds = make_ds([5, 5, 5], d=4, seed=3)
        for spec in (LINEAR, MLP):
            model = random_model(spec, 3, 4, seed=1)
            P = np.stack([np.exp(-model.example_losses(ds.X, np.full(ds.N, k)))
                          for k in range(3)], axis=1)
            assert (P >= 0).all()
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-9


class TestBackward:
    def directional_check(self, spec, seed, rel_tol=1e-4, h=1e-5):
        rng = np.random.default_rng(seed)
        K, d = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        n = int(rng.integers(2, 12))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, K, size=n)
        model = random_model(spec, K, d, seed=seed)
        _, grad = model.loss_and_grad(X, y)
        u = rng.normal(size=grad.shape)
        u /= np.linalg.norm(u)

        def loss_at(theta):
            probe = Model(spec, K, d, theta)
            return float(probe.example_losses(X, y).mean())

        numeric = (loss_at(model.params + h * u) - loss_at(model.params - h * u)) / (2 * h)
        analytic = float(grad @ u)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < rel_tol, (spec, seed)

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_finite_difference_directional(self, spec):
        for seed in range(25):
            self.directional_check(spec, seed)

    def test_duplicating_batch_leaves_mean_gradient_unchanged(self):
        ds = make_ds([4, 4], d=3, seed=1)
        model = random_model(LINEAR, 2, 3, seed=2)
        _, g1 = model.loss_and_grad(ds.X, ds.y)
        _, g2 = model.loss_and_grad(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
        assert np.allclose(g1, g2, atol=1e-12)

    def test_gradient_vanishes_after_saturating_one_example(self):
        # a single separable example: drive the margin until float saturation,
        # where the cross-entropy gradient is numerically zero
        X = np.array([[1.0, -0.5]])
        y = np.array([0])
        model = Model.zeros(LINEAR, 3, 2)
        for _ in range(30000):
            _, g = model.loss_and_grad(X, y)
            model.params -= 100.0 * g
        assert np.linalg.norm(model.loss_and_grad(X, y)[1]) < 1e-6

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_fused_loss_equals_mean_example_loss_bitwise(self, spec):
        rng = np.random.default_rng(21)
        for seed in range(20):
            K, d, n = int(rng.integers(2, 6)), int(rng.integers(2, 8)), int(rng.integers(1, 40))
            X = rng.normal(size=(n, d)) * 3.0
            y = rng.integers(0, K, size=n)
            model = random_model(spec, K, d, seed=seed)
            loss, _ = model.loss_and_grad(X, y)
            assert loss == float(model.example_losses(X, y).mean()), (seed, loss)

    def test_layout_segments_partition_params(self):
        for spec, K, d in ((LINEAR, 5, 7), (MLP, 3, 4)):
            model = random_model(spec, K, d, seed=0)
            stops = [0]
            for _name, _shape, start, stop in model.arrays:
                assert start == stops[-1]
                stops.append(stop)
            assert stops[-1] == model.n_params
            seg_stops = [0]
            for _name, start, stop in model.segments:
                assert start == seg_stops[-1]
                seg_stops.append(stop)
            assert seg_stops[-1] == model.n_params

    def test_one_step_descent_on_convex_model(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            K, d, n = 3, 4, 12
            X = rng.normal(size=(n, d))
            y = rng.integers(0, K, size=n)
            model = random_model(LINEAR, K, d, seed=int(rng.integers(1e6)))
            before, grad = model.loss_and_grad(X, y)
            model.params -= 1e-4 * grad
            after, _ = model.loss_and_grad(X, y)
            assert after <= before + 1e-12


class TestSchedules:
    def test_exponential_values(self):
        s = LRSchedule("exponential", lr0=0.1, decrease_factor=1.5, lr_step_length=200)
        assert s.value(0) == pytest.approx(0.1)
        assert s.value(199) == pytest.approx(0.1)
        assert s.value(200) == pytest.approx(0.1 / 1.5)

    def test_cyclical_triangle(self):
        s = LRSchedule("cyclical", lr_min=0.01, lr_max=0.1, cycle_length=100)
        assert s.value(0) == pytest.approx(0.01)
        assert s.value(50) == pytest.approx(0.1)
        assert s.value(100) == pytest.approx(0.01)
        assert s.value(25) == pytest.approx(0.055)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LRSchedule("exponential", lr0=-1, decrease_factor=2, lr_step_length=10)
        with pytest.raises(ParameterError):
            LRSchedule("cyclical", lr_min=0.1, lr_max=0.01, cycle_length=10)


class TestEvaluate:
    def test_uniform_predictor_picks_lowest_class(self):
        ds = make_ds([4, 4], d=3)
        model = Model.zeros(LINEAR, 2, 3)
        assert evaluate(model, ds) == pytest.approx(0.5)

    def test_perfect_model(self):
        K = 3
        model = Model.zeros(LINEAR, K, K)
        model.params[: K * K] = (np.eye(K) * 50.0).ravel()
        ds = Dataset(X=np.eye(K), y=np.arange(K), K=K)
        assert evaluate(model, ds) == 1.0

    def test_order_invariance(self):
        ds = make_ds([6, 6], d=3, seed=4)
        model = random_model(LINEAR, 2, 3, seed=1)
        perm = np.random.default_rng(0).permutation(ds.N)
        shuffled = Dataset(X=ds.X[perm], y=ds.y[perm], K=ds.K)
        assert evaluate(model, ds) == evaluate(model, shuffled)


class TestTrain:
    def setup_plan(self, ds, M=60, batch=4, seed=0):
        pacing = PacingSpec("vanilla", N=ds.N, M=M)
        scores = np.random.default_rng(7).normal(size=ds.N)
        return build_plan(ds, scores, pacing, batch, seed=seed)

    def test_deterministic_given_seed(self, tmp_path):
        ds = make_ds([10, 10], d=3, seed=1)
        plan = self.setup_plan(ds)
        sched = LRSchedule("exponential", lr0=0.1, decrease_factor=1.5, lr_step_length=20)
        m1, c1 = train(ds, ds, plan, sched, LINEAR, record_every=10, seed=3)
        m2, c2 = train(ds, ds, plan, sched, LINEAR, record_every=10, seed=3)
        assert np.array_equal(m1.params, m2.params)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        c1.to_csv(p1)
        c2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vanilla_equals_reference_loop_bitwise(self):
        ds = make_ds([10, 10], d=3, seed=1)
        M, batch, plan_seed, init_seed = 50, 4, 11, 3
        plan = self.setup_plan(ds, M=M, batch=batch, seed=plan_seed)
        sched = LRSchedule("exponential", lr0=0.1, decrease_factor=1.5, lr_step_length=20)
        model, _ = train(ds, ds, plan, sched, LINEAR, record_every=10, seed=init_seed)

        # reference: plain SGD sampling batches from the same keyed stream
        ref = Model.initialize(LINEAR, ds.K, ds.d, init_seed)
        order = balanced_prefix(plan, plan.N)
        for t in range(M):
            rng = np.random.Generator(np.random.Philox(key=plan_seed, counter=t << 128))
            ids = rng.choice(order, size=batch, replace=False)
            _, grad = ref.loss_and_grad(ds.X[ids], ds.y[ids])
            ref.params -= sched.value(t) * grad
        assert np.array_equal(model.params, ref.params)

    def test_curve_records_final_iteration(self):
        ds = make_ds([8, 8], d=2, seed=2)
        plan = self.setup_plan(ds, M=55)
        sched = LRSchedule("exponential", lr0=0.05, decrease_factor=2.0, lr_step_length=50)
        _, curve = train(ds, ds, plan, sched, LINEAR, record_every=25, seed=0)
        assert list(curve.iterations) == [0, 25, 50, 54]
        assert set(curve.subset_size.tolist()) == {ds.N}

    def test_divergence_carries_iteration(self):
        ds = make_ds([8, 8], d=2, seed=2)
        plan = self.setup_plan(ds, M=200)
        sched = LRSchedule("exponential", lr0=1e12, decrease_factor=1.0001,
                           lr_step_length=1000)
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, ds, plan, sched, MLP, record_every=50, seed=0)
        assert 0 <= err.value.iteration < 200

    def test_mlp_learns_xorish_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
        ds = Dataset(X=X, y=y, K=2)
        pacing = PacingSpec("vanilla", N=ds.N, M=2000)
        plan = build_plan(ds, rng.normal(size=ds.N), pacing, 32, seed=0)
        sched = LRSchedule("exponential", lr0=0.5, decrease_factor=1.5, lr_step_length=800)
        model, curve = train(ds, ds, plan, sched, ModelSpec("mlp1", hidden=16),
                             record_every=500, seed=1)
        assert curve.test_acc[-1] > 0.9  # linear model cannot exceed ~0.5 here


def curve_bytes(curve, path):
    curve.to_csv(path)
    return path.read_bytes()


class TestTrainStack:
    SCHED = LRSchedule("exponential", lr0=0.4, decrease_factor=1.5, lr_step_length=30)
    M = 70

    def pacing(self, variant, N):
        if variant == "vanilla":
            return PacingSpec("vanilla", N=N, M=self.M)
        if variant == "fixed_exp":
            return PacingSpec("fixed_exp", N=N, M=self.M, starting_percent=0.25,
                              increase=1.6, step_length=15)
        if variant == "varied_exp":
            return PacingSpec("varied_exp", N=N, M=self.M, starting_percent=0.25,
                              increase=2.0, boundaries=(9, 30))
        return PacingSpec("single_step", N=N, M=self.M, starting_percent=0.3, step_length=25)

    @pytest.mark.parametrize("hook", [None, self_paced_rescore_hook])
    @pytest.mark.parametrize("variant", ["vanilla", "fixed_exp", "varied_exp", "single_step"])
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_each_row_equals_the_row_trained_alone(self, tmp_path, spec, variant, hook):
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        pacing = self.pacing(variant, ds.N)
        plans = [build_plan(ds, np.random.default_rng(s).normal(size=ds.N), pacing, 5, seed=s)
                 for s in (3, 1, 4, 1)]
        seeds = [10, 11, 12, 13]
        stacked = train_stack(ds, test, plans, [self.SCHED] * 4, spec, seeds, record_every=9,
                              boundary_hooks=[hook] * 4)
        for r, (plan, seed) in enumerate(zip(plans, seeds)):
            model, curve = train(ds, test, plan, self.SCHED, spec, record_every=9, seed=seed,
                                 boundary_hook=hook)
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_stack_equals_plain_reference_loop(self, spec):
        ds = make_ds([10, 10, 10], d=3, seed=2)
        pacing = self.pacing("fixed_exp", ds.N)
        plans = [build_plan(ds, np.random.default_rng(s).normal(size=ds.N), pacing, 4, seed=s)
                 for s in (5, 6, 7)]
        seeds = [0, 1, 2]
        stacked = train_stack(ds, ds, plans, [self.SCHED] * 3, spec, seeds, record_every=20)
        for (model, _curve), plan, seed in zip(stacked, plans, seeds):
            ref = Model.initialize(spec, ds.K, ds.d, seed)
            for t in range(self.M):
                ids = minibatch_at(plan, t)
                _, grad = ref.loss_and_grad(ds.X[ids], ds.y[ids])
                ref.params -= self.SCHED.value(t) * grad
            assert np.array_equal(model.params, ref.params)

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_diverging_row_leaves_the_others_unchanged(self, tmp_path, spec):
        # example 5 carries infinite features: a row diverges at the first
        # batch that contains it, and only row 0's curriculum reaches it
        clean = make_ds([20, 20], d=3, seed=8)
        X = clean.X.copy()
        X[5] = np.inf
        ds, test = Dataset(X=X, y=clean.y, K=2), make_ds([6, 6], d=3, seed=9)
        pacing = PacingSpec("fixed_exp", N=ds.N, M=40, starting_percent=0.25,
                            increase=2.0, step_length=20)
        rng = np.random.default_rng(0)
        poisoned_rank = {0: 7, 1: 19, 2: 19}  # rank of example 5 within class 0
        plans = []
        for r in range(3):
            scores = rng.permutation(ds.N).astype(float)
            class0 = np.sort(scores[:20])
            others = np.delete(np.arange(20), 5)
            scores[others] = np.delete(class0, poisoned_rank[r])
            scores[5] = class0[poisoned_rank[r]]
            plans.append(build_plan(ds, scores, pacing, 4, seed=r))
        outcomes = train_stack(ds, test, plans, [self.SCHED] * 3, spec, [7, 8, 9],
                               record_every=5)
        with pytest.raises(TrainingDivergedError) as alone:
            train(ds, test, plans[0], self.SCHED, spec, record_every=5, seed=7)
        assert isinstance(outcomes[0], TrainingDivergedError)
        assert outcomes[0].iteration == alone.value.iteration
        assert str(outcomes[0]) == str(alone.value)
        assert 20 <= alone.value.iteration < 40  # after example 5 enters the prefix
        for r, seed in ((1, 8), (2, 9)):
            model, curve = train(ds, test, plans[r], self.SCHED, spec, record_every=5, seed=seed)
            assert np.array_equal(outcomes[r][0].params, model.params)
            assert (curve_bytes(outcomes[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_mixed_rows_each_equal_the_row_trained_alone(self, tmp_path, spec):
        # rows differ in pacing variant and spec, in LR schedule, and in
        # having the self-paced hook; they share M and the batch size
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        fast = LRSchedule("exponential", lr0=0.9, decrease_factor=2.0, lr_step_length=20)
        cyclical = LRSchedule("cyclical", lr_min=0.05, lr_max=0.5, cycle_length=16)
        rows = [("vanilla", self.SCHED, None), ("fixed_exp", fast, self_paced_rescore_hook),
                ("varied_exp", cyclical, None), ("single_step", self.SCHED, None),
                ("fixed_exp", self.SCHED, None), ("varied_exp", fast, self_paced_rescore_hook),
                (PacingSpec("fixed_exp", N=ds.N, M=self.M, starting_percent=0.5,
                            increase=1.3, step_length=7), cyclical, self_paced_rescore_hook)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N),
                            self.pacing(p, ds.N) if isinstance(p, str) else p, 5, seed=r)
                 for r, (p, _sched, _hook) in enumerate(rows)]
        schedules = [sched for _p, sched, _hook in rows]
        hooks = [hook for _p, _sched, hook in rows]
        seeds = [20 + r for r in range(len(rows))]
        stacked = train_stack(ds, test, plans, schedules, spec, seeds, record_every=9,
                              boundary_hooks=hooks)
        for r, (plan, sched, hook, seed) in enumerate(zip(plans, schedules, hooks, seeds)):
            model, curve = train(ds, test, plan, sched, spec, record_every=9, seed=seed,
                                 boundary_hook=hook)
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))
            assert curve.subset_size.tolist() == [plan.pacing.sizes[t] for t in curve.iterations]
            assert curve.lr.tolist() == [sched.value(t) for t in curve.iterations]

    def test_rows_must_share_horizon_and_batch_size(self):
        ds = make_ds([10, 10], d=3)
        plans = [build_plan(ds, np.zeros(ds.N), PacingSpec("vanilla", N=ds.N, M=m), 4, seed=0)
                 for m in (10, 20)]
        with pytest.raises(ParameterError, match="horizon M"):
            train_stack(ds, ds, plans, [self.SCHED] * 2, LINEAR, [0, 1])
        plans = [build_plan(ds, np.zeros(ds.N), PacingSpec("vanilla", N=ds.N, M=10), b, seed=0)
                 for b in (4, 5)]
        with pytest.raises(ParameterError, match="batch size"):
            train_stack(ds, ds, plans, [self.SCHED] * 2, LINEAR, [0, 1])

    def test_one_schedule_per_row(self):
        ds = make_ds([10, 10], d=3)
        plans = [build_plan(ds, np.zeros(ds.N), PacingSpec("vanilla", N=ds.N, M=10), 4, seed=s)
                 for s in (0, 1)]
        with pytest.raises(ParameterError, match="schedules"):
            train_stack(ds, ds, plans, [self.SCHED], LINEAR, [0, 1])

    def test_empty_stack(self):
        ds = make_ds([10, 10], d=3)
        assert train_stack(ds, ds, [], [], LINEAR, []) == []


class TestLearningCurveIO:
    def test_roundtrip(self, tmp_path):
        curve = LearningCurve(iterations=np.array([0, 10, 19]),
                              train_loss=np.array([1.5, 0.7, 0.3]),
                              test_acc=np.array([0.2, 0.6, 0.9]),
                              subset_size=np.array([5, 10, 20]),
                              lr=np.array([0.1, 0.1, 0.05]))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        loaded = LearningCurve.from_csv(path)
        assert np.array_equal(loaded.iterations, curve.iterations)
        assert np.array_equal(loaded.train_loss, curve.train_loss)
        assert np.array_equal(loaded.test_acc, curve.test_acc)

    def test_validation(self):
        with pytest.raises(ParameterError):
            LearningCurve(iterations=np.array([5, 5]), train_loss=np.zeros(2),
                          test_acc=np.zeros(2), subset_size=np.ones(2), lr=np.ones(2))
        with pytest.raises(ParameterError):
            LearningCurve(iterations=np.array([0, 1]), train_loss=np.zeros(2),
                          test_acc=np.array([0.5, 1.5]), subset_size=np.ones(2),
                          lr=np.ones(2))
