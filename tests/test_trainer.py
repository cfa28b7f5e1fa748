import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curriculum_lab import trainer
from curriculum_lab.data import Dataset
from curriculum_lab.errors import NumericalError, ParameterError, TrainingDivergedError
from curriculum_lab.pacing import PacingSpec, saturation_iteration
from curriculum_lab.sequencer import _order, balanced_prefix, build_plan
from curriculum_lab.trainer import (BatchStore, LearningCurve, LRSchedule, Model, ModelSpec,
                                    _forward, _forward_arrays, _grad_arrays,
                                    _layout, _losses_and_residual, _mean_loss_and_grad,
                                    _stack_views, _sum_columns, train_stack)
from helpers import accuracy, load_curve_csv, minibatch_at, train

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

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear_softmax", "mlp1"])
    @pytest.mark.parametrize("method", ["example_losses", "loss_and_grad"])
    def test_overflowing_forward_is_a_numerical_error_not_a_warning(self, spec, method):
        model = random_model(spec, 2, 2, seed=0)
        X = np.array([[0.5, -0.5], [1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite activations"):
                getattr(model, method)(X, np.array([0, 1]))

    def test_loss_past_the_float_range_is_inf_without_a_warning(self):
        # finite logits 3e308 apart: the loss of the losing class overflows
        model = Model.zeros(LINEAR, 2, 1)
        model.params[:2] = [1.5e308, -1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses = model.example_losses(np.ones((1, 1)), np.array([1]))
        assert losses.tolist() == [math.inf]

    def test_batch_loss_past_the_float_range_is_inf_with_a_finite_gradient(self):
        # the same logits through the mean batch loss and its gradient
        model = Model.zeros(LINEAR, 2, 1)
        model.params[:2] = [1.5e308, -1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = model.loss_and_grad(np.ones((1, 1)), np.array([1]))
        assert loss == math.inf
        assert grad.tolist() == [1.0, -1.0, 1.0, -1.0]


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

    @pytest.mark.parametrize("spec,K,d,arrays,segments,forward,backward", [
        (LINEAR, 5, 7, (("W", (5, 7), 0, 35), ("b", (5,), 35, 40)), (("layer1", 0, 40),),
         {"logits"}, {"grad", "dW", "db"}),
        (MLP, 3, 4, (("W1", (6, 4), 0, 24), ("b1", (6,), 24, 30), ("W2", (3, 6), 30, 48),
                     ("b2", (3,), 48, 51)), (("layer1", 0, 30), ("layer2", 30, 51)),
         {"a1", "logits"}, {"grad", "dW1", "db1", "dW2", "db2", "dz1"}),
    ], ids=["linear", "mlp1"])
    def test_layout_is_pinned(self, spec, K, d, arrays, segments, forward, backward):
        # saved models and the benchmark read these names, shapes and spans
        model = random_model(spec, K, d, seed=0)
        assert model.arrays == arrays and _layout(spec, K, d) == (arrays, arrays[-1][3])
        assert model.n_params == arrays[-1][3]
        assert model.segments == segments
        assert {name: model.array(name).shape for name, *_ in arrays} == \
            {name: shape for name, shape, *_ in arrays}
        assert set(_forward_arrays(spec, 2, 9, K)) == forward
        assert set(_grad_arrays(spec, arrays, arrays[-1][3], 2, 9)) == backward

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


def reference_losses_and_residual(logits, y):
    """The kernel's loss and residual as first written: a three-array fancy
    index, and a fresh array for the softmax."""
    R, n = y.shape
    r = np.arange(R)[:, None]
    rows = np.arange(n)
    m = logits[..., :1]
    for k in range(1, logits.shape[2]):
        m = np.maximum(m, logits[..., k:k + 1])
    e = np.exp(logits - m)
    total = e.sum(axis=2, keepdims=True)
    losses = m[..., 0] + np.log(total[..., 0]) - logits[r, rows, y]
    G = e / total
    G[r, rows, y] -= 1.0
    return losses, G


def reference_step(spec, v, X, ids, y):
    """Logits, mean loss, flat gradient and the forward's cache as first
    written: `X[ids]`, a bias added out of place, the ReLU into a new array
    masked by its input, and `.sum(axis=1)` bias sums."""
    Xb = X[ids]
    if spec.architecture == "linear_softmax":
        logits = np.matmul(Xb, v["W"].swapaxes(1, 2)) + v["b"][:, None]
    else:
        z1 = np.matmul(Xb, v["W1"].swapaxes(1, 2)) + v["b1"][:, None]
        a1 = np.maximum(z1, 0.0)
        logits = np.matmul(a1, v["W2"].swapaxes(1, 2)) + v["b2"][:, None]
    losses, G = reference_losses_and_residual(logits, y)
    R, n = y.shape
    G /= n
    if spec.architecture == "linear_softmax":
        parts = [np.matmul(G.swapaxes(1, 2), Xb), G.sum(axis=1)]
        cache = (Xb,)
    else:
        dz1 = np.matmul(G, v["W2"]) * (z1 > 0)
        parts = [np.matmul(dz1.swapaxes(1, 2), Xb), dz1.sum(axis=1),
                 np.matmul(G.swapaxes(1, 2), a1), G.sum(axis=1)]
        cache = (Xb, a1)
    grad = np.concatenate([p.reshape(R, -1) for p in parts], axis=1)
    return logits, losses.mean(axis=1), grad, cache


class TestKernelReference:
    """The stacked kernel gives the same bits as the reference above. The
    stacked-vs-alone tests run one kernel on both sides, so only this test
    sees a changed bit."""

    @settings(deadline=None, max_examples=100)
    @given(arch=st.sampled_from(["linear_softmax", "mlp1"]), R=st.integers(1, 30),
           n=st.integers(1, 300), K=st.integers(2, 40), H=st.integers(1, 80),
           d=st.integers(1, 20), scale=st.sampled_from([0.1, 1.0, 30.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(arch="mlp1", R=3, n=200, K=9, H=1, d=4, scale=1.0, seed=0)
    @example(arch="linear_softmax", R=25, n=100, K=5, H=1, d=16, scale=1.0, seed=1)
    def test_bitwise_equal_to_the_reference(self, arch, R, n, K, H, d, scale, seed):
        spec = ModelSpec(arch, hidden=H if arch == "mlp1" else 0)
        rng = np.random.default_rng(seed)
        arrays, P = _layout(spec, K, d)
        v = _stack_views(arrays, rng.normal(size=(R, P)) * scale)
        X = rng.normal(size=(n + 7, d))
        ids = rng.integers(0, n + 7, size=(R, n))
        y = rng.integers(0, K, size=(R, n))
        logits, cache = _forward(spec, v, np.take(X, ids, axis=0))
        ref_logits, ref_loss, ref_grad, ref_cache = reference_step(spec, v, X, ids, y)
        assert logits.tobytes() == ref_logits.tobytes()
        # the input and, for mlp1, the one hidden array: the activation
        assert len(cache) == len(ref_cache)
        for got, want in zip(cache, ref_cache):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(_losses_and_residual(logits, y),
                             reference_losses_and_residual(logits, y)):
            assert got.tobytes() == want.tobytes()
        loss, grad = _mean_loss_and_grad(spec, v, logits, cache, y)
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_backward_masks_by_the_activation_as_by_the_pre_activation(self):
        # one hidden unit per kind of float64: max(z, 0) > 0 exactly where z > 0
        z1 = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan])
        a1 = np.maximum(z1, 0.0)
        assert ((a1 > 0) == (z1 > 0)).all()
        spec = ModelSpec("mlp1", hidden=len(z1))
        R, n, K, d = 1, 3, 4, 2
        rng = np.random.default_rng(0)
        arrays, P = _layout(spec, K, d)
        v = _stack_views(arrays, rng.normal(size=(R, P)))
        X = rng.normal(size=(R, n, d))
        logits = rng.normal(size=(R, n, K))
        y = rng.integers(0, K, size=(R, n))
        work = _grad_arrays(spec, arrays, P, R, n)
        with np.errstate(invalid="ignore"):  # dW2 reads the NaN and inf activations
            _mean_loss_and_grad(spec, v, logits, (X, np.tile(a1, (R, n, 1))), y, work)
        G = reference_losses_and_residual(logits, y)[1] / n
        assert work["dz1"].tobytes() == (np.matmul(G, v["W2"]) * (z1 > 0)).tobytes()


class TestSumColumns:
    """The softmax denominator adds the class columns in the order of numpy's
    own reduction along a contiguous last axis, so it keeps its bits."""

    def test_adds_in_numpys_pairwise_order(self):
        rng = np.random.default_rng(0)
        in_turn_differs = False
        for K in range(1, 301):
            positive = np.exp(rng.normal(size=(3, 4, K)) * 3)
            mixed = rng.normal(size=(3, 4, K)) * 10.0 ** rng.integers(-8, 9, size=(3, 4, K))
            mixed[0, 0] = -0.0  # numpy starts its sum from 0.0
            for a in (positive, mixed):
                assert _sum_columns(a).tobytes() == np.add.reduce(a, axis=-1,
                                                                  keepdims=True).tobytes(), K
            in_turn = mixed[..., :1].copy()
            for k in range(1, K):
                in_turn += mixed[..., k:k + 1]
            in_turn_differs |= in_turn.tobytes() != np.add.reduce(mixed, axis=-1,
                                                                   keepdims=True).tobytes()
        # the data tells the orders apart: a plain left-to-right sum fails
        assert in_turn_differs


class TestBroadcastForward:
    """A record step scores the test set with one forward of `X[None]` through
    all R rows; each row's logits are those of the row alone, bit for bit."""

    @settings(deadline=None, max_examples=40)
    @given(arch=st.sampled_from(["linear_softmax", "mlp1"]), R=st.integers(1, 49),
           n=st.integers(1, 500), K=st.integers(2, 11), H=st.integers(1, 64),
           d=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @example(arch="linear_softmax", R=25, n=500, K=5, H=1, d=16, seed=0)
    @example(arch="mlp1", R=7, n=333, K=11, H=64, d=40, seed=1)
    @example(arch="mlp1", R=49, n=500, K=5, H=1, d=16, seed=2)
    def test_each_row_equals_the_row_alone(self, arch, R, n, K, H, d, seed):
        spec = ModelSpec(arch, hidden=H if arch == "mlp1" else 0)
        rng = np.random.default_rng(seed)
        arrays, P = _layout(spec, K, d)
        params = rng.normal(size=(R, P))
        X = rng.normal(size=(n, d))
        stacked = _forward(spec, _stack_views(arrays, params), X[None])[0]
        for r in range(R):
            alone = _forward(spec, _stack_views(arrays, params[r:r + 1]), X[None])[0]
            assert stacked[r].tobytes() == alone[0].tobytes(), r


class TestSchedules:
    def test_exponential_values(self):
        s = LRSchedule("exponential", lr0=0.1, decrease_factor=1.5, lr_step_length=200)
        assert s.value(0) == pytest.approx(0.1)
        assert s.value(199) == pytest.approx(0.1)
        assert s.value(200) == pytest.approx(0.1 / 1.5)

    def test_exponential_past_the_float_range(self):
        # 1e300 / 2.0 ** k is exact where the power is a float, 0.0 beyond
        s = LRSchedule("exponential", lr0=1e300, decrease_factor=2.0, lr_step_length=1)
        assert s.value(1023) == 1e300 / 2.0 ** 1023
        assert s.value(1023) > 0.0
        assert s.value(1024) == 0.0 and s.value(10 ** 6) == 0.0

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
        assert accuracy(model, ds) == pytest.approx(0.5)

    def test_perfect_model(self):
        K = 3
        model = Model.zeros(LINEAR, K, K)
        model.params[: K * K] = (np.eye(K) * 50.0).ravel()
        ds = Dataset(X=np.eye(K), y=np.arange(K), K=K)
        assert accuracy(model, ds) == 1.0

    def test_order_invariance(self):
        ds = make_ds([6, 6], d=3, seed=4)
        model = random_model(LINEAR, 2, 3, seed=1)
        perm = np.random.default_rng(0).permutation(ds.N)
        shuffled = Dataset(X=ds.X[perm], y=ds.y[perm], K=ds.K)
        assert accuracy(model, ds) == accuracy(model, shuffled)


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


def poisoned_stack():
    """A dataset whose example 5 carries infinite features, a separate test
    set, and three plans: a row diverges at the first batch that contains example 5,
    and only row 0's curriculum reaches it, after iteration 20 of 40."""
    ds, test = make_ds([20, 20], d=3, seed=8), make_ds([6, 6], d=3, seed=9)
    X = ds.X.copy()
    X[5] = np.inf
    # set past the check of Dataset, which rejects non-finite features: the
    # engine must still drop a row whose forward pass is non-finite
    object.__setattr__(ds, "X", X)
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
    return ds, test, plans


def reference_run(ds, test, plan, sched, spec, seed, record_every):
    """One model trained by plain SGD through `minibatch_at`: its parameters
    and its (iteration, batch loss, test accuracy) records. Raises
    `TrainingDivergedError` at the first non-finite step."""
    model = Model.initialize(spec, ds.K, ds.d, seed)
    records = []
    for t in range(plan.M):
        ids = minibatch_at(plan, t)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad = model.loss_and_grad(ds.X[ids], ds.y[ids])
        except NumericalError:
            raise TrainingDivergedError(t) from None
        if not (np.isfinite(loss) and np.isfinite(grad).all()):
            raise TrainingDivergedError(t)
        model.params -= sched.value(t) * grad
        if t % record_every == 0 or t == plan.M - 1:
            records.append((t, loss, accuracy(model, test)))
    return model.params, records


def self_paced_reference_run(ds, test, plan, sched, spec, seed, record_every):
    """`reference_run` of a self-paced row that stays finite: at each stage
    start, t = 0 included, the plan re-ranks by the model's current losses."""
    model = Model.initialize(spec, ds.K, ds.d, seed)
    starts = set(np.flatnonzero(np.diff(plan.pacing.sizes, prepend=-1)).tolist())
    records = []
    for t in range(plan.M):
        if t in starts:
            plan = replace(plan, order=_order(model.example_losses(ds.X, ds.y)))
        ids = minibatch_at(plan, t)
        loss, grad = model.loss_and_grad(ds.X[ids], ds.y[ids])
        model.params -= sched.value(t) * grad
        if t % record_every == 0 or t == plan.M - 1:
            records.append((t, loss, accuracy(model, test)))
    return model.params, records


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

    @pytest.mark.parametrize("self_paced", [False, True], ids=["None", "self_paced_rescore_hook"])
    @pytest.mark.parametrize("variant", ["vanilla", "fixed_exp", "varied_exp", "single_step"])
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_each_row_equals_the_row_trained_alone(self, tmp_path, spec, variant, self_paced):
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        pacing = self.pacing(variant, ds.N)
        plans = [build_plan(ds, np.random.default_rng(s).normal(size=ds.N), pacing, 5, seed=s)
                 for s in (3, 1, 4, 1)]
        seeds = [10, 11, 12, 13]
        stacked = train_stack(ds, test, plans, [self.SCHED] * 4, spec, seeds, record_every=9,
                              self_paced=[self_paced] * 4)
        for r, (plan, seed) in enumerate(zip(plans, seeds)):
            model, curve = train(ds, test, plan, self.SCHED, spec, record_every=9, seed=seed,
                                 self_paced=self_paced)
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("diverging", [False, True], ids=["finite", "row0-diverges"])
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_stack_equals_plain_reference_loop(self, spec, diverging):
        # parameters, batch losses and test accuracies equal a plain per-model
        # loop bit for bit, also at the record steps after a row has left
        if diverging:
            ds, test, plans = poisoned_stack()
        else:
            ds, test = make_ds([10, 10, 10], d=3, seed=2), make_ds([5, 5, 5], d=3, seed=6)
            pacing = self.pacing("fixed_exp", ds.N)
            plans = [build_plan(ds, np.random.default_rng(s).normal(size=ds.N), pacing, 4,
                                seed=s) for s in (5, 6, 7)]
        seeds = [0, 1, 2]
        stacked = train_stack(ds, test, plans, [self.SCHED] * 3, spec, seeds, record_every=6)
        assert [isinstance(o, TrainingDivergedError) for o in stacked] == [diverging, False, False]
        for outcome, plan, seed in zip(stacked, plans, seeds):
            if isinstance(outcome, TrainingDivergedError):
                with pytest.raises(TrainingDivergedError) as ref_err:
                    reference_run(ds, test, plan, self.SCHED, spec, seed, 6)
                assert outcome.iteration == ref_err.value.iteration
                assert 20 <= outcome.iteration < 34  # a record step follows the drop
                continue
            model, curve = outcome
            params, records = reference_run(ds, test, plan, self.SCHED, spec, seed, 6)
            its, losses, accs = zip(*records)
            assert np.array_equal(model.params, params)
            assert curve.iterations.tolist() == list(its)
            assert curve.train_loss.tobytes() == np.array(losses).tobytes()
            assert curve.test_acc.tobytes() == np.array(accs).tobytes()

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_diverging_row_leaves_the_others_unchanged(self, tmp_path, spec):
        ds, test, plans = poisoned_stack()
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
    def test_a_drop_regroups_rows_that_share_a_draw(self, tmp_path, spec):
        # the diverging row 0 draws first in its (seed, g(t)) group, which
        # reads a batch store; the drop regroups the stack at a step that is
        # no stage start, and row 1 draws for the group from then on. Row 0
        # steps at lr 0.1 at t = 0 and at 1.7e308 at t = 1, which is no record
        # step, so its test-set forward at t = 0 is finite
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        blowup = LRSchedule("cyclical", lr_min=0.1, lr_max=1.7e308, cycle_length=2)
        rows = [("vanilla", blowup, False), ("vanilla", self.SCHED, False),
                ("fixed_exp", self.SCHED, False), ("fixed_exp", self.SCHED, True)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N),
                            self.pacing(variant, ds.N), 5, seed=3)
                 for r, (variant, _sched, _sp) in enumerate(rows)]
        schedules = [sched for _v, sched, _sp in rows]
        self_paced = [sp for _v, _sched, sp in rows]
        stacked = train_stack(ds, test, plans, schedules, spec, [0, 1, 2, 3], record_every=9,
                              self_paced=self_paced, batch_store=BatchStore())
        with pytest.raises(TrainingDivergedError) as alone:
            train(ds, test, plans[0], blowup, spec, record_every=9, seed=0)
        assert str(stacked[0]) == str(alone.value)
        assert stacked[0].iteration == alone.value.iteration
        starts = set(np.flatnonzero(np.diff(plans[2].pacing.sizes, prepend=-1)).tolist())
        assert 0 < alone.value.iteration and alone.value.iteration + 1 not in starts
        for r in range(1, 4):
            model, curve = train(ds, test, plans[r], schedules[r], spec, record_every=9, seed=r,
                                 self_paced=self_paced[r])
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_a_row_that_overflows_on_its_last_update_diverges_there(self, tmp_path, spec):
        # row 0 steps at lr 0.1 at t = 0 and at 1.7e308 at t = 1, the last
        # step, on features of order 10: its batch forward and gradient there
        # are finite, but its forward of the test set after the update is
        # not, so the record step takes it out of the stack; rows 2 and 3
        # re-rank or grow their subset at t = 1, next to the drop
        ds, test = (Dataset(X=10 * d.X, y=d.y, K=d.K) for d in (
            make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)))
        blowup = LRSchedule("cyclical", lr_min=0.1, lr_max=1.7e308, cycle_length=2)
        vanilla = PacingSpec("vanilla", N=ds.N, M=2)
        steps = PacingSpec("fixed_exp", N=ds.N, M=2, starting_percent=0.25, increase=2.0,
                           step_length=1)
        rows = [(vanilla, blowup, False), (vanilla, self.SCHED, False),
                (steps, self.SCHED, False), (steps, self.SCHED, True)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N), pacing, 5, seed=r)
                 for r, (pacing, _sched, _sp) in enumerate(rows)]
        schedules = [sched for _p, sched, _sp in rows]
        self_paced = [sp for _p, _sched, sp in rows]
        stacked = train_stack(ds, test, plans, schedules, spec, [0, 1, 2, 3], record_every=9,
                              self_paced=self_paced)
        assert isinstance(stacked[0], TrainingDivergedError)
        assert str(stacked[0]) == "non-finite activations in forward pass at iteration 1"
        with pytest.raises(TrainingDivergedError) as alone:
            train(ds, test, plans[0], blowup, spec, record_every=9, seed=0)
        assert str(alone.value) == str(stacked[0])
        assert alone.value.iteration == stacked[0].iteration == 1
        for r in range(1, 4):
            model, curve = train(ds, test, plans[r], schedules[r], spec, record_every=9, seed=r,
                                 self_paced=self_paced[r])
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_self_paced_row_that_overflows_diverges_at_its_next_stage_start(self, tmp_path,
                                                                            spec):
        # row 0 steps at lr 0.1 at t = 0 and at 1.7e308 at t = 1, on features
        # of order 10, so its parameters overflow on the step before t = 2, the
        # next stage start of its pacing. There its re-rank's forward of the
        # training set is non-finite, and the row leaves the stack. Row 1
        # shares that pacing and re-ranks at the same step, after the drop
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        ds = Dataset(X=10 * ds.X, y=ds.y, K=ds.K)
        steps = PacingSpec("fixed_exp", N=ds.N, M=self.M, starting_percent=0.25,
                           increase=2.0, step_length=2)
        blowup = LRSchedule("cyclical", lr_min=0.1, lr_max=1.7e308, cycle_length=2)
        rows = [(steps, blowup, True), (steps, self.SCHED, True),
                (self.pacing("fixed_exp", ds.N), self.SCHED, False),
                (self.pacing("varied_exp", ds.N), self.SCHED, True)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N), pacing, 5, seed=r)
                 for r, (pacing, _sched, _sp) in enumerate(rows)]
        schedules = [sched for _p, sched, _sp in rows]
        self_paced = [sp for _p, _sched, sp in rows]
        stacked = train_stack(ds, test, plans, schedules, spec, [0, 1, 2, 3], record_every=9,
                              self_paced=self_paced)
        assert steps.sizes[:3] == (10, 10, 20)  # t = 2 is the first stage start after 0
        assert isinstance(stacked[0], TrainingDivergedError)
        assert str(stacked[0]) == "non-finite activations in forward pass at iteration 2"
        assert stacked[0].iteration == 2
        with pytest.raises(TrainingDivergedError) as alone:
            train(ds, test, plans[0], blowup, spec, record_every=9, seed=0, self_paced=True)
        assert str(alone.value) == str(stacked[0])
        assert alone.value.iteration == 2
        for r in range(1, 4):
            model, curve = train(ds, test, plans[r], schedules[r], spec, record_every=9, seed=r,
                                 self_paced=self_paced[r])
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_mixed_rows_each_equal_the_row_trained_alone(self, tmp_path, spec):
        # rows differ in pacing variant and spec, in LR schedule, and in
        # being self-paced; they share M and the batch size
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        fast = LRSchedule("exponential", lr0=0.9, decrease_factor=2.0, lr_step_length=20)
        cyclical = LRSchedule("cyclical", lr_min=0.05, lr_max=0.5, cycle_length=16)
        rows = [("vanilla", self.SCHED, False), ("fixed_exp", fast, True),
                ("varied_exp", cyclical, False), ("single_step", self.SCHED, False),
                ("fixed_exp", self.SCHED, False), ("varied_exp", fast, True),
                (PacingSpec("fixed_exp", N=ds.N, M=self.M, starting_percent=0.5,
                            increase=1.3, step_length=7), cyclical, True)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N),
                            self.pacing(p, ds.N) if isinstance(p, str) else p, 5, seed=r)
                 for r, (p, _sched, _sp) in enumerate(rows)]
        schedules = [sched for _p, sched, _sp in rows]
        self_paced = [sp for _p, _sched, sp in rows]
        seeds = [20 + r for r in range(len(rows))]
        stacked = train_stack(ds, test, plans, schedules, spec, seeds, record_every=9,
                              self_paced=self_paced)
        for r, (plan, sched, sp, seed) in enumerate(zip(plans, schedules, self_paced, seeds)):
            model, curve = train(ds, test, plan, sched, spec, record_every=9, seed=seed,
                                 self_paced=sp)
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))
            assert curve.subset_size.tolist() == [plan.pacing.sizes[t] for t in curve.iterations]
            assert curve.lr.tolist() == [sched.value(t) for t in curve.iterations]

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_grid_rows_share_one_draw_per_seed_and_size(self, tmp_path, spec, monkeypatch):
        # a grid stage's shape: every plan seed under several pacing specs and
        # LR schedules, some rows self-paced; rows that agree on (seed, g(t))
        # at step t share one draw of batch positions
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        cyclical = LRSchedule("cyclical", lr_min=0.05, lr_max=0.5, cycle_length=16)
        pacings = [self.pacing("fixed_exp", ds.N), self.pacing("vanilla", ds.N),
                   PacingSpec("fixed_exp", N=ds.N, M=self.M, starting_percent=0.25,
                              increase=1.6, step_length=9),
                   self.pacing("varied_exp", ds.N)]
        rows = [(pacing, sched, sp, seed)
                for pacing in pacings for sched in (self.SCHED, cyclical)
                for sp, seed in ((False, 3), (False, 8), (True, 3))]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N), pacing, 5, seed=seed)
                 for r, (pacing, _sched, _sp, seed) in enumerate(rows)]
        schedules = [sched for _p, sched, _sp, _seed in rows]
        self_paced = [sp for _p, _sched, sp, _seed in rows]
        draws = []
        positions = trainer._batch_positions

        def counted(plan, t, rngs):
            draws.append((t, plan.seed, plan.pacing.sizes[t]))
            return positions(plan, t, rngs)

        monkeypatch.setattr(trainer, "_batch_positions", counted)
        stacked = train_stack(ds, test, plans, schedules, spec, list(range(len(rows))),
                              record_every=9, self_paced=self_paced)
        expected = sorted({(t, plan.seed, plan.pacing.sizes[t])
                           for t in range(self.M) for plan in plans})
        assert sorted(draws) == expected
        assert len(expected) < self.M * len(rows) / 3
        for r, (plan, sched, sp) in enumerate(zip(plans, schedules, self_paced)):
            model, curve = train(ds, test, plan, sched, spec, record_every=9, seed=r,
                                 self_paced=sp)
            assert np.array_equal(stacked[r][0].params, model.params)
            assert (curve_bytes(stacked[r][1], tmp_path / f"s{r}.csv")
                    == curve_bytes(curve, tmp_path / f"a{r}.csv"))
            # the same row stepped through `minibatch_at`, one draw per step;
            # a self-paced row re-ranks by its losses at its stage starts
            ref = Model.initialize(spec, ds.K, ds.d, r)
            starts = set(np.flatnonzero(np.diff(plan.pacing.sizes, prepend=-1)).tolist())
            for t in range(self.M):
                if sp and t in starts:
                    plan = replace(plan, order=_order(ref.example_losses(ds.X, ds.y)))
                ids = minibatch_at(plan, t)
                _, grad = ref.loss_and_grad(ds.X[ids], ds.y[ids])
                ref.params -= sched.value(t) * grad
            assert np.array_equal(stacked[r][0].params, ref.params)

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

    @pytest.mark.parametrize("row0", ["finite", "diverges-alone", "diverges-sharing"])
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_draw_windows_change_no_batch_and_draw_each_once(self, monkeypatch, spec, row0):
        # store-less groups draw a window of steps ahead, which ends at the
        # next stage start of any row, at M or W steps on; row 0 shares its
        # (seed, g(t)) group with row 1 unless it diverges alone, rows 2 and
        # 3 share one throughout, row 2 is self-paced and row 4 joins them
        # where its subset size meets theirs
        W = 6
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        blowup = LRSchedule("cyclical", lr_min=0.1, lr_max=1.7e308, cycle_length=2)
        cyclical = LRSchedule("cyclical", lr_min=0.05, lr_max=0.5, cycle_length=16)
        rows = [("vanilla", blowup if row0 != "finite" else self.SCHED, False, 3),
                ("vanilla", self.SCHED, False, 8 if row0 == "diverges-alone" else 3),
                ("fixed_exp", self.SCHED, True, 5), ("fixed_exp", cyclical, False, 5),
                ("varied_exp", self.SCHED, False, 5)]
        plans = [build_plan(ds, np.random.default_rng(r).normal(size=ds.N),
                            self.pacing(variant, ds.N), 5, seed=seed)
                 for r, (variant, _sched, _sp, seed) in enumerate(rows)]
        schedules = [sched for _v, sched, _sp, _seed in rows]
        self_paced = [sp for _v, _sched, sp, _seed in rows]
        bounds = sorted(set().union(*(np.flatnonzero(np.diff(p.pacing.sizes, prepend=-1))
                                      .tolist() for p in plans)) | {self.M})
        assert self.M % W and any(b % W for b in bounds)
        windows, start = [], 0
        while start < self.M:
            windows.append((start, min(min(b for b in bounds if b > start), start + W)))
            start = windows[-1][1]
        draws, spans = [], []
        positions, draw_window = trainer._batch_positions, trainer._draw_window

        def counted(plan, t, rngs):
            draws.append((plan.seed, t, plan.pacing.sizes[t]))
            return positions(plan, t, rngs)

        def spied(groups, start, stop, N, B, rngs):
            window = draw_window(groups, start, stop, N, B, rngs)
            spans.append((start, stop, window.shape, window.dtype))
            return window

        monkeypatch.setattr(trainer, "_DRAW_WINDOW", W)
        monkeypatch.setattr(trainer, "_batch_positions", counted)
        monkeypatch.setattr(trainer, "_draw_window", spied)
        stacked = train_stack(ds, test, plans, schedules, spec, list(range(len(rows))),
                              record_every=9, self_paced=self_paced)
        monkeypatch.undo()
        assert [(s, e) for s, e, _shape, _dtype in spans] == windows
        assert all(shape[0] == e - s and shape[2] == 5 and dtype == np.min_scalar_type(ds.N - 1)
                   for s, e, shape, dtype in spans)
        ends = [self.M] * len(rows)
        extra = set()
        if row0 != "finite":
            assert isinstance(stacked[0], TrainingDivergedError)
            with pytest.raises(TrainingDivergedError) as ref_err:
                reference_run(ds, test, plans[0], blowup, spec, 0, 9)
            it = stacked[0].iteration
            assert it == ref_err.value.iteration
            ends[0] = it + 1  # the row drew at its last step
            stop = next(e for s, e in windows if s <= it < e)
            assert 0 < it < stop - 1  # mid-window
            extra = {(3, t, ds.N) for t in range(it + 1, stop)}
        needed = {(plan.seed, t, plan.pacing.sizes[t])
                  for plan, end in zip(plans, ends) for t in range(end)}
        # a diverged row wastes the rest of its window only if it drew alone
        assert bool(extra - needed) == (row0 == "diverges-alone")
        assert len(draws) == len(set(draws)) and set(draws) == needed | extra
        for r, (plan, sched, sp) in enumerate(zip(plans, schedules, self_paced)):
            if ends[r] < self.M:
                continue
            run = self_paced_reference_run if sp else reference_run
            params, records = run(ds, test, plan, sched, spec, r, 9)
            model, curve = stacked[r]
            its, losses, accs = zip(*records)
            assert np.array_equal(model.params, params)
            assert curve.iterations.tolist() == list(its)
            assert curve.train_loss.tobytes() == np.array(losses).tobytes()
            assert curve.test_acc.tobytes() == np.array(accs).tobytes()


class TestBatchStore:
    """A store carries the full-size batch draws from one stack to the next;
    every row still equals that row trained without one."""

    SCHED = TestTrainStack.SCHED
    M = TestTrainStack.M

    def counted_stack(self, monkeypatch, ds, test, plans, store, seeds):
        """`train_stack` of `plans` with `store`: its outcomes and its draws."""
        draws = []
        positions = trainer._batch_positions

        def counted(plan, t, rngs):
            draws.append((plan.seed, t, plan.pacing.sizes[t]))
            return positions(plan, t, rngs)

        monkeypatch.setattr(trainer, "_batch_positions", counted)
        outcomes = train_stack(ds, test, plans, [self.SCHED] * len(plans), LINEAR, seeds,
                               record_every=9, batch_store=store)
        monkeypatch.undo()
        return outcomes, draws

    def test_second_stack_draws_only_the_full_size_positions_not_drawn(
            self, tmp_path, monkeypatch):
        ds, test = make_ds([14, 14, 12], d=3, seed=5), make_ds([5, 5, 5], d=3, seed=6)
        pacing = TestTrainStack().pacing

        def plans(rows):
            return [build_plan(ds, np.random.default_rng(r).normal(size=ds.N),
                               pacing(variant, ds.N), 5, seed=seed)
                    for r, (variant, seed) in enumerate(rows)]

        first = plans([("vanilla", 3), ("fixed_exp", 8)])
        second = plans([("fixed_exp", 3), ("vanilla", 8), ("varied_exp", 5), ("vanilla", 5)])
        store = BatchStore()
        self.counted_stack(monkeypatch, ds, test, first, store, [0, 1])
        stacked, draws = self.counted_stack(monkeypatch, ds, test, second, store, [2, 3, 4, 5])
        drawn = {(p.seed, t) for p in first for t, g in enumerate(p.pacing.sizes) if g == ds.N}
        expected = {(p.seed, t, g) for p in second for t, g in enumerate(p.pacing.sizes)
                    if g < ds.N or (p.seed, t) not in drawn}
        assert sorted(draws) == sorted(expected)
        # seed 3 was full size throughout the first stack, seed 8 from its
        # saturation on: the second stack draws seed 8 at full size before it
        assert {(seed, g == ds.N) for seed, _t, g in draws} == {(3, False), (8, True),
                                                                (5, False), (5, True)}
        assert (sorted(t for seed, t, _g in draws if seed == 8)
                == list(range(saturation_iteration(first[1].pacing))))
        alone = train_stack(ds, test, second, [self.SCHED] * 4, LINEAR, [2, 3, 4, 5],
                            record_every=9)
        for r, (outcome, own) in enumerate(zip(stacked, alone)):
            assert np.array_equal(outcome[0].params, own[0].params)
            assert (curve_bytes(outcome[1], tmp_path / f"s{r}.csv")
                    == curve_bytes(own[1], tmp_path / f"a{r}.csv"))

    def test_a_row_diverging_before_M_leaves_its_later_draws_to_the_next_stack(
            self, tmp_path, monkeypatch):
        clean, test = make_ds([20, 20], d=3, seed=8), make_ds([6, 6], d=3, seed=9)
        poisoned = make_ds([20, 20], d=3, seed=8)
        X = poisoned.X.copy()
        X[5] = np.inf
        object.__setattr__(poisoned, "X", X)
        pacing = PacingSpec("vanilla", N=clean.N, M=self.M)
        store = BatchStore()
        (diverged,), first = self.counted_stack(
            monkeypatch, poisoned, test, [build_plan(poisoned, np.zeros(40), pacing, 4, seed=4)],
            store, [0])
        assert isinstance(diverged, TrainingDivergedError)
        assert diverged.iteration < self.M - 1
        assert first == [(4, t, 40) for t in range(diverged.iteration + 1)]
        plan = build_plan(clean, np.zeros(40), pacing, 4, seed=4)
        (outcome,), second = self.counted_stack(monkeypatch, clean, test, [plan], store, [1])
        assert second == [(4, t, 40) for t in range(diverged.iteration + 1, self.M)]
        model, curve = train(clean, test, plan, self.SCHED, LINEAR, record_every=9, seed=1)
        assert np.array_equal(outcome[0].params, model.params)
        assert (curve_bytes(outcome[1], tmp_path / "s.csv")
                == curve_bytes(curve, tmp_path / "a.csv"))

    @pytest.mark.parametrize("N,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_block_is_the_smallest_unsigned_dtype_that_holds_N_minus_1(self, N, dtype):
        ds = make_ds([N - N // 2, N // 2], d=2)
        plan = build_plan(ds, np.zeros(N), PacingSpec("vanilla", N=N, M=7), 3, seed=0)
        positions, filled = BatchStore().block(plan)
        assert positions.shape == (7, 3) and positions.dtype == dtype
        assert filled.tolist() == [False] * 7


class TestWorkArrays:
    """`train_stack` writes each step into one set of arrays per stack; the
    kernel gives the same bits into them as into new arrays."""

    @staticmethod
    def nan_filled(work):
        # a value the kernel leaves unwritten shows as NaN
        for a in work.values():
            a.fill(np.nan)
        return work

    @pytest.mark.parametrize("arch,H", [("linear_softmax", 0), ("mlp1", 1), ("mlp1", 64)],
                             ids=["linear", "mlp1-H1", "mlp1-H64"])
    @pytest.mark.parametrize("R", [1, 5])
    def test_buffered_kernel_equals_unbuffered_bitwise(self, arch, H, R):
        spec = ModelSpec(arch, hidden=H)
        n, n_test, K, d = 200, 333, 5, 16
        rng = np.random.default_rng(R + H)
        layout = _layout(spec, K, d)
        params = rng.normal(size=(R, layout[1]))
        X = rng.normal(size=(R, n, d))
        y = rng.integers(0, K, size=(R, n))
        X_test = rng.normal(size=(n_test, d))
        step = self.nan_filled({"X": np.empty((R, n, d)), **_forward_arrays(spec, R, n, K),
                                **_grad_arrays(spec, *layout, R, n)})
        record = self.nan_filled(_forward_arrays(spec, R, n_test, K))
        # all rows, then (as after a drop) the first 3 of 5
        for L in [R] if R == 1 else [R, 3]:
            v = _stack_views(layout[0], params[:L])
            rows = {key: a[:L] for key, a in step.items()}
            logits, cache = _forward(spec, v, X[:L])
            loss, grad = _mean_loss_and_grad(spec, v, logits, cache, y[:L])
            rows["X"][...] = X[:L]
            b_logits, b_cache = _forward(spec, v, rows["X"], rows)
            b_loss, b_grad = _mean_loss_and_grad(spec, v, b_logits, b_cache, y[:L], rows)
            assert b_logits.tobytes() == logits.tobytes()
            for got, want in zip(b_cache, cache):
                assert got.tobytes() == want.tobytes()
            assert b_loss.tobytes() == loss.tobytes()
            assert b_grad.tobytes() == grad.tobytes()
            if arch == "mlp1":  # the hidden bias sums along n pairwise, as .sum does
                assert rows["db1"].tobytes() == rows["dz1"].sum(axis=1).tobytes()
            assert np.shares_memory(b_logits, step["logits"])
            assert np.shares_memory(b_grad, step["grad"])
            test_rows = {key: a[:L] for key, a in record.items()}
            b_test = _forward(spec, v, X_test[None], test_rows)[0]
            assert b_test.tobytes() == _forward(spec, v, X_test[None])[0].tobytes()
            assert np.shares_memory(b_test, record["logits"])

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_every_step_writes_into_the_stacks_arrays(self, monkeypatch, spec):
        # row 0 of the poisoned stack diverges after iteration 20 of 40
        ds, test, plans = poisoned_stack()
        calls = []
        real_forward, real_grad = trainer._forward, trainer._mean_loss_and_grad

        def forward(spec, v, X, work=None):
            logits, cache = real_forward(spec, v, X, work)
            calls.append(("forward", X.shape[1], len(next(iter(v.values()))), work, logits))
            return logits, cache

        def mean_loss_and_grad(spec, v, logits, cache, y, work=None):
            loss, grad = real_grad(spec, v, logits, cache, y, work)
            calls.append(("grad", y.shape[1], len(y), work, grad))
            return loss, grad

        monkeypatch.setattr(trainer, "_forward", forward)
        monkeypatch.setattr(trainer, "_mean_loss_and_grad", mean_loss_and_grad)
        outcomes = train_stack(ds, test, plans, [TestTrainStack.SCHED] * 3, spec, [7, 8, 9],
                               record_every=5)
        assert isinstance(outcomes[0], TrainingDivergedError)
        records = len(outcomes[1][1].iterations)
        first = {}
        for kind, n, rows, work, out in calls:
            assert work is not None
            key = (kind, n)
            first.setdefault(key, work)
            for name, a in work.items():
                # the first `rows` rows of the arrays of the stack's first call
                assert len(a) == rows and a.ctypes.data == first[key][name].ctypes.data, name
            assert np.shares_memory(out, work["logits" if kind == "forward" else "grad"])
        counts = {key: sum((kind, n) == key for kind, n, *_ in calls) for key in first}
        assert counts == {("forward", 4): 40, ("grad", 4): 40, ("forward", test.N): records}
        # the stack dropped a row and went on writing into the same arrays
        assert {rows for _kind, _n, rows, _w, _o in calls} == {3, 2}


class TestLearningCurveIO:
    def test_roundtrip(self, tmp_path):
        curve = LearningCurve(iterations=np.array([0, 10, 19]),
                              train_loss=np.array([1.5, 0.7, 0.3]),
                              test_acc=np.array([0.2, 0.6, 0.9]),
                              subset_size=np.array([5, 10, 20]),
                              lr=np.array([0.1, 0.1, 0.05]))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        loaded = load_curve_csv(path)
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
