import tracemalloc

import numpy as np
import pytest

from curriculum_lab.data import Dataset
from curriculum_lab.errors import ParameterError
from curriculum_lab.gradient_analysis import (GradientSet, coherence_report,
                                              distance_matrix, gradient_set, total_variance)
from curriculum_lab.trainer import Model, ModelSpec

LINEAR = ModelSpec("linear_softmax")
MLP = ModelSpec("mlp1", hidden=5)


def make_ds(counts, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X=X, y=y, K=len(counts))


def set_from_rows(rows, segments, condition="t"):
    """The statistics of a GradientSet computed directly from explicit
    per-example gradient rows."""
    rows = np.asarray(rows, dtype=float)
    sq = rows ** 2
    return GradientSet(n=len(rows), mean=rows.mean(axis=0),
                       sq_norms=tuple(float(sq[:, a:b].sum(axis=1).mean()) for _, a, b in segments),
                       segments=segments, condition=condition)


def toy_set(rows, condition="t"):
    return set_from_rows(rows, (("layer1", 0, np.asarray(rows).shape[1]),), condition)


def rel_err(a, b):
    return float(np.max(np.abs(np.subtract(a, b)))) / max(float(np.max(np.abs(b))), 1e-300)


class TestPerExampleGradients:
    def test_duplicated_example_gives_identical_rows(self):
        ds = make_ds([3, 3], d=4, seed=1)
        model = Model.initialize(MLP, 2, 4, seed=0)
        rows = model.per_example_grads(ds.X[[0, 0]], ds.y[[0, 0]])
        assert np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_mean_of_rows_equals_batch_gradient(self, spec):
        ds = make_ds([5, 5], d=4, seed=2)
        model = Model.initialize(spec, 2, 4, seed=3)
        ids = np.arange(ds.N)
        assert np.allclose(gradient_set(model, ids, ds).mean,
                           model.loss_and_grad(ds.X, ds.y)[1], atol=1e-12)
        assert np.allclose(model.per_example_grads(ds.X, ds.y).mean(axis=0),
                           model.loss_and_grad(ds.X, ds.y)[1], atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp1"])
    def test_rows_match_finite_differences(self, spec):
        rng = np.random.default_rng(8)
        ds = make_ds([4, 4], d=3, seed=5)
        model = Model.initialize(spec, 2, 3, seed=7)
        rows = model.per_example_grads(ds.X[[2, 6]], ds.y[[2, 6]])
        h = 1e-5
        for row, ex in zip(rows, (2, 6)):
            u = rng.normal(size=model.n_params)
            u /= np.linalg.norm(u)

            def loss_at(theta):
                probe = Model(spec, 2, 3, theta)
                return float(probe.example_losses(ds.X[ex:ex + 1], ds.y[ex:ex + 1]).mean())

            numeric = (loss_at(model.params + h * u) - loss_at(model.params - h * u)) / (2 * h)
            analytic = float(row @ u)
            assert abs(numeric - analytic) / max(abs(numeric), 1e-8) < 1e-4

    def test_empty_ids_rejected(self):
        ds = make_ds([3, 3])
        model = Model.zeros(LINEAR, 2, 3)
        with pytest.raises(ParameterError):
            gradient_set(model, [], ds)


class TestFactoredStatistics:
    """The statistics from per-layer factors against those of explicit
    per-example gradient rows."""

    @pytest.mark.parametrize("spec", [LINEAR, ModelSpec("mlp1", hidden=7)],
                             ids=["linear", "mlp1"])
    @pytest.mark.parametrize("ids", [np.arange(40), np.arange(0, 40, 3),
                                     np.array([5, 5, 5, 12, 0, 12, 39]), np.array([8, 8])],
                             ids=["all", "strided", "duplicated", "one_id_twice"])
    def test_match_per_example_rows(self, spec, ids):
        ds = make_ds([15, 10, 15], d=6, seed=4)
        model = Model.initialize(spec, 3, 6, seed=5)
        got = gradient_set(model, ids, ds, condition="c")
        rows = model.per_example_grads(ds.X[ids], ds.y[ids])
        want = set_from_rows(rows, model.segments)
        assert got.n == len(ids) and got.condition == "c"
        assert rel_err(got.mean, want.mean) < 1e-12
        assert rel_err(got.sq_norms, want.sq_norms) < 1e-12
        total, per_layer = total_variance(got)
        var = rows.var(axis=0)
        # a zero variance (one id repeated) is the difference of two equal
        # mean squared norms; it may land a few ulps of those away from 0
        slack = 1e-15 * float(np.mean((rows ** 2).sum(axis=1)))
        assert total == pytest.approx(var.sum(), rel=1e-12, abs=slack)
        for name, start, stop in model.segments:
            assert per_layer[name] == pytest.approx(var[start:stop].sum(), rel=1e-12, abs=slack)

    def test_report_distances_match_rows(self):
        ds = make_ds([20, 20], d=5, seed=6)
        model = Model.initialize(MLP, 2, 5, seed=2)
        conditions = {"a": np.arange(10), "b": np.array([3, 3, 30, 31]), "all": np.arange(40)}
        report = coherence_report(model, ds, conditions)
        means = {k: model.per_example_grads(ds.X[v], ds.y[v]).mean(axis=0)
                 for k, v in conditions.items()}
        dm = np.asarray(report["distance_matrix"]["whole_model"])
        conds = report["distance_matrix"]["conditions"]
        for i, a in enumerate(conds):
            for j, b in enumerate(conds):
                want = float(np.linalg.norm(means[a] - means[b]))
                assert dm[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_memory_far_below_a_gradient_matrix(self):
        K, d, H, n = 5, 16, 64, 4000
        rng = np.random.default_rng(0)
        ds = Dataset(X=rng.normal(size=(n, d)), y=rng.integers(0, K, size=n), K=K)
        model = Model.initialize(ModelSpec("mlp1", hidden=H), K, d, seed=1)
        conditions = {"easy": np.arange(n // 10), "all": np.arange(n)}
        tracemalloc.start()
        try:
            coherence_report(model, ds, conditions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * model.n_params * 8 / 4


class TestMeanAndVariance:
    def test_mean_simple(self):
        gs = toy_set([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(gs.mean, [0.5, 0.5])

    def test_single_row_is_its_own_mean(self):
        gs = toy_set([[2.0, -3.0, 1.0]])
        assert np.array_equal(gs.mean, [2.0, -3.0, 1.0])

    def test_permutation_invariance(self):
        rows = np.random.default_rng(0).normal(size=(6, 4))
        a = toy_set(rows)
        b = toy_set(rows[::-1])
        assert np.allclose(a.mean, b.mean)
        assert total_variance(a)[0] == pytest.approx(total_variance(b)[0])

    def test_identical_rows_have_zero_variance(self):
        gs = toy_set([[1.0, 2.0]] * 4)
        assert total_variance(gs)[0] == 0.0

    def test_two_point_variance(self):
        gs = toy_set([[1.0, 0.0], [0.0, 1.0]])
        assert total_variance(gs)[0] == pytest.approx(0.5)

    def test_quadratic_scaling(self):
        rows = np.random.default_rng(1).normal(size=(5, 3))
        v1 = total_variance(toy_set(rows))[0]
        v2 = total_variance(toy_set(2 * rows))[0]
        assert v2 == pytest.approx(4 * v1)

    def test_equals_mean_squared_deviation_identity(self):
        rows = np.random.default_rng(2).normal(size=(8, 5))
        gs = toy_set(rows)
        direct = total_variance(gs)[0]
        mean = rows.mean(axis=0)
        alt = float(np.mean([np.linalg.norm(r - mean) ** 2 for r in rows]))
        assert abs(direct - alt) < 1e-10

    def test_per_layer_sums_to_whole(self):
        ds = make_ds([6, 6], d=4, seed=3)
        model = Model.initialize(MLP, 2, 4, seed=1)
        gs = gradient_set(model, np.arange(ds.N), ds)
        total, per_layer = total_variance(gs)
        assert sum(per_layer.values()) == pytest.approx(total, rel=1e-12)
        assert set(per_layer) == {"layer1", "layer2"}


class TestDistanceMatrix:
    def test_identical_sets_have_zero_distance(self):
        rows = np.random.default_rng(3).normal(size=(4, 3))
        dm = distance_matrix([toy_set(rows, "a"), toy_set(rows, "b")])
        assert dm["whole_model"][0, 1] == 0.0

    def test_known_distance(self):
        a = toy_set([[0.0, 0.0], [1.0, 1.0]], "a")   # mean (0.5, 0.5)
        b = toy_set([[1.0, 1.0]], "b")               # mean (1, 1)
        dm = distance_matrix([a, b])
        assert dm["whole_model"][0, 1] == pytest.approx(np.sqrt(0.5))

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        sets = [toy_set(rng.normal(size=(5, 6)), f"c{i}") for i in range(4)]
        dm = distance_matrix(sets)["whole_model"]
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0)
        m = len(sets)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    assert dm[a, c] <= dm[a, b] + dm[b, c] + 1e-12

    def test_row_permutation_within_sets_is_irrelevant(self):
        rng = np.random.default_rng(5)
        rows_a, rows_b = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
        d1 = distance_matrix([toy_set(rows_a, "a"), toy_set(rows_b, "b")])
        d2 = distance_matrix([toy_set(rows_a[::-1], "a"), toy_set(rows_b[::-1], "b")])
        assert np.allclose(d1["whole_model"], d2["whole_model"])


class TestCoherenceReport:
    def test_report_structure_and_self_distance(self):
        ds = make_ds([8, 8], d=3, seed=6)
        model = Model.initialize(LINEAR, 2, 3, seed=2)
        report = coherence_report(model, ds, {
            "all": np.arange(ds.N),
            "also_all": np.arange(ds.N),
            "half": np.arange(ds.N // 2),
        })
        conds = report["distance_matrix"]["conditions"]
        dm = np.asarray(report["distance_matrix"]["whole_model"])
        i, j = conds.index("all"), conds.index("also_all")
        assert dm[i, j] == 0.0
        for name in ("all", "half"):
            entry = report["conditions"][name]
            assert entry["total_variance"] >= 0.0
            assert len(entry["mean_gradient"]) == model.n_params
