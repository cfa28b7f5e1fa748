import tracemalloc

import numpy as np
import pytest

from curriculum_lab import harness
from curriculum_lab.config import resolve_config
from curriculum_lab.data import Dataset
from curriculum_lab.errors import ParameterError
from curriculum_lab.gradient_analysis import GradientSet, gradient_set, total_variance
from curriculum_lab.harness import gradient_coherence_pipeline, resolve_dataset
from curriculum_lab.trainer import Model, ModelSpec

LINEAR = ModelSpec("linear_softmax")
MLP = ModelSpec("mlp1", hidden=5)


def make_ds(counts, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X=X, y=y, K=len(counts))


def set_from_rows(rows, segments):
    """The statistics of a GradientSet computed directly from explicit
    per-example gradient rows."""
    rows = np.asarray(rows, dtype=float)
    sq = rows ** 2
    return GradientSet(n=len(rows), mean=rows.mean(axis=0),
                       sq_norms=tuple(float(sq[:, a:b].sum(axis=1).mean()) for _, a, b in segments),
                       segments=segments)


def toy_set(rows):
    return set_from_rows(rows, (("layer1", 0, np.asarray(rows).shape[1]),))


def coherence_config(spec, subset_fraction, classes=2, dim=5, n_per_class=25):
    """A gradient-analysis config on a synthetic mixture."""
    return resolve_config({
        "dataset": {"synthetic": {"classes": classes, "dim": dim, "n_per_class": n_per_class,
                                  "spread": 2.0, "seed": 3}},
        "model": {"architecture": spec.architecture, "hidden": spec.hidden},
        "gradient_analysis": {"subset_fraction": subset_fraction}})


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
        got = gradient_set(model, ids, ds)
        rows = model.per_example_grads(ds.X[ids], ds.y[ids])
        want = set_from_rows(rows, model.segments)
        assert got.n == len(ids)
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

    def test_report_distances_match_rows(self, monkeypatch):
        # the pipeline's distances from the easy and the random subset's mean
        # gradient to that of all training points, against explicit rows
        config = coherence_config(MLP, subset_fraction=0.25)
        train_ds = resolve_dataset(config)[0]
        model = Model.initialize(MLP, train_ds.K, train_ds.d, seed=2)
        built = []
        real = harness.gradient_set
        monkeypatch.setattr(harness, "gradient_set",
                            lambda m, ids, ds: built.append(ids) or real(m, ids, ds))
        report = gradient_coherence_pipeline(config, models={0: model})
        assert [len(ids) for ids in built] == [report["subset_size"]] * 2 + [train_ds.N]
        easy, rand, full = (model.per_example_grads(train_ds.X[ids], train_ds.y[ids]).mean(axis=0)
                            for ids in built)
        entry = report["per_seed"]["0"]
        for key, mean in (("dist_easy_all", easy), ("dist_random_all", rand)):
            want = float(np.linalg.norm(mean - full))
            assert entry[key] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_memory_far_below_a_gradient_matrix(self):
        K, d, H = 5, 16, 64
        spec = ModelSpec("mlp1", hidden=H)
        config = coherence_config(spec, subset_fraction=0.1, classes=K, dim=d, n_per_class=960)
        n = resolve_dataset(config)[0].N
        assert n == 4000
        model = Model.initialize(spec, K, d, seed=1)
        tracemalloc.start()
        try:
            gradient_coherence_pipeline(config, models={0: model})
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


def pipeline_on_sets(monkeypatch, easy_rows, random_rows, all_rows):
    """The pipeline's seed-0 entry when its easy, random and full gradient
    sets are those of the given per-example gradient rows."""
    queue = [toy_set(easy_rows), toy_set(random_rows), toy_set(all_rows)]
    monkeypatch.setattr(harness, "gradient_set", lambda m, ids, ds: queue.pop(0))
    config = coherence_config(LINEAR, subset_fraction=0.25)
    train_ds = resolve_dataset(config)[0]
    model = Model.initialize(LINEAR, train_ds.K, train_ds.d, seed=0)
    report = gradient_coherence_pipeline(config, models={0: model})
    assert queue == []
    return report["per_seed"]["0"]


class TestDistanceMatrix:
    """The pipeline's distances from the easy and the random mean gradient
    to the full one."""

    def test_identical_sets_have_zero_distance(self, monkeypatch):
        rows = np.random.default_rng(3).normal(size=(4, 3))
        entry = pipeline_on_sets(monkeypatch, rows, rows, rows)
        assert entry["dist_easy_all"] == 0.0
        assert entry["dist_random_all"] == 0.0

    def test_known_distance(self, monkeypatch):
        entry = pipeline_on_sets(monkeypatch,
                                 [[0.0, 0.0], [1.0, 1.0]],   # mean (0.5, 0.5)
                                 [[1.0, 3.0]],               # mean (1, 3)
                                 [[1.0, 1.0]])               # mean (1, 1)
        assert entry["dist_easy_all"] == pytest.approx(np.sqrt(0.5))
        assert entry["dist_random_all"] == pytest.approx(2.0)

    def test_metric_axioms(self, monkeypatch):
        rng = np.random.default_rng(4)
        easy, rand, full = (rng.normal(size=(5, 6)) for _ in range(3))
        entry = pipeline_on_sets(monkeypatch, easy, rand, full)
        swapped = pipeline_on_sets(monkeypatch, rand, easy, full)
        d_easy, d_rand = entry["dist_easy_all"], entry["dist_random_all"]
        assert d_easy > 0.0 and d_rand > 0.0
        assert (swapped["dist_easy_all"], swapped["dist_random_all"]) == (d_rand, d_easy)
        d_easy_rand = float(np.linalg.norm(easy.mean(axis=0) - rand.mean(axis=0)))
        assert d_easy_rand <= d_easy + d_rand + 1e-12
        assert d_easy <= d_easy_rand + d_rand + 1e-12
        assert entry["random_mean_closer_to_all"] == (d_rand < d_easy)

    def test_row_permutation_within_sets_is_irrelevant(self, monkeypatch):
        rng = np.random.default_rng(5)
        easy, rand, full = rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=(9, 4))
        e1 = pipeline_on_sets(monkeypatch, easy, rand, full)
        e2 = pipeline_on_sets(monkeypatch, easy[::-1], rand[::-1], full[::-1])
        for key in ("dist_easy_all", "dist_random_all"):
            assert e1[key] == pytest.approx(e2[key], rel=1e-12)


class TestCoherenceReport:
    def test_report_structure_and_self_distance(self):
        # subsets of every training point: the easy prefix and the random
        # draw are both permutations of all ids, so both means are the full one
        config = coherence_config(LINEAR, subset_fraction=1.0)
        train_ds = resolve_dataset(config)[0]
        models = {s: Model.initialize(LINEAR, train_ds.K, train_ds.d, seed=s) for s in (0, 1)}
        report = gradient_coherence_pipeline(config, models=models)
        assert report["subset_size"] == train_ds.N
        assert report["n_seeds"] == 2 and set(report["per_seed"]) == {"0", "1"}
        for seed, model in models.items():
            entry = report["per_seed"][str(seed)]
            full = gradient_set(model, np.arange(train_ds.N), train_ds)
            scale = float(np.linalg.norm(full.mean))
            assert entry["dist_easy_all"] == pytest.approx(0.0, abs=1e-12 * scale)
            assert entry["dist_random_all"] == pytest.approx(0.0, abs=1e-12 * scale)
            tv = entry["total_variance"]
            assert set(tv) == {"easy_oracle", "random", "all"}
            assert all(v >= 0.0 for v in tv.values())
            assert tv["easy_oracle"] == pytest.approx(tv["all"], rel=1e-12)
            assert tv["random"] == pytest.approx(tv["all"], rel=1e-12)
        for key in ("fraction_variance_easy_below_random", "fraction_random_mean_closer_to_all"):
            assert 0.0 <= report[key] <= 1.0
