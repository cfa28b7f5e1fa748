import itertools
import math

import numpy as np
import pytest

from curriculum_lab.data import Dataset, EmbeddingTable, generate_gaussian_mixture
from curriculum_lab.errors import DataLoadError, ParameterError
from curriculum_lab.scoring import (ScoreTable, invert, load_scores_csv,
                                    oracle_bayes_score, random_score,
                                    save_scores_csv, score_by_model_loss, transfer_score)
from curriculum_lab.config import resolve_config
from curriculum_lab.harness import score_tables
from curriculum_lab.trainer import Model, ModelSpec

LINEAR = ModelSpec("linear_softmax")


def spearman(a, b):
    """Rank correlation, computed directly from rank vectors."""
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


def make_ds(counts, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(sum(counts), d))
    y = np.repeat(np.arange(len(counts)), counts)
    return Dataset(X=X, y=y, K=len(counts))


def self_taught(ds, test_ds, seeds, M=400, lr0=0.3):
    """The self-taught tables of `seeds` over `ds`, their scorers recording
    on `test_ds`."""
    config = resolve_config({
        "scoring": {"kind": "self_taught"},
        "model": {"architecture": "linear_softmax"},
        "lr": {"variant": "exponential", "lr0": lr0, "decrease_factor": 1.5,
               "lr_step_length": 200},
        "batch_size": 20, "iterations": M, "seeds": list(seeds)})
    (tables,) = score_tables([config], (ds, test_ds))
    return tables


def acceptance_train_split():
    from curriculum_lab.harness import default_acceptance_tree, resolve_dataset
    train_ds, _test = resolve_dataset(resolve_config(default_acceptance_tree()))
    return train_ds


class TestModelLoss:
    def test_uniform_predictor_scores_log_k(self):
        ds = make_ds([3] * 5, d=4)
        table = score_by_model_loss(ds, Model.zeros(LINEAR, 5, 4))
        assert np.allclose(table.scores, math.log(5), atol=1e-12)

    def test_confident_model_scores_zero(self):
        K = 4
        ds = Dataset(X=np.eye(K), y=np.arange(K), K=K)
        model = Model.zeros(LINEAR, K, K)
        model.params[: K * K] = (np.eye(K) * 200.0).ravel()
        table = score_by_model_loss(ds, model)
        assert table.scores.max() < 1e-12

    def test_dimension_mismatch(self):
        ds = make_ds([4, 4], d=3)
        with pytest.raises(ParameterError):
            score_by_model_loss(ds, Model.zeros(LINEAR, 2, 5))

    def test_correlates_with_oracle_on_reference_dataset(self):
        ds = acceptance_train_split()
        (table,) = self_taught(ds, ds, [0], M=600, lr0=0.5)
        oracle = oracle_bayes_score(ds)
        assert spearman(table.scores, oracle.scores) > 0


class TestSelfTaught:
    def test_deterministic(self):
        ds = generate_gaussian_mixture(K=3, d=6, n_per_class=40, spread=2.5, seed=5)
        (a,) = self_taught(ds, ds, [9])
        (b,) = self_taught(ds, ds, [9])
        assert np.array_equal(a.scores, b.scores)
        (c,) = self_taught(ds, ds, [10])
        assert not np.array_equal(a.scores, c.scores)

    def test_stacked_seeds_equal_each_seed_alone(self):
        ds = generate_gaussian_mixture(K=3, d=6, n_per_class=40, spread=2.5, seed=5)
        stacked = self_taught(ds, ds, [10, 9, 11])
        for seed, table in zip([10, 9, 11], stacked):
            (alone,) = self_taught(ds, ds, [seed])
            assert np.array_equal(table.scores, alone.scores)

    def test_test_split_does_not_change_the_scores(self):
        # the test split is read only at the two record steps, never by an update
        ds = generate_gaussian_mixture(K=3, d=6, n_per_class=40, spread=2.5, seed=5)
        other = generate_gaussian_mixture(K=3, d=6, n_per_class=7, spread=1.0, seed=6)
        (a,) = self_taught(ds, ds, [9])
        (b,) = self_taught(ds, other, [9])
        assert np.array_equal(a.scores, b.scores)

    def test_easiest_decile_is_easier_than_average_by_oracle(self):
        ds = acceptance_train_split()
        (table,) = self_taught(ds, ds, [1], M=600, lr0=0.5)
        oracle = oracle_bayes_score(ds).scores
        decile = np.argsort(table.scores, kind="stable")[: ds.N // 10]
        assert oracle[decile].mean() < oracle.mean()


class TestTransfer:
    def test_separable_embeddings_score_near_zero(self):
        counts = [12, 12, 12]
        ds = make_ds(counts, d=2, seed=1)
        emb = EmbeddingTable(vectors=np.eye(3)[ds.y])
        table = transfer_score(ds, emb, folds=3, seed=0)
        assert table.scores.max() < math.log(3)
        assert table.scores.mean() < 0.2
        # no minimiser, but the gradient falls below the tolerance on the way
        assert table.warnings == ()

    def test_large_scale_embeddings_converge(self):
        # at 8x the mixture's features a unit step overshoots; the line
        # search shortens it
        ds = generate_gaussian_mixture(K=5, d=16, n_per_class=40, spread=4.5, seed=0)
        table = transfer_score(ds, EmbeddingTable(vectors=8 * ds.X), folds=4, seed=0)
        assert table.warnings == ()

    @pytest.mark.parametrize("max_iter", [3, 2000])
    def test_reported_sup_norm_is_the_returned_probes(self, monkeypatch, max_iter):
        from curriculum_lab import scoring
        monkeypatch.setattr(scoring, "_PROBE_MAX_ITER", max_iter)
        ds = make_ds([30, 30, 30], d=2, seed=6)
        E = ds.X + np.random.default_rng(2).normal(size=ds.X.shape)
        probe, sup, steps = scoring._fit_probe(E, ds.y, ds.K)
        assert float(np.abs(probe.loss_and_grad(E, ds.y)[1]).max()) == sup
        assert (sup < scoring._PROBE_TOL) == (steps < max_iter)

    def test_probe_reaches_the_minimum_of_the_objective(self):
        # reference: fixed-step gradient descent on the same loss, run to a
        # tolerance 1000 times tighter than the probe's
        from curriculum_lab import scoring
        ds = make_ds([30, 30, 30], d=2, seed=6)
        E = ds.X + np.random.default_rng(2).normal(size=ds.X.shape)
        probe, sup, _ = scoring._fit_probe(E, ds.y, ds.K)
        ref = Model.zeros(LINEAR, ds.K, E.shape[1])
        loss, grad = ref.loss_and_grad(E, ds.y)
        while np.abs(grad).max() >= scoring._PROBE_TOL / 1000:
            ref.params -= grad
            loss, grad = ref.loss_and_grad(E, ds.y)
        assert sup < scoring._PROBE_TOL
        assert abs(probe.loss_and_grad(E, ds.y)[0] - loss) < 1e-9
        assert np.allclose(probe.example_losses(E, ds.y), ref.example_losses(E, ds.y), atol=1e-4)

    def test_overflowing_trial_steps_stop_the_probe(self):
        # every trial step within the halving budget gives non-finite logits:
        # the probe stays at zero and its folds are named as unconverged
        from curriculum_lab import scoring
        ds = make_ds([6, 6], d=2, seed=3)
        E = 1e160 * np.random.default_rng(4).normal(size=(ds.N, 2))
        probe, sup, steps = scoring._fit_probe(E, ds.y, ds.K)
        assert steps == 0 and not probe.params.any()
        assert float(np.abs(probe.loss_and_grad(E, ds.y)[1]).max()) == sup
        table = transfer_score(ds, EmbeddingTable(vectors=E), folds=2, seed=0)
        assert len(table.warnings) == 2
        for f, warning in enumerate(table.warnings):
            assert warning.startswith(f"transfer probe of fold {f} did not converge in 0 iterations")
        assert np.allclose(table.scores, math.log(2))

    def test_lbfgs_direction_meets_the_secant_condition(self):
        from curriculum_lab.scoring import _lbfgs_direction
        rng = np.random.default_rng(5)
        g, s = rng.normal(size=6), rng.normal(size=6)
        yv = s + 0.1 * rng.normal(size=6)
        assert np.array_equal(_lbfgs_direction(g, []), -g)
        # one stored pair: the inverse-Hessian estimate maps y to s
        assert np.allclose(_lbfgs_direction(yv, [(s, yv, s @ yv)]), -s, atol=1e-12)

    def test_noise_embeddings_score_near_log_k(self):
        K, n = 4, 50
        log_k = math.log(K)
        means = []
        for seed in range(5):
            ds = make_ds([n] * K, d=2, seed=seed)
            emb = EmbeddingTable(
                vectors=np.random.default_rng(100 + seed).normal(size=(ds.N, 4)))
            table = transfer_score(ds, emb, folds=4, seed=seed)
            means.append(table.scores.mean())
        assert abs(np.mean(means) - log_k) / log_k < 0.2

    def test_deterministic(self):
        ds = make_ds([10, 10], d=2, seed=2)
        emb = EmbeddingTable(vectors=np.random.default_rng(7).normal(size=(20, 3)))
        a = transfer_score(ds, emb, folds=2, seed=4)
        b = transfer_score(ds, emb, folds=2, seed=4)
        assert np.array_equal(a.scores, b.scores)

    def test_too_many_folds_rejected(self):
        ds = make_ds([3, 10], d=2)
        emb = EmbeddingTable(vectors=np.zeros((13, 2)))
        with pytest.raises(ParameterError, match="folds"):
            transfer_score(ds, emb, folds=4, seed=0)

    def test_converged_probes_leave_no_warning(self):
        ds = make_ds([30, 30, 30], d=2, seed=6)
        emb = EmbeddingTable(vectors=ds.X + np.random.default_rng(2).normal(size=ds.X.shape))
        assert transfer_score(ds, emb, folds=3, seed=1).warnings == ()

    def test_unconverged_probe_is_named_in_warnings(self, monkeypatch):
        from curriculum_lab import scoring
        ds = make_ds([30, 30, 30], d=2, seed=6)
        emb = EmbeddingTable(vectors=ds.X + np.random.default_rng(2).normal(size=ds.X.shape))
        full = transfer_score(ds, emb, folds=3, seed=1)
        monkeypatch.setattr(scoring, "_PROBE_MAX_ITER", 3)
        table = transfer_score(ds, emb, folds=3, seed=1)
        assert len(table.warnings) == 3
        for f, warning in enumerate(table.warnings):
            assert warning.startswith(f"transfer probe of fold {f} did not converge in 3 iterations")
            sup = float(warning.split("sup-norm ")[1].split(",")[0])
            assert sup >= scoring._PROBE_TOL
        assert not np.array_equal(table.scores, full.scores)
        assert invert(table).warnings == table.warnings

    def test_scores_clamped(self):
        ds = make_ds([5, 5], d=2, seed=3)
        emb = EmbeddingTable(vectors=np.random.default_rng(1).normal(size=(10, 2)))
        table = transfer_score(ds, emb, folds=2, seed=0)
        assert (table.scores >= 0).all()
        assert (table.scores <= 50).all()


class TestRandomScore:
    def test_is_permutation(self):
        ds = make_ds([2, 2])
        table = random_score(ds, seed=3)
        assert sorted(table.scores.tolist()) == [0.0, 1.0, 2.0, 3.0]

    def test_seed_contract(self):
        ds = make_ds([10, 10])
        assert np.array_equal(random_score(ds, 5).scores, random_score(ds, 5).scores)
        assert not np.array_equal(random_score(ds, 5).scores, random_score(ds, 6).scores)

    def test_sorting_is_uniform_shuffle(self):
        ds = make_ds([3], d=1)
        counts = {perm: 0 for perm in itertools.permutations(range(3))}
        n = 10000
        for seed in range(n):
            order = tuple(np.argsort(random_score(ds, seed).scores, kind="stable").tolist())
            counts[order] += 1
        for perm, c in counts.items():
            assert abs(c / n - 1 / 6) < 0.02, (perm, c / n)


class TestInvert:
    def test_sign_flip(self):
        t = ScoreTable(np.array([0.1, 0.3, 0.2]))
        assert np.array_equal(invert(t).scores, np.array([-0.1, -0.3, -0.2]))

    def test_involution(self):
        t = ScoreTable(np.array([0.4, -1.0, 2.5]))
        assert np.array_equal(invert(invert(t)).scores, t.scores)

    def test_order_reversal_for_distinct_scores(self):
        t = ScoreTable(np.array([0.5, 0.1, 0.9, 0.3]))
        fwd = np.argsort(t.scores, kind="stable")
        rev = np.argsort(invert(t).scores, kind="stable")
        assert list(rev) == list(fwd)[::-1]


class TestOracle:
    def test_equidistant_point_scores_log2(self):
        from curriculum_lab.data import BayesMixture
        bayes = BayesMixture(means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             variance=1.0, class_priors=np.array([0.5, 0.5]))
        ds = Dataset(X=np.array([[0.0, 3.7], [1.0, 0.0]]), y=np.array([0, 1]),
                     K=2, bayes=bayes)
        table = oracle_bayes_score(ds)
        assert table.scores[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_point_at_mean_of_separated_classes_scores_near_zero(self):
        from curriculum_lab.data import BayesMixture
        bayes = BayesMixture(means=np.array([[50.0, 0.0], [-50.0, 0.0]]),
                             variance=1.0, class_priors=np.array([0.5, 0.5]))
        ds = Dataset(X=np.array([[50.0, 0.0], [-50.0, 0.0]]), y=np.array([0, 1]),
                     K=2, bayes=bayes)
        assert oracle_bayes_score(ds).scores.max() < 1e-12

    def test_permutation_equivariance(self):
        ds = generate_gaussian_mixture(K=3, d=4, n_per_class=10, spread=2.0, seed=6)
        perm = np.random.default_rng(0).permutation(ds.N)
        shuffled = Dataset(X=ds.X[perm], y=ds.y[perm], K=ds.K, bayes=ds.bayes)
        assert np.allclose(oracle_bayes_score(shuffled).scores,
                           oracle_bayes_score(ds).scores[perm])

    def test_requires_metadata(self):
        ds = make_ds([4, 4])
        with pytest.raises(ParameterError):
            oracle_bayes_score(ds)


class TestScoreIO:
    def test_roundtrip_full_precision(self, tmp_path):
        table = ScoreTable(np.array([0.1, 1 / 3, math.pi]))
        path = tmp_path / "scores.csv"
        save_scores_csv(table, path)
        loaded = load_scores_csv(path)
        assert np.array_equal(loaded.scores, table.scores)

    def test_rejects_gap_in_ids(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\n0,1.0\n2,2.0\n")
        with pytest.raises(DataLoadError):
            load_scores_csv(path)
