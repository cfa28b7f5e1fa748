import itertools
import math

import numpy as np
import pytest

from curriculum_lab.data import Dataset, EmbeddingTable, generate_gaussian_mixture
from curriculum_lab.errors import DataLoadError, ParameterError
from curriculum_lab.scoring import (ScoreTable, invert, load_scores_csv,
                                    oracle_bayes_score, random_score,
                                    save_scores_csv, score_by_model_loss,
                                    self_taught_score, transfer_score)
from curriculum_lab.config import resolve_config
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


def quick_config(M=400, lr0=0.3):
    return resolve_config({
        "model": {"architecture": "linear_softmax"},
        "lr": {"variant": "exponential", "lr0": lr0, "decrease_factor": 1.5,
               "lr_step_length": 200},
        "batch_size": 20, "iterations": M})


def acceptance_train_split():
    from curriculum_lab.harness import default_acceptance_tree, resolve_dataset
    train_ds, _test, _emb = resolve_dataset(resolve_config(default_acceptance_tree()))
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
        (table,) = self_taught_score(ds, quick_config(M=600, lr0=0.5), [0])
        oracle = oracle_bayes_score(ds)
        assert spearman(table.scores, oracle.scores) > 0


class TestSelfTaught:
    def test_deterministic(self):
        ds = generate_gaussian_mixture(K=3, d=6, n_per_class=40, spread=2.5, seed=5)
        (a,) = self_taught_score(ds, quick_config(), [9])
        (b,) = self_taught_score(ds, quick_config(), [9])
        assert np.array_equal(a.scores, b.scores)
        (c,) = self_taught_score(ds, quick_config(), [10])
        assert not np.array_equal(a.scores, c.scores)

    def test_stacked_seeds_equal_each_seed_alone(self):
        ds = generate_gaussian_mixture(K=3, d=6, n_per_class=40, spread=2.5, seed=5)
        stacked = self_taught_score(ds, quick_config(), [10, 9, 11])
        for seed, table in zip([10, 9, 11], stacked):
            (alone,) = self_taught_score(ds, quick_config(), [seed])
            assert np.array_equal(table.scores, alone.scores)
            assert table.provenance == "self_taught"

    def test_easiest_decile_is_easier_than_average_by_oracle(self):
        ds = acceptance_train_split()
        (table,) = self_taught_score(ds, quick_config(M=600, lr0=0.5), [1])
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
        t = ScoreTable(np.array([0.1, 0.3, 0.2]), "x")
        assert np.array_equal(invert(t).scores, np.array([-0.1, -0.3, -0.2]))

    def test_involution(self):
        t = ScoreTable(np.array([0.4, -1.0, 2.5]), "x")
        assert np.array_equal(invert(invert(t)).scores, t.scores)

    def test_order_reversal_for_distinct_scores(self):
        t = ScoreTable(np.array([0.5, 0.1, 0.9, 0.3]), "x")
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
        table = ScoreTable(np.array([0.1, 1 / 3, math.pi]), "x")
        path = tmp_path / "scores.csv"
        save_scores_csv(table, path)
        loaded = load_scores_csv(path)
        assert np.array_equal(loaded.scores, table.scores)

    def test_rejects_gap_in_ids(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\n0,1.0\n2,2.0\n")
        with pytest.raises(DataLoadError):
            load_scores_csv(path)
