import tracemalloc

import numpy as np
import pytest

from curriculum_lab.data import (Dataset, EmbeddingTable, generate_gaussian_mixture,
                                 largest_remainder_quotas, load_dataset_csv,
                                 load_embeddings_csv, save_dataset_csv, select_examples,
                                 stratified_split_ids)
from curriculum_lab.errors import DataLoadError, ParameterError
from curriculum_lab.scoring import load_scores_csv
from helpers import save_embeddings_csv


class TestGenerate:
    def test_counts(self):
        ds = generate_gaussian_mixture(K=2, d=2, n_per_class=5, spread=1.0, seed=7)
        assert ds.N == 10
        assert list(ds.class_counts) == [5, 5]
        assert ds.d == 2

    def test_deterministic(self):
        a = generate_gaussian_mixture(K=3, d=4, n_per_class=8, spread=2.0, seed=7)
        b = generate_gaussian_mixture(K=3, d=4, n_per_class=8, spread=2.0, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        c = generate_gaussian_mixture(K=3, d=4, n_per_class=8, spread=2.0, seed=8)
        assert not np.array_equal(a.X, c.X)

    def test_bayes_metadata_present(self):
        ds = generate_gaussian_mixture(K=4, d=3, n_per_class=6, spread=1.5, seed=0)
        assert ds.bayes is not None
        assert ds.bayes.means.shape == (4, 3)
        assert ds.bayes.variance == pytest.approx(1.5 ** 2)
        post = np.exp(ds.bayes.log_posteriors(ds.X))
        assert np.allclose(post.sum(axis=1), 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(K=1, d=2, n_per_class=5, spread=1.0, seed=0),
        dict(K=2, d=0, n_per_class=5, spread=1.0, seed=0),
        dict(K=2, d=2, n_per_class=0, spread=1.0, seed=0),
        dict(K=2, d=2, n_per_class=5, spread=0.0, seed=0),
    ])
    def test_invalid_sizes(self, kwargs):
        with pytest.raises(ParameterError):
            generate_gaussian_mixture(**kwargs)


class TestCsv:
    def test_roundtrip_is_lossless(self, tmp_path):
        ds = generate_gaussian_mixture(K=3, d=5, n_per_class=4, spread=1.3, seed=1)
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.X, ds.X)
        assert np.array_equal(loaded.y, ds.y)
        assert loaded.K == ds.K

    def test_small_parse(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.5\n1,1,-2.0\n2,0,0.25\n")
        ds = load_dataset_csv(path)
        assert ds.N == 3
        assert ds.K == 2
        assert list(ds.class_counts) == [2, 1]

    def test_duplicate_id_cites_offender(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n4,1,2.0\n4,0,3.0\n")
        with pytest.raises(DataLoadError, match="duplicate id 4"):
            load_dataset_csv(path)

    def test_empty_class_cites_class(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,1,2.0\n2,3,3.0\n3,0,1.0\n")
        with pytest.raises(DataLoadError, match="empty class 2"):
            load_dataset_csv(path)

    def test_huge_label_is_an_empty_class(self, tmp_path):
        # 10**12 classes cannot be filled by two examples; a K-length count
        # array of that many classes would not fit in memory
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,1000000000000,2.0\n")
        with pytest.raises(DataLoadError, match="empty class 1$"):
            load_dataset_csv(path)

    def test_non_contiguous_ids(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n2,1,2.0\n")
        with pytest.raises(DataLoadError, match="not contiguous"):
            load_dataset_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,1,not_a_number\n")
        with pytest.raises(DataLoadError, match="row 3"):
            load_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("idx,label,f0\n0,0,1.0\n")
        with pytest.raises(DataLoadError, match="header"):
            load_dataset_csv(path)


# each id-keyed loader: its header and a valid row of id i
ID_KEYED = {
    "dataset": (load_dataset_csv, "id,label,f0,f1", lambda i: f"{i},{i % 2},0.5,1.5"),
    "embeddings": (load_embeddings_csv, "id,e0,e1", lambda i: f"{i},0.5,1.5"),
    "scores": (load_scores_csv, "id,score", lambda i: f"{i},0.5"),
}
# the rules all three share, as the lines of a file breaking one
SHARED_BREACHES = {
    "empty-file": lambda header, row: [],
    "no-header": lambda header, row: [row(0), row(1)],
    "header-only": lambda header, row: [header],
    "bad-header": lambda header, row: ["x" + header, row(0)],
    "short-row": lambda header, row: [header, row(0), row(1).rsplit(",", 1)[0]],
    "duplicate-id": lambda header, row: [header, row(0), row(1), row(1)],
    "id-gap": lambda header, row: [header, row(0), row(2)],
    "non-numeric": lambda header, row: [header, row(0), row(1).rsplit(",", 1)[0] + ",abc"],
    "oversized-field": lambda header, row: [header, row(0), row(1) + "5" * 131073],
    "nul-byte": lambda header, row: [header, row(0), row(1) + "\0"],
}
MALFORMED = [(loader, case, "".join(line + "\n" for line in lines(header, row)))
             for case, lines in SHARED_BREACHES.items()
             for loader, (_load, header, row) in ID_KEYED.items()] + [
    ("dataset", "negative-label", "id,label,f0\n0,0,1.0\n1,-1,2.0\n"),
    ("dataset", "label-past-int64", "id,label,f0\n0,0,1.0\n1,9223372036854775808,2.0\n"),
    ("dataset", "non-finite", "id,label,f0\n0,0,1.0\n1,1,nan\n"),
    ("scores", "non-finite", "id,score\n0,1.0\n1,inf\n"),
    ("embeddings", "non-finite", "id,e0\n0,1.0\n1,nan\n"),
    ("embeddings", "empty-table", "id\n0\n1\n"),
]


@pytest.mark.parametrize("loader,case,text", MALFORMED,
                         ids=[f"{loader}-{case}" for loader, case, _ in MALFORMED])
def test_malformed_id_keyed_csv_names_its_path(tmp_path, loader, case, text):
    path = tmp_path / f"{case}.csv"
    path.write_text(text)
    with pytest.raises(DataLoadError) as err:
        ID_KEYED[loader][0](path)
    assert str(err.value).startswith(f"{path}: ")


def stratified_split(ds, fraction, seed):
    """Both sides of `stratified_split_ids`, as datasets."""
    return tuple(select_examples(ds, ids) for ids in stratified_split_ids(ds, fraction, seed))


class TestStratifiedSplit:
    def make(self, counts, d=3, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(sum(counts), d))
        y = np.repeat(np.arange(len(counts)), counts)
        return Dataset(X=X, y=y, K=len(counts))

    def test_exact_quota(self):
        ds = self.make([10, 10])
        train, val = stratified_split(ds, 0.8, seed=1)
        assert list(train.class_counts) == [8, 8]
        assert list(val.class_counts) == [2, 2]

    def test_tie_goes_to_lowest_class(self):
        ds = self.make([5, 5])
        train, val = stratified_split(ds, 0.5, seed=1)
        assert list(train.class_counts) == [3, 2]
        assert list(val.class_counts) == [2, 3]

    def test_deterministic_membership(self):
        ds = self.make([12, 9, 7])
        a_train, a_val = stratified_split(ds, 0.7, seed=5)
        b_train, b_val = stratified_split(ds, 0.7, seed=5)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_val.X, b_val.X)

    def test_union_preserved(self):
        ds = self.make([12, 9, 7])
        train, val = stratified_split(ds, 0.6, seed=3)
        combined = np.vstack([train.X, val.X])
        assert combined.shape == ds.X.shape
        key = lambda M: M[np.lexsort(M.T)]
        assert np.array_equal(key(combined), key(np.asarray(ds.X)))

    def test_proportions_within_one_example(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            counts = [int(c) for c in rng.integers(3, 40, size=rng.integers(2, 6))]
            frac = float(rng.uniform(0.2, 0.8))
            ds = self.make(counts, seed=int(rng.integers(1e6)))
            try:
                train, _val = stratified_split(ds, frac, seed=0)
            except ParameterError:
                continue
            for c, n_c in enumerate(counts):
                assert abs(train.class_counts[c] - frac * n_c) <= 1.0

    def test_class_emptied_rejected(self):
        ds = self.make([2, 30])
        with pytest.raises(ParameterError, match="class 0"):
            stratified_split(ds, 0.95, seed=0)


class TestQuotas:
    def test_sum_matches_total(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            counts = rng.integers(1, 50, size=rng.integers(1, 8))
            total = int(rng.integers(0, counts.sum() + 1))
            q = largest_remainder_quotas(counts, total)
            assert q.sum() == total
            assert (q >= 0).all()
            assert (q <= counts).all()

    def test_exact_proportions_untouched(self):
        q = largest_remainder_quotas(np.array([6, 3]), 3)
        assert list(q) == [2, 1]


class TestEmbeddings:
    def test_roundtrip(self, tmp_path):
        emb = EmbeddingTable(vectors=np.random.default_rng(0).normal(size=(7, 4)))
        path = tmp_path / "emb.csv"
        save_embeddings_csv(emb, path)
        loaded = load_embeddings_csv(path)
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_read_holds_no_python_float_per_value(self, tmp_path):
        # 2500 x 48 values: 0.92 MiB as float64, 2.75 MiB more as Python floats
        emb = EmbeddingTable(vectors=np.random.default_rng(0).normal(size=(2500, 48)))
        path = tmp_path / "emb.csv"
        save_embeddings_csv(emb, path)
        tracemalloc.start()
        try:
            loaded = load_embeddings_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.vectors.tobytes() == emb.vectors.tobytes()
        assert peak < 4.5 * 2**20

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,x0\n0,1.0\n")
        with pytest.raises(DataLoadError):
            load_embeddings_csv(path)
