"""Property tests for pacing, balanced prefixes, stratified splits,
largest-remainder quotas and the CSV writer and reader, over generated
inputs."""
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from curriculum_lab.data import Dataset, largest_remainder_quotas, read_id_rows, \
    select_examples, stratified_split_ids, write_csv  # noqa: E402
from curriculum_lab.errors import ParameterError  # noqa: E402
from curriculum_lab.pacing import PacingSpec, num_steps, saturation_iteration  # noqa: E402
from curriculum_lab.sequencer import balanced_prefix, build_plan  # noqa: E402

SETTINGS = settings(deadline=None, max_examples=150)

class_counts = st.lists(st.integers(1, 25), min_size=1, max_size=5)


@st.composite
def pacing_specs(draw):
    variant = draw(st.sampled_from(["fixed_exp", "varied_exp", "single_step", "vanilla"]))
    N = draw(st.integers(1, 400))
    M = draw(st.integers(1, 300))
    if variant == "vanilla":
        return PacingSpec("vanilla", N=N, M=M)
    sp = draw(st.floats(0.01, 1.0))
    assume(math.floor(sp * N + 0.5) >= 1)
    if variant == "single_step":
        return PacingSpec("single_step", N=N, M=M, starting_percent=sp,
                          step_length=draw(st.integers(0, 350)))
    inc = draw(st.floats(1.1, 4.0))
    if variant == "fixed_exp":
        return PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp, increase=inc,
                          step_length=draw(st.integers(1, 120)))
    gaps = draw(st.lists(st.integers(1, 40), min_size=num_steps(sp, inc),
                         max_size=num_steps(sp, inc)))
    first = draw(st.integers(0, 60))
    return PacingSpec("varied_exp", N=N, M=M, starting_percent=sp, increase=inc,
                      boundaries=tuple(first - gaps[0] + np.cumsum(gaps)) if gaps else ())


def labelled(counts):
    y = np.repeat(np.arange(len(counts)), counts)
    X = np.zeros((len(y), 1))
    return Dataset(X=X, y=y, K=len(counts))


class TestPacingSizes:
    @SETTINGS
    @given(pacing_specs())
    def test_non_decreasing_and_full_from_saturation(self, spec):
        sizes = np.asarray(spec.sizes)
        assert len(sizes) == spec.M
        assert (np.diff(sizes) >= 0).all()
        assert sizes.min() >= 1 and sizes.max() <= spec.N
        assert (sizes[saturation_iteration(spec):] == spec.N).all()


class TestBalancedPrefix:
    @SETTINGS
    @given(counts=class_counts, seed=st.integers(0, 2 ** 32 - 1))
    @example(counts=[1, 3, 3], seed=0)   # quotas at size 3 and 4: (1, 1, 1), (0, 2, 2)
    def test_meets_quotas_and_is_nested(self, counts, seed):
        ds = labelled(counts)
        # few distinct scores, so ties between ids are common
        scores = np.random.default_rng(seed).integers(0, 7, size=ds.N).astype(float)
        plan = build_plan(ds, scores, PacingSpec("vanilla", N=ds.N, M=1),
                          batch_size=1, seed=0)
        order = np.lexsort((np.arange(ds.N), scores))
        prefixes = {}
        for size in range(1, ds.N + 1):
            ids = balanced_prefix(plan, size)
            quotas = largest_remainder_quotas(ds.class_counts, size)
            assert len(ids) == size == len(set(ids.tolist()))
            assert np.array_equal(np.bincount(ds.y[ids], minlength=ds.K), quotas)
            # the easiest ids of each class, kept in (score, id) order
            assert np.array_equal(ids, order[np.isin(order, ids)])
            for c in range(ds.K):
                easiest_c = order[ds.y[order] == c][: quotas[c]]
                assert set(easiest_c.tolist()) <= set(ids.tolist())
            prefixes[size] = (set(ids.tolist()), quotas)
        # a smaller prefix lies inside a larger one exactly when no class quota
        # shrinks; largest-remainder quotas can shrink as the size grows (the
        # Alabama paradox) with three or more unequal classes, never with two
        # classes or with equal class counts
        for size in range(1, ds.N):
            (a, qa), (b, qb) = prefixes[size], prefixes[size + 1]
            assert (a <= b) == bool((qa <= qb).all())
            if ds.K <= 2 or len(set(counts)) == 1:
                assert a <= b


class TestStratifiedSplit:
    @SETTINGS
    @given(counts=st.lists(st.integers(1, 25), min_size=1, max_size=5),
           fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1))
    def test_disjoint_cover_with_class_counts_within_one(self, counts, fraction, seed):
        ds = labelled(counts)
        target = math.floor(fraction * ds.N + 0.5)
        quotas = largest_remainder_quotas(ds.class_counts, target)
        if ((quotas < 1) | (quotas > ds.class_counts - 1)).any():
            with pytest.raises(ParameterError, match="empty"):
                stratified_split_ids(ds, fraction, seed)
            return
        train_ids, val_ids = stratified_split_ids(ds, fraction, seed)
        assert len(np.intersect1d(train_ids, val_ids)) == 0
        assert np.array_equal(np.sort(np.concatenate([train_ids, val_ids])), np.arange(ds.N))
        exact = target * ds.class_counts / ds.N
        train_counts = np.bincount(ds.y[train_ids], minlength=ds.K)
        assert (np.abs(train_counts - exact) < 1).all()
        train, val = select_examples(ds, train_ids), select_examples(ds, val_ids)
        assert np.array_equal(train.class_counts, train_counts)
        assert np.array_equal(val.class_counts, ds.class_counts - train_counts)


class TestLargestRemainderQuotas:
    @SETTINGS
    @given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=8), data=st.data())
    def test_sums_to_total_within_one_of_exact_share(self, counts, data):
        counts = np.asarray(counts)
        assume(counts.sum() > 0)
        total = data.draw(st.integers(0, int(counts.sum())))
        quotas = largest_remainder_quotas(counts, total)
        assert quotas.sum() == total
        assert (np.abs(quotas - total * counts / counts.sum()) < 1).all()
        assert ((quotas >= 0) & (quotas <= counts)).all()


class TestCsvRoundTrip:
    @SETTINGS
    @given(data=st.data(), n=st.integers(1, 12), width=st.integers(1, 5))
    def test_writer_and_reader_keep_every_bit(self, data, n, width):
        # any finite float, subnormals and -0.0 included, and any int label
        floats = st.floats(allow_nan=False, allow_infinity=False)
        values = np.array(data.draw(st.lists(st.lists(floats, min_size=width, max_size=width),
                                             min_size=n, max_size=n)), dtype=np.float64)
        labels = np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1),
                                             min_size=n, max_size=n)), dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            write_csv(path, ["id", "label"] + [f"v{j}" for j in range(width)],
                      [np.arange(n), labels, values])
            rows = read_id_rows(path, ("id", "label"), "v",
                                lambda fields: (int(fields[0]), [float(v) for v in fields[1:]]))
        assert [label for label, _ in rows] == labels.tolist()
        assert np.array([v for _, v in rows]).tobytes() == values.tobytes()
