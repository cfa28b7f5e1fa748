"""Acceptance suite: one test per criterion, one printed verdict line each.

The training-based criteria share a session-scoped set of runs over the
calibrated reference dataset (25 paired seeds, linear softmax, batch 100,
M = 3000). Heavy numeric criteria carry their stated runtime budgets.
"""
import math
import time

import numpy as np
import pytest

from curriculum_lab.config import resolve_config
from curriculum_lab.data import Dataset, largest_remainder_quotas
from curriculum_lab.errors import ParameterError
from curriculum_lab.harness import (default_acceptance_tree,
                                    gradient_coherence_pipeline, run_experiment)
from curriculum_lab.pacing import (PacingSpec, g_fixed_exp, g_varied_exp,
                                   num_steps, saturation_iteration, subset_size)
from curriculum_lab.scoring import invert, random_score
from curriculum_lab.sequencer import balanced_prefix, build_plan, minibatch_at
from curriculum_lab.theory import run_verification
from curriculum_lab.trainer import LRSchedule, Model, ModelSpec, train

WINDOW = 5


def verdict(n, label, ok, detail=""):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------
# shared expensive fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def theory_report():
    t0 = time.monotonic()
    report = run_verification(instances=1000, constant_variance_families=200, seed=1)
    report["elapsed"] = time.monotonic() - t0
    return report


@pytest.fixture(scope="session")
def paired_runs():
    """25 paired (vanilla, curriculum) runs on the calibrated dataset."""
    seeds = list(range(25))
    t0 = time.monotonic()
    van = run_experiment(resolve_config(default_acceptance_tree("vanilla", seeds=seeds)))
    cur = run_experiment(resolve_config(default_acceptance_tree("curriculum", seeds=seeds)))
    elapsed = time.monotonic() - t0
    return {"vanilla": van, "curriculum": cur, "seeds": seeds, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria 1-4: theory lab
# ---------------------------------------------------------------------------

def test_criterion_1_decomposition_identity(theory_report):
    r = theory_report
    ok = r["max_decomposition_residual"] <= 1e-12 and r["elapsed"] < 10.0
    verdict(1, "utility decomposition identity", ok,
            f"max residual {r['max_decomposition_residual']:.2e}, {r['elapsed']:.1f}s")
    assert r["instances"] == 1000
    assert r["max_decomposition_residual"] <= 1e-12
    assert r["elapsed"] < 10.0


def test_criterion_2_argmax_preservation(theory_report):
    r = theory_report
    ok = r["argmax_preservation_violations"] == 0 and r["matched_argmax_count"] > 0
    verdict(2, "argmax preservation + gap", ok,
            f"assumption held on {r['matched_argmax_count']} instances, "
            f"{r['argmax_preservation_violations']} violations")
    assert r["matched_argmax_count"] > 0
    assert r["argmax_preservation_violations"] == 0


def test_criterion_3_ideal_prior_amplification(theory_report):
    r = theory_report
    ok = (r["optimum_identity_ok"] and r["amplification_gap_violations"] == 0
          and r["cauchy_schwarz_violations"] == 0)
    verdict(3, "ideal-prior amplification", ok,
            f"max optimum residual {r['max_optimum_residual']:.2e}")
    assert r["max_optimum_residual"] <= 1e-12
    assert r["amplification_gap_violations"] == 0
    assert r["cauchy_schwarz_violations"] == 0


def test_criterion_4_constant_variance(theory_report):
    r = theory_report
    ok = (r["constant_variance_applicable"] == 200 and r["constant_variance_violations"] == 0)
    verdict(4, "constant-variance families", ok,
            f"{r['constant_variance_applicable']}/200 applicable, "
            f"{r['constant_variance_violations']} violations")
    assert r["constant_variance_families"] == 200
    assert r["constant_variance_applicable"] == 200
    assert r["constant_variance_violations"] == 0


# ---------------------------------------------------------------------------
# criterion 5: pacing properties
# ---------------------------------------------------------------------------

def random_pacing_spec(rng):
    variant = ["fixed_exp", "single_step", "varied_exp"][int(rng.integers(3))]
    N = int(rng.integers(5, 3000))
    sp = float(rng.uniform(0.01, 1.0))
    if round(sp * N) < 1:
        sp = min(1.0, 2.0 / N)
    inc = float(rng.uniform(1.1, 3.0))
    step = int(rng.integers(1, 200))
    if variant == "varied_exp":
        k = num_steps(sp, inc)
        if k == 0:
            variant = "fixed_exp"
        else:
            bounds = np.cumsum(rng.integers(1, 150, size=k))
            M = int(bounds[-1] + rng.integers(2, 100))
            return PacingSpec("varied_exp", N=N, M=M, starting_percent=sp,
                              increase=inc, boundaries=[int(b) for b in bounds])
    M = int(rng.integers(step + 1, step * 8 + 2))
    if variant == "fixed_exp":
        return PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp,
                          increase=inc, step_length=step)
    return PacingSpec("single_step", N=N, M=M, starting_percent=sp, step_length=step)


def test_criterion_5_pacing_properties():
    assert num_steps(0.04, 1.9) == 6
    rng = np.random.default_rng(55)
    for _ in range(500):
        spec = random_pacing_spec(rng)
        sizes = np.array([subset_size(spec, i) for i in range(spec.M)])
        assert (np.diff(sizes) >= 0).all(), spec          # non-decreasing
        start = max(1, int(math.floor(spec.starting_percent * spec.N + 0.5)))
        assert sizes.min() >= min(start, spec.N)
        assert sizes.max() <= spec.N
        changes = np.flatnonzero(np.diff(sizes)) + 1       # staircase
        if spec.variant == "fixed_exp":
            assert all(c % spec.step_length == 0 for c in changes)
            sat = saturation_iteration(spec)
            assert sat == spec.step_length * num_steps(spec.starting_percent, spec.increase)
            if sat < spec.M:
                assert sizes[sat] == spec.N
        elif spec.variant == "single_step":
            assert all(c == spec.step_length for c in changes)
        else:
            assert set(changes) <= {b + 1 for b in spec.boundaries}
    # varied_exp with equal gaps reproduces fixed_exp (boundaries at k*L - 1)
    for _ in range(100):
        N = int(rng.integers(20, 400))
        L = int(rng.integers(1, 30))
        sp = float(rng.uniform(0.02, 0.8))
        inc = float(rng.uniform(1.1, 3.0))
        if round(sp * N) < 1:
            continue
        k = num_steps(sp, inc)
        if k == 0:
            continue
        M = L * (k + 2) + 5
        fixed = PacingSpec("fixed_exp", N=N, M=M, starting_percent=sp,
                           increase=inc, step_length=L)
        varied = PacingSpec("varied_exp", N=N, M=M, starting_percent=sp,
                            increase=inc,
                            boundaries=[j * L - 1 for j in range(1, k + 1)])
        assert all(g_varied_exp(varied, i) == g_fixed_exp(fixed, i) for i in range(M))
    verdict(5, "pacing properties", True, "500 specs + 100 equal-gap cases")


# ---------------------------------------------------------------------------
# criterion 6: sequencer properties
# ---------------------------------------------------------------------------

def test_criterion_6_sequencer_properties():
    rng = np.random.default_rng(66)
    for seed in range(100):
        counts = [int(c) for c in rng.integers(4, 25, size=int(rng.integers(2, 5)))]
        N = sum(counts)
        X = rng.normal(size=(N, 3))
        y = np.repeat(np.arange(len(counts)), counts)
        ds = Dataset(X=X, y=y, K=len(counts))
        scores = random_score(ds, seed)
        pacing = PacingSpec("fixed_exp", N=N, M=16, starting_percent=0.5,
                            increase=2.0, step_length=5)
        plan = build_plan(ds, scores, pacing, batch_size=3, seed=seed)

        # prefix nesting whenever quotas are monotone
        sizes = sorted(set(int(s) for s in rng.integers(1, N + 1, size=5)))
        quotas = [largest_remainder_quotas(ds.class_counts, s) for s in sizes]
        for (s1, q1), (s2, q2) in zip(zip(sizes, quotas), zip(sizes[1:], quotas[1:])):
            if (q1 <= q2).all():
                assert set(balanced_prefix(plan, s1).tolist()) <= \
                    set(balanced_prefix(plan, s2).tolist())

        # membership of every sampled id in the iteration's prefix
        for i in range(16):
            batch = minibatch_at(plan, i)
            subset = set(balanced_prefix(plan, subset_size(pacing, i)).tolist())
            assert set(batch.tolist()) <= subset

        # anti-curriculum reverses the global order (scores are distinct)
        anti = build_plan(ds, invert(scores), pacing, batch_size=3, seed=seed)
        assert list(balanced_prefix(anti, anti.N)) == list(balanced_prefix(plan, plan.N))[::-1]

        # bitwise reproducibility of the full batch sequence
        plan2 = build_plan(ds, scores, pacing, batch_size=3, seed=seed)
        seq1 = [minibatch_at(plan, i).tolist() for i in range(16)]
        seq2 = [minibatch_at(plan2, i).tolist() for i in range(16)]
        assert seq1 == seq2

    # proportional-quota rule on 100 random class distributions
    for _ in range(100):
        counts = rng.integers(1, 40, size=int(rng.integers(2, 7)))
        total = int(rng.integers(1, counts.sum() + 1))
        q = largest_remainder_quotas(counts, total)
        exact = total * counts / counts.sum()
        floors = np.floor(exact).astype(int)
        assert q.sum() == total
        assert ((q == floors) | (q == floors + 1)).all()
        order = np.lexsort((np.arange(len(counts)), -(exact - floors)))
        expected = floors.copy()
        expected[order[: total - floors.sum()]] += 1
        assert np.array_equal(q, expected)
    verdict(6, "sequencer properties", True, "100 seeds + 100 quota cases")


# ---------------------------------------------------------------------------
# criterion 7: trainer correctness
# ---------------------------------------------------------------------------

def test_criterion_7_trainer_correctness(tmp_path):
    rng = np.random.default_rng(77)
    for spec in (ModelSpec("linear_softmax"), ModelSpec("mlp1", hidden=7)):
        for draw in range(50):
            K = int(rng.integers(2, 6))
            d = int(rng.integers(2, 9))
            n = int(rng.integers(2, 16))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, K, size=n)
            model = Model.initialize(spec, K, d, seed=int(rng.integers(1e9)))
            _, grad = model.loss_and_grad(X, y)
            u = rng.normal(size=grad.shape)
            u /= np.linalg.norm(u)
            h = 1e-5

            def loss_at(theta):
                return float(Model(spec, K, d, theta).example_losses(X, y).mean())

            numeric = (loss_at(model.params + h * u)
                       - loss_at(model.params - h * u)) / (2 * h)
            analytic = float(grad @ u)
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            assert rel < 1e-4, (spec.architecture, draw, rel)

    # bitwise-identical learning-curve CSVs for a repeated fixed-seed run
    ds = Dataset(X=rng.normal(size=(60, 4)),
                 y=np.repeat(np.arange(3), 20), K=3)
    pacing = PacingSpec("fixed_exp", N=60, M=80, starting_percent=0.5,
                        increase=2.0, step_length=20)
    plan = build_plan(ds, random_score(ds, 5), pacing, batch_size=10, seed=5)
    sched = LRSchedule("exponential", lr0=0.2, decrease_factor=1.5, lr_step_length=40)
    paths = []
    for run in range(2):
        _, curve = train(ds, ds, plan, sched, ModelSpec("mlp1", hidden=5),
                         record_every=20, seed=9)
        path = tmp_path / f"curve_{run}.csv"
        curve.to_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    verdict(7, "trainer correctness", True,
            "100 finite-difference draws + bitwise curves")


# ---------------------------------------------------------------------------
# criteria 8-10: the calibrated experiment
# ---------------------------------------------------------------------------

def final_accuracy(curve):
    return float(curve.test_acc[-WINDOW:].mean())


def first_hit(curve, target):
    for it, acc in zip(curve.iterations, curve.test_acc):
        if acc >= target:
            return int(it)
    return 10 ** 9


def test_criterion_8_curriculum_speedup(paired_runs):
    van, cur = paired_runs["vanilla"], paired_runs["curriculum"]
    earlier = 0
    for s in paired_runs["seeds"]:
        target = final_accuracy(van.curves[s])
        if first_hit(cur.curves[s], target) < first_hit(van.curves[s], target):
            earlier += 1
    fv = van.summary["final_accuracy_mean"]
    fc = cur.summary["final_accuracy_mean"]
    ok = (earlier >= 18 and fc >= fv - 0.005 and paired_runs["elapsed"] < 300
          and 0.4 <= fv <= 0.7)
    verdict(8, "curriculum speedup", ok,
            f"earlier in {earlier}/25, final {fc:.4f} vs {fv:.4f}, "
            f"{paired_runs['elapsed']:.0f}s")
    assert 0.4 <= fv <= 0.7, "vanilla accuracy outside the calibrated window"
    assert earlier >= 18                 # >= 70% of 25 paired seeds
    assert fc >= fv - 0.005              # within 0.5 percentage points
    assert paired_runs["elapsed"] < 300.0


def test_criterion_9_gradient_coherence(paired_runs):
    t0 = time.monotonic()
    models = {s: paired_runs["vanilla"].models[s] for s in range(20)}
    config = resolve_config(default_acceptance_tree("curriculum",
                                                    seeds=list(range(20))))
    report = gradient_coherence_pipeline(config, models=models)
    elapsed = time.monotonic() - t0
    var_frac = report["fraction_variance_easy_below_random"]
    closer_frac = report["fraction_random_mean_closer_to_all"]
    ok = var_frac >= 0.9 and closer_frac >= 0.9 and elapsed < 120
    verdict(9, "gradient coherence", ok,
            f"variance {var_frac:.2f}, mean-distance {closer_frac:.2f}, "
            f"{elapsed:.0f}s")
    assert var_frac >= 0.9
    assert closer_frac >= 0.9
    assert elapsed < 120.0


def test_criterion_10_self_paced_control(paired_runs):
    seeds = list(range(20))
    sp = run_experiment(resolve_config(default_acceptance_tree("self_paced",
                                                               seeds=seeds)),
                        keep_models=False)
    checkpoint = int(0.2 * 3000)
    idx = sp.summary["checkpoints"].index(checkpoint)
    acc_sp = float(np.mean([sp.curves[s].test_acc[idx] for s in seeds]))
    acc_cur = float(np.mean([paired_runs["curriculum"].curves[s].test_acc[idx]
                             for s in seeds]))
    ok = acc_sp < acc_cur
    verdict(10, "self-paced control", ok,
            f"self-paced {acc_sp:.4f} vs curriculum {acc_cur:.4f} at t={checkpoint}")
    if not ok:
        # soft criterion: a reversal is grounds for investigation, not rejection
        pytest.xfail("self-paced control did not fall below the oracle curriculum; "
                     "flagged for investigation per the soft-criterion rule")
    assert acc_sp < acc_cur
