"""Correctness checks on the program's artifacts.

Each check returns a list of problems (empty when it passes). Expected values
come from `reference`, from the workload's own parameters, or from properties
the method must have; none is a stored copy of an earlier output.
"""
from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from perfbench import reference as ref


def product_of_lengths(axes: dict) -> int:
    return math.prod(len(v) for v in axes.values())


def check_equal(got, want, label: str) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def check_close(got, want, rtol: float, label: str) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    worst = float(err.max()) if err.size else 0.0
    return [] if worst <= rtol else [f"{label}: relative error {worst:.3e} > {rtol:.0e}"]


def check_same_bytes(a: Path, b: Path) -> list[str]:
    if Path(a).read_bytes() == Path(b).read_bytes():
        return []
    return [f"{b.name}: re-run alone is not byte-identical to the multi-seed run"]


# ---------------------------------------------------------------------------
# training curves
# ---------------------------------------------------------------------------

def staircase_size(t: int, pacing: dict, N: int) -> int:
    """round_half_up(min(sp * inc ** floor(t / step), 1) * N), in exact arithmetic."""
    k = t // int(pacing["step_length"])
    fraction = min(Fraction(pacing["starting_percent"]) * Fraction(pacing["increase"]) ** k, 1)
    return max(1, min(N, math.floor(fraction * N + Fraction(1, 2))))


def check_curve_schedule(curve: dict, pacing: dict | None, lr: dict, N: int, M: int,
                         record_every: int, label: str) -> list[str]:
    """Recorded iterations, subset sizes (N under vanilla pacing) and the
    exponential learning rate lr0 / decrease_factor ** floor(t / lr_step_length)."""
    its = list(range(0, M, record_every))
    if its[-1] != M - 1:
        its.append(M - 1)
    if curve["iteration"] != its:
        return [f"{label}: recorded iterations differ from every {record_every} plus {M - 1}"]
    problems = []
    sizes = [N if pacing is None else staircase_size(t, pacing, N) for t in its]
    bad = [t for t, got, want in zip(its, curve["subset_size"], sizes) if got != want]
    if bad:
        problems.append(f"{label}: subset_size wrong at iterations {bad[:5]}")
    rates = [float(Fraction(lr["lr0"]) / Fraction(lr["decrease_factor"])
                   ** (t // int(lr["lr_step_length"]))) for t in its]
    problems += check_close(curve["lr"], rates, 1e-12, f"{label}: lr column")
    return problems


def _final(curve: dict, window: int) -> float:
    tail = curve["test_acc"][-window:]
    return sum(tail) / len(tail)


def check_summary_means(summary: dict, curves: dict[int, dict], window: int,
                        label: str) -> list[str]:
    """summary.json against statistics recomputed from the per-seed CSVs."""
    seeds = sorted(curves)
    problems = check_equal(summary["failed_seeds"], [], f"{label}: failed seeds")
    problems += check_equal(summary["checkpoints"], curves[seeds[0]]["iteration"],
                            f"{label}: checkpoints")
    for col in ("test_acc", "train_loss"):
        mean = np.mean([curves[s][col] for s in seeds], axis=0)
        problems += check_close(summary["mean_curve"][col], mean, 1e-12,
                                f"{label}: mean {col} curve")
    finals = [_final(curves[s], window) for s in seeds]
    problems += check_close([summary["per_seed"]["final_accuracy"][str(s)] for s in seeds],
                            finals, 1e-12, f"{label}: per-seed final accuracy")
    problems += check_close(summary["final_accuracy_mean"], sum(finals) / len(finals), 1e-12,
                            f"{label}: final accuracy mean")
    return problems


def _first_hit(curve: dict, target: float) -> float:
    for it, acc in zip(curve["iteration"], curve["test_acc"]):
        if acc >= target:
            return it
    return math.inf


def check_curriculum_effect(vanilla: dict[int, dict], curriculum: dict[int, dict],
                            window: int, min_earlier: int = 18) -> list[str]:
    """The paper's effect on the 25 paired seeds: the curriculum reaches each
    seed's vanilla final accuracy earlier, and ends at the same level."""
    seeds = sorted(vanilla)
    earlier = sum(_first_hit(curriculum[s], _final(vanilla[s], window))
                  < _first_hit(vanilla[s], _final(vanilla[s], window)) for s in seeds)
    fv = sum(_final(vanilla[s], window) for s in seeds) / len(seeds)
    fc = sum(_final(curriculum[s], window) for s in seeds) / len(seeds)
    problems = []
    if earlier < min_earlier:
        problems.append(f"curriculum earlier in only {earlier}/{len(seeds)} seeds")
    if abs(fc - fv) > 0.005:
        problems.append(f"final means differ by more than 0.005: {fc:.4f} vs {fv:.4f}")
    if not 0.4 <= fv <= 0.7:
        problems.append(f"vanilla final accuracy {fv:.4f} outside [0.4, 0.7]")
    return problems


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def check_grid_audit(audit: dict, best: dict, pacing_axes: dict, lr_axes: dict,
                     base_pacing: dict, base_lr: dict) -> list[str]:
    """Cell counts, failures, and that the winner is the first cell reaching
    the maximum, with its pacing the best stage-1 pacing."""
    n1, n2 = product_of_lengths(pacing_axes), product_of_lengths(lr_axes)
    entries = audit["entries"]
    problems = check_equal(audit["cell_counts"], {"stage1": n1, "stage2": n2, "total": n1 + n2},
                           "grid cell counts")
    problems += check_equal([sum(e["stage"] == k for e in entries) for k in (1, 2)], [n1, n2],
                            "audit entries per stage")
    failed = [e for e in entries if e["failed"] or not math.isfinite(e["criterion_value"])]
    problems += check_equal(len(failed), 0, "failed grid cells")
    if problems:
        return problems
    # max() returns the first of equal maxima, as the search keeps the first
    value = lambda e: e["criterion_value"]
    winner = max(entries, key=value)
    best1 = max((e for e in entries if e["stage"] == 1), key=value)
    problems += check_equal(audit["best_value"], value(winner), "best_value")
    for e in entries:
        if e["stage"] == 2 and e["pacing"] != best1["pacing"]:
            problems.append(f"stage-2 cell {e['lr']} not at the best stage-1 pacing")
    want_pacing = dict(base_pacing, **best1["pacing"])
    want_lr = dict(base_lr, **winner["lr"])
    problems += check_equal({k: best["pacing"][k] for k in want_pacing}, want_pacing,
                            "winner pacing")
    problems += check_equal({k: best["lr"][k] for k in want_lr}, want_lr, "winner lr")
    return problems


# ---------------------------------------------------------------------------
# transfer scores and gradient coherence
# ---------------------------------------------------------------------------

def check_transfer_scores(scores: np.ndarray, oracle: np.ndarray) -> list[str]:
    problems = []
    if len(scores) != len(oracle):
        return [f"transfer scores cover {len(scores)} ids, expected {len(oracle)}"]
    if scores.min() < 0.0 or scores.max() > 50.0:
        problems.append(f"transfer scores outside [0, 50]: [{scores.min()}, {scores.max()}]")
    rho = ref.spearman(scores, oracle)
    if not rho > 0.0:
        problems.append(f"transfer scores not positively rank-correlated with oracle: {rho:.3f}")
    return problems


def check_gradient_report(entry: dict, params: tuple, X: np.ndarray, y: np.ndarray,
                          oracle: np.ndarray, subset_seed: int, fraction: float,
                          fd_directions: int = 3) -> list[str]:
    """Recompute one seed's total variances and mean-gradient distances from
    per-example gradient norms, and check the mean gradient by central finite
    differences of the mean loss."""
    N = len(y)
    size = max(1, round(fraction * N))
    subsets = {
        "easy_oracle": ref.easiest_balanced(oracle, y, size),
        "random": np.random.default_rng(subset_seed).choice(N, size=size, replace=False),
        "all": np.arange(N),
    }
    stats = {name: ref.mlp_gradient_stats(params, X[ids], y[ids]) for name, ids in subsets.items()}
    problems = []
    for name, (_mean, variance) in stats.items():
        problems += check_close(entry["total_variance"][name], variance, 1e-9,
                                f"total variance ({name})")
    for name in ("easy", "random"):
        key = "easy_oracle" if name == "easy" else name
        dist = float(np.linalg.norm(stats[key][0] - stats["all"][0]))
        problems += check_close(entry[f"dist_{name}_all"], dist, 1e-9,
                                f"mean-gradient distance {name}-all")

    mean_all = stats["all"][0]
    rng = np.random.default_rng(0)
    W1, b1 = params[0], params[1]
    z1 = X @ W1.T + b1
    checked = 0
    while checked < fd_directions:
        direction = [rng.normal(size=p.shape) for p in params]
        flat = np.concatenate([d.ravel() for d in direction])
        direction = [d / np.linalg.norm(flat) for d in direction]
        # the loss is smooth along the step only if no ReLU input changes sign
        dz1 = np.abs(X @ direction[0].T + direction[1])
        h = min(1e-5, 0.5 * float((np.abs(z1) / np.maximum(dz1, 1e-300)).min()))
        if h < 1e-8:
            continue
        step = lambda s: tuple(p + s * h * d for p, d in zip(params, direction))
        fd = (ref.mlp_mean_loss(step(1), X, y) - ref.mlp_mean_loss(step(-1), X, y)) / (2 * h)
        analytic = float(mean_all @ np.concatenate([d.ravel() for d in direction]))
        if abs(fd - analytic) > 1e-6 * max(1.0, float(np.linalg.norm(mean_all))):
            problems.append(f"mean gradient {analytic:.8e} disagrees with finite difference "
                            f"{fd:.8e}")
        checked += 1
    return problems


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def check_theory_report(report: dict, instances: int, families: int) -> list[str]:
    problems = check_equal(report["passed"], True, "theory report passed")
    problems += check_equal(report["instances"], instances, "theory instances")
    problems += check_equal(report["constant_variance_families"], families, "theory families")
    problems += check_equal(report["constant_variance_applicable"], families,
                            "applicable constant-variance families")
    if not report["matched_argmax_count"] > 0:
        problems.append("no instance met the matched-argmax assumption")
    if not report["max_decomposition_residual"] <= 1e-12:
        problems.append(f"decomposition residual {report['max_decomposition_residual']:.3e} > 1e-12")
    return problems


def check_residual(program: float, own: float) -> list[str]:
    if abs(program - own) <= 1e-12:
        return []
    return [f"decomposition_residual {program:.3e} differs from the direct sum {own:.3e}"]
