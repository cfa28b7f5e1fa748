"""Finite-instance checks of the prior-weighted utility landscape results.

Objects: a finite hypothesis grid with per-example losses L[t][i], utilities
U_t(i) = exp(-L[t][i]), the plain average utility, and the prior-weighted
utility sum_i U_t(i) p_i.

All covariances and variances in this module use the SUM form
sum_i (a_i - mean(a)) (b_i - mean(b)), with no 1/N. The exact decomposition
    prior_utility = mean_utility + sum_cov(U_t, p)
only balances in sum form; mixing estimators silently breaks every identity
below, so helpers for the normalized form are deliberately not provided.

Each check is written once, over a row stack of tables that share one example
count; a LossTable is the one-table stack. Row-wise arrays do not depend on the
rows stacked with them, and per-table maxima, minima and verdicts are
reductions at the row offsets. Each product over examples stays one `@` per
table on its own block: BLAS gemv's row results depend on the row count, so
padding tables to one size or per-row dots would change bits.
`run_verification` draws its random instances and then its constant-variance
families through one grouping loop: one pending group per example count,
checked as one stack once it holds GROUP_ROWS rows, then every remaining group
after the last draw. Its counters are sums and maxima, so the report does not
depend on how the tables are grouped.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

IDENTITY_TOL = 1e-12
DEFAULT_INSTANCES = 1000  # run_verification's default random instances
DEFAULT_FAMILIES = 200  # and its default constant-variance families
GROUP_ROWS = 1024  # run_verification checks an example count's pending instances at this many rows


def _checked_priors(P: np.ndarray) -> np.ndarray:
    """(B, N) prior rows, each finite, non-negative and summing to 1."""
    if (P < 0).any() or not np.isfinite(P).all():
        raise ParameterError("prior entries must be finite and non-negative")
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0) > IDENTITY_TOL
    if off.any():
        raise ParameterError(f"prior sums to {sums[off][0]!r}, not 1")
    return P


class _RowStack:
    """Loss tables with one example count, rows concatenated; table b owns
    rows blocks[b] of U = exp(-L), its row means, U centered on them and each
    row's sum-form variance (one dot per row), all built once and read-only."""

    def __init__(self, tables: list[np.ndarray]):
        self.losses = np.concatenate(tables)
        if not np.isfinite(self.losses).all() or (self.losses < 0).any():
            raise ParameterError("losses must be finite and non-negative")
        self.utilities = np.exp(-self.losses)
        self.mean_utilities = self.utilities.mean(axis=1)
        self.centered = self.utilities - self.mean_utilities[:, None]
        self.variances = np.vecdot(self.centered, self.centered)
        for name in ("losses", "utilities", "mean_utilities", "centered", "variances"):
            getattr(self, name).setflags(write=False)
        counts = [len(L) for L in tables]
        self.blocks = [slice(e - t, e) for t, e in zip(counts, itertools.accumulate(counts))]
        self.starts = np.array([block.start for block in self.blocks])
        self.owner = np.repeat(np.arange(len(counts)), counts)  # each row's table

    def per_table(self, A: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Row-wise A[blocks[b]] @ V[b]: one gemv per table, on its own block."""
        return np.concatenate([A[block] @ v for block, v in zip(self.blocks, V)])

    def max(self, values: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(values, self.starts)

    def all(self, mask: np.ndarray) -> np.ndarray:
        return np.logical_and.reduceat(mask, self.starts)

    def argmax_mask(self, values: np.ndarray, tol: float) -> np.ndarray:
        return values >= (self.max(values) - tol)[self.owner]

    def first(self, mask: np.ndarray) -> np.ndarray:
        """Each table's lowest True row (a row index of the stack)."""
        return np.minimum.reduceat(np.where(mask, np.arange(len(mask)), len(mask)), self.starts)


class LossTable(_RowStack):
    """Losses of a finite hypothesis grid, rows = hypotheses, cols = examples:
    the one-table row stack."""

    def __init__(self, losses):
        L = np.asarray(losses, dtype=np.float64)
        if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] < 1:
            raise ParameterError("loss table must be a non-empty (T, N) matrix")
        super().__init__([L])


@dataclass(frozen=True)
class Prior:
    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64, order="C")
        if p.ndim != 1 or len(p) < 1:
            raise ParameterError("prior must be a non-empty vector")
        _checked_priors(p[None])
        object.__setattr__(self, "p", p)
        p.setflags(write=False)


def _ideal_priors(U: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Priors proportional to the utility rows `rows`, and their normalizers C."""
    C = U[rows].sum(axis=1)
    return _checked_priors(U[rows] / C[:, None]), C


def _prior_terms(stack: _RowStack, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's U_t @ p and sum_cov(U_t, p), table b weighted by P[b]."""
    return (stack.per_table(stack.utilities, P),
            stack.per_table(stack.centered, P - P.mean(axis=1, keepdims=True)))


def _residuals(stack: _RowStack, prior_u: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Each table's largest decomposition residual."""
    return stack.max(np.abs(prior_u - (stack.mean_utilities + covs)))


def _prior_checks(stack: _RowStack, prior_u: np.ndarray, covs: np.ndarray,
                  tol: float) -> dict:
    """Argmax preservation and gap amplification under one prior per table,
    given the matched argmax (`holds`: the argmaxes of the plain utility and
    of sum_cov(U_t, p) are one set). Where it holds, the argmax set of the
    prior-weighted utility equals that of the plain utility (`set_equal`),
    and weighting by the prior only widens the best hypothesis's margin over
    any other, through the covariance chain's middle term (`gap_amplified`).
    Verdicts per table; the argmax sets are row masks."""
    mean_u = stack.mean_utilities
    r = {"argmax_u": stack.argmax_mask(mean_u, tol), "argmax_cov": stack.argmax_mask(covs, tol),
         "argmax_up": stack.argmax_mask(prior_u, tol)}
    best = stack.first(r["argmax_u"])[stack.owner]  # lowest-index tie-break
    # chain: gap_p equals prior_u[best] - mean_u - covs, which dominates the
    # middle term (covariance of the best hypothesis substituted in), which in
    # turn equals the plain gap
    gap_p = prior_u[best] - prior_u
    chain_mid = prior_u[best] - mean_u - covs[best]
    gap = mean_u[best] - mean_u
    r.update(holds=stack.all(r["argmax_u"] == r["argmax_cov"]),
             set_equal=stack.all(r["argmax_up"] == r["argmax_u"]),
             gap_amplified=stack.all((gap_p >= chain_mid - tol)
                                     & (np.abs(chain_mid - gap) <= tol) & (gap_p >= gap - tol)),
             max_gap_violation=stack.max(gap - gap_p))
    return r


def _ideal_terms(stack: _RowStack, tol: float) -> tuple[np.ndarray, ...]:
    """Each table's best row (lowest-index tie-break), the normalizer C of
    its ideal prior, and the prior terms under that prior."""
    best = stack.first(stack.argmax_mask(stack.mean_utilities, tol))
    P, C = _ideal_priors(stack.utilities, best)
    return best, C, *_prior_terms(stack, P)


def _ideal_prior_amplification(stack: _RowStack, tol: float) -> dict:
    """The ideal-prior results, one entry per table. With p proportional to
    the best hypothesis's utility (normalizer C):
      - prior_utility(best) = mean_utility(best) + sum_var(U_best) / C exactly;
      - every t with sum_cov(U_t, U_best) <= sum_var(U_best) has a gap under
        the prior at least its plain gap;
      - prior_utility(t) <= mean_utility(best) + sqrt(sum_var(U_t) sum_var(U_best)) / C
        (the Cauchy-Schwarz ceiling)."""
    best, C, prior_u, covs = _ideal_terms(stack, tol)
    mean_u, row_best, row_C = stack.mean_utilities, best[stack.owner], C[stack.owner]
    covs_best = stack.per_table(stack.centered, stack.centered[best])
    var_best = stack.variances[best]  # np.vecdot and a 1-D @ are the same dot

    # ideal-prior covariance identity: sum_cov(U_t, p) == sum_cov(U_t, U_best)/C
    ideal_identity_residual = stack.max(np.abs(covs - covs_best / row_C))
    optimum_value_residual = np.abs(prior_u[best] - mean_u[best] - var_best / C)

    qualifying = covs_best <= stack.variances[row_best] + tol
    gap_p = prior_u[row_best] - prior_u
    gap = mean_u[row_best] - mean_u
    gap_ok = stack.all(~qualifying | (gap_p >= gap - tol))
    n_qualifying = np.add.reduceat(qualifying, stack.starts)
    worst = stack.max(np.where(qualifying, gap - gap_p, -np.inf))

    ceiling = mean_u[row_best] + np.sqrt(stack.variances * stack.variances[row_best]) / row_C
    cs_ok = stack.all(prior_u <= ceiling + tol)
    return {
        "optimal_index": best - stack.starts,
        "optimum_value_residual": optimum_value_residual,
        "ideal_identity_residual": ideal_identity_residual,
        "n_qualifying": n_qualifying,
        "gap_ok": gap_ok,
        "max_gap_violation": np.where(n_qualifying > 0, worst, 0.0),
        "cauchy_schwarz_ok": cs_ok,
        "passed": ((optimum_value_residual <= tol) & (ideal_identity_residual <= tol)
                   & gap_ok & cs_ok),
    }


def decomposition_residual(table: LossTable, prior: Prior) -> float:
    """Max residual of the exact decomposition over all hypotheses.

    prior_utility(t) - mean_utility(t) - sum_cov(U_t, p) is identically zero;
    anything above ~1e-12 indicates an estimator mismatch.
    """
    if len(prior.p) != table.losses.shape[1]:
        raise ParameterError("prior length does not match the table")
    return float(_residuals(table, *_prior_terms(table, prior.p[None]))[0])


def _constant_variance_case(stack: _RowStack, variance_tol: float, tol: float) -> dict:
    """Constant utility variance plus the ideal prior preserve the optimum,
    one entry per table, meaningful where `applicable` (every sum-form
    variance within `variance_tol`). Cauchy-Schwarz then makes the best
    hypothesis maximize the covariance with its own prior, so the
    prior-weighted landscape keeps its maximum there and every gap is
    amplified (`passed`). Exact ties, as among permutations of one vector,
    can make the set-form argmax equality unattainable, so `_prior_checks`'
    set-form verdicts under the ideal prior are separate fields."""
    spread = stack.max(stack.variances) - np.minimum.reduceat(stack.variances, stack.starts)
    best, _C, prior_u, covs = _ideal_terms(stack, tol)
    mean_u, row_best = stack.mean_utilities, best[stack.owner]
    checks = _prior_checks(stack, prior_u, covs, tol)
    r = {"applicable": spread <= variance_tol, "variance_spread": spread,
         "optimal_index": best - stack.starts,
         "covariance_max_at_optimum": stack.all(covs <= covs[row_best] + tol),
         "argmax_preserved": stack.all(prior_u <= prior_u[row_best] + tol),
         "gap_ok": stack.all((prior_u[row_best] - prior_u) >= (mean_u[row_best] - mean_u) - tol),
         "matched_argmax_set_form": checks["holds"], "argmax_set_equal": checks["set_equal"],
         "gap_amplified": checks["gap_amplified"]}
    r["passed"] = r["covariance_max_at_optimum"] & r["argmax_preserved"] & r["gap_ok"]
    return r


# ---------------------------------------------------------------------------
# Randomized instance generation and the verification suite
# ---------------------------------------------------------------------------

def random_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One random instance: a (T, N) loss table, 2 <= T <= 50 and 1 <= N <= 20,
    with losses in [0, 5), and a positive prior vector."""
    n = int(rng.integers(1, 21))
    t = int(rng.integers(2, 51))
    losses = rng.uniform(0.0, 5.0, size=(t, n))
    weights = rng.uniform(0.0, 1.0, size=n) + 1e-9
    return losses, weights / weights.sum()


def _constant_variance_losses(rng: np.random.Generator, n_examples: int,
                              n_hypotheses: int) -> np.ndarray:
    """A loss matrix whose utility rows all share one sum-form variance: a
    permutation of one centered base vector plus a distinct shift per row.
    The distinct shifts keep the plain-utility argmax unique, so the matched
    argmax holds in set form; no two rows share a permutation, which would
    tie the covariance argmax."""
    if n_hypotheses > math.factorial(n_examples):
        raise ParameterError(
            f"{n_hypotheses} hypotheses need distinct permutations, but {n_examples} "
            f"examples have only {math.factorial(n_examples)}")
    base = rng.uniform(0.0, 1.0, size=n_examples)
    centered = base - base.mean()
    peak = np.abs(centered).max()
    if peak == 0.0:
        centered = np.linspace(-1.0, 1.0, n_examples)
        peak = 1.0
    centered = centered * (0.2 / peak)
    while True:
        shifts = np.sort(rng.uniform(0.3, 0.7, size=n_hypotheses))
        if n_hypotheses == 1 or np.diff(shifts).min() > 1e-6:
            break
    rows, seen = [], set()
    for s in shifts:
        row = rng.permutation(centered)
        while row.tobytes() in seen:
            row = rng.permutation(centered)
        seen.add(row.tobytes())
        rows.append(row + s)
    return -np.log(np.stack(rows))


def _instance_counts(tables: list[np.ndarray], priors: list[np.ndarray]) -> dict:
    """The counters of random instances sharing one example count, checked
    as one row stack."""
    stack = _RowStack(tables)
    prior_u, covs = _prior_terms(stack, _checked_priors(np.stack(priors)))
    r2 = _prior_checks(stack, prior_u, covs, IDENTITY_TOL)
    r3 = _ideal_prior_amplification(stack, IDENTITY_TOL)
    return {
        "max_decomposition_residual": _residuals(stack, prior_u, covs).max(),
        "matched_argmax_count": r2["holds"].sum(),
        "argmax_preservation_violations": (r2["holds"]
                                           & ~(r2["set_equal"] & r2["gap_amplified"])).sum(),
        "max_optimum_residual": max(r3["optimum_value_residual"].max(),
                                    r3["ideal_identity_residual"].max()),
        "amplification_gap_violations": (~r3["gap_ok"]).sum(),
        "cauchy_schwarz_violations": (~r3["cauchy_schwarz_ok"]).sum(),
    }


def _family_counts(tables: list[np.ndarray], _priors) -> dict:
    """The counters of constant-variance families sharing one example count,
    checked as one row stack: a family passes if it is applicable and every
    verdict under its ideal prior holds, `_prior_checks`' included."""
    r = _constant_variance_case(_RowStack(tables), 1e-9, IDENTITY_TOL)
    ok = (r["applicable"] & r["passed"] & r["matched_argmax_set_form"]
          & r["argmax_set_equal"] & r["gap_amplified"])
    return {"constant_variance_applicable": r["applicable"].sum(),
            "constant_variance_violations": (~ok).sum()}


def _check_grouped(counts: dict, draws, check) -> None:
    """Fold `check(tables, priors)` over the (loss table, prior) `draws` into
    `counts`: a maximum for each max_ key, a sum for every other. Each example
    count has one pending group, checked once it holds GROUP_ROWS rows; every
    remaining group is checked after the last draw."""
    def fold(tables, priors):
        for key, value in check(tables, priors).items():
            counts[key] = (max(counts[key], float(value)) if key.startswith("max_")
                           else counts[key] + int(value))

    pending = {}  # example count -> (loss tables, priors, rows)
    for losses, p in draws:
        tables, priors, rows = pending.pop(losses.shape[1], ([], [], 0))
        tables.append(losses)
        priors.append(p)
        if rows + len(losses) >= GROUP_ROWS:
            fold(tables, priors)
        else:
            pending[losses.shape[1]] = tables, priors, rows + len(losses)
    for tables, priors, _count in pending.values():
        fold(tables, priors)


def run_verification(instances: int = DEFAULT_INSTANCES,
                     constant_variance_families: int = DEFAULT_FAMILIES,
                     seed: int = 0) -> dict:
    """Random-instance verification of the decomposition identity, argmax
    preservation, ideal-prior amplification, and the constant-variance
    special case. Returns a JSON-ready report."""
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(("matched_argmax_count", "argmax_preservation_violations",
                            "amplification_gap_violations", "cauchy_schwarz_violations",
                            "constant_variance_applicable", "constant_variance_violations"), 0)
    counts.update(max_decomposition_residual=0.0, max_optimum_residual=0.0)
    # the draws are lazy, so the instances take the rng stream before the families
    _check_grouped(counts, (random_instance(rng) for _ in range(instances)), _instance_counts)
    families = ((_constant_variance_losses(rng, int(rng.integers(8, 21)),
                                           int(rng.integers(3, 13))), None)
                for _ in range(constant_variance_families))
    _check_grouped(counts, families, _family_counts)
    report = {"seed": int(seed), "instances": int(instances),
              "constant_variance_families": int(constant_variance_families), **counts,
              "decomposition_ok": counts["max_decomposition_residual"] <= IDENTITY_TOL,
              "optimum_identity_ok": counts["max_optimum_residual"] <= IDENTITY_TOL}
    report["passed"] = bool(
        report["decomposition_ok"] and report["optimum_identity_ok"]
        and not any(v for k, v in counts.items() if k.endswith("_violations"))
        and counts["constant_variance_applicable"] == constant_variance_families)
    return report
