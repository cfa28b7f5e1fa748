"""Finite-instance checks of the prior-weighted utility landscape results.

Objects: a finite hypothesis grid with per-example losses L[t][i], utilities
U_t(i) = exp(-L[t][i]), the plain average utility, and the prior-weighted
utility sum_i U_t(i) p_i.

All covariances and variances in this module use the SUM form
sum_i (a_i - mean(a)) (b_i - mean(b)), with no 1/N. The exact decomposition
    prior_utility = mean_utility + sum_cov(U_t, p)
only balances in sum form; mixing estimators silently breaks every identity
below, so helpers for the normalized form are deliberately not provided.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

IDENTITY_TOL = 1e-12
DEFAULT_INSTANCES = 1000  # run_verification's default random instances
DEFAULT_FAMILIES = 200  # and its default constant-variance families


@dataclass(frozen=True)
class LossTable:
    """Losses of a finite hypothesis grid, rows = hypotheses, cols = examples.

    Built once, read-only: utilities U = exp(-L), their row means, U centered
    on those means, and each row's sum-form variance (one dot per row).
    """

    losses: np.ndarray  # (T, N) >= 0
    utilities: np.ndarray = field(init=False, repr=False)
    mean_utilities: np.ndarray = field(init=False, repr=False)
    centered: np.ndarray = field(init=False, repr=False)
    variances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L = np.array(self.losses, dtype=np.float64, order="C")
        if L.ndim != 2 or L.shape[0] < 1 or L.shape[1] < 1:
            raise ParameterError("loss table must be a non-empty (T, N) matrix")
        if not np.isfinite(L).all() or (L < 0).any():
            raise ParameterError("losses must be finite and non-negative")
        U = np.exp(-L)
        mean_u = U.mean(axis=1)
        centered = U - mean_u[:, None]
        for name, value in (("losses", L), ("utilities", U), ("mean_utilities", mean_u),
                            ("centered", centered),
                            ("variances", np.vecdot(centered, centered))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Prior:
    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=np.float64, order="C")
        if p.ndim != 1 or len(p) < 1:
            raise ParameterError("prior must be a non-empty vector")
        if (p < 0).any() or not np.isfinite(p).all():
            raise ParameterError("prior entries must be finite and non-negative")
        if abs(p.sum() - 1.0) > IDENTITY_TOL:
            raise ParameterError(f"prior sums to {p.sum()!r}, not 1")
        object.__setattr__(self, "p", p)
        p.setflags(write=False)


def sum_covariance(u: np.ndarray, v: np.ndarray) -> float:
    """SUM-form covariance: sum (u - mean u)(v - mean v), no normalization."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ParameterError("vectors must have equal length")
    return float((u - u.mean()) @ (v - v.mean()))


def ideal_prior(table: LossTable, t: int) -> Prior:
    """Prior proportional to hypothesis t's utility: p_i = exp(-L[t][i]) / C."""
    U = table.utilities[t]
    return Prior(U / U.sum())


def _argmax_set(values: np.ndarray, tol: float = IDENTITY_TOL) -> frozenset:
    return frozenset(np.flatnonzero(values >= values.max() - tol).tolist())


def _covariances_with(table: LossTable, v: np.ndarray) -> np.ndarray:
    return table.centered @ (v - v.mean())


def decomposition_residual(table: LossTable, prior: Prior) -> float:
    """Max residual of the exact decomposition over all hypotheses.

    prior_utility(t) - mean_utility(t) - sum_cov(U_t, p) is identically zero;
    anything above ~1e-12 indicates an estimator mismatch.
    """
    if len(prior.p) != table.losses.shape[1]:
        raise ParameterError("prior length does not match the table")
    lhs = table.utilities @ prior.p
    rhs = table.mean_utilities + _covariances_with(table, prior.p)
    return float(np.abs(lhs - rhs).max())


def matched_argmax_holds(table: LossTable, prior: Prior,
                         tol: float = IDENTITY_TOL) -> tuple[bool, frozenset, frozenset]:
    """Does the same hypothesis set maximize both the plain utility and the
    covariance with the prior? Sets are compared with a value tolerance."""
    a = _argmax_set(table.mean_utilities, tol)
    b = _argmax_set(_covariances_with(table, prior.p), tol)
    return a == b, a, b


def check_argmax_preservation(table: LossTable, prior: Prior, tol: float = IDENTITY_TOL) -> dict:
    """Argmax preservation and gap amplification under the matched-argmax
    assumption.

    Claim 1: the argmax set of the prior-weighted utility equals the argmax
    set of the plain utility. Claim 2: weighting by the prior can only widen
    the margin of the best hypothesis over any other, checked through the
    intermediate bound of the covariance chain as well.
    """
    holds, argmax_u, argmax_cov = matched_argmax_holds(table, prior, tol)
    report = {"applicable": holds, "argmax_utility": sorted(argmax_u),
              "argmax_covariance": sorted(argmax_cov)}
    if not holds:
        report.update(argmax_set_equal=None, gap_amplified=None, reason="precondition unmet")
        return report
    mean_u = table.mean_utilities
    prior_u = table.utilities @ prior.p
    covs = _covariances_with(table, prior.p)
    best = min(argmax_u)  # lowest-index tie-break
    argmax_up = _argmax_set(prior_u, tol)
    argmax_set_equal = argmax_up == argmax_u
    # chain: gap_p equals prior_u[best] - mean_u - covs, which dominates the
    # middle term (covariance of the best hypothesis substituted in), which in
    # turn equals the plain gap
    gap_p = prior_u[best] - prior_u
    chain_mid = prior_u[best] - mean_u - covs[best]
    gap = mean_u[best] - mean_u
    gap_amplified = bool((gap_p >= chain_mid - tol).all()
                         and np.abs(chain_mid - gap).max() <= tol
                         and (gap_p >= gap - tol).all())
    report.update(argmax_set_equal=argmax_set_equal, gap_amplified=gap_amplified,
                  argmax_prior_utility=sorted(argmax_up),
                  max_gap_violation=float((gap - gap_p).max()))
    return report


def check_ideal_prior_amplification(table: LossTable, tol: float = IDENTITY_TOL) -> dict:
    """Ideal-prior results: the exact value at the optimum, gap amplification
    for low-covariance hypotheses, and the Cauchy-Schwarz ceiling.

    With p proportional to the best hypothesis's utility (normalizer C):
      - prior_utility(best) = mean_utility(best) + sum_var(U_best) / C
      - for every t with sum_cov(U_t, U_best) <= sum_var(U_best), the gap
        under the prior is at least the plain gap
      - prior_utility(t) <= mean_utility(best)
                            + sqrt(sum_var(U_t) sum_var(U_best)) / C
    """
    mean_u = table.mean_utilities
    best = min(_argmax_set(mean_u, tol))  # lowest-index tie-break
    prior = ideal_prior(table, best)
    C = float(table.utilities[best].sum())
    prior_u = table.utilities @ prior.p
    covs_best = table.centered @ table.centered[best]
    var_best = float(table.centered[best] @ table.centered[best])

    # ideal-prior covariance identity: sum_cov(U_t, p) == sum_cov(U_t, U_best)/C
    ideal_identity_residual = float(
        np.abs(_covariances_with(table, prior.p) - covs_best / C).max())

    optimum_value_residual = abs(prior_u[best] - mean_u[best] - var_best / C)

    qualifying = np.flatnonzero(covs_best <= var_best + tol)
    gap_p = prior_u[best] - prior_u[qualifying]
    gap = mean_u[best] - mean_u[qualifying]
    gap_ok = bool((gap_p >= gap - tol).all())

    ceiling = mean_u[best] + np.sqrt(table.variances * var_best) / C
    cs_ok = bool((prior_u <= ceiling + tol).all())

    return {
        "optimal_index": best,
        "optimum_value_residual": float(optimum_value_residual),
        "ideal_identity_residual": ideal_identity_residual,
        "n_qualifying": int(len(qualifying)),
        "gap_ok": gap_ok,
        "max_gap_violation": float((gap - gap_p).max()) if len(qualifying) else 0.0,
        "cauchy_schwarz_ok": cs_ok,
        "passed": bool(optimum_value_residual <= tol and ideal_identity_residual <= tol
                       and gap_ok and cs_ok),
    }


def check_constant_variance_case(table: LossTable, variance_tol: float = 1e-9,
                                 tol: float = IDENTITY_TOL) -> dict:
    """Constant utility variance plus the ideal prior preserve the optimum.

    When every hypothesis's utility vector has the same sum-form variance (up
    to `variance_tol`), Cauchy-Schwarz makes the best hypothesis maximize the
    covariance with its own induced prior, so the prior-weighted landscape
    keeps its maximum there and every gap is amplified. Those attainment
    claims are what this check asserts. Exact utility ties (e.g. a family of
    permutations of one vector, which all share the same mean) make the
    stricter argmax-SET equality unattainable; the set-form verdict is
    reported for information.
    """
    spread = float(np.ptp(table.variances))
    if spread > variance_tol:
        return {"applicable": False, "variance_spread": spread,
                "reason": "precondition unmet: utility variances differ", "passed": None}
    mean_u = table.mean_utilities
    best = min(_argmax_set(mean_u, tol))
    prior = ideal_prior(table, best)
    prior_u = table.utilities @ prior.p
    covs = _covariances_with(table, prior.p)
    cov_max_at_best = bool((covs <= covs[best] + tol).all())
    argmax_preserved = bool((prior_u <= prior_u[best] + tol).all())
    gap_ok = bool(((prior_u[best] - prior_u) >= (mean_u[best] - mean_u) - tol).all())
    set_form, argmax_u, argmax_cov = matched_argmax_holds(table, prior, tol)
    return {
        "applicable": True,
        "variance_spread": spread,
        "optimal_index": best,
        "covariance_max_at_optimum": cov_max_at_best,
        "argmax_preserved": argmax_preserved,
        "gap_ok": gap_ok,
        "matched_argmax_set_form": set_form,
        "passed": bool(cov_max_at_best and argmax_preserved and gap_ok),
    }


# ---------------------------------------------------------------------------
# Randomized instance generation and the verification suite
# ---------------------------------------------------------------------------

def random_instance(rng: np.random.Generator, max_examples: int = 20,
                    max_hypotheses: int = 50,
                    loss_scale: float = 5.0) -> tuple[LossTable, Prior]:
    n = int(rng.integers(1, max_examples + 1))
    t = int(rng.integers(2, max_hypotheses + 1))
    losses = rng.uniform(0.0, loss_scale, size=(t, n))
    weights = rng.uniform(0.0, 1.0, size=n) + 1e-9
    return LossTable(losses), Prior(weights / weights.sum())


def constant_variance_family(rng: np.random.Generator, n_examples: int = 12,
                             n_hypotheses: int = 8) -> LossTable:
    """A loss table whose utility vectors all share one sum-form variance.

    Every hypothesis's utility vector is a permutation of one centered base
    vector plus a distinct per-hypothesis mean shift. Permutations and shifts
    both preserve the variance exactly, while the distinct shifts keep the
    plain-utility argmax unique, so the matched-argmax assumption holds in
    set form and the full argmax-preservation checks apply. No two
    hypotheses share a permutation: a repeated one ties the covariance
    argmax, which the argmax checks would report as a violation.
    """
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
    U = np.stack(rows)
    return LossTable(-np.log(U))


def run_verification(instances: int = DEFAULT_INSTANCES,
                     constant_variance_families: int = DEFAULT_FAMILIES,
                     seed: int = 0) -> dict:
    """Random-instance verification of the decomposition identity, argmax
    preservation, ideal-prior amplification, and the constant-variance
    special case. Returns a JSON-ready report."""
    rng = np.random.default_rng(seed)
    max_decomposition = 0.0
    matched_argmax = 0
    argmax_preservation_violations = 0
    amplification_violations = 0
    max_optimum = 0.0
    cs_violations = 0
    for _ in range(instances):
        table, prior = random_instance(rng)
        max_decomposition = max(max_decomposition, decomposition_residual(table, prior))
        r2 = check_argmax_preservation(table, prior)
        if r2["applicable"]:
            matched_argmax += 1
            if not (r2["argmax_set_equal"] and r2["gap_amplified"]):
                argmax_preservation_violations += 1
        r3 = check_ideal_prior_amplification(table)
        max_optimum = max(max_optimum, r3["optimum_value_residual"],
                          r3["ideal_identity_residual"])
        if not r3["gap_ok"]:
            amplification_violations += 1
        if not r3["cauchy_schwarz_ok"]:
            cs_violations += 1
    constant_variance_violations = 0
    constant_variance_applicable = 0
    for _ in range(constant_variance_families):
        table = constant_variance_family(
            rng, n_examples=int(rng.integers(8, 21)), n_hypotheses=int(rng.integers(3, 13)))
        rc = check_constant_variance_case(table)
        if rc["applicable"]:
            constant_variance_applicable += 1
        ok = (rc["applicable"] and rc["passed"] and rc["matched_argmax_set_form"])
        if ok:
            r2 = check_argmax_preservation(table, ideal_prior(table, rc["optimal_index"]))
            ok = r2["applicable"] and r2["argmax_set_equal"] and r2["gap_amplified"]
        if not ok:
            constant_variance_violations += 1
    report = {
        "seed": int(seed),
        "instances": int(instances),
        "max_decomposition_residual": max_decomposition,
        "decomposition_ok": max_decomposition <= IDENTITY_TOL,
        "matched_argmax_count": matched_argmax,
        "argmax_preservation_violations": argmax_preservation_violations,
        "amplification_gap_violations": amplification_violations,
        "max_optimum_residual": max_optimum,
        "optimum_identity_ok": max_optimum <= IDENTITY_TOL,
        "cauchy_schwarz_violations": cs_violations,
        "constant_variance_families": int(constant_variance_families),
        "constant_variance_applicable": constant_variance_applicable,
        "constant_variance_violations": constant_variance_violations,
    }
    report["passed"] = bool(
        report["decomposition_ok"]
        and argmax_preservation_violations == 0
        and amplification_violations == 0
        and report["optimum_identity_ok"]
        and cs_violations == 0
        and constant_variance_violations == 0
        and constant_variance_applicable == constant_variance_families)
    return report
