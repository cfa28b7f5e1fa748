"""Differential test of the theory checks against a per-row reference.

The reference re-derives every quantity from the losses on each call and
takes each hypothesis's variance from one `sum_covariance` call per row. The
checks read the arrays a LossTable builds once; their reports, read through
tests/theory_views.py, must equal the reference's exactly, float fields
included.
"""
import numpy as np
import pytest

from curriculum_lab.theory import (IDENTITY_TOL, LossTable, Prior, _constant_variance_losses,
                                   decomposition_residual, random_instance)
from theory_views import argmax_preservation, constant_variance_case, ideal_prior_amplification


def sum_covariance(u, v):
    """SUM-form covariance: sum (u - mean u)(v - mean v), no normalization."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float((u - u.mean()) @ (v - v.mean()))


def ref_mean_utilities(table):
    return np.exp(-table.losses).mean(axis=1)


def ref_prior_utilities(table, p):
    return np.exp(-table.losses) @ p


def ref_covariances(table, v):
    U = np.exp(-table.losses)
    return (U - U.mean(axis=1, keepdims=True)) @ (v - v.mean())


def ref_variances(table):
    return np.array([sum_covariance(np.exp(-table.losses[t]), np.exp(-table.losses[t]))
                     for t in range(len(table.losses))])


def ref_argmax_set(values, tol):
    return frozenset(np.flatnonzero(values >= values.max() - tol).tolist())


def ref_best_and_prior(table, tol):
    mean_u = ref_mean_utilities(table)
    best = int(np.flatnonzero(mean_u >= mean_u.max() - tol).min())
    U_best = np.exp(-table.losses[best])
    return best, U_best, Prior(U_best / float(U_best.sum()))


def ref_decomposition_residual(table, prior):
    lhs = ref_prior_utilities(table, prior.p)
    rhs = ref_mean_utilities(table) + ref_covariances(table, prior.p)
    return float(np.abs(lhs - rhs).max())


def ref_argmax_preservation(table, prior, tol=IDENTITY_TOL):
    argmax_u = ref_argmax_set(ref_mean_utilities(table), tol)
    argmax_cov = ref_argmax_set(ref_covariances(table, prior.p), tol)
    holds = argmax_u == argmax_cov
    report = {"applicable": holds, "argmax_utility": sorted(argmax_u),
              "argmax_covariance": sorted(argmax_cov)}
    if not holds:
        report.update(argmax_set_equal=None, gap_amplified=None, reason="precondition unmet")
        return report
    mean_u = ref_mean_utilities(table)
    prior_u = ref_prior_utilities(table, prior.p)
    covs = ref_covariances(table, prior.p)
    best = min(argmax_u)
    argmax_up = ref_argmax_set(prior_u, tol)
    gap_p = prior_u[best] - prior_u
    chain_mid = prior_u[best] - mean_u - covs[best]
    gap = mean_u[best] - mean_u
    gap_amplified = bool((gap_p >= chain_mid - tol).all()
                         and np.abs(chain_mid - gap).max() <= tol
                         and (gap_p >= gap - tol).all())
    report.update(argmax_set_equal=argmax_up == argmax_u, gap_amplified=gap_amplified,
                  argmax_prior_utility=sorted(argmax_up),
                  max_gap_violation=float((gap - gap_p).max()))
    return report


def ref_ideal_prior_amplification(table, tol=IDENTITY_TOL):
    mean_u = ref_mean_utilities(table)
    best, U_best, prior = ref_best_and_prior(table, tol)
    C = float(U_best.sum())
    prior_u = ref_prior_utilities(table, prior.p)
    covs_best = ref_covariances(table, U_best)
    var_best = sum_covariance(U_best, U_best)
    ideal_identity_residual = float(np.abs(ref_covariances(table, prior.p) - covs_best / C).max())
    optimum_value_residual = abs(prior_u[best] - mean_u[best] - var_best / C)
    qualifying = np.flatnonzero(covs_best <= var_best + tol)
    gap_p = prior_u[best] - prior_u[qualifying]
    gap = mean_u[best] - mean_u[qualifying]
    gap_ok = bool((gap_p >= gap - tol).all())
    ceiling = mean_u[best] + np.sqrt(ref_variances(table) * var_best) / C
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


def ref_constant_variance_case(table, variance_tol=1e-9, tol=IDENTITY_TOL):
    variances = ref_variances(table)
    spread = float(variances.max() - variances.min())
    if spread > variance_tol:
        return {"applicable": False, "variance_spread": spread,
                "reason": "precondition unmet: utility variances differ", "passed": None}
    mean_u = ref_mean_utilities(table)
    best, _U_best, prior = ref_best_and_prior(table, tol)
    prior_u = ref_prior_utilities(table, prior.p)
    covs = ref_covariances(table, prior.p)
    cov_max_at_best = bool((covs <= covs[best] + tol).all())
    argmax_preserved = bool((prior_u <= prior_u[best] + tol).all())
    gap_ok = bool(((prior_u[best] - prior_u) >= (mean_u[best] - mean_u) - tol).all())
    set_form = (ref_argmax_set(mean_u, tol) == ref_argmax_set(covs, tol))
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


def assert_checks_match_reference(table, prior):
    assert decomposition_residual(table, prior) == ref_decomposition_residual(table, prior)
    assert argmax_preservation(table, 0, [prior.p]) == ref_argmax_preservation(table, prior)
    ideal = ref_best_and_prior(table, IDENTITY_TOL)[2]
    assert argmax_preservation(table, 0, [ideal.p]) == ref_argmax_preservation(table, ideal)
    assert ideal_prior_amplification(table, 0) == ref_ideal_prior_amplification(table)
    assert constant_variance_case(table, 0) == ref_constant_variance_case(table)


def random_tables():
    rng = np.random.default_rng(20)
    return [LossTable(random_instance(rng)[0]) for _ in range(200)]


def family_tables():
    rng = np.random.default_rng(21)
    return [LossTable(_constant_variance_losses(rng, n_examples=int(rng.integers(8, 21)),
                                                n_hypotheses=int(rng.integers(3, 13))))
            for _ in range(50)]


class TestChecksMatchPerRowReference:
    def test_random_instances(self):
        rng = np.random.default_rng(22)
        applicable = 0
        for _ in range(200):
            losses, p = random_instance(rng)
            table, prior = LossTable(losses), Prior(p)
            assert_checks_match_reference(table, prior)
            applicable += argmax_preservation(table, 0, [prior.p])["applicable"]
        assert applicable > 0  # the full argmax report is compared, not only the short one

    def test_constant_variance_families(self):
        rng = np.random.default_rng(23)
        for table in family_tables():
            weights = rng.uniform(0.0, 1.0, size=table.losses.shape[1]) + 1e-9
            assert_checks_match_reference(table, Prior(weights / weights.sum()))
            assert constant_variance_case(table, 0)["applicable"]

    @pytest.mark.parametrize("tables", [random_tables, family_tables])
    def test_variances_match_sum_covariance(self, tables):
        for table in tables():
            for t in range(len(table.losses)):
                U_t = np.exp(-table.losses[t])
                assert table.variances[t] == pytest.approx(sum_covariance(U_t, U_t),
                                                           rel=1e-12, abs=0.0)
