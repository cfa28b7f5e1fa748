"""Table b of a theory row stack, read in the dict form of a one-table report.

The checks in `curriculum_lab.theory` run on a row stack and return one entry
per table, with argmax sets as row masks. Each view here runs one check on a
stack and reads table b: entries become Python scalars, masks become the
table's row indices, and a check whose precondition is unmet reports only its
short form. A `LossTable` is the one-table stack, read at b = 0.
"""
import numpy as np

from curriculum_lab.theory import (IDENTITY_TOL, Prior, _checked_priors,
                                   _constant_variance_case, _ideal_prior_amplification,
                                   _ideal_priors, _prior_checks, _prior_terms)


def ideal_prior(stack, b, t):
    """The prior proportional to the utility of table b's hypothesis t."""
    return Prior(_ideal_priors(stack.utilities, [stack.starts[b] + t])[0][0])


def argmax_preservation(stack, b, priors, tol=IDENTITY_TOL):
    """Table b's argmax sets and preservation verdicts, table c weighted by
    priors[c]."""
    P = _checked_priors(np.array(priors, dtype=np.float64))
    r = _prior_checks(stack, *_prior_terms(stack, P), tol)
    rows = {key: np.flatnonzero(r[key][stack.blocks[b]]).tolist()
            for key in ("argmax_u", "argmax_cov", "argmax_up")}
    report = {"applicable": bool(r["holds"][b]), "argmax_utility": rows["argmax_u"],
              "argmax_covariance": rows["argmax_cov"]}
    if not report["applicable"]:
        report.update(argmax_set_equal=None, gap_amplified=None, reason="precondition unmet")
        return report
    report.update(argmax_set_equal=bool(r["set_equal"][b]),
                  gap_amplified=bool(r["gap_amplified"][b]),
                  argmax_prior_utility=rows["argmax_up"],
                  max_gap_violation=float(r["max_gap_violation"][b]))
    return report


def ideal_prior_amplification(stack, b, tol=IDENTITY_TOL):
    """Table b's ideal-prior fields."""
    return {key: value[b].item() for key, value in _ideal_prior_amplification(stack, tol).items()}


def constant_variance_case(stack, b, variance_tol=1e-9, tol=IDENTITY_TOL):
    """Table b's constant-variance fields, without the argmax verdicts under
    the ideal prior that `run_verification` also reads."""
    r = {key: value[b].item() for key, value in
         _constant_variance_case(stack, variance_tol, tol).items()}
    if not r["applicable"]:
        return {"applicable": False, "variance_spread": r["variance_spread"],
                "reason": "precondition unmet: utility variances differ", "passed": None}
    del r["argmax_set_equal"], r["gap_amplified"]
    return r
