"""The row-stack theory engine against one table at a time.

`run_verification` checks its random instances, and then its constant-variance
families, as row stacks grouped by example count. Its report must be
byte-identical to the per-instance loop it replaced, kept below as the
reference, and to itself under any group cap; every table of a stack must get
exactly the results it gets as a one-table stack (a LossTable), both read
through tests/theory_views.py; and a bad table or prior must fail a stack as
it fails alone. The one-table results themselves are pinned to a per-row
numpy reference in tests/test_theory_reference.py.
"""
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curriculum_lab import theory
from curriculum_lab.errors import ParameterError
from curriculum_lab.theory import (GROUP_ROWS, IDENTITY_TOL, LossTable, Prior, _RowStack,
                                   _checked_priors, _constant_variance_case,
                                   _constant_variance_losses, _prior_terms, _residuals,
                                   decomposition_residual, random_instance, run_verification)
from theory_views import (argmax_preservation, constant_variance_case, ideal_prior,
                          ideal_prior_amplification)


@functools.lru_cache(maxsize=None)
def reference_instances(seed, instances):
    """The per-instance loop over the random instances, one LossTable, Prior
    and one-table check each: its counts and maxima, and the generator state
    after it (families 0 and 40 share one run)."""
    rng = np.random.default_rng(seed)
    max_decomposition = 0.0
    matched_argmax = 0
    argmax_preservation_violations = 0
    amplification_violations = 0
    max_optimum = 0.0
    cs_violations = 0
    for _ in range(instances):
        losses, p = random_instance(rng)
        table, prior = LossTable(losses), Prior(p)
        max_decomposition = max(max_decomposition, decomposition_residual(table, prior))
        r2 = argmax_preservation(table, 0, [p])
        if r2["applicable"]:
            matched_argmax += 1
            if not (r2["argmax_set_equal"] and r2["gap_amplified"]):
                argmax_preservation_violations += 1
        r3 = ideal_prior_amplification(table, 0)
        max_optimum = max(max_optimum, r3["optimum_value_residual"],
                          r3["ideal_identity_residual"])
        if not r3["gap_ok"]:
            amplification_violations += 1
        if not r3["cauchy_schwarz_ok"]:
            cs_violations += 1
    return ((max_decomposition, matched_argmax, argmax_preservation_violations,
             amplification_violations, max_optimum, cs_violations), rng.bit_generator.state)


def reference_run_verification(instances, constant_variance_families, seed):
    """run_verification as one per-instance loop over one-table checks."""
    counts, state = reference_instances(seed, instances)
    (max_decomposition, matched_argmax, argmax_preservation_violations,
     amplification_violations, max_optimum, cs_violations) = counts
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    constant_variance_violations = 0
    constant_variance_applicable = 0
    for _ in range(constant_variance_families):
        table = LossTable(_constant_variance_losses(
            rng, n_examples=int(rng.integers(8, 21)), n_hypotheses=int(rng.integers(3, 13))))
        rc = constant_variance_case(table, 0)
        if rc["applicable"]:
            constant_variance_applicable += 1
        ok = (rc["applicable"] and rc["passed"] and rc["matched_argmax_set_form"])
        if ok:
            r2 = argmax_preservation(table, 0, [ideal_prior(table, 0, rc["optimal_index"]).p])
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


def first_group_instances(seed):
    """How many instances run_verification draws until the first example
    count's pending group reaches GROUP_ROWS rows and is checked."""
    rng = np.random.default_rng(seed)
    rows = {}
    count = 0
    while max(rows.values(), default=0) < GROUP_ROWS:
        losses, _p = random_instance(rng)
        rows[losses.shape[1]] = rows.get(losses.shape[1], 0) + len(losses)
        count += 1
    return count


class TestRunVerificationMatchesPerInstanceLoop:
    # "chunk+1" is one instance past the draw that checks the first full group
    @pytest.mark.parametrize("families", [0, 40])
    @pytest.mark.parametrize("instances", [0, 1, "chunk+1", 3000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 9, 123])
    def test_report_bytes(self, seed, instances, families):
        if instances == "chunk+1":
            instances = first_group_instances(seed) + 1
        report = run_verification(instances, families, seed)
        reference = reference_run_verification(instances, families, seed)
        assert json.dumps(report, sort_keys=True) == json.dumps(reference, sort_keys=True)


@functools.lru_cache(maxsize=None)
def default_cap_report(instances, families, seed):
    return json.dumps(run_verification(instances, families, seed), sort_keys=True)


class TestGroupCap:
    """Every counter of the report is a sum or a maximum, so the group cap
    moves neither the report nor the rng stream; it only bounds the stacks."""

    @pytest.mark.parametrize("cap", [1, 50, 10 ** 9])
    @pytest.mark.parametrize("instances,families,seed", [(3000, 0, 0), (1000, 40, 7), (500, 0, 123)])
    def test_report_does_not_depend_on_the_cap(self, monkeypatch, cap, instances, families, seed):
        expected = default_cap_report(instances, families, seed)
        monkeypatch.setattr(theory, "GROUP_ROWS", cap)
        assert json.dumps(run_verification(instances, families, seed), sort_keys=True) == expected

    # instance tables have 1..20 examples and at most 50 hypotheses, family
    # tables 8..20 examples and at most 12 hypotheses
    @pytest.mark.parametrize("seed,instances,families,example_counts,most_rows", [
        (0, 3000, 0, 20, 50), (5, 3000, 0, 20, 50), (2, 0, 3000, 13, 12),
    ], ids=["0", "5", "families"])
    def test_stacks_stay_bounded(self, monkeypatch, seed, instances, families, example_counts,
                                 most_rows):
        rows = []

        class Recording(_RowStack):
            def __init__(self, tables):
                super().__init__(tables)
                rows.append(len(self.losses))

        monkeypatch.setattr(theory, "_RowStack", Recording)
        run_verification(instances, families, seed)
        # a group is checked at the draw that takes it to GROUP_ROWS rows
        assert max(rows) < GROUP_ROWS + most_rows
        assert any(r >= GROUP_ROWS for r in rows)
        # only the groups left after the last draw may be short: one per
        # example count
        assert sum(r < GROUP_ROWS for r in rows) <= example_counts
        assert len(rows) <= (instances + families) // 4


def same(a, b):
    """Equal, with floats compared by their bits."""
    if isinstance(b, float):
        return isinstance(a, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def assert_same_report(stacked, alone):
    assert stacked.keys() == alone.keys()
    for key, value in alone.items():
        assert same(stacked[key], value), key


@st.composite
def tables_sharing_n(draw):
    """Loss tables with one example count and a prior each: random, uniform or
    point-mass priors; tables with duplicated and with constant rows."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables, priors = [], []
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.integers(1, 50))
        losses = rng.uniform(0.0, 5.0, size=(t, n))
        if draw(st.booleans()):  # duplicated rows, possibly of the best one
            losses[rng.integers(0, t, size=rng.integers(1, t + 1))] = losses[rng.integers(0, t)]
        if draw(st.booleans()):  # constant rows
            losses[rng.integers(0, t, size=rng.integers(1, t + 1))] = rng.uniform(0.0, 5.0)
        kind = draw(st.sampled_from(["random", "uniform", "point-mass"]))
        if kind == "random":
            weights = rng.uniform(0.0, 1.0, size=n) + 1e-9
            p = weights / weights.sum()
        elif kind == "uniform":
            p = np.full(n, 1.0 / n)
        else:
            p = np.zeros(n)
            p[rng.integers(0, n)] = 1.0
        if not math.isclose(p.sum(), 1.0, rel_tol=0.0, abs_tol=IDENTITY_TOL):
            p = np.full(n, 1.0 / n)
        tables.append(losses)
        priors.append(p)
    return tables, priors


class TestStackMatchesOneTableCalls:
    @settings(deadline=None, max_examples=150)
    @given(tables_sharing_n())
    def test_every_field_equals_the_one_table_call(self, drawn):
        tables, priors = drawn
        stack = _RowStack(tables)
        residuals = _residuals(stack, *_prior_terms(stack, _checked_priors(np.stack(priors))))
        for b, (losses, p) in enumerate(zip(tables, priors)):
            table = LossTable(losses)
            rows = stack.blocks[b]
            for name in ("utilities", "mean_utilities", "centered", "variances"):
                assert getattr(stack, name)[rows].tobytes() == getattr(table, name).tobytes()
            assert same(float(residuals[b]), decomposition_residual(table, Prior(p)))
            assert_same_report(argmax_preservation(stack, b, priors),
                               argmax_preservation(table, 0, [p]))
            assert_same_report(ideal_prior_amplification(stack, b),
                               ideal_prior_amplification(table, 0))

    @pytest.mark.parametrize("seed", range(6))
    def test_families_and_random_tables_share_a_stack(self, seed):
        # a one-row or constant-variance table is applicable, a random table
        # with more rows is not
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        tables = [_constant_variance_losses(rng, n, int(rng.integers(1, 7))) if b % 2
                  else rng.uniform(0.0, 5.0, size=(int(rng.integers(1, 30)), n))
                  for b in range(8)]
        stack = _RowStack(tables)
        stacked = _constant_variance_case(stack, 1e-9, IDENTITY_TOL)
        applicable = []
        for b, losses in enumerate(tables):
            table = LossTable(losses)
            alone = constant_variance_case(table, 0)
            applicable.append(alone["applicable"])
            assert_same_report(constant_variance_case(stack, b), alone)
            if not alone["applicable"]:
                continue
            # the verdicts run_verification reads besides the view's fields
            ideal = argmax_preservation(table, 0, [ideal_prior(table, 0, alone["optimal_index"]).p])
            assert ideal["applicable"] == alone["matched_argmax_set_form"]
            if ideal["applicable"]:
                for key in ("argmax_set_equal", "gap_amplified"):
                    assert same(stacked[key][b].item(), ideal[key]), key
        assert True in applicable and False in applicable

    def test_ties_break_to_the_lowest_row(self):
        row = [0.2, 1.4, 0.6]
        tables = [np.array([[3.0, 3.0, 3.0], row, [2.0, 0.1, 4.0], row]), np.array([row, row])]
        assert [ideal_prior_amplification(_RowStack(tables), b)["optimal_index"]
                for b in (0, 1)] == [1, 0]
        table = LossTable(tables[0])
        assert ideal_prior_amplification(table, 0)["optimal_index"] == 1
        assert constant_variance_case(table, 0, variance_tol=np.inf)["optimal_index"] == 1

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_one_bad_table_fails_the_stack_as_it_fails_alone(self, bad, at):
        rng = np.random.default_rng(11)
        tables = [rng.uniform(0.0, 5.0, size=(t, 4)) for t in (3, 1, 7)]
        tables[at][-1, 2] = bad
        with pytest.raises(ParameterError) as alone:
            LossTable(tables[at])
        with pytest.raises(ParameterError) as stacked:
            _RowStack(tables)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.5, 0.4, 0.2]])
    def test_one_bad_prior_fails_the_stack_as_it_fails_alone(self, bad):
        priors = np.array([[0.2, 0.3, 0.5], bad, [1.0, 0.0, 0.0]])
        with pytest.raises(ParameterError) as alone:
            Prior(np.array(bad))
        with pytest.raises(ParameterError) as stacked:
            _checked_priors(priors)
        assert str(stacked.value) == str(alone.value)
