import numpy as np
import pytest

import helpers
from nsnet.cnf import CnfFormula
from nsnet.oracle import (
    BudgetExceededError,
    enumerate_models,
    exact_count,
    exact_marginals,
    satisfiable,
)


class TestEnumerate:
    def test_f0_models_in_order(self):
        models = enumerate_models(helpers.F0)
        assert models == [(0, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]

    def test_unsatisfiable(self):
        assert enumerate_models(CnfFormula(1, ((1,), (-1,)))) == []

    def test_free_variables(self):
        assert len(enumerate_models(CnfFormula(2, ()))) == 4

    def test_limit(self):
        assert len(enumerate_models(CnfFormula(3, ()), limit=3)) == 3

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_models(CnfFormula(31, ()))


class TestExactCount:
    def test_f0(self):
        assert exact_count(helpers.F0).model_count == 4

    def test_two_var_disjunction(self):
        assert exact_count(CnfFormula(2, ((1, 2),))).model_count == 3

    def test_free_variables_power_of_two(self):
        result = exact_count(CnfFormula(10, ()))
        assert result.model_count == 1024
        assert result.ln_count == pytest.approx(np.log(1024), abs=1e-12)

    def test_unsat_has_no_ln(self):
        result = exact_count(CnfFormula(1, ((1,), (-1,))))
        assert result.model_count == 0
        assert result.ln_count is None

    def test_budget_exceeded(self):
        rng = np.random.default_rng(0)
        formula = helpers.random_formula(rng, 20, 60, min_len=3, max_len=3)
        with pytest.raises(BudgetExceededError):
            exact_count(formula, node_budget=5)


class TestExactMarginals:
    def test_f0(self):
        assert np.allclose(exact_marginals(helpers.F0), [0.75, 0.5, 0.75])

    def test_forced_variable(self):
        assert exact_marginals(CnfFormula(1, ((1,),)))[0] == 1.0

    def test_disjunction_two_thirds(self):
        assert np.allclose(exact_marginals(CnfFormula(2, ((1, 2),))), [2 / 3, 2 / 3])

    def test_unsat_is_error(self):
        with pytest.raises(ValueError):
            exact_marginals(CnfFormula(1, ((1,), (-1,))))


class TestProperties:
    def test_dual_path_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            formula = helpers.random_formula(rng, n, int(rng.integers(0, 4 * n + 1)))
            assert exact_count(formula).model_count == len(enumerate_models(formula))

    def test_marginals_match_enumeration_average(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            formula = helpers.random_formula(rng, n, int(rng.integers(1, 3 * n)))
            if not satisfiable(formula):
                continue
            assert np.allclose(
                exact_marginals(formula),
                helpers.marginals_by_enumeration(formula),
                atol=1e-12,
            )

    def test_backbone_detection(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 10))
            formula = helpers.random_formula(rng, n, int(rng.integers(n, 3 * n)))
            models = enumerate_models(formula)
            if not models:
                continue
            marginals = exact_marginals(formula)
            for v in range(n):
                if marginals[v] == 1.0:
                    assert all(m[v] == 1 for m in models)
                    checked += 1
        assert checked > 0

    def test_negation_swaps_marginal(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            formula = helpers.random_formula(rng, n, int(rng.integers(1, 3 * n)))
            if not satisfiable(formula):
                continue
            v = int(rng.integers(1, n + 1))
            flipped = helpers.negate_variable(formula, v)
            a = exact_marginals(formula)
            b = exact_marginals(flipped)
            assert b[v - 1] == pytest.approx(1.0 - a[v - 1], abs=0)
            mask = np.arange(n) != v - 1
            assert np.array_equal(a[mask], b[mask])

    def test_satisfiable_agrees_with_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            formula = helpers.random_formula(rng, n, int(rng.integers(0, 4 * n + 1)))
            assert satisfiable(formula) == bool(enumerate_models(formula, limit=1))
