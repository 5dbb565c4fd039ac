import json

import numpy as np
import pytest

import helpers
from nsnet import cli, oracle
from nsnet.cnf import CnfFormula, emit_dimacs, evaluate
from nsnet.gen import gen_random_3sat
from nsnet.search import SlsConfig, SlsResult, round_marginals, sls_solve


class TestRounding:
    def test_oracle_marginals_of_running_example(self):
        assignment = round_marginals(oracle.exact_marginals(helpers.F0))
        assert assignment == (1, 1, 1)
        assert evaluate(helpers.F0, assignment)

    def test_backbone(self):
        assert round_marginals(np.array([1.0])) == (1,)
        assert round_marginals(np.array([0.0])) == (0,)

    def test_half_rounds_up(self):
        assert round_marginals(np.array([0.5, 0.5])) == (1, 1)

    def test_non_probabilities_raise(self):
        for bad in (np.nan, np.inf, 1.7, -0.2, 1.0 + 1e-15, -1e-300):
            with pytest.raises(ValueError, match=r"variable 2 .* not in \[0, 1\]"):
                round_marginals(np.array([0.7, bad, 0.2]))

    def test_cli_solve_refuses_a_corrupted_start(self, tmp_path, caplog):
        formula = tmp_path / "f.cnf"
        formula.write_text(emit_dimacs(helpers.F0))
        for bad in (float("nan"), 1.7, -0.2):
            labels = tmp_path / "m.json"
            labels.write_text(json.dumps({"marginals": {"1": 0.9, "2": bad, "3": 0.1}}))
            caplog.clear()
            code = cli.main(["solve", "--input", str(formula), "--init", "file",
                             "--labels", str(labels)])
            assert code == cli.EXIT_RUNTIME
            assert "marginal of variable 2" in caplog.text


class TestSls:
    def test_guided_init_solves_with_zero_flips(self):
        result = sls_solve(helpers.F0, SlsConfig(seed=0), initial=(1, 1, 1))
        assert result.solved
        assert result.flips_total == 0
        assert result.tries_used == 1
        assert result.assignment == (1, 1, 1)

    def test_two_unit_clauses_need_exactly_two_flips(self):
        formula = CnfFormula(2, ((1,), (2,)))
        result = sls_solve(formula, SlsConfig(seed=5), initial=(0, 0))
        assert result.solved
        assert result.flips_total == 2

    def test_unsatisfiable_returns_unsolved(self):
        formula = CnfFormula(1, ((1,), (-1,)))
        result = sls_solve(formula, SlsConfig(max_tries=3, max_flips=50, seed=1))
        assert not result.solved
        assert result.assignment is None
        assert result.tries_used == 3

    def test_empty_clause_set_trivially_solved(self):
        result = sls_solve(CnfFormula(3, ()), SlsConfig(seed=0))
        assert result.solved and result.flips_total == 0

    def test_unsat_marker_is_unsolvable(self):
        result = sls_solve(CnfFormula(1, ((),)), SlsConfig(seed=0))
        assert not result.solved

    def test_solved_results_verify(self):
        rng = np.random.default_rng(3)
        solved = 0
        for seed in range(25):
            formula = gen_random_3sat(12, seed=seed)
            result = sls_solve(formula, SlsConfig(max_tries=20, seed=seed))
            if result.solved:
                assert evaluate(formula, result.assignment)
                solved += 1
        assert solved > 0

    def test_deterministic(self):
        formula = gen_random_3sat(15, seed=2)
        a = sls_solve(formula, SlsConfig(seed=7))
        b = sls_solve(formula, SlsConfig(seed=7))
        assert a == b

    def test_monotone_budget(self):
        # raising the budgets never converts solved to unsolved
        for seed in range(15):
            formula = gen_random_3sat(10, seed=seed)
            small = sls_solve(formula, SlsConfig(max_tries=5, max_flips=200, seed=seed))
            big = sls_solve(formula, SlsConfig(max_tries=10, max_flips=400, seed=seed))
            if small.solved:
                assert big.solved
