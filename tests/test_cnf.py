import numpy as np
import pytest

import helpers
from nsnet.cnf import (
    CnfFormula,
    DimacsError,
    emit_dimacs,
    evaluate,
    normalize,
    parse_dimacs,
)

F0_TEXT = "p cnf 3 3\n1 -2 0\n1 3 0\n-1 2 3 0\n"


class TestParse:
    def test_three_clause_formula(self):
        formula, warnings = parse_dimacs(F0_TEXT)
        assert formula.num_vars == 3
        assert formula.clauses == ((1, -2), (1, 3), (-1, 2, 3))
        assert warnings == []

    def test_empty_clause_set(self):
        formula, _ = parse_dimacs("p cnf 1 0\n")
        assert formula.num_vars == 1
        assert formula.clauses == ()

    def test_tautology_removed_with_warning(self):
        formula, warnings = parse_dimacs("p cnf 2 1\n1 -1 2 0")
        assert formula.clauses == ()
        assert any("tautology" in w for w in warnings)
        # the count mismatch against the header is also only a warning
        assert len(warnings) >= 1

    def test_duplicate_literal_warns(self):
        formula, warnings = parse_dimacs("p cnf 2 1\n1 1 2 0")
        assert formula.clauses == ((1, 2),)
        assert any("duplicate" in w for w in warnings)

    def test_comments_and_clauses_across_lines(self):
        text = "c a comment\np cnf 3 2\nc mid comment\n1 -2\n3 0 2\n-3 0\n"
        formula, warnings = parse_dimacs(text)
        assert formula.clauses == ((1, -2, 3), (2, -3))
        assert warnings == []

    def test_clause_count_mismatch_is_warning(self):
        formula, warnings = parse_dimacs("p cnf 2 5\n1 2 0\n")
        assert formula.num_clauses == 1
        assert any("5" in w for w in warnings)

    def test_bytes_input(self):
        formula, _ = parse_dimacs(F0_TEXT.encode())
        assert formula.num_clauses == 3

    def test_percent_terminator_ignored(self):
        formula, _ = parse_dimacs("p cnf 2 1\n1 2 0\n%\n")
        assert formula.num_clauses == 1

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 0\n",  # clause before header
            "p cnf x y\n",  # malformed header
            "p dnf 2 1\n1 0\n",  # wrong format tag
            "p cnf 2 1\n1 3 0\n",  # literal out of range
            "p cnf 2 1\n1 2\n",  # unterminated final clause
            "p cnf 2 1\n1 2 0\np cnf 2 1\n",  # duplicate header
            "",  # missing header entirely
        ],
    )
    def test_errors(self, text):
        with pytest.raises(DimacsError):
            parse_dimacs(text)


class TestEmit:
    def test_emit_matches_expected_text(self):
        formula, _ = parse_dimacs(F0_TEXT)
        assert emit_dimacs(formula) == F0_TEXT

    def test_empty_formula(self):
        assert emit_dimacs(CnfFormula(1, ())) == "p cnf 1 0\n"

    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            formula = helpers.random_formula(rng, n, int(rng.integers(0, 3 * n + 1)))
            formula, _ = normalize(formula)
            parsed, warnings = parse_dimacs(emit_dimacs(formula))
            assert parsed == formula
            assert warnings == []


class TestEvaluate:
    def test_against_brute_force_on_f0(self):
        models = set(helpers.enumerate_models(helpers.F0))
        for code in range(8):
            a = tuple((code >> s) & 1 for s in (2, 1, 0))
            assert evaluate(helpers.F0, a) == (a in models)

    def test_all_ones_satisfies_f0(self):
        assert evaluate(helpers.F0, (1, 1, 1))

    def test_all_zeros_falsifies_f0(self):
        assert not evaluate(helpers.F0, (0, 0, 0))

    def test_empty_clause_set_is_true(self):
        assert evaluate(CnfFormula(2, ()), (0, 1))

    def test_missing_variable_is_error(self):
        with pytest.raises(ValueError):
            evaluate(helpers.F0, (1, 1))


class TestProperties:
    def test_normalize_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            clauses = []
            for _ in range(int(rng.integers(0, 12))):
                k = int(rng.integers(1, 5))
                lits = [
                    int(l) * (1 if s else -1)
                    for l, s in zip(
                        rng.integers(1, n + 1, size=k), rng.integers(0, 2, size=k)
                    )
                ]
                clauses.append(tuple(lits))
            raw = CnfFormula(n, tuple(clauses))
            once, _ = normalize(raw)
            twice, warnings = normalize(once)
            assert once == twice
            assert warnings == []

    def test_tautology_removal_preserves_model_count(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            clauses = list(helpers.random_formula(rng, n, 2 * n).clauses)
            v = int(rng.integers(1, n + 1))
            clauses.insert(int(rng.integers(len(clauses) + 1)), (v, -v))
            raw = CnfFormula(n, tuple(clauses))
            cleaned, warnings = normalize(raw)
            assert any("tautology" in w for w in warnings)
            assert helpers.brute_model_count(raw) == helpers.brute_model_count(cleaned)
