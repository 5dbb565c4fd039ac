import numpy as np
import pytest

import helpers
from nsnet import gen, oracle
from nsnet.cnf import CnfFormula
from nsnet.gen import (
    SR_MAX_CLAUSE_LEN,
    GenConfig,
    clause_count_3sat,
    derive_seed,
    gen_ca,
    gen_random_3sat,
    gen_sr,
    generate,
)


class TestClauseCount:
    def test_reference_values(self):
        # 4.258n + 58.26 n^(-2/3), round half away from zero
        assert clause_count_3sat(10) == 55  # 55.13
        assert clause_count_3sat(100) == 429  # 428.50
        assert clause_count_3sat(1) == 63  # 62.518

    def test_monotone_in_reasonable_range(self):
        counts = [clause_count_3sat(n) for n in range(10, 200)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clause_count_3sat(0)


class TestRandom3Sat:
    def test_structure(self):
        f = gen_random_3sat(20, seed=1)
        assert f.num_clauses == clause_count_3sat(20)
        for clause in f.clauses:
            assert len(clause) == 3
            assert len({abs(l) for l in clause}) == 3

    def test_deterministic(self):
        assert gen_random_3sat(15, seed=9) == gen_random_3sat(15, seed=9)
        assert gen_random_3sat(15, seed=9) != gen_random_3sat(15, seed=10)

    def test_minimum_n_uses_all_variables(self):
        f = gen_random_3sat(3, seed=4)
        for clause in f.clauses:
            assert {abs(l) for l in clause} == {1, 2, 3}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_random_3sat(2, seed=0)


def negate_literal(formula, clause_index, j):
    clauses = list(formula.clauses)
    c = clauses[clause_index]
    clauses[clause_index] = c[:j] + (-c[j],) + c[j + 1:]
    return CnfFormula(formula.num_vars, tuple(clauses))


class TestSr:
    def test_outputs_are_satisfiable(self):
        for seed in range(8):
            f = gen_sr(12, seed=seed)
            assert oracle.satisfiable(f)

    def test_clause_length_cap(self):
        for seed in range(8):
            f = gen_sr(15, seed=seed)
            assert all(2 <= len(c) <= SR_MAX_CLAUSE_LEN for c in f.clauses)

    def test_deterministic(self):
        assert gen_sr(10, seed=3) == gen_sr(10, seed=3)

    def test_satisfiable_member_of_a_pair(self):
        # no unit clauses, and negating one literal of the last clause gives
        # the unsatisfiable member of the pair
        for seed in range(20):
            f = gen_sr(10, seed=seed)
            assert all(len(c) >= 2 for c in f.clauses)
            assert oracle.satisfiable(f)
            last = f.clauses[-1]
            assert any(
                not oracle.satisfiable(negate_literal(f, len(f.clauses) - 1, j))
                for j in range(len(last))
            )

    def test_equals_a_decision_after_every_clause(self, monkeypatch):
        # the solver runs only when the clause falsifies the last model
        calls = []
        find_model = oracle.find_model

        def counted(formula, *args):
            calls.append(formula.num_clauses)
            return find_model(formula, *args)

        monkeypatch.setattr(oracle, "find_model", counted)
        made = [(10 + seed % 21, seed) for seed in range(41)]
        formulas = [gen_sr(n, seed=seed) for n, seed in made]
        monkeypatch.undo()
        for (n, seed), f in zip(made, formulas):
            assert f == helpers.gen_sr_by_decision(n, seed), (n, seed)
        assert len(calls) < sum(f.num_clauses for f in formulas) / 4

    def test_short_clauses_at_tiny_n(self):
        for seed in range(10):
            f = gen_sr(2, seed=seed)
            assert all(len(c) == 2 for c in f.clauses)
            assert oracle.satisfiable(f)


class TestCa:
    def test_intra_community_rate(self, monkeypatch):
        # Q = 0.9 with 3 communities of 10: over many clauses at least 80%
        # must be intra-community (binomial check on the placement rule)
        monkeypatch.setattr(gen, "CA_COMMUNITIES", (3, 3))
        monkeypatch.setattr(gen, "CA_MODULARITY", (0.9, 0.9))
        bounds = np.linspace(0, 30, 4).astype(int)
        community_of = {}
        for j in range(3):
            for v in range(bounds[j] + 1, bounds[j + 1] + 1):
                community_of[v] = j
        intra = total = 0
        for seed in range(400):  # ~400 * 27 clauses: a 10k-clause sample
            f = gen_ca(30, seed=seed)
            for clause in f.clauses:
                cs = {community_of[abs(l)] for l in clause}
                total += 1
                intra += len(cs) == 1
        assert intra / total >= 0.80

    def test_full_modularity_boundary(self, monkeypatch):
        monkeypatch.setattr(gen, "CA_COMMUNITIES", (3, 3))
        monkeypatch.setattr(gen, "CA_MODULARITY", (1.0, 1.0))
        bounds = np.linspace(0, 30, 4).astype(int)
        f = gen_ca(30, seed=7)
        for clause in f.clauses:
            communities = {
                int(np.searchsorted(bounds, abs(l), side="left") - 1)
                if abs(l) in bounds else int(np.searchsorted(bounds, abs(l)) - 1)
                for l in clause
            }
            assert len(communities) == 1

    def test_deterministic(self):
        assert gen_ca(30, seed=2) == gen_ca(30, seed=2)

    def test_structure(self):
        f = gen_ca(24, seed=1)
        assert f.num_clauses == clause_count_3sat(24)
        for clause in f.clauses:
            assert len({abs(l) for l in clause}) == 3

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            gen_ca(8, seed=0)


class TestConfigAndSeeds:
    def test_generate_is_pure(self):
        config = GenConfig(distribution="random3sat", num_vars=(10, 14), seed=5)
        assert generate(config, 3) == generate(config, 3)
        assert generate(config, 3) != generate(config, 4)

    def test_var_range_respected(self):
        config = GenConfig(distribution="random3sat", num_vars=(10, 14), seed=5)
        sizes = {generate(config, i).num_vars for i in range(30)}
        assert sizes <= set(range(10, 15))
        assert len(sizes) > 1

    def test_derive_seed_spread(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(distribution="nope")
        with pytest.raises(ValueError):
            GenConfig(num_vars=(5, 3))
