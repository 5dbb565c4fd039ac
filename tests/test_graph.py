import numpy as np
import pytest

import helpers
from nsnet.cnf import CnfFormula
from nsnet.graph import build_factor_graph


class TestBuild:
    def test_running_example_counts(self):
        g = build_factor_graph(helpers.F0)
        assert g.num_vars == 3  # six assignment nodes, two per variable
        assert g.num_clauses == 3
        assert g.num_incidences == 7  # clause lengths 2 + 2 + 3
        # 14 value-slots per message direction
        assert 2 * g.num_incidences == 14
        assert list(g.clause_len) == [2, 2, 3]

    def test_unit_clause_polarity(self):
        g = build_factor_graph(CnfFormula(1, ((1,),)))
        assert g.num_incidences == 1
        assert g.sat_value[0] == 1
        assert g.unsat_value[0] == 0
        g_neg = build_factor_graph(CnfFormula(1, ((-1,),)))
        assert g_neg.sat_value[0] == 0

    def test_no_clauses(self):
        g = build_factor_graph(CnfFormula(4, ()))
        assert g.num_incidences == 0
        assert list(g.var_degree) == [0, 0, 0, 0]

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            build_factor_graph(CnfFormula(1, ((),)))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(ValueError):
            build_factor_graph(CnfFormula(2, ((1, 1),)))
        with pytest.raises(ValueError):
            build_factor_graph(CnfFormula(2, ((1, -1),)))

    def test_incidence_count_is_sum_of_clause_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            f = helpers.random_formula(rng, n, int(rng.integers(0, 3 * n + 1)))
            g = build_factor_graph(f)
            assert g.num_incidences == sum(len(c) for c in f.clauses)
            assert g.var_degree.sum() == g.num_incidences

    def test_adjacency_is_consistent_inverse(self):
        rng = np.random.default_rng(1)
        f = helpers.random_formula(rng, 8, 20)
        g = build_factor_graph(f)
        # variable by variable, each variable's incidences in increasing order
        order = g.var_incidences
        assert sorted(order) == list(range(g.num_incidences))
        keys = list(zip(g.inc_var[order], order))
        assert keys == sorted(keys)


class TestStructureProperties:
    def test_relabeling_gives_isomorphic_graph(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            f = helpers.random_formula(rng, n, int(rng.integers(1, 3 * n)))
            var_perm = rng.permutation(n)
            clause_perm = rng.permutation(f.num_clauses)
            g = build_factor_graph(f)
            h = build_factor_graph(
                helpers.permute_formula(f, var_perm=var_perm, clause_perm=clause_perm)
            )
            assert sorted(g.var_degree) == sorted(h.var_degree)
            assert sorted(g.clause_len) == sorted(h.clause_len)
            # satisfying-edge pattern carries over under the relabeling
            pattern_g = sorted(
                (var_perm[g.inc_var[e]], int(np.where(clause_perm == g.inc_clause[e])[0][0]), int(g.sat_value[e]))
                for e in range(g.num_incidences)
            )
            pattern_h = sorted(
                (int(h.inc_var[e]), int(h.inc_clause[e]), int(h.sat_value[e]))
                for e in range(h.num_incidences)
            )
            assert pattern_g == pattern_h

    def test_negation_swaps_slot_labels_only(self):
        rng = np.random.default_rng(3)
        f = helpers.random_formula(rng, 6, 14)
        v = 3
        g = build_factor_graph(f)
        h = build_factor_graph(helpers.negate_variable(f, v))
        assert np.array_equal(g.inc_var, h.inc_var)
        assert np.array_equal(g.inc_clause, h.inc_clause)
        touched = g.inc_var == v - 1
        assert np.array_equal(g.sat_value[touched], 1 - h.sat_value[touched])
        assert np.array_equal(g.sat_value[~touched], h.sat_value[~touched])


class TestEnumerationPlan:
    def test_rows_per_clause(self):
        g = build_factor_graph(helpers.F0)
        plan = g.satisfying_enumeration(10)
        assert plan.num_rows == 3 + 3 + 7  # 2^L - 1 per clause
        assert list(np.diff(plan.row_start)) == [3, 3, 7]

    def test_all_unsat_row_is_excluded(self):
        g = build_factor_graph(CnfFormula(2, ((1, -2),)))
        plan = g.satisfying_enumeration(10)
        rows = {}
        for f in range(len(plan.flat_row)):
            rows.setdefault(int(plan.flat_row[f]), {})[int(plan.flat_slot[f])] = int(
                plan.flat_value[f]
            )
        for row in rows.values():
            assert any(
                row[e] == g.sat_value[e] for e in row
            ), "every enumerated row satisfies the clause"

    def test_cap_enforced(self):
        f = CnfFormula(12, (tuple(range(1, 12)),))
        g = build_factor_graph(f)
        with pytest.raises(ValueError):
            g.satisfying_enumeration(10)

    def test_dump_format(self):
        g = build_factor_graph(CnfFormula(2, ((1, -2),)))
        lines = g.dump_edges().splitlines()
        assert lines == [
            "1 0 1 unsat",
            "1 1 1 sat",
            "2 0 1 sat",
            "2 1 1 unsat",
        ]

    def test_plan_equals_looped_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(10, 14))
            m = int(rng.integers(0, 8))
            f = helpers.random_formula(rng, n, m, min_len=1, max_len=10)
            g = build_factor_graph(f)
            ref = helpers.looped_enumeration(g, 10)
            plan = g.satisfying_enumeration(10)
            assert plan.num_rows == ref["num_rows"]
            for name, expected in ref.items():
                if name == "num_rows":
                    continue
                got = getattr(plan, name)
                assert got.dtype == expected.dtype, name
                assert np.array_equal(got, expected), name

    def test_every_length_and_polarity(self):
        for length in range(1, 11):
            for signs in (0, (1 << length) - 1, 0b0110100101 & ((1 << length) - 1)):
                clause = tuple(v if (signs >> (v - 1)) & 1 else -v for v in range(1, length + 1))
                g = build_factor_graph(CnfFormula(length, (clause,)))
                ref = helpers.looped_enumeration(g, 10)
                plan = g.satisfying_enumeration(10)
                for name in ("row_clause", "row_start", "flat_row", "flat_slot", "flat_value"):
                    assert np.array_equal(getattr(plan, name), ref[name]), (length, name)

    def test_over_cap_raises_like_reference(self):
        f = CnfFormula(5, ((1, -2), (1, 2, -3, 4, 5)))
        g = build_factor_graph(f)
        for cap in (1, 4):
            with pytest.raises(ValueError):
                helpers.looped_enumeration(g, cap)
            with pytest.raises(ValueError):
                g.satisfying_enumeration(cap)
