import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import helpers
from nsnet.bp import LOG_ZERO, SATURATION
from nsnet.cnf import CnfFormula
from nsnet.graph import build_factor_graph, log1mexp, logaddexp
from nsnet.net import DELTA_CLAMP


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
        with pytest.raises(ValueError, match="clause 3 is empty"):
            build_factor_graph(CnfFormula(3, ((1, 2), (-3,), ())))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(ValueError):
            build_factor_graph(CnfFormula(2, ((1, 1),)))
        with pytest.raises(ValueError):
            build_factor_graph(CnfFormula(2, ((1, -1),)))
        for clause in ((3, 1, 3), (2, -3, -2)):
            with pytest.raises(ValueError, match=r"clause 2 mentions variable [23] twice"):
                build_factor_graph(CnfFormula(3, ((1, -2, 3), clause, (3,))))

    def test_rejects_out_of_range_indices(self):
        # the reductions gather without numpy's bounds check, so the graph
        # checks the index arrays they read when it is made
        g = build_factor_graph(helpers.F0)
        E = g.num_incidences
        bad = {
            "inc_var": np.full(E, g.num_vars),
            "sat_value": np.full(E, 2),
            "var_incidences": np.arange(E) - 1,
            "clause_start": np.array([0, 2, 4, E + 1]),
        }
        for name, value in bad.items():
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(g, **{name: value})
        with pytest.raises(ValueError, match="var_incidences"):
            dataclasses.replace(g, var_incidences=g.var_incidences[:-1])

    def test_equals_looped_reference(self):
        rng = np.random.default_rng(5)
        fields = ("num_vars", "num_clauses", "inc_var", "inc_clause", "sat_value",
                  "clause_start", "var_incidences")
        formulas = [CnfFormula(4, ()), helpers.F0] + list(helpers.inference_corpus().values())
        for _ in range(60):
            n = int(rng.integers(1, 12))
            base = helpers.random_formula(rng, n, int(rng.integers(0, 3 * n + 1)))
            # unit clauses come from min_len 1; three variables no clause mentions
            formulas.append(CnfFormula(n + 3, base.clauses))
        for f in formulas:
            got, ref = build_factor_graph(f), helpers.looped_build_factor_graph(f)
            for name in fields:
                a, b = getattr(got, name), getattr(ref, name)
                assert np.asarray(a).dtype == np.asarray(b).dtype, name
                assert np.array_equal(a, b), name

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


def plan_rows(graph, plan):
    """The rows of ``plan`` in its order, each as (clause, its positions' slots)."""
    rows = []
    for slots in plan.slots:
        clauses = graph.inc_clause[slots[0, :, 0] // 2]
        rows += [(int(a), tuple(slots[:, i, k].tolist()))
                 for i, a in enumerate(clauses) for k in range(slots.shape[2])]
    return rows


def reference_rows(ref):
    """The rows of ``helpers.looped_enumeration``'s plan in its order, each
    as (clause, its positions' slots)."""
    bounds = np.append(ref["row_flat_start"], len(ref["flat_index"]))
    return [(int(ref["row_clause"][r]), tuple(ref["flat_index"][bounds[r]: bounds[r + 1]].tolist()))
            for r in range(ref["num_rows"])]


class TestEnumerationPlan:
    def test_rows_per_clause(self):
        g = build_factor_graph(helpers.F0)
        plan = g.satisfying_enumeration(10)
        assert plan.num_rows == 3 + 3 + 7  # 2^L - 1 per clause
        assert Counter(a for a, _ in plan_rows(g, plan)) == {0: 3, 1: 3, 2: 7}

    def test_all_unsat_row_is_excluded(self):
        g = build_factor_graph(CnfFormula(2, ((1, -2),)))
        plan = g.satisfying_enumeration(10)
        for _, slots in plan_rows(g, plan):
            assert any(
                x % 2 == g.sat_value[x // 2] for x in slots
            ), "every enumerated row satisfies the clause"

    def test_row_sums_equal_explicit_gather(self):
        # the plan lists a clause's rows in another order than the looped
        # reference, so rows are matched by their slots; a row sums at most
        # 6 standard-normal terms in position order, and the two sums agree
        # within 1e-12 absolute
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            g = build_factor_graph(helpers.random_formula(rng, n, int(rng.integers(1, 2 * n)), max_len=6))
            ref = helpers.looped_enumeration(g, 10)
            slot, value = ref["flat_index"] // 2, ref["flat_index"] % 2
            plan = g.satisfying_enumeration(10)
            index = {row: r for r, row in enumerate(reference_rows(ref))}
            order = [index[row] for row in plan_rows(g, plan)]
            for tail in ((), (3,)):
                x = rng.standard_normal((g.num_incidences, 2) + tail)
                want = np.add.reduceat(x[slot, value], ref["row_flat_start"], axis=0)
                got = plan.row_sums(x)
                assert got.shape == want.shape
                assert np.abs(got - want[order]).max(initial=0.0) <= 1e-12

    def test_scatter_rows_is_adjoint_of_row_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(4, 12))
            g = build_factor_graph(helpers.random_formula(rng, n, int(rng.integers(1, 2 * n)), max_len=6))
            plan = g.satisfying_enumeration(10)
            for tail in ((), (3,)):
                x = rng.standard_normal((g.num_incidences, 2) + tail)
                r = rng.standard_normal((plan.num_rows,) + x.shape[2:])
                lhs = np.sum(plan.row_sums(x) * r)
                rhs = np.sum(x * plan.scatter_rows(r, g.num_incidences))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_cap_enforced(self):
        f = CnfFormula(12, (tuple(range(1, 12)),))
        g = build_factor_graph(f)
        with pytest.raises(ValueError):
            g.satisfying_enumeration(10)

    def test_one_plan_per_graph_and_the_cap_checked_every_call(self):
        g = build_factor_graph(helpers.F0)
        assert g.satisfying_enumeration(10) is g.satisfying_enumeration(12)
        g = build_factor_graph(CnfFormula(11, (tuple(range(1, 12)),)))
        assert g.satisfying_enumeration(12).num_rows == 2**11 - 1
        with pytest.raises(ValueError):
            g.satisfying_enumeration(10)

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
            assert all(slots.dtype == np.int64 for slots in plan.slots)
            assert sorted(plan_rows(g, plan)) == sorted(reference_rows(ref))

    def test_every_length_and_polarity(self):
        for length in range(1, 11):
            for signs in (0, (1 << length) - 1, 0b0110100101 & ((1 << length) - 1)):
                clause = tuple(v if (signs >> (v - 1)) & 1 else -v for v in range(1, length + 1))
                g = build_factor_graph(CnfFormula(length, (clause,)))
                ref = helpers.looped_enumeration(g, 10)
                plan = g.satisfying_enumeration(10)
                assert sorted(plan_rows(g, plan)) == sorted(reference_rows(ref)), (length, signs)

    def test_over_cap_raises_like_reference(self):
        f = CnfFormula(5, ((1, -2), (1, 2, -3, 4, 5)))
        g = build_factor_graph(f)
        for cap in (1, 4):
            with pytest.raises(ValueError):
                helpers.looped_enumeration(g, cap)
            with pytest.raises(ValueError):
                g.satisfying_enumeration(cap)

    def test_plan_build_peak_memory(self):
        # a count_bp-shaped graph: the build's traced peak stays within twice
        # the index the plan keeps, 8 bytes per position of every row
        rng = np.random.default_rng(5)
        n, lengths = 500, [L for L in range(2, 6) for _ in range(300)]
        clauses = tuple(
            tuple(int(v) * (1 if rng.random() < 0.5 else -1) for v in rng.choice(n, L, replace=False) + 1)
            for L in lengths
        )
        g = build_factor_graph(CnfFormula(n, clauses))
        g._clause_blocks  # built once per graph before the plan
        kept = 8 * sum(L * (2**L - 1) for L in lengths)
        tracemalloc.start()
        try:
            g.satisfying_enumeration()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * kept, peak / kept


class TestLogaddexp:
    # the inputs BP and the model feed it: large and tiny gaps, equal
    # values, BP's LOG_ZERO and saturation threshold, the model's clamp
    SPECIAL = [0.0, -1e-300, 1e-12, DELTA_CLAMP, float(log1mexp(DELTA_CLAMP)), -0.5, 3.0,
               -36.0, -37.5, SATURATION, -750.0, 700.0, 1e30, LOG_ZERO, -1e300]

    @staticmethod
    def assert_close(dtype, a, b):
        got, ref = logaddexp(a, b), np.logaddexp(a, b)
        assert got.dtype == dtype and got.shape == ref.shape
        # stated before measuring: within 2 eps max(1, |z|) of numpy's
        tol = 2 * np.finfo(dtype).eps * np.maximum(1, np.abs(ref))
        assert np.all(np.abs(got - ref) <= tol)

    def test_matches_numpy_on_finite_inputs(self):
        rng = np.random.default_rng(3)
        special = np.array(self.SPECIAL)
        a, b = np.meshgrid(special, special)
        self.assert_close(np.float64, a.ravel(), b.ravel())
        self.assert_close(np.float64, special, special)
        x = rng.normal(0, 30, size=(500, 2, 3))
        self.assert_close(np.float64, x[:, 0], x[:, 1])  # strided, as BP calls it

    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble])
    def test_keeps_the_dtype(self, dtype):
        rng = np.random.default_rng(4)
        finite = [v for v in self.SPECIAL if abs(v) < float(np.finfo(np.float32).max)]
        a = np.concatenate([finite, rng.normal(0, 10, 200)]).astype(dtype)
        self.assert_close(dtype, a, a[::-1].copy())
        self.assert_close(dtype, a, a)

    def test_infinite_inputs(self):
        a = np.array([-np.inf, np.inf, -np.inf, 2.0])
        b = np.array([1.0, 1.0, np.inf, -np.inf])
        assert np.array_equal(logaddexp(a, b), np.logaddexp(a, b))
        # documented: the inputs must not be equal infinities
        with np.errstate(invalid="ignore"):
            assert np.isnan(logaddexp(np.array([-np.inf, np.inf]), np.array([-np.inf, np.inf]))).all()


class TestReductionsIntoOut:
    """The message loops hand the reductions arrays to write into; every
    entry must come out as the allocating call computes it."""

    def test_out_gives_the_allocated_values(self):
        # unit clauses and isolated variables: the entries only a zero fill
        # reaches; three clause lengths: several groups through one work array
        g = build_factor_graph(CnfFormula(7, ((1,), (-2, 3), (1, -3, 4), (2, 4, -5, 6), (-4,))))
        rng = np.random.default_rng(8)
        for tail in ((), (2,), (2, 3)):
            x = rng.normal(size=(g.num_incidences,) + tail)
            cases = {
                "var_sum": (g.var_sum, (g.num_vars,) + tail),
                "var_others_sum": (g.var_others_sum, x.shape),
                "clause_others_sum": (g.clause_others_sum, x.shape),
            }
            for name, (reduce, shape) in cases.items():
                out = np.full(shape, np.nan)
                assert reduce(x, out) is out, name
                assert np.array_equal(out, reduce(x)), name
            out, work = np.full_like(x, np.nan), np.full(2 * x.size, np.nan)
            assert np.array_equal(g.clause_others_sum(x, out, work), g.clause_others_sum(x))
        a, b = rng.normal(size=(2, 50))
        out, work = np.full(50, np.nan), np.full(50, np.nan)
        assert logaddexp(a, b, out, work) is out
        assert np.array_equal(out, logaddexp(a, b))
        s = -rng.random(50)
        assert log1mexp(s, out) is out
        assert np.array_equal(out, log1mexp(s))
