import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import helpers
from nsnet import bp, net, oracle
from nsnet.bp import (
    LOG_HALF,
    LOG_ZERO,
    BpConfig,
    BpState,
    bethe_ln_z,
    bp_marginals,
    bp_run,
)
from nsnet.cnf import CnfFormula
from nsnet.graph import build_factor_graph


def run(formula, **kw):
    graph = build_factor_graph(formula)
    defaults = dict(max_iters=200, convergence_eps=1e-12)
    defaults.update(kw)
    state = bp_run(graph, BpConfig(**defaults))
    return graph, state


class TestMessages:
    def test_unit_clause_first_iteration(self):
        graph = build_factor_graph(CnfFormula(1, ((1,),)))
        state = bp_run(graph, BpConfig(max_iters=1, convergence_eps=1e-300))
        assert state.c2v[0, 1] == 0.0
        assert state.c2v[0, 0] == LOG_ZERO
        assert bp_marginals(state, graph)[0] == 1.0

    def test_two_literal_clause_first_iteration(self):
        graph = build_factor_graph(CnfFormula(2, ((1, 2),)))
        state = bp_run(graph, BpConfig(max_iters=1, convergence_eps=1e-300))
        # v2c stays uniform, so the dissatisfying branch sees p_unsat = 1/2
        assert state.c2v[0, 0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert state.c2v[0, 1] == 0.0

    def test_chain_formula_beliefs(self):
        graph, state = run(CnfFormula(3, ((1, 2), (-2, 3))))
        assert state.converged
        assert np.allclose(bp_marginals(state, graph), [0.75, 0.5, 0.75], atol=1e-10)

    def test_v2c_normalized_after_every_iteration(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            formula = helpers.random_formula(rng, n, int(rng.integers(1, 3 * n)))
            graph = build_factor_graph(formula)
            for iters in (1, 2, 5, 9):
                state = bp_run(graph, BpConfig(max_iters=iters, convergence_eps=1e-300))
                mass = np.exp(state.v2c).sum(axis=1)
                assert np.abs(mass - 1.0).max() <= 1e-12


def clause_message(others, satisfying):
    """BP's message from a one-clause graph to its last literal, given the
    other literals' normalized ``(log_sat, log_unsat)`` pairs."""
    k = len(others) + 1
    graph = build_factor_graph(CnfFormula(k, (tuple(range(1, k + 1)),)))
    v2c = np.full((k, 2), LOG_HALF)
    for j, (log_sat, log_unsat) in enumerate(others):
        v2c[j] = log_unsat, log_sat  # positive literals: value 1 satisfies
    return bp._c2v_update(graph, v2c, LOG_ZERO)[-1, int(satisfying)]


class TestClauseMessage:
    def test_satisfying_branch_is_zero(self):
        pairs = [(math.log(0.3), math.log(0.7)), (math.log(0.9), math.log(0.1))]
        assert clause_message(pairs, satisfying=True) == 0.0

    def test_length_two_dissatisfying(self):
        pairs = [(math.log(0.5), math.log(0.5))]
        assert clause_message(pairs, satisfying=False) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_unit_clause_dissatisfying_is_log_zero(self):
        assert clause_message([], satisfying=False) == LOG_ZERO

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            k = int(rng.integers(1, 7))  # clause length, so k-1 other variables
            p = rng.uniform(0.05, 0.95, size=k - 1)
            pairs = [(math.log(x), math.log(1.0 - x)) for x in p]
            for branch in (True, False):
                ref = helpers.brute_clause_message(pairs, branch)
                got = clause_message(pairs, branch)
                if ref == -math.inf:
                    assert got == LOG_ZERO
                else:
                    assert got == pytest.approx(ref, abs=1e-10)


class TestMarginals:
    def test_forced_variable(self):
        graph, state = run(CnfFormula(1, ((1,),)))
        assert bp_marginals(state, graph)[0] == 1.0

    def test_tree_disjunction_exact(self):
        graph, state = run(CnfFormula(2, ((1, 2),)))
        assert np.allclose(bp_marginals(state, graph), [2 / 3, 2 / 3], atol=1e-10)

    def test_isolated_variable_is_half(self):
        graph, state = run(CnfFormula(3, ((1, 2),)))
        assert bp_marginals(state, graph)[2] == 0.5


class TestBethe:
    def test_single_unit_clause(self):
        graph, state = run(CnfFormula(1, ((1,),)))
        assert bethe_ln_z(state, graph) == pytest.approx(0.0, abs=1e-12)

    def test_disjunction_ln3(self):
        graph, state = run(CnfFormula(2, ((1, 2),)))
        assert bethe_ln_z(state, graph) == pytest.approx(math.log(3), abs=1e-8)

    def test_chain_ln4(self):
        graph, state = run(CnfFormula(3, ((1, 2), (-2, 3))))
        assert bethe_ln_z(state, graph) == pytest.approx(math.log(4), abs=1e-8)

    def test_free_variables_multiply(self):
        graph, state = run(CnfFormula(4, ((1, 2),)))
        assert bethe_ln_z(state, graph) == pytest.approx(math.log(12), abs=1e-8)

    def test_factor_cap(self):
        formula = CnfFormula(12, (tuple(range(1, 12)),))
        graph = build_factor_graph(formula)
        state = bp_run(graph, BpConfig(max_iters=5))
        with pytest.raises(ValueError):
            bethe_ln_z(state, graph)


class TestTreeExactness:
    def test_marginals_and_lnz_on_random_trees(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(2, 16))
            formula = helpers.random_tree_formula(rng, n)
            graph, state = run(formula)
            assert state.converged
            truth = oracle.exact_marginals(formula)
            assert np.abs(bp_marginals(state, graph) - truth).max() <= 1e-8
            expected = oracle.exact_count(formula).ln_count
            assert bethe_ln_z(state, graph) == pytest.approx(expected, abs=1e-8)


class TestDynamics:
    def test_damping_preserves_fixed_points(self):
        # near-saturated states (some message probability within ~1e-15 of 1)
        # make the log-domain clause message ill-conditioned: a one-ulp
        # re-rounding through the damped mix moves log1p(-exp(s)) by ~0.1
        # while the probabilities move by ~1e-16. The fixed-point property is
        # asserted on states away from that regime.
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(3, 12))
            formula = helpers.random_formula(rng, n, 2 * n, min_len=2)
            graph = build_factor_graph(formula)
            state = bp_run(graph, BpConfig(max_iters=500, convergence_eps=1e-12))
            if not state.converged or state.v2c.min() < -30:
                continue
            redone = bp_run(
                graph,
                BpConfig(max_iters=1, convergence_eps=1e-8, damping=0.5),
                initial=state,
            )
            assert np.abs(redone.v2c - state.v2c).max() < 1e-8
            assert np.abs(redone.c2v - state.c2v).max() < 1e-8
            checked += 1
        assert checked >= 10

    def test_damped_run_keeps_v2c_normalized(self):
        rng = np.random.default_rng(78)
        formula = helpers.random_formula(rng, 8, 20, min_len=2)
        graph = build_factor_graph(formula)
        state = bp_run(graph, BpConfig(max_iters=7, convergence_eps=1e-300, damping=0.3))
        mass = np.exp(state.v2c).sum(axis=1)
        assert np.abs(mass - 1.0).max() <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            formula = helpers.random_formula(rng, n, 2 * n)
            var_perm = rng.permutation(n)
            clause_perm = rng.permutation(formula.num_clauses)
            permuted = helpers.permute_formula(formula, var_perm, clause_perm)
            g1, s1 = run(formula, max_iters=20, convergence_eps=1e-300)
            g2, s2 = run(permuted, max_iters=20, convergence_eps=1e-300)
            m1 = bp_marginals(s1, g1)
            m2 = bp_marginals(s2, g2)
            assert np.abs(m1 - m2[var_perm]).max() <= 1e-12

    def test_iteration_budget_and_flags(self):
        rng = np.random.default_rng(99)
        formula = helpers.random_formula(rng, 10, 42, min_len=3, max_len=3)
        graph = build_factor_graph(formula)
        state = bp_run(graph, BpConfig(max_iters=3, convergence_eps=1e-300))
        assert state.iterations_run == 3
        assert not state.converged

    def test_no_clause_graph(self):
        graph, state = run(CnfFormula(3, ()))
        assert state.converged
        assert np.allclose(bp_marginals(state, graph), 0.5)
        assert bethe_ln_z(state, graph) == pytest.approx(3 * math.log(2), abs=1e-12)


class TestSegmentSumUpdates:
    """The vectorized updates against the looped all-but-self matmuls."""

    @staticmethod
    def formulas(rng, count):
        for _ in range(count):
            n = int(rng.integers(2, 10))
            base = helpers.random_formula(rng, n, int(rng.integers(1, 3 * n)))
            clauses = list(base.clauses)
            if rng.random() < 0.5:  # contradictory unit pair
                v = int(rng.integers(1, n + 1))
                clauses += [(v,), (-v,)]
            # two extra variables no clause mentions
            yield CnfFormula(n + 2, tuple(clauses))

    def test_marginals_and_messages_match_looped_reference(self):
        rng = np.random.default_rng(2024)
        converged = 0
        for formula in self.formulas(rng, 150):
            graph = build_factor_graph(formula)
            config = BpConfig(
                max_iters=int(rng.integers(1, 60)),
                convergence_eps=1e-12,
                damping=float(rng.choice([0.0, 0.3, 0.6])),
            )
            got = bp_run(graph, config)
            ref = helpers.looped_bp_run(graph, config)
            assert (got.iterations_run, got.converged) == (ref.iterations_run, ref.converged)
            assert np.abs(bp_marginals(got, graph) - bp_marginals(ref, graph)).max() <= 1e-12
            if ref.converged:
                # messages of a run still moving are compared through the
                # marginals only: near-saturated pairs are ill-conditioned in
                # the log domain
                converged += 1
                assert np.abs(got.v2c - ref.v2c).max() <= 1e-9
                assert np.abs(got.c2v - ref.c2v).max() <= 1e-9
        assert converged >= 50

    def test_log_zero_entry_excludes_only_itself(self):
        # variable 1 gets a log-zero message for value 0 from the unit clause;
        # its value-0 message to that clause must still carry the ln 0.5 from
        # the other clause, not come out as 0
        graph = build_factor_graph(CnfFormula(2, ((1,), (1, 2))))
        config = BpConfig(max_iters=3, convergence_eps=1e-300)
        got = bp_run(graph, config)
        ref = helpers.looped_bp_run(graph, config)
        assert np.array_equal(got.v2c == LOG_ZERO, ref.v2c == LOG_ZERO)
        assert np.abs(got.v2c - ref.v2c).max() <= 1e-12
        assert np.abs(got.c2v - ref.c2v).max() <= 1e-12

    def test_clause_sums_exact_beside_a_near_saturated_literal(self):
        # in each clause literal 1 is all but surely dissatisfied (ln q = -600)
        # and the others all but surely satisfied (ln q = -1e-12): the
        # message to literal 1 needs the others' tiny sum exactly, since
        # ln(1 - exp(s)) magnifies an error of s near 0 by 1/|s|
        graph = build_factor_graph(CnfFormula(5, ((1, 2), (3, -4, 5))))
        q = np.array([-600.0, -1e-12, -600.0, -1e-12, -1e-12])
        v2c = np.empty((graph.num_incidences, 2))
        ar = np.arange(graph.num_incidences)
        v2c[ar, graph.unsat_value] = q
        v2c[ar, graph.sat_value] = np.log(-np.expm1(q))
        got = bp._c2v_update(graph, v2c, LOG_ZERO)
        ref = helpers.looped_c2v_update(graph, v2c, LOG_ZERO)
        assert got[0, 0] < -27.0  # ln(1 - exp(-1e-12)) is about -27.6
        assert np.abs(got - ref).max() <= 1e-9
        # the neural model's reduction mode sums the same clauses
        u = net.satisfying_lse(graph, v2c[:, :, None])[0][:, :, 0]
        assert np.abs(u - got).max() <= 1e-9

    def test_clause_message_beside_a_near_saturated_literal_is_exact(self):
        # clause (1, 2) of the test above against ln(1 - exp(s)) at 40 digits:
        # computed as log1p(-exp(s)), the message at s = -1e-12 is off by 2.2e-5
        graph = build_factor_graph(CnfFormula(2, ((1, 2),)))
        q = np.array([-600.0, -1e-12])
        v2c = np.empty((2, 2))
        v2c[:, 0] = q
        v2c[:, 1] = np.log(-np.expm1(q))
        got = bp._c2v_update(graph, v2c, LOG_ZERO)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [float((1 - Decimal(float(s)).exp()).ln()) for s in q[::-1]]
        assert np.abs(got[:, 0] - exact).max() <= 1e-9
