"""Property tests: DIMACS round trip, the factorized satisfying-completion
LSE against enumeration, invariance of BP's Bethe ln Z under variable
relabeling and negation, and its closed form against enumeration.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import helpers
from nsnet.bp import BpConfig, bethe_ln_z, bp_run
from nsnet.cnf import CnfFormula, emit_dimacs, parse_dimacs
from nsnet.graph import build_factor_graph
from nsnet.net import satisfying_lse

derandomized = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def formulas(draw, max_vars=6, max_clauses=8, min_len=1, max_len=4):
    """Normalized formulas: distinct variables within each clause."""
    n = draw(st.integers(min_len, max_vars))
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        k = draw(st.integers(min_len, min(max_len, n)))
        variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        signs = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        clauses.append(tuple(v if s else -v for v, s in zip(variables, signs)))
    return CnfFormula(n, tuple(clauses))


@derandomized
@given(formulas())
def test_dimacs_round_trip(formula):
    assert parse_dimacs(emit_dimacs(formula)) == (formula, [])


@derandomized
@given(formulas(min_len=2), st.integers(1, 3), st.data())
def test_satisfying_lse_equals_enumeration(formula, d, data):
    graph = build_factor_graph(formula)
    v2c = data.draw(
        hnp.arrays(float, (graph.num_incidences, 2, d), elements=st.floats(-5.0, 5.0))
    )
    u = satisfying_lse(graph, v2c)[0]
    for e in range(graph.num_incidences):
        for value in (0, 1):
            ref = helpers.brute_satisfying_lse(graph, v2c, e, value)
            assert np.abs(u[e, value] - ref).max() <= 1e-9


@derandomized
@given(formulas(max_len=3), st.data())
def test_bethe_ln_z_invariant_under_relabeling_and_negation(formula, data):
    n = formula.num_vars
    perm = data.draw(st.permutations(range(n)))
    transformed = helpers.permute_formula(formula, var_perm=perm)
    for var in data.draw(st.sets(st.integers(1, n))):
        transformed = helpers.negate_variable(transformed, var)

    def ln_z(f):
        graph = build_factor_graph(f)
        return bethe_ln_z(bp_run(graph, BpConfig(max_iters=20)), graph)

    assert ln_z(transformed) == pytest.approx(ln_z(formula), rel=1e-9, abs=1e-9)


@derandomized
@given(formulas(max_len=5), st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3),
       st.integers(1, 30))
def test_bethe_closed_form_equals_enumeration(formula, units, iters):
    # unit clauses send LOG_ZERO, which saturates their neighbours' messages
    units = tuple((u,) for u in units if abs(u) <= formula.num_vars) or ((1,),)
    graph = build_factor_graph(CnfFormula(formula.num_vars, formula.clauses + units))
    state = bp_run(graph, BpConfig(max_iters=iters))
    closed, enumerated = bethe_ln_z(state, graph), helpers.enumerated_bethe_ln_z(state, graph)
    assert abs(closed - enumerated) <= 1e-12 * abs(enumerated), (closed, enumerated)
