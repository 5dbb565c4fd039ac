"""Shared test utilities: random formula builders, brute-force references,
and formula transformations for the equivariance suites.

The brute-force functions here are deliberately written as direct
enumerations, independent of the library's factorized implementations, so
they can serve as oracles for them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from nsnet import bp, gen, oracle
from nsnet.cnf import CnfFormula
from nsnet.graph import FactorGraph, _row_pattern, bethe_sum, log1mexp

# the running example: (x1 or not x2) and (x1 or x3) and (not x1 or x2 or x3)
F0 = CnfFormula(3, ((1, -2), (1, 3), (-1, 2, 3)))


def inference_corpus() -> dict[str, CnfFormula]:
    """Formulas reaching every branch of the forward pass: random 3-SAT, unit
    clauses (the unit floor), isolated variables, and no clauses (E = 0)."""
    return {
        "3sat": random_formula(np.random.default_rng(21), 20, 74, min_len=3, max_len=3),
        "units": CnfFormula(6, ((1,), (-2,), (1, 3, -4), (2, -5, 6), (-3, 4), (5, -6, -1))),
        "isolated": CnfFormula(7, ((1, -2, 3), (-1, 4), (2, -4, 3))),
        "empty": CnfFormula(3, ()),
    }


def cast_params(params, dtype):
    """A copy of ``params`` with every array cast to ``dtype``."""
    p = params.copy()
    p.h1 = p.h1.astype(dtype)
    p.h2 = p.h2.astype(dtype)
    for _, mlp in p.nets():
        mlp.weights = [w.astype(dtype) for w in mlp.weights]
        mlp.biases = [b.astype(dtype) for b in mlp.biases]
    return p


def random_formula(rng, n, m, min_len=1, max_len=4):
    """Random CNF with distinct variables per clause. Not necessarily SAT."""
    clauses = []
    for _ in range(m):
        k = int(rng.integers(min_len, min(max_len, n) + 1))
        variables = rng.choice(n, size=k, replace=False) + 1
        signs = rng.integers(0, 2, size=k)
        clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(variables, signs)))
    return CnfFormula(n, tuple(clauses))


def random_tree_formula(rng, n, unit_prob=0.15, max_len=3):
    """Forest-structured CNF: every clause introduces fresh variables and
    touches at most one variable already in the structure, so the factor
    graph is acyclic. Unit clauses only ever constrain fresh variables,
    which keeps the formula satisfiable."""
    clauses = []
    used = [1]
    fresh = list(range(2, n + 1))
    while fresh:
        if rng.random() < unit_prob:
            v = fresh.pop(0)
            used.append(v)
            clauses.append((int(v) if rng.random() < 0.5 else -int(v),))
            continue
        k = int(rng.integers(2, max_len + 1))
        take = min(k - 1, len(fresh))
        vs = [used[int(rng.integers(len(used)))]] + [fresh.pop(0) for _ in range(take)]
        used.extend(vs[1:])
        signs = rng.integers(0, 2, size=len(vs))
        clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(vs, signs)))
    return CnfFormula(n, tuple(clauses))


def enumerate_models(formula: CnfFormula) -> list[tuple[int, ...]]:
    """All satisfying assignments in lexicographic order: the brute-force
    reference the DPLL oracle is held to.

    Lexicographic means tuple order on ``(x1, ..., xn)`` with 0 < 1. Every
    clause is evaluated over the full truth table at once, so keep
    ``num_vars`` small.
    """
    n = formula.num_vars
    # variable v's value is bit (n - v) of the row's code, so row order is
    # lexicographic order on the assignment tuple
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(1 << n)[:, None] >> shifts[None, :]) & 1
    ok = np.ones(len(bits), dtype=bool)
    for clause in formula.clauses:
        sat = np.zeros(len(bits), dtype=bool)
        for lit in clause:
            sat |= bits[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        ok &= sat
    return [tuple(row) for row in bits[ok].tolist()]


def brute_model_count(formula: CnfFormula) -> int:
    """Model count by truth-table enumeration."""
    return len(enumerate_models(formula))


def marginals_by_enumeration(formula: CnfFormula) -> np.ndarray:
    """Marginals as the average over all enumerated models (reference path)."""
    models = enumerate_models(formula)
    if not models:
        raise ValueError("marginals are undefined for an unsatisfiable formula")
    return np.asarray(models, dtype=float).mean(axis=0)


def permute_formula(formula, var_perm=None, clause_perm=None):
    """Apply a variable relabeling and/or clause reordering.

    ``var_perm[i]`` is the new 0-based index of old variable i+1;
    ``clause_perm[a]`` is the old index of the clause placed at position a.
    """
    clauses = list(formula.clauses)
    if var_perm is not None:
        clauses = [
            tuple(
                int(np.sign(l)) * (var_perm[abs(l) - 1] + 1) for l in clause
            )
            for clause in clauses
        ]
    if clause_perm is not None:
        clauses = [clauses[a] for a in clause_perm]
    return CnfFormula(formula.num_vars, tuple(clauses))


def shuffle_within_clauses(formula, rng):
    """Permute literal order inside every clause."""
    clauses = []
    for clause in formula.clauses:
        order = rng.permutation(len(clause))
        clauses.append(tuple(clause[j] for j in order))
    return CnfFormula(formula.num_vars, tuple(clauses))


def negate_variable(formula, var):
    """Flip the polarity of every occurrence of one variable."""
    return CnfFormula(
        formula.num_vars,
        tuple(
            tuple(-l if abs(l) == var else l for l in clause)
            for clause in formula.clauses
        ),
    )


def brute_clause_message(others, satisfying: bool) -> float:
    """Scalar BP clause message by enumerating satisfying completions.

    ``others`` holds (log_sat, log_unsat) pairs for the other variables of
    the clause. Returns -inf when no satisfying completion exists.
    """
    terms = []
    for values in itertools.product((0, 1), repeat=len(others)):
        # value 1 means "this literal satisfies the clause"
        if satisfying or any(values):
            total = sum(
                pair[0] if v else pair[1] for pair, v in zip(others, values)
            )
            terms.append(total)
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def brute_satisfying_lse(graph, v2c, e_target, value):
    """Eq.-style clause aggregation for one slot by explicit enumeration.

    Coordinatewise LSE of sum_j v2c[e_j, x_j] over all assignments of the
    clause's other variables such that the clause is satisfied when the
    target variable takes ``value``. Returns None when the completion set
    is empty (dissatisfying branch of a unit clause).
    """
    a = int(graph.inc_clause[e_target])
    lo, hi = int(graph.clause_start[a]), int(graph.clause_start[a + 1])
    others = [e for e in range(lo, hi) if e != e_target]
    target_sat = value == graph.sat_value[e_target]
    rows = []
    for values in itertools.product((0, 1), repeat=len(others)):
        if not (target_sat or any(
            values[j] == graph.sat_value[e] for j, e in enumerate(others)
        )):
            continue
        total = np.zeros(v2c.shape[2])
        for j, e in enumerate(others):
            total = total + v2c[e, values[j]]
        rows.append(total)
    if not rows:
        return None
    stacked = np.stack(rows)
    top = stacked.max(axis=0)
    return top + np.log(np.exp(stacked - top).sum(axis=0))


# ---------------------------------------------------------------- looped BP
# Direct per-variable / per-clause loops over the factor graph, kept as
# references for the segment-sum updates, the vectorized graph build and the
# vectorized enumeration plan.


def _exclusion_matrix(k):
    """(k, k) matrix of ones with a zero diagonal: row j sums all-but-j."""
    return np.ones((k, k)) - np.eye(k)


def looped_v2c_update(graph, c2v):
    """Variable update with one all-but-self matmul per variable."""
    raw = np.zeros_like(c2v)
    for i in range(graph.num_vars):
        incs = np.flatnonzero(graph.inc_var == i)
        if len(incs):
            raw[incs] = _exclusion_matrix(len(incs)) @ c2v[incs]
    return bp._normalize_pairs(raw)


def looped_c2v_update(graph, v2c):
    """Clause update with one all-but-self matmul per clause."""
    E = graph.num_incidences
    ar = np.arange(E)
    q = v2c[ar, graph.unsat_value]
    out = np.zeros_like(v2c)
    s_excl = np.empty(E)
    for a in range(graph.num_clauses):
        lo, hi = graph.clause_start[a], graph.clause_start[a + 1]
        s_excl[lo:hi] = _exclusion_matrix(hi - lo) @ q[lo:hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        unsat_msg = np.where(s_excl < 0, log1mexp(s_excl), -np.inf)
    unsat_msg = np.where(np.isfinite(unsat_msg), unsat_msg, bp.LOG_ZERO)
    unsat_msg[graph.clause_len[graph.inc_clause] == 1] = bp.LOG_ZERO
    out[ar, graph.unsat_value] = bp._saturate(unsat_msg)
    return out


def looped_bp_run(graph, config, initial=None):
    """``bp_run`` with its message updates swapped for the looped ones, which
    leave the run's buffers unused and return fresh arrays."""
    saved = bp._v2c_update, bp._c2v_update
    bp._v2c_update = lambda graph, c2v, *buffers: looped_v2c_update(graph, c2v)
    bp._c2v_update = lambda graph, v2c, *buffers: looped_c2v_update(graph, v2c)
    try:
        return bp.bp_run(graph, config, initial)
    finally:
        bp._v2c_update, bp._c2v_update = saved


def looped_build_factor_graph(formula):
    """``build_factor_graph`` by a loop over clauses and literals."""
    inc_var, inc_clause, sat_value = [], [], []
    clause_start = [0]
    for a, clause in enumerate(formula.clauses):
        if len(clause) == 0:
            raise ValueError(f"clause {a + 1} is empty")
        seen = set()
        for lit in clause:
            v = abs(lit)
            if v in seen:
                raise ValueError(f"clause {a + 1} mentions variable {v} twice")
            seen.add(v)
            inc_var.append(v - 1)
            inc_clause.append(a)
            sat_value.append(1 if lit > 0 else 0)
        clause_start.append(len(inc_var))
    inc_var = np.asarray(inc_var, dtype=np.int64)
    return FactorGraph(
        num_vars=formula.num_vars,
        num_clauses=formula.num_clauses,
        inc_var=inc_var,
        inc_clause=np.asarray(inc_clause, dtype=np.int64),
        sat_value=np.asarray(sat_value, dtype=np.int64),
        clause_start=np.asarray(clause_start, dtype=np.int64),
        var_incidences=np.argsort(inc_var, kind="stable"),
    )


def looped_enumeration(graph, cap):
    """Satisfying-assignment rows by a triple loop over clauses, codes and
    positions, flat and row by row: a dict of ``num_rows``, each row's
    clause (``row_clause``), each clause's first row (``row_start``), each
    row's first flat element (``row_flat_start``) and each flat element's
    slot ``2e + value`` (``flat_index``)."""
    lens = graph.clause_len
    if len(lens) and int(lens.max()) > cap:
        raise ValueError(f"clause length {int(lens.max())} exceeds enumeration cap {cap}")
    row_clause, row_flat_start, flat_index = [], [], []
    row_start = [0]
    r = 0
    for a in range(graph.num_clauses):
        lo, hi = int(graph.clause_start[a]), int(graph.clause_start[a + 1])
        slots = range(lo, hi)
        unsat_code = 0
        for j, e in enumerate(slots):
            unsat_code |= int(1 - graph.sat_value[e]) << j
        for code in range(1 << (hi - lo)):
            if code == unsat_code:
                continue
            row_clause.append(a)
            row_flat_start.append(len(flat_index))
            for j, e in enumerate(slots):
                flat_index.append(2 * e + ((code >> j) & 1))
            r += 1
        row_start.append(r)
    fields = {
        "row_clause": row_clause,
        "row_start": row_start,
        "row_flat_start": row_flat_start,
        "flat_index": flat_index,
    }
    return {"num_rows": r, **{k: np.asarray(v, dtype=np.int64) for k, v in fields.items()}}


def plan_slots(plan):
    """Per block of ``plan``, the (L, c, K) table of every row's slots: the
    slot of position j of clause i in its row k, the dissatisfying slot
    flipped to the satisfying one where ``_row_pattern(L)`` sets it. The
    plan stores only the (L, c) dissatisfying slots and builds rows on use."""
    return [u[:, :, None] ^ _row_pattern(len(u))[:, None, :] for u in plan.unsat]


def materialized_row_sums(plan, x):
    """``plan.row_sums(x)`` from the full row table of :func:`plan_slots`:
    one gather of every row's positions, summed over the positions."""
    slots = x.reshape((-1,) + x.shape[2:])
    return np.concatenate([np.sum(np.take(slots, s, axis=0), axis=0).reshape((-1,) + x.shape[2:])
                           for s in plan_slots(plan)])


# ------------------------------------------------------------ MLP reference
# The MLP backward as it was before it recomputed its hidden layers: the
# forward keeps every layer's input, and the backward reads that cache.


def mlp_apply_cached(mlp, x):
    """Forward keeping per-layer inputs, for the hand-rolled backward."""
    cache = [x]
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        z = x @ w.T
        z += b
        np.maximum(z, 0.0, out=z)
        x = z
        cache.append(x)
    out = x @ mlp.weights[-1].T
    out += mlp.biases[-1]
    return out, cache


def mlp_backward_cached(mlp, dy, cache, grads, name):
    """Accumulate parameter grads into ``grads`` and return the input grad."""
    last = len(mlp.weights) - 1
    grads[f"{name}.w{last}"] += dy.T @ cache[last]
    grads[f"{name}.b{last}"] += dy.sum(axis=0)
    dx = dy @ mlp.weights[last]
    for layer in range(last - 1, -1, -1):
        dz = dx
        dz *= cache[layer + 1] > 0  # dx is a fresh intermediate here
        grads[f"{name}.w{layer}"] += dz.T @ cache[layer]
        grads[f"{name}.b{layer}"] += dz.sum(axis=0)
        dx = dz @ mlp.weights[layer]
    return dx


# ------------------------------------------------------------- SR reference
# gen_sr as it was before it reused the solver's model: a full decision after
# every added clause.


def gen_sr_by_decision(n, seed):
    rng = gen.make_rng(seed)
    clauses = []
    while True:
        k = 1 + int(rng.random() < 0.7) + int(rng.geometric(0.4))
        clauses.append(gen._random_clause(rng, n, min(k, gen.SR_MAX_CLAUSE_LEN, n)))
        if not oracle.satisfiable(CnfFormula(n, tuple(clauses))):
            break
    last = clauses[-1]
    j = int(rng.integers(len(last)))
    clauses[-1] = last[:j] + (-last[j],) + last[j + 1:]
    return CnfFormula(n, tuple(clauses))


def enumerated_bethe_ln_z(state, graph, cap=10):
    """BP's Bethe ln Z with each clause's factor beliefs enumerated over its
    2^L - 1 satisfying rows by the graph's plan and log-normalized row by
    row: the reference for the closed form of ``bp.bethe_ln_z``."""
    plan = graph.satisfying_enumeration(cap)
    lbf = plan.log_normalize(plan.row_sums(state.v2c))
    return float(bethe_sum(graph, lbf, bp._variable_log_beliefs(state, graph)))
