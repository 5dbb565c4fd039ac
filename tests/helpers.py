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

from nsnet import bp
from nsnet.cnf import CnfFormula
from nsnet.graph import log1mexp
from nsnet.oracle import enumerate_models

# the running example: (x1 or not x2) and (x1 or x3) and (not x1 or x2 or x3)
F0 = CnfFormula(3, ((1, -2), (1, 3), (-1, 2, 3)))


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


def brute_model_count(formula: CnfFormula) -> int:
    """Model count by raw truth-table enumeration (itertools, no numpy)."""
    count = 0
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        ok = True
        for clause in formula.clauses:
            if not any(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in clause):
                ok = False
                break
        if ok:
            count += 1
    return count


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
# references for the segment-sum updates and the vectorized enumeration plan.


def _exclusion_matrix(k):
    """(k, k) matrix of ones with a zero diagonal: row j sums all-but-j."""
    return np.ones((k, k)) - np.eye(k)


def looped_v2c_update(graph, c2v, log_zero):
    """Variable update with one all-but-self matmul per variable."""
    raw = np.zeros_like(c2v)
    for i in range(graph.num_vars):
        incs = np.flatnonzero(graph.inc_var == i)
        if len(incs):
            raw[incs] = _exclusion_matrix(len(incs)) @ c2v[incs]
    return bp._normalize_pairs(raw, log_zero)


def looped_c2v_update(graph, v2c, log_zero):
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
    unsat_msg = np.where(np.isfinite(unsat_msg), unsat_msg, log_zero)
    unsat_msg[graph.clause_len[graph.inc_clause] == 1] = log_zero
    out[ar, graph.unsat_value] = bp._saturate(unsat_msg, log_zero)
    return out


def looped_bp_run(graph, config, initial=None):
    """``bp_run`` with its message updates swapped for the looped ones."""
    saved = bp._v2c_update, bp._c2v_update
    bp._v2c_update, bp._c2v_update = looped_v2c_update, looped_c2v_update
    try:
        return bp.bp_run(graph, config, initial)
    finally:
        bp._v2c_update, bp._c2v_update = saved


def looped_enumeration(graph, cap):
    """Satisfying-assignment plan by a triple loop over clauses, codes and
    positions; returns the EnumPlan fields as a dict."""
    lens = graph.clause_len
    if len(lens) and int(lens.max()) > cap:
        raise ValueError(f"clause length {int(lens.max())} exceeds enumeration cap {cap}")
    row_clause, flat_row, flat_slot, flat_value = [], [], [], []
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
            for j, e in enumerate(slots):
                flat_row.append(r)
                flat_slot.append(e)
                flat_value.append((code >> j) & 1)
            r += 1
        row_start.append(r)
    fields = {
        "row_clause": row_clause,
        "row_start": row_start,
        "flat_row": flat_row,
        "flat_slot": flat_slot,
        "flat_value": flat_value,
    }
    return {"num_rows": r, **{k: np.asarray(v, dtype=np.int64) for k, v in fields.items()}}
