"""Log-space belief propagation on CNF factor graphs.

Messages live on the factor graph's (incidence, value) slots, one array per
direction. Variable-to-clause messages are normalized so the two values'
probabilities sum to 1; clause-to-variable messages are unnormalized log
probabilities that the clause is satisfied given the value.

The update schedule is flooding: every variable-to-clause message is
recomputed from the previous clause-to-variable messages, then every
clause-to-variable message from the fresh variable-to-clause ones. Log
values below the saturation threshold are clamped to a sentinel
(``log_zero``) treated as exact zero probability, which keeps the
1 - prod(p) computation free of NaN from underflow.

Both updates need, for every incidence, a sum over the other incidences of
its variable (v2c) or of its clause (c2v). The v2c sums are one segment-sum
pass over the flat incidence arrays: ``np.bincount`` of the variable index
totals each value column, and the incidence's own entry is subtracted.
Zero-probability entries are kept out of that arithmetic: a -1e30 in the
total would absorb the finite part, so a zero entry's own excluded sum
would come out as 0 instead of the sum of the others. The finite entries
are summed and the zero entries counted separately, and an excluded sum is
``log_zero`` exactly when the excluded count is > 0. The rounding error of
total minus self is an ulp of the total; in the log domain that is a tiny
relative error of a probability.

The c2v sums feed ln(1 - exp(s)), which turns an absolute error in s near 0
into a large relative one, so they are summed without subtraction: clauses
are grouped by length L (incidences are stored clause by clause), and each
group's (clauses, L) block of log probabilities is multiplied by the
all-but-self matrix 1 - I_L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import DEFAULT_FACTOR_ENUM_CAP, FactorGraph

LOG_ZERO = -1e30
SATURATION = -700.0
LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class BpConfig:
    max_iters: int = 10
    convergence_eps: float = 1e-8
    damping: float = 0.0
    log_zero: float = LOG_ZERO

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.convergence_eps <= 0:
            raise ValueError("convergence_eps must be > 0")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must be in [0, 1)")


@dataclass
class BpState:
    """Messages after a run: v2c normalized per incidence, c2v raw.

    ``trace`` (when recorded) holds one ``(v2c, c2v)`` snapshot per
    iteration, in order.
    """

    v2c: np.ndarray  # (E, 2)
    c2v: np.ndarray  # (E, 2)
    converged: bool
    iterations_run: int
    trace: list[tuple[np.ndarray, np.ndarray]] | None = None


def _saturate(x: np.ndarray, log_zero: float) -> np.ndarray:
    return np.where(x < SATURATION, log_zero, x)


def _normalize_pairs(raw: np.ndarray, log_zero: float) -> np.ndarray:
    """Normalize (E, 2) log pairs so exp values sum to 1.

    Pairs whose total mass underflows (both entries saturated, as happens on
    contradictory evidence) fall back to the uniform pair.
    """
    z = np.logaddexp(raw[:, 0], raw[:, 1])
    out = raw - z[:, None]
    degenerate = z < SATURATION
    if degenerate.any():
        out[degenerate] = LOG_HALF
    return _saturate(out, log_zero)


def _segment_sums(values: np.ndarray, segment: np.ndarray, num_segments: int) -> np.ndarray:
    """(num_segments, cols) column totals of the rows of ``values`` per
    segment, one ``np.bincount`` per column."""
    return np.stack([np.bincount(segment, col, num_segments) for col in values.T], axis=1)


def _v2c_update(graph: FactorGraph, c2v: np.ndarray, log_zero: float) -> np.ndarray:
    """Eq-style variable update: sum incoming c2v over all other clauses,
    then normalize per incidence.

    The sums are the variable's total minus the incidence's own message,
    with zero-probability messages counted apart from the finite total: a
    -1e30 in the total would absorb the finite part and leave a zero
    entry's own excluded sum at 0. A sum that excludes a zero entry is
    ``log_zero``.
    """
    zero = c2v < SATURATION
    finite = np.where(zero, 0.0, c2v)
    seg, num = graph.inc_var, graph.num_vars
    raw = _segment_sums(finite, seg, num)[seg] - finite
    zeros = _segment_sums(zero, seg, num)[seg] - zero
    raw[zeros > 0] = log_zero
    return _normalize_pairs(raw, log_zero)


def _c2v_update(graph: FactorGraph, v2c: np.ndarray, log_zero: float) -> np.ndarray:
    """Closed-form clause update.

    The satisfying branch is 0 (the completions carry total mass 1); the
    dissatisfying branch is ln(1 - prod of the other literals' dissatisfying
    probabilities), saturating to log-zero when that product reaches 1.
    Unit clauses get the empty sum 0, hence log-zero.
    """
    ar = np.arange(graph.num_incidences)
    unsat_value = graph.unsat_value
    q = v2c[ar, unsat_value]  # log prob each literal is dissatisfied
    s_excl = np.empty(graph.num_incidences)
    lens = graph.clause_len
    for length in np.unique(lens):
        slots = graph.clause_start[:-1][lens == length, None] + np.arange(length)
        s_excl[slots] = q[slots] @ (1.0 - np.eye(length))
    with np.errstate(divide="ignore", invalid="ignore"):
        unsat_msg = np.where(s_excl < 0, np.log1p(-np.exp(s_excl)), -np.inf)
    unsat_msg = np.where(np.isfinite(unsat_msg), unsat_msg, log_zero)
    out = np.zeros_like(v2c)
    out[ar, unsat_value] = _saturate(unsat_msg, log_zero)
    return out


def bp_run(
    graph: FactorGraph,
    config: BpConfig = BpConfig(),
    initial: BpState | None = None,
    record_trace: bool = False,
) -> BpState:
    """Run log-space BP until convergence or ``max_iters``.

    Messages start uniform (v2c at ln 0.5, c2v at 0) unless ``initial`` is
    given. With damping > 0 each new message is the log-domain mix
    lambda*old + (1-lambda)*update, renormalized on the v2c side so the
    normalization invariant survives the mix.
    """
    E = graph.num_incidences
    if initial is not None:
        v2c, c2v = initial.v2c.copy(), initial.c2v.copy()
    else:
        v2c = np.full((E, 2), LOG_HALF)
        c2v = np.zeros((E, 2))
    lam = config.damping
    trace: list[tuple[np.ndarray, np.ndarray]] | None = [] if record_trace else None

    converged = False
    iterations = 0
    for _ in range(config.max_iters):
        new_v2c = _v2c_update(graph, c2v, config.log_zero)
        if lam > 0.0:
            new_v2c = _normalize_pairs(lam * v2c + (1.0 - lam) * new_v2c, config.log_zero)
        new_c2v = _c2v_update(graph, new_v2c, config.log_zero)
        if lam > 0.0:
            new_c2v = _saturate(lam * c2v + (1.0 - lam) * new_c2v, config.log_zero)
        iterations += 1
        delta = 0.0
        if E:
            delta = max(
                float(np.abs(new_v2c - v2c).max()), float(np.abs(new_c2v - c2v).max())
            )
        v2c, c2v = new_v2c, new_c2v
        if trace is not None:
            trace.append((v2c.copy(), c2v.copy()))
        if delta < config.convergence_eps:
            converged = True
            break
    return BpState(v2c, c2v, converged, iterations, trace)


def clause_message(
    others: Sequence[tuple[float, float]], satisfying: bool
) -> float:
    """Closed-form clause-to-variable message for one branch.

    ``others`` holds one normalized ``(log_sat, log_unsat)`` pair per other
    variable in the clause. The satisfying branch is exactly 0; the
    dissatisfying branch is ln(1 - prod exp(log_unsat)), which is the
    log-sum-exp over the satisfying completions.
    """
    for pair in others:
        if abs(np.logaddexp(pair[0], pair[1])) > 1e-9:
            raise ValueError(f"incoming pair {pair} is not normalized")
    if satisfying:
        return 0.0
    if not others:
        return LOG_ZERO  # unit clause: no satisfying completion exists
    s = float(sum(pair[1] for pair in others))
    if s >= 0.0:
        return LOG_ZERO
    result = math.log1p(-math.exp(s)) if s > SATURATION else 0.0
    if not math.isfinite(result) or result < SATURATION:
        return LOG_ZERO
    return result


def _variable_log_beliefs(state: BpState, graph: FactorGraph) -> np.ndarray:
    """(n, 2) normalized log beliefs ln b_i(x) from the clause-to-variable
    messages: b_i(x) is proportional to exp of the sum of incoming c2v
    messages for value x; isolated variables get ln 0.5 for both values."""
    sums = _segment_sums(state.c2v, graph.inc_var, graph.num_vars)
    shifted = sums - sums.max(axis=1, keepdims=True)
    z = np.log(np.exp(shifted).sum(axis=1))
    return shifted - z[:, None]


def bp_marginals(state: BpState, graph: FactorGraph) -> np.ndarray:
    """Variable beliefs b_i(1); see :func:`_variable_log_beliefs`."""
    return np.exp(_variable_log_beliefs(state, graph)[:, 1])


def factor_log_beliefs(state: BpState, graph: FactorGraph, cap: int) -> np.ndarray:
    """Normalized log beliefs over each clause's satisfying assignments.

    Returns one value per enumeration row (see
    :meth:`FactorGraph.satisfying_enumeration`); the exp values of each
    clause's rows sum to 1. Unsatisfying assignments carry zero belief since
    the factor vanishes there, so they are simply not enumerated.
    """
    plan = graph.satisfying_enumeration(cap)
    if plan.num_rows == 0:
        return np.zeros(0)
    # each row's flat entries are one contiguous run of its clause's length
    row_len = graph.clause_len[plan.row_clause]
    flat_start = np.cumsum(row_len) - row_len
    rows = np.add.reduceat(state.v2c[plan.flat_slot, plan.flat_value], flat_start)
    zmax = np.maximum.reduceat(rows, plan.row_start[:-1])
    sums = np.add.reduceat(np.exp(rows - zmax[plan.row_clause]), plan.row_start[:-1])
    z = zmax + np.log(sums)
    return rows - z[plan.row_clause]


def bethe_ln_z(
    state: BpState, graph: FactorGraph, factor_enum_cap: int = DEFAULT_FACTOR_ENUM_CAP
) -> float:
    """Bethe estimate of ln Z from the current beliefs.

    ln Z = -sum_a sum_{x_a} b_a ln b_a + sum_i (|N(i)|-1) sum_x b_i ln b_i,
    with the factor sum running over satisfying assignments only (the belief
    vanishes elsewhere, with the 0 ln 0 = 0 convention). Exact on trees.
    """
    lb_fac = factor_log_beliefs(state, graph, factor_enum_cap)
    factor_term = -float(np.sum(np.exp(lb_fac) * lb_fac))
    lb_var = _variable_log_beliefs(state, graph)
    weights = graph.var_degree - 1
    var_term = float(np.sum(weights * np.sum(np.exp(lb_var) * lb_var, axis=1)))
    return factor_term + var_term
