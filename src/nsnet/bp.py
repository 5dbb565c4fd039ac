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

Both updates are closed forms on top of the factor graph's shared
reductions (see :mod:`nsnet.graph`): v2c is the sum over the variable's
other clauses, normalized; c2v is ln(1 - exp(s)) of the clause's other
literals' summed dissatisfying log probabilities s. The readouts (marginals
and the Bethe ln Z) are the graph's variable sums, per-clause normalization
and Bethe sum, the same functions the neural model's readouts call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DEFAULT_FACTOR_ENUM_CAP, FactorGraph, bethe_sum, log1mexp

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
    raw = graph.var_others_sum(np.where(zero, 0.0, c2v))
    raw[graph.var_others_sum(zero.astype(c2v.dtype)) > 0] = log_zero
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
    s_excl = graph.clause_others_sum(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        unsat_msg = np.where(s_excl < 0, log1mexp(s_excl), log_zero)
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


def _variable_log_beliefs(state: BpState, graph: FactorGraph) -> np.ndarray:
    """(n, 2) normalized log beliefs ln b_i(x) from the clause-to-variable
    messages: b_i(x) is proportional to exp of the sum of incoming c2v
    messages for value x; isolated variables get ln 0.5 for both values."""
    sums = graph.var_sum(state.c2v)
    return sums - np.logaddexp(sums[:, 0], sums[:, 1])[:, None]


def bp_marginals(state: BpState, graph: FactorGraph) -> np.ndarray:
    """Variable beliefs b_i(1); see :func:`_variable_log_beliefs`."""
    return np.exp(_variable_log_beliefs(state, graph)[:, 1])


def bethe_ln_z(
    state: BpState, graph: FactorGraph, factor_enum_cap: int = DEFAULT_FACTOR_ENUM_CAP
) -> float:
    """Bethe estimate of ln Z (see :func:`nsnet.graph.bethe_sum`), with
    factor beliefs the normalized products of each clause's incoming v2c
    messages over its satisfying assignments. Exact on trees."""
    plan = graph.satisfying_enumeration(factor_enum_cap)
    lbf = plan.log_normalize(plan.row_sums(state.v2c))
    return float(bethe_sum(graph, plan, lbf, _variable_log_beliefs(state, graph))[0])
