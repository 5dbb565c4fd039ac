"""Log-space belief propagation on CNF factor graphs.

Messages live on the factor graph's (incidence, value) slots, one array per
direction. Variable-to-clause messages are normalized so the two values'
probabilities sum to 1; clause-to-variable messages are unnormalized log
probabilities that the clause is satisfied given the value.

The update schedule is flooding: every variable-to-clause message is
recomputed from the previous clause-to-variable messages, then every
clause-to-variable message from the fresh variable-to-clause ones. Log
values below the saturation threshold are clamped to the sentinel
``LOG_ZERO``, treated as exact zero probability, which keeps the
1 - prod(p) computation free of NaN from underflow.

Both updates are closed forms on top of the factor graph's shared
reductions (see :mod:`nsnet.graph`): v2c is the sum over the variable's
other clauses, normalized; c2v is ln(1 - exp(s)) of the clause's other
literals' summed dissatisfying log probabilities s. The marginals are the
graph's variable sums and pair log-sum-exp, as in the neural model's
readout. The Bethe ln Z takes each clause's factor entropy in closed form,
O(L) for a clause of length L, over the graph's blocks of clauses of one
length and their dissatisfying slots. The model's readout runs over the
same blocks and slots, but gives each clause 2^L - 1 satisfying rows, one
fixed table per length that sets each position to its satisfying or
dissatisfying slot as the rows are summed (``EnumPlan``, which stores no
row), since its factor beliefs are an MLP of each row; the two share the
variable terms.

A run allocates its arrays once: the current and the next messages, and two
(E, 2) work arrays that the updates' reductions and normalization write
their temporaries into (``out=``/``work=``, see :mod:`nsnet.graph`; the
gathers run ``np.take`` with ``mode="clip"``, since numpy buffers the
output of the default mode). Each iteration overwrites them, so no
iteration allocates an array of the messages' size. The buffers belong to
the call: the returned state's messages are two of them and nothing else
holds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import FactorGraph, bethe_var_terms, log1mexp, logaddexp

LOG_ZERO = -1e30
SATURATION = -700.0
LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class BpConfig:
    max_iters: int = 10
    convergence_eps: float = 1e-8
    damping: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.convergence_eps <= 0:
            raise ValueError("convergence_eps must be > 0")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must be in [0, 1)")


@dataclass
class BpState:
    """Messages after a run: v2c normalized per incidence, c2v raw."""

    v2c: np.ndarray  # (E, 2)
    c2v: np.ndarray  # (E, 2)
    converged: bool
    iterations_run: int


def _saturate(x: np.ndarray) -> np.ndarray:
    """Clamp entries below the saturation threshold to ``LOG_ZERO``, in place."""
    np.putmask(x, x < SATURATION, LOG_ZERO)
    return x


def _normalize_pairs(raw: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Normalize (E, 2) log pairs in place so exp values sum to 1. ``work``,
    (2, E), takes the pair totals and their log-sum-exp's scratch.

    Pairs whose total mass underflows (both entries saturated, as happens on
    contradictory evidence) fall back to the uniform pair.
    """
    z, larger = (None, None) if work is None else work
    z = logaddexp(raw[:, 0], raw[:, 1], out=z, work=larger)
    # two column subtracts; broadcasting z over the pairs runs slower
    raw[:, 0] -= z
    raw[:, 1] -= z
    degenerate = z < SATURATION
    if degenerate.any():
        raw[degenerate] = LOG_HALF
    return _saturate(raw)


def _v2c_update(
    graph: FactorGraph,
    c2v: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Eq-style variable update: sum incoming c2v over all other clauses,
    then normalize per incidence. The messages go into ``out``; ``work``
    holds two scratch arrays shaped like ``c2v``.

    The sums are the variable's total minus the incidence's own message,
    with zero-probability messages counted apart from the finite total: a
    -1e30 in the total would absorb the finite part and leave a zero
    entry's own excluded sum at 0. A sum that excludes a zero entry is
    ``LOG_ZERO``. Without zero entries the count is zero everywhere and
    is skipped.
    """
    if work is None:
        work = np.empty((2,) + c2v.shape, c2v.dtype)
    scratch, counts = work
    zero = c2v < SATURATION
    if not zero.any():
        return _normalize_pairs(graph.var_others_sum(c2v, out), counts.reshape(2, -1))
    np.copyto(scratch, c2v)
    np.putmask(scratch, zero, 0.0)
    raw = graph.var_others_sum(scratch, out)
    np.copyto(scratch, zero)
    raw[graph.var_others_sum(scratch, counts) > 0] = LOG_ZERO
    return _normalize_pairs(raw, counts.reshape(2, -1))


def _c2v_update(
    graph: FactorGraph,
    v2c: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form clause update. The messages go into ``out``; ``work``
    holds two scratch arrays shaped like ``v2c``.

    The satisfying branch is 0 (the completions carry total mass 1); the
    dissatisfying branch is ln(1 - prod of the other literals' dissatisfying
    probabilities), saturating to log-zero when that product reaches 1.
    Unit clauses get the empty sum 0, hence log-zero.
    """
    if out is None:
        out = np.empty(v2c.shape, v2c.dtype)
    if work is None:
        work = np.empty((2,) + v2c.shape, v2c.dtype)
    unsat = graph.unsat_slot
    q, s_excl = work[1].reshape(2, -1)
    np.take(v2c, unsat, out=q, mode="clip")  # log prob each literal is dissatisfied
    graph.clause_others_sum(q, out=s_excl, work=work[0].reshape(-1))
    saturated = ~(s_excl < 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        unsat_msg = log1mexp(s_excl, out=s_excl)
    np.putmask(unsat_msg, saturated, LOG_ZERO)
    out[...] = 0
    out.reshape(-1)[unsat] = _saturate(unsat_msg)  # a view: out is C-ordered
    return out


def bp_run(
    graph: FactorGraph,
    config: BpConfig = BpConfig(),
    initial: BpState | None = None,
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
    # the next messages and the updates' scratch; each iteration's new
    # messages are written over the arrays the previous one left behind
    new_v2c, new_c2v = np.empty_like(v2c), np.empty_like(c2v)
    work = np.empty((2,) + v2c.shape, v2c.dtype)
    mixed, pairs = work[0], work[1].reshape(2, -1)
    lam = config.damping

    converged = False
    iterations = 0
    for _ in range(config.max_iters):
        new_v2c = _v2c_update(graph, c2v, new_v2c, work)
        if lam > 0.0:
            np.multiply(v2c, lam, out=mixed)
            np.multiply(new_v2c, 1.0 - lam, out=new_v2c)
            new_v2c = _normalize_pairs(np.add(mixed, new_v2c, out=new_v2c), pairs)
        new_c2v = _c2v_update(graph, new_v2c, new_c2v, work)
        if lam > 0.0:
            np.multiply(c2v, lam, out=mixed)
            np.multiply(new_c2v, 1.0 - lam, out=new_c2v)
            new_c2v = _saturate(np.add(mixed, new_c2v, out=new_c2v))
        iterations += 1
        delta = 0.0
        if E:
            # the old messages are dropped after this: the differences go
            # in their place, and max |d| is max(-min d, max d)
            dv = np.subtract(new_v2c, v2c, out=v2c)
            dc = np.subtract(new_c2v, c2v, out=c2v)
            delta = max(
                max(-float(dv.min()), float(dv.max())), max(-float(dc.min()), float(dc.max()))
            )
        v2c, c2v, new_v2c, new_c2v = new_v2c, new_c2v, v2c, c2v
        if delta < config.convergence_eps:
            converged = True
            break
    return BpState(v2c, c2v, converged, iterations)


def _variable_log_beliefs(state: BpState, graph: FactorGraph) -> np.ndarray:
    """(n, 2) normalized log beliefs ln b_i(x) from the clause-to-variable
    messages: b_i(x) is proportional to exp of the sum of incoming c2v
    messages for value x; isolated variables get ln 0.5 for both values."""
    sums = graph.var_sum(state.c2v)
    return sums - logaddexp(sums[:, 0], sums[:, 1])[:, None]


def bp_marginals(state: BpState, graph: FactorGraph) -> np.ndarray:
    """Variable beliefs b_i(1); see :func:`_variable_log_beliefs`."""
    return np.exp(_variable_log_beliefs(state, graph)[:, 1])


def bethe_ln_z(state: BpState, graph: FactorGraph) -> float:
    """Bethe estimate of ln Z, -sum_a sum_x b_a ln b_a + sum_i (|N(i)|-1)
    sum_x b_i ln b_i, with factor beliefs b_a the normalized products of each
    clause's incoming v2c messages m over its satisfying assignments. Exact
    on trees.

    A clause's entropy takes O(L), without enumerating its 2^L - 1 rows.
    Its satisfying set splits by the first satisfied literal j, whose rows
    carry P_j = prod_{i<j} q_i(u) * q_j(s), where q(u) and q(s) are a
    literal's dissatisfying and satisfying message; the later literals are
    free and add h_k = sum_x m_k ln m_k each. With M = max_j ln P_j and
    w_j = exp(ln P_j - M), the entropy is
    ln sum w - sum_j w_j (ln P_j - M + sum_{k>j} h_k) / sum w.

    The prefix and suffix sums are shifted cumulative sums, not a total
    minus self, which a ``LOG_ZERO`` term would absorb. Normalizing by the
    max-shifted sum w, not by 1 - prod q(u), keeps the limit of the least
    impossible rows where messages are saturated: a clause whose literals
    are all surely dissatisfied has entropy ln L. Unit clauses have one row
    and add 0.
    """
    v2c = state.v2c
    entropy = 0.0
    for unsat in graph._unsat_blocks:  # (L, clauses) each
        lu, ln_p = np.take(v2c, unsat), np.take(v2c, unsat ^ 1)
        h = np.exp(lu) * lu + np.exp(ln_p) * ln_p
        later = np.zeros_like(h)
        later[:-1] = np.cumsum(h[:0:-1], axis=0)[::-1]
        ln_p[1:] += np.cumsum(lu[:-1], axis=0)
        ln_p -= ln_p.max(axis=0)
        w = np.exp(ln_p)
        total = w.sum(axis=0)
        entropy += float(np.sum(np.log(total) - np.sum(w * (ln_p + later), axis=0) / total))
    lbv = _variable_log_beliefs(state, graph)
    return entropy + float(np.sum(bethe_var_terms(graph, lbv)))
