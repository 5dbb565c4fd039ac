"""Bipartite factor-graph encoding of CNF formulas.

Each variable contributes two assignment nodes (value 0 and value 1), each
clause one node. A literal occurrence is an *incidence*; every incidence
carries two value slots, of which exactly one is *satisfying* (the value
that agrees with the literal's polarity). Messages and edge embeddings are
stored as flat arrays indexed by (incidence, value), one array per
direction, so belief propagation and the neural model share the indexing.

Incidences are ordered clause by clause, literals in clause order, which
makes the layout deterministic and lets equivariance tests compare permuted
runs slot by slot.

Belief propagation and the neural model sum over incidences only through
the reductions here, so both run the same arithmetic. Variable-side sums
reduce each variable's run of the variable-major order ``var_incidences``
and keep the input dtype; the all-but-self sum is total minus self, whose
rounding is an ulp of the total. Clause-side sums feed ln(1 - exp(s))
(``log1mexp``), which magnifies an error of s near 0 by 1/|s|, so they
subtract nothing: each group of clauses of length L is multiplied by the
all-but-self matrix 1 - I_L. Both all-but-self sums are symmetric linear
maps, so a backward pass calls them on the gradients. Both also normalize
value pairs through one log-sum-exp, ``logaddexp``.

The clauses are grouped by length once per graph (``_clause_blocks``, unit
clauses included), and that one grouping carries every per-clause step: the
clause sums, BP's closed-form Bethe ln Z, and the neural model's factor
readout. The last two read each block's dissatisfying slots
(``_unsat_blocks``), one integer per incidence. The readout's 2^L - 1
satisfying rows per clause (``EnumPlan``) are one fixed 0/1 table per length
laid over those slots when the rows are used, so no row index is stored.

The message loops run every iteration through these reductions, so each
takes an optional ``out`` (and, where it needs scratch, ``work``) that the
caller allocates once per call and reuses; without them the reduction
allocates its own, with the same arithmetic. A temporary above glibc's mmap
threshold (128 KiB by default) is a fresh mapping that page-faults on first
touch, so a loop allocating its temporaries pays for every page of every
iteration. The gathers run ``np.take(..., out=..., mode="clip")``: with the
default ``mode="raise"`` numpy buffers the whole output, so ``out`` would
save nothing. Clipping skips the bounds check, so ``FactorGraph`` checks the
index arrays those gathers read once, when the graph is made.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cnf import CnfFormula

DEFAULT_FACTOR_ENUM_CAP = 10


def _row_pattern(L: int) -> np.ndarray:
    """(L, 2^L - 1) 0/1 table of a clause's satisfying rows: row k satisfies
    position j exactly when bit j of k + 1 is set, so no row dissatisfies
    every position and the last row satisfies all of them."""
    return (np.arange(1, 1 << L) >> np.arange(L)[:, None]) & 1


@dataclass(frozen=True)
class EnumPlan:
    """The satisfying assignments of every clause, built on the graph's
    clause blocks.

    Per block of c clauses of length L (``FactorGraph._clause_blocks``),
    ``unsat`` holds the (L, c) dissatisfying slots, the offset ``2e + x`` of
    (incidence e, value x) in a C-ordered (E, 2, ...) array, so the plan
    stores one integer per incidence. Each clause has K = 2^L - 1 rows, the
    columns of :func:`_row_pattern`: row k takes position j's satisfying
    slot, ``unsat[j] ^ 1``, where the pattern is 1 and its dissatisfying
    one where it is 0, so a row's slots are built from the table when they
    are used and never stored. Rows are ordered block by block, then clause
    by clause, then row by row, so each block's rows are a (c, K) run and
    every per-clause step is a reshape.
    """

    unsat: list[np.ndarray]

    @property
    def num_rows(self) -> int:
        return sum(u.shape[1] * ((1 << len(u)) - 1) for u in self.unsat)

    def _blocks(self, rows: np.ndarray) -> list[np.ndarray]:
        """Views of per-row values ``rows``, shaped (c, K, ...) per block."""
        ends = np.cumsum([u.shape[1] * ((1 << len(u)) - 1) for u in self.unsat], dtype=np.int64)
        return [b.reshape((u.shape[1], -1) + rows.shape[1:]) for u, b in zip(self.unsat, np.split(rows, ends))]

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """(R, ...) sums of (E, 2, ...) slot values ``x`` over each row. Each
        block gathers one position j at a time, the slots
        ``unsat[j] ^ pattern[j]`` of every row, and adds the positions in
        order, as a sum over the leading axis of all positions' gathers
        would, so at most one position's gather is held."""
        slots = x.reshape((-1,) + x.shape[2:])
        out = np.empty((self.num_rows,) + x.shape[2:], x.dtype)
        for u, block in zip(self.unsat, self._blocks(out)):
            pattern = _row_pattern(len(u))
            np.take(slots, u[0][:, None] ^ pattern[0], axis=0, out=block, mode="clip")
            for j in range(1, len(u)):
                block += np.take(slots, u[j][:, None] ^ pattern[j], axis=0)
        return out

    def scatter_rows(self, g: np.ndarray, num_incidences: int) -> np.ndarray:
        """Adjoint of :meth:`row_sums`: per slot, the sum of ``g`` over its
        rows. A satisfying slot takes its clause's rows through the pattern,
        the dissatisfying one through its complement; each slot is one
        position of one block, so plain assignment scatters."""
        out = np.zeros((2 * num_incidences,) + g.shape[1:], g.dtype)
        for u, block in zip(self.unsat, self._blocks(g)):
            sat = _row_pattern(len(u)).astype(g.dtype)
            out[u.T ^ 1] = np.einsum("jk,ck...->cj...", sat, block)
            out[u.T] = np.einsum("jk,ck...->cj...", 1 - sat, block)
        return out.reshape((num_incidences, 2) + g.shape[1:])

    def _per_clause(self, rows: np.ndarray, reduce) -> np.ndarray:
        """(R,) per row, ``reduce`` of ``rows`` over its clause's rows."""
        out = np.empty_like(rows)
        for block, o in zip(self._blocks(rows), self._blocks(out)):
            o[...] = reduce(block, axis=1, keepdims=True)
        return out

    def clause_sums(self, rows: np.ndarray) -> np.ndarray:
        """(R,) per row, the sum of ``rows`` over its clause's rows."""
        return self._per_clause(rows, np.sum)

    def log_normalize(self, rows: np.ndarray) -> np.ndarray:
        """Per-row log values minus their log-sum-exp over the clause."""
        shifted = rows - self._per_clause(rows, np.max)
        return shifted - np.log(self.clause_sums(np.exp(shifted)))


@dataclass(frozen=True)
class FactorGraph:
    """Flat incidence arrays plus per-variable and per-clause adjacency."""

    num_vars: int
    num_clauses: int
    inc_var: np.ndarray  # (E,) 0-based variable index per incidence
    inc_clause: np.ndarray  # (E,) 0-based clause index per incidence
    sat_value: np.ndarray  # (E,) value in {0,1} that satisfies the clause
    clause_start: np.ndarray  # (m+1,) incidences of clause a are start[a]:start[a+1]
    var_incidences: np.ndarray  # (E,) incidence ids, variable by variable

    def __post_init__(self):
        # the reductions gather with mode="clip", which does not check bounds:
        # a bad index must raise here, not read a clipped slot
        E = len(self.inc_var)
        for name, idx, bound in (
            ("inc_var", self.inc_var, self.num_vars),
            ("sat_value", self.sat_value, 2),
            ("var_incidences", self.var_incidences, E),
        ):
            if len(idx) != E or (E and not (idx.min() >= 0 and idx.max() < bound)):
                raise ValueError(f"{name} must hold {E} indices in [0, {bound})")
        start = self.clause_start
        if not (
            len(start) == self.num_clauses + 1
            and start[0] == 0
            and start[-1] == E
            and np.all(start[1:] >= start[:-1])
        ):
            raise ValueError(f"clause_start must rise from 0 to {E}")

    @property
    def num_incidences(self) -> int:
        return len(self.inc_var)

    @property
    def unsat_value(self) -> np.ndarray:
        return 1 - self.sat_value

    @cached_property
    def unsat_slot(self) -> np.ndarray:
        """(E,) offset ``2e + unsat_value[e]`` of each incidence's
        dissatisfying slot in a C-ordered (E, 2) array."""
        return 2 * np.arange(self.num_incidences) + self.unsat_value

    @property
    def clause_len(self) -> np.ndarray:
        return np.diff(self.clause_start)

    @property
    def var_degree(self) -> np.ndarray:
        return np.bincount(self.inc_var, minlength=self.num_vars)

    @cached_property
    def _var_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Variables with incidences, and where each one's run of
        ``var_incidences`` starts (``reduceat`` cannot sum an empty run)."""
        degree = self.var_degree
        present = np.flatnonzero(degree)
        return present, (np.cumsum(degree) - degree)[present]

    @cached_property
    def _clause_blocks(self) -> list[np.ndarray]:
        """Per clause length L, in increasing order, the (L, clauses)
        incidence ids of the clauses of that length; every incidence is in
        exactly one block."""
        lens = self.clause_len
        starts = self.clause_start[:-1]
        return [starts[lens == L] + np.arange(L)[:, None] for L in np.unique(lens)]

    @cached_property
    def _unsat_blocks(self) -> list[np.ndarray]:
        """Per block of ``_clause_blocks``, the (L, clauses) dissatisfying
        slots ``unsat_slot`` of its incidences."""
        return [np.take(self.unsat_slot, block) for block in self._clause_blocks]

    @cached_property
    def _clause_others(self) -> list[np.ndarray]:
        """Per block of ``_clause_blocks``, the all-but-self matrix 1 - I_L."""
        return [1 - np.eye(len(slots)) for slots in self._clause_blocks]

    def var_sum(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(n, ...) sums of the per-incidence rows of ``x`` per variable."""
        return self._var_run_sums(np.take(x, self.var_incidences, axis=0), out)

    def _var_run_sums(self, gathered: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(n, ...) sums of each variable's run of ``gathered``, the rows of an
        (E, ...) array in ``var_incidences`` order; a variable without
        incidences gets 0."""
        present, starts = self._var_runs
        if out is None:
            out = np.zeros((self.num_vars,) + gathered.shape[1:], dtype=gathered.dtype)
        elif len(present) < self.num_vars:
            out[...] = 0
        out[present] = np.add.reduceat(gathered, starts, axis=0)
        return out

    def var_others_sum(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per incidence, the sum of ``x`` over its variable's other incidences.
        ``out``, shaped like ``x`` and not overlapping it, takes the gathered
        rows before the result."""
        if out is None:
            out = np.empty_like(x)
        sums = self._var_run_sums(np.take(x, self.var_incidences, axis=0, out=out, mode="clip"))
        np.take(sums, self.inc_var, axis=0, out=out, mode="clip")
        return np.subtract(out, x, out=out)

    def clause_others_sum(
        self, x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Per incidence, the sum of ``x`` over its clause's other incidences.
        ``out`` is shaped like ``x``; ``work``, flat and of ``x``'s dtype,
        holds each group of clauses and its product, twice the largest
        group's elements (2 ``x.size`` always suffice)."""
        if out is None:
            out = np.empty_like(x)
        row = math.prod(x.shape[1:])
        if work is None:
            largest = max((slots.size for slots in self._clause_blocks), default=0)
            work = np.empty(2 * largest * row, x.dtype)
        for slots, others in zip(self._clause_blocks, self._clause_others):
            size = slots.size * row
            block = work[:size].reshape(slots.shape + x.shape[1:])
            np.take(x, slots, axis=0, out=block, mode="clip")
            prod = work[size: 2 * size].reshape(len(slots), -1)
            np.matmul(others.astype(x.dtype, copy=False), block.reshape(len(slots), -1), out=prod)
            out[slots] = prod.reshape(block.shape)
        return out

    def satisfying_enumeration(self, cap: int = DEFAULT_FACTOR_ENUM_CAP) -> EnumPlan:
        """Enumeration plan over satisfying clause assignments: a clause of
        length L has the 2^L - 1 rows of :func:`_row_pattern`, whatever its
        polarities. Raises on clauses longer than ``cap`` (2^L blowup
        guard), on every call: the plan does not depend on the cap and
        holds only the graph's per-block dissatisfying slots
        (``_unsat_blocks``), so every call that passes the guard returns one
        plan per graph.
        """
        lens = self.clause_len
        if len(lens) and int(lens.max()) > cap:
            raise ValueError(f"clause length {int(lens.max())} exceeds enumeration cap {cap}")
        return self._enum_plan

    @cached_property
    def _enum_plan(self) -> EnumPlan:
        return EnumPlan(self._unsat_blocks)


def build_factor_graph(formula: CnfFormula) -> FactorGraph:
    """Build the bipartite encoding; the formula must be normalized.

    Raises on duplicate variable occurrences within a clause, tautological
    clauses, and empty clauses (no factor-graph semantics for those).
    """
    n, m = formula.num_vars, formula.num_clauses
    lens = np.fromiter(map(len, formula.clauses), np.int64, m)
    if not lens.all():
        a = int(np.argmin(lens))
        raise ValueError(f"clause {a + 1} is empty; cannot build a factor graph from it")
    clause_start = np.concatenate(([0], np.cumsum(lens)))
    E = int(clause_start[-1])
    lits = np.fromiter(itertools.chain.from_iterable(formula.clauses), np.int64, E)
    inc_clause = np.repeat(np.arange(m), lens)
    inc_var = np.abs(lits) - 1
    # a repeated variable, in either polarity, is a repeated clause-variable key
    keys = np.sort(inc_clause * n + inc_var)
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        a, v = divmod(int(keys[repeated[0]]), n)
        raise ValueError(f"clause {a + 1} mentions variable {v + 1} twice; normalize first")
    return FactorGraph(
        num_vars=n,
        num_clauses=m,
        inc_var=inc_var,
        inc_clause=inc_clause,
        sat_value=(lits > 0).astype(np.int64),
        clause_start=clause_start,
        # incidences variable by variable, each variable's in increasing order
        var_incidences=np.sort(inc_var * E + np.arange(E)) % max(E, 1),
    )


def log1mexp(s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln(1 - exp(s)) for s < 0, exact to rounding also for s near 0, where
    ``log1p(-exp(s))`` loses the digits of s."""
    return np.log(np.negative(np.expm1(s, out=out), out=out), out=out)


def logaddexp(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """ln(exp(a) + exp(b)) as max(a, b) + log1p(exp(-|a - b|)), in the inputs'
    dtype. numpy's ``logaddexp`` runs a scalar loop; this runs whole-array
    ufuncs in place, into ``out``, with max(a, b) in ``work``; either is
    allocated when not given. Equal infinite inputs give NaN where
    ``np.logaddexp`` gives the infinity, so the inputs must not be both -inf
    or both +inf."""
    out = np.subtract(a, b, out=out)
    np.abs(out, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(a, b, out=work)
    return out


def bethe_var_terms(graph: FactorGraph, lbv: np.ndarray) -> np.ndarray:
    """(n,) variable terms (|N(i)|-1) sum_x b_i ln b_i of the Bethe ln Z from
    the (n, 2) normalized log beliefs ``lbv``."""
    # small ints convert to the beliefs' dtype exactly
    return (graph.var_degree - 1).astype(lbv.dtype) * np.sum(np.exp(lbv) * lbv, axis=1)


def bethe_sum(graph: FactorGraph, lbf: np.ndarray, lbv: np.ndarray) -> np.floating:
    """Bethe ln Z of the neural model's readouts, a scalar of their dtype,
    from normalized log beliefs: the (R,) factor beliefs ``lbf`` over the
    satisfying rows of an enumeration plan and the (n, 2) variable beliefs
    ``lbv``, as -sum b_a ln b_a + sum_i (|N(i)|-1) sum_x b_i ln b_i. The
    factor entropy is summed row by row, since the model's factor beliefs
    are an MLP of each row; belief propagation's factor beliefs are products
    of messages, and ``bp.bethe_ln_z`` sums their entropy in closed form
    without the plan."""
    return np.sum(-np.exp(lbf) * lbf) + np.sum(bethe_var_terms(graph, lbv))
