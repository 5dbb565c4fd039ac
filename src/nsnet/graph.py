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
maps, so a backward pass calls them on the gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cnf import CnfFormula

DEFAULT_FACTOR_ENUM_CAP = 10


@dataclass(frozen=True)
class EnumPlan:
    """Flat index arrays enumerating the satisfying assignments per clause.

    Row r is one satisfying assignment of one clause. Flat element f says
    that slot ``(flat_slot[f], flat_value[f])`` participates in row
    ``flat_row[f]``. Each row's flat elements are one contiguous run and
    every clause has at least one row, so sums are ``np.add.reduceat``.
    """

    num_rows: int
    row_clause: np.ndarray  # (R,)  clause index of each row
    row_start: np.ndarray  # (m+1,) rows of clause a are row_start[a]:row_start[a+1]
    flat_row: np.ndarray  # (F,)
    flat_slot: np.ndarray  # (F,)  incidence index
    flat_value: np.ndarray  # (F,)  value of that variable in the row
    row_flat_start: np.ndarray  # (R,) first flat element of each row

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        """(R, ...) sums of (E, 2, ...) slot values ``x`` over each row."""
        return np.add.reduceat(x[self.flat_slot, self.flat_value], self.row_flat_start, axis=0)

    def scatter_rows(self, g: np.ndarray, num_incidences: int) -> np.ndarray:
        """Adjoint of :meth:`row_sums`: per slot, the sum of ``g`` over its rows."""
        out = np.zeros((num_incidences, 2) + g.shape[1:], dtype=g.dtype)
        np.add.at(out, (self.flat_slot, self.flat_value), np.take(g, self.flat_row, axis=0))
        return out

    def clause_sums(self, rows: np.ndarray) -> np.ndarray:
        """(m,) sums of per-row values over each clause."""
        return np.add.reduceat(rows, self.row_start[:-1])

    def log_normalize(self, rows: np.ndarray) -> np.ndarray:
        """Per-row log values minus their log-sum-exp over the clause."""
        zmax = np.maximum.reduceat(rows, self.row_start[:-1])
        shifted = rows - np.take(zmax, self.row_clause)
        return shifted - np.take(np.log(self.clause_sums(np.exp(shifted))), self.row_clause)


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
    _enum_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def num_incidences(self) -> int:
        return len(self.inc_var)

    @property
    def unsat_value(self) -> np.ndarray:
        return 1 - self.sat_value

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
        """Per clause length L >= 2, the (L, clauses) incidence ids."""
        lens = self.clause_len
        starts = self.clause_start[:-1]
        return [starts[lens == L] + np.arange(L)[:, None] for L in np.unique(lens[lens > 1])]

    def var_sum(self, x: np.ndarray) -> np.ndarray:
        """(n, ...) sums of the per-incidence rows of ``x`` per variable."""
        present, starts = self._var_runs
        out = np.zeros((self.num_vars,) + x.shape[1:], dtype=x.dtype)
        out[present] = np.add.reduceat(np.take(x, self.var_incidences, axis=0), starts, axis=0)
        return out

    def var_others_sum(self, x: np.ndarray) -> np.ndarray:
        """Per incidence, the sum of ``x`` over its variable's other incidences."""
        return np.take(self.var_sum(x), self.inc_var, axis=0) - x

    def clause_others_sum(self, x: np.ndarray) -> np.ndarray:
        """Per incidence, the sum of ``x`` over its clause's other incidences."""
        out = np.zeros_like(x)
        for slots in self._clause_blocks:
            others = 1 - np.eye(len(slots), dtype=x.dtype)
            block = np.take(x, slots, axis=0)
            out[slots] = (others @ block.reshape(len(slots), -1)).reshape(block.shape)
        return out

    def satisfying_enumeration(self, cap: int = DEFAULT_FACTOR_ENUM_CAP) -> EnumPlan:
        """Enumeration plan over satisfying clause assignments.

        For a clause of length L the 2^L - 1 satisfying assignments are
        listed in increasing order of the value code (bit j = value of the
        clause's j-th literal position), skipping the one all-dissatisfying
        code. Raises on clauses longer than ``cap`` (2^L blowup guard).
        """
        if cap in self._enum_cache:
            return self._enum_cache[cap]
        lens = self.clause_len
        if len(lens) and int(lens.max()) > cap:
            raise ValueError(
                f"clause length {int(lens.max())} exceeds enumeration cap {cap}"
            )
        # rows are listed clause by clause, the flat entries of a row position
        # by position; the k-th satisfying code of a clause is k, or k + 1 from
        # its all-dissatisfying code on
        num_codes = (np.int64(1) << lens) - 1
        row_start = np.concatenate(([0], np.cumsum(num_codes)))
        row_clause = np.repeat(np.arange(self.num_clauses), num_codes)
        row_len = lens[row_clause]
        row_flat_start = np.cumsum(row_len) - row_len
        flat_row = np.repeat(np.arange(len(row_clause)), row_len)
        flat_clause = np.repeat(row_clause, row_len)
        bit = np.arange(len(flat_row)) - np.repeat(row_flat_start, row_len)
        position = np.arange(self.num_incidences) - self.clause_start[self.inc_clause]
        unsat_code = np.bincount(
            self.inc_clause, self.unsat_value << position, self.num_clauses
        ).astype(np.int64)
        code = flat_row - row_start[flat_clause]
        code += code >= unsat_code[flat_clause]
        plan = EnumPlan(
            num_rows=len(row_clause),
            row_clause=row_clause,
            row_start=row_start,
            flat_row=flat_row,
            flat_slot=self.clause_start[flat_clause] + bit,
            flat_value=(code >> bit) & 1,
            row_flat_start=row_flat_start,
        )
        self._enum_cache[cap] = plan
        return plan

    def dump_edges(self) -> str:
        """Debug text dump, one line per value slot: `var value clause sat|unsat`.

        Variables and clauses are 1-based here, matching DIMACS numbering.
        """
        lines = []
        for e in range(self.num_incidences):
            for value in (0, 1):
                tag = "sat" if value == self.sat_value[e] else "unsat"
                lines.append(
                    f"{self.inc_var[e] + 1} {value} {self.inc_clause[e] + 1} {tag}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def build_factor_graph(formula: CnfFormula) -> FactorGraph:
    """Build the bipartite encoding; the formula must be normalized.

    Raises on duplicate variable occurrences within a clause, tautological
    clauses, and empty clauses (no factor-graph semantics for those).
    """
    inc_var: list[int] = []
    inc_clause: list[int] = []
    sat_value: list[int] = []
    clause_start = [0]
    for a, clause in enumerate(formula.clauses):
        if len(clause) == 0:
            raise ValueError("cannot build a factor graph from an empty clause")
        seen = set()
        for lit in clause:
            v = abs(lit)
            if v in seen:
                raise ValueError(
                    f"clause {a + 1} mentions variable {v} twice; normalize first"
                )
            seen.add(v)
            inc_var.append(v - 1)
            inc_clause.append(a)
            sat_value.append(1 if lit > 0 else 0)
        clause_start.append(len(inc_var))

    inc_var_arr = np.asarray(inc_var, dtype=np.int64)
    return FactorGraph(
        num_vars=formula.num_vars,
        num_clauses=formula.num_clauses,
        inc_var=inc_var_arr,
        inc_clause=np.asarray(inc_clause, dtype=np.int64),
        sat_value=np.asarray(sat_value, dtype=np.int64),
        clause_start=np.asarray(clause_start, dtype=np.int64),
        var_incidences=np.argsort(inc_var_arr, kind="stable"),
    )


def log1mexp(s: np.ndarray) -> np.ndarray:
    """ln(1 - exp(s)) for s < 0, exact to rounding also for s near 0, where
    ``log1p(-exp(s))`` loses the digits of s."""
    return np.log(-np.expm1(s))


def bethe_sum(
    graph: FactorGraph,
    plan: EnumPlan,
    lbf: np.ndarray,
    lbv: np.ndarray,
    var_inst: np.ndarray | None = None,
    clause_inst: np.ndarray | None = None,
    n_inst: int = 1,
) -> np.ndarray:
    """Bethe ln Z per instance from normalized log beliefs: the (R,) factor
    beliefs ``lbf`` over the plan's satisfying rows and the (n, 2) variable
    beliefs ``lbv``, as -sum b_a ln b_a + sum_i (|N(i)|-1) sum_x b_i ln b_i.
    ``var_inst``/``clause_inst`` map a disjoint union's variables and clauses
    to instances; without them the graph is one instance."""
    factor = -np.exp(lbf) * lbf
    var = (graph.var_degree - 1) * np.sum(np.exp(lbv) * lbv, axis=1)
    if var_inst is None:
        return np.array([np.sum(factor) + np.sum(var)])
    ln_z = np.zeros(n_inst, dtype=var.dtype)
    np.add.at(ln_z, np.take(clause_inst, plan.row_clause), factor)
    np.add.at(ln_z, var_inst, var)
    return ln_z
