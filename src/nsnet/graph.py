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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnf import CnfFormula

DEFAULT_FACTOR_ENUM_CAP = 10


@dataclass(frozen=True)
class EnumPlan:
    """Flat index arrays enumerating the satisfying assignments per clause.

    Row r is one satisfying assignment of one clause. Flat element f says
    that slot ``(flat_slot[f], flat_value[f])`` participates in row
    ``flat_row[f]``, so a per-row sum is one scatter-add over the flat
    arrays.
    """

    num_rows: int
    row_clause: np.ndarray  # (R,)  clause index of each row
    row_start: np.ndarray  # (m+1,) rows of clause a are row_start[a]:row_start[a+1]
    flat_row: np.ndarray  # (F,)
    flat_slot: np.ndarray  # (F,)  incidence index
    flat_value: np.ndarray  # (F,)  value of that variable in the row


@dataclass(frozen=True)
class FactorGraph:
    """Flat incidence arrays plus per-variable and per-clause adjacency."""

    num_vars: int
    num_clauses: int
    inc_var: np.ndarray  # (E,) 0-based variable index per incidence
    inc_clause: np.ndarray  # (E,) 0-based clause index per incidence
    sat_value: np.ndarray  # (E,) value in {0,1} that satisfies the clause
    clause_start: np.ndarray  # (m+1,) incidences of clause a are start[a]:start[a+1]
    var_incidences: tuple[np.ndarray, ...]  # per variable, its incidence ids
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
        flat_row = np.repeat(np.arange(len(row_clause)), row_len)
        flat_clause = np.repeat(row_clause, row_len)
        bit = np.arange(len(flat_row)) - np.repeat(np.cumsum(row_len) - row_len, row_len)
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
    by_var = np.argsort(inc_var_arr, kind="stable")
    counts = np.bincount(inc_var_arr, minlength=formula.num_vars)
    var_incidences = tuple(np.split(by_var, np.cumsum(counts)[:-1]))
    return FactorGraph(
        num_vars=formula.num_vars,
        num_clauses=formula.num_clauses,
        inc_var=inc_var_arr,
        inc_clause=np.asarray(inc_clause, dtype=np.int64),
        sat_value=np.asarray(sat_value, dtype=np.int64),
        clause_start=np.asarray(clause_start, dtype=np.int64),
        var_incidences=var_incidences,
    )
