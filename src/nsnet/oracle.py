"""Exact ground truth at desk scale: model enumeration, counting, marginals.

Two independent algorithms serve as mutual oracles: a brute-force
enumerator over the full assignment table and a DPLL-style backtracking
counter with unit propagation and free-variable multiplication. Counts are
arbitrary-precision integers; only ``ln_count`` is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula

ENUMERATION_VAR_LIMIT = 30
DEFAULT_NODE_BUDGET = 50_000_000
_CHUNK_BITS = 18


class BudgetExceededError(RuntimeError):
    """The configured DPLL node budget was exhausted."""


@dataclass(frozen=True)
class ExactResult:
    """Exact model count, its natural log, and optional exact marginals.

    ``ln_count`` is None when the count is zero; ``marginals`` holds b_i(1)
    per variable (index ``v - 1``) and is present only for satisfiable input.
    """

    model_count: int
    ln_count: float | None
    marginals: np.ndarray | None = None


def enumerate_models(
    formula: CnfFormula, limit: int | None = None
) -> list[tuple[int, ...]]:
    """All satisfying assignments in lexicographic order, truncated at limit.

    Lexicographic means tuple order on ``(x1, ..., xn)`` with 0 < 1. Brute
    force over the full table, evaluated in vectorized chunks; guarded to
    ``num_vars <= 30``.
    """
    n = formula.num_vars
    if n > ENUMERATION_VAR_LIMIT:
        raise ValueError(
            f"enumeration guard: {n} variables exceeds limit {ENUMERATION_VAR_LIMIT}"
        )
    if formula.has_empty_clause():
        return []
    if limit is not None and limit <= 0:
        return []

    models: list[tuple[int, ...]] = []
    # variable v's value is bit (n - v) of the code, so code order is
    # lexicographic order on the assignment tuple
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        ok = np.ones(len(codes), dtype=bool)
        for clause in formula.clauses:
            sat = np.zeros(len(codes), dtype=bool)
            for lit in clause:
                sat |= bits[:, abs(lit) - 1] == (1 if lit > 0 else 0)
            ok &= sat
            if not ok.any():
                break
        for row in bits[ok]:
            models.append(tuple(int(x) for x in row))
            if limit is not None and len(models) >= limit:
                return models
    return models


class _Dpll:
    """Backtracking search core shared by counting and decision.

    Clause state is maintained incrementally under a trail of assignments:
    ``sat_count[c]`` satisfied literals, ``unassigned[c]`` open literals.
    Newly-unit clauses are queued during assignment, so propagation never
    rescans the clause database.
    """

    def __init__(self, formula: CnfFormula, node_budget: int | None, want_sums: bool):
        self.n = formula.num_vars
        self.clauses = [tuple(c) for c in formula.clauses]
        self.budget = node_budget
        self.nodes = 0
        self.count = 0
        self.sums = [0] * (self.n + 1) if want_sums else None
        m = len(self.clauses)
        self.sat_count = [0] * m
        self.unassigned = [len(c) for c in self.clauses]
        self.assign = [-1] * (self.n + 1)
        self.occ: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occ[abs(lit)].append((ci, 1 if lit > 0 else -1))
        self.static_score = [len(o) for o in self.occ]

    def _set(self, var: int, val: int, new_units: list[int]) -> bool:
        """Assign var=val and update clause states; False on conflict."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"node budget {self.budget} exhausted after {self.nodes} assignments"
            )
        self.assign[var] = val
        ok = True
        sat_count = self.sat_count
        unassigned = self.unassigned
        for ci, sign in self.occ[var]:
            if (sign > 0) == (val == 1):
                sat_count[ci] += 1
            else:
                unassigned[ci] -= 1
                if sat_count[ci] == 0:
                    if unassigned[ci] == 0:
                        ok = False
                    elif unassigned[ci] == 1:
                        new_units.append(ci)
        return ok

    def _unset(self, var: int):
        val = self.assign[var]
        self.assign[var] = -1
        for ci, sign in self.occ[var]:
            if (sign > 0) == (val == 1):
                self.sat_count[ci] -= 1
            else:
                self.unassigned[ci] += 1

    def _propagate(self, queue: list[int], trail: list[int]) -> bool:
        """Fix variables forced by queued unit clauses; False on conflict."""
        while queue:
            ci = queue.pop()
            if self.sat_count[ci] or self.unassigned[ci] != 1:
                continue
            for lit in self.clauses[ci]:
                var = abs(lit)
                if self.assign[var] == -1:
                    trail.append(var)
                    if not self._set(var, 1 if lit > 0 else 0, queue):
                        return False
                    break
        return True

    def _pick_branch_var(self) -> int:
        """Variable from a shortest active clause, ties by occurrence count.

        Returns 0 when no clause is active (a solution cube: every
        unassigned variable is free).
        """
        best_len = None
        best_ci = -1
        for ci, k in enumerate(self.unassigned):
            if self.sat_count[ci]:
                continue
            if best_len is None or k < best_len:
                best_len, best_ci = k, ci
                if k <= 2:
                    break
        if best_ci < 0:
            return 0
        best_var, best_score = 0, -1
        for lit in self.clauses[best_ci]:
            v = abs(lit)
            if self.assign[v] == -1 and self.static_score[v] > best_score:
                best_var, best_score = v, self.static_score[v]
        return best_var

    def _leaf(self, depth: int):
        free = self.n - depth
        block = 1 << free
        self.count += block
        if self.sums is not None:
            half = block >> 1
            assign = self.assign
            sums = self.sums
            for v in range(1, self.n + 1):
                if assign[v] == 1:
                    sums[v] += block
                elif assign[v] == -1:
                    sums[v] += half

    def _count_search(self, depth: int, queue: list[int]):
        trail: list[int] = []
        if self._propagate(queue, trail):
            d = depth + len(trail)
            var = self._pick_branch_var()
            if var == 0:
                self._leaf(d)
            else:
                for val in (1, 0):
                    sub_queue: list[int] = []
                    if self._set(var, val, sub_queue):
                        self._count_search(d + 1, sub_queue)
                    self._unset(var)
        for var in reversed(trail):
            self._unset(var)

    def _decide_search(self, queue: list[int]) -> bool:
        trail: list[int] = []
        found = False
        if self._propagate(queue, trail):
            var = self._pick_branch_var()
            if var == 0:
                found = True
            else:
                for val in (1, 0):
                    sub_queue: list[int] = []
                    ok = self._set(var, val, sub_queue)
                    if ok and self._decide_search(sub_queue):
                        found = True
                    self._unset(var)
                    if found:
                        break
        for var in reversed(trail):
            self._unset(var)
        return found

    def _initial_queue(self) -> list[int]:
        return [ci for ci, c in enumerate(self.clauses) if len(c) == 1]

    def run_count(self) -> tuple[int, list[int] | None]:
        if any(len(c) == 0 for c in self.clauses):
            return 0, self.sums
        self._count_search(0, self._initial_queue())
        return self.count, self.sums

    def run_decide(self) -> bool:
        if any(len(c) == 0 for c in self.clauses):
            return False
        return self._decide_search(self._initial_queue())


def exact_count(
    formula: CnfFormula, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Exact model count by DPLL backtracking with unit propagation.

    Independent of :func:`enumerate_models`; the two must agree wherever both
    apply. Raises :class:`BudgetExceededError` when the node budget runs out.
    """
    count, _ = _Dpll(formula, node_budget, want_sums=False).run_count()
    ln = float(math.log(count)) if count > 0 else None
    return ExactResult(count, ln)


def exact_marginals(
    formula: CnfFormula, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> np.ndarray:
    """Exact marginals b_i(1) over the uniform distribution on models.

    Computed in one DPLL counting pass that also accumulates, per variable,
    the number of models where the variable is 1. Raises ``ValueError`` on
    unsatisfiable input (marginals are undefined there).
    """
    count, sums = _Dpll(formula, node_budget, want_sums=True).run_count()
    if count == 0:
        raise ValueError("marginals are undefined for an unsatisfiable formula")
    assert sums is not None

    def ratio(s: int) -> float:
        # evaluate the smaller side of the pair and derive the other from it,
        # so negating a variable swaps b(1) and b(0) bitwise exactly
        if 2 * s <= count:
            return s / count
        return 1.0 - (count - s) / count

    return np.array([ratio(sums[v]) for v in range(1, formula.num_vars + 1)])


def satisfiable(formula: CnfFormula, node_budget: int | None = None) -> bool:
    """Complete satisfiability decision (DPLL with unit propagation)."""
    return _Dpll(formula, node_budget, want_sums=False).run_decide()
