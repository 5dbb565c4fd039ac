"""Exact ground truth at desk scale: counting, marginals and decisions.

A DPLL-style backtracking counter with unit propagation and free-variable
multiplication; the test suite holds it to brute-force enumeration over the
full assignment table. Counting, marginals and the satisfiability decision
run one search; a decision stops it at the first model. Counts are
arbitrary-precision integers; only ``ln_count`` is floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cnf import CnfFormula

DEFAULT_NODE_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """The configured DPLL node budget was exhausted."""


@dataclass(frozen=True)
class ExactResult:
    """Exact model count and its natural log; ``ln_count`` is None when the
    count is zero. Exact marginals come from :func:`exact_marginals`."""

    model_count: int
    ln_count: float | None


class _Dpll:
    """Backtracking search that counts models and, with ``first_model``,
    stops at the first one.

    The search ends a branch at a solution cube, where no clause is open and
    every unassigned variable is free; the count adds 2^free per cube. A
    decision is the same search cut off at its first cube, whose assignment
    (-1 for free variables) is the model.

    Clause state is maintained incrementally under a trail of assignments:
    ``sat_count[c]`` satisfied literals, ``unassigned[c]`` open literals.
    Newly-unit clauses are queued during assignment, so propagation never
    rescans the clause database.
    """

    def __init__(
        self,
        formula: CnfFormula,
        node_budget: int | None,
        want_sums: bool = False,
        first_model: bool = False,
    ):
        self.n = formula.num_vars
        self.clauses = [tuple(c) for c in formula.clauses]
        self.budget = node_budget
        self.nodes = 0
        self.count = 0
        self.sums = [0] * (self.n + 1) if want_sums else None
        self.first_model = first_model
        self.model: list[int] | None = None  # with first_model, once found
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

    def _leaf(self, depth: int) -> bool:
        """Count the solution cube reached at ``depth`` assigned variables;
        True when the search stops at its first model, which it records."""
        block = 1 << (self.n - depth)
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
        if self.first_model:
            self.model = self.assign[1:]
        return self.first_model

    def _search(self, depth: int, queue: list[int]) -> bool:
        """Propagate ``queue``, then branch 1 before 0 on an open variable;
        True once a leaf stops the search."""
        trail: list[int] = []
        stop = False
        if self._propagate(queue, trail):
            d = depth + len(trail)
            var = self._pick_branch_var()
            if var == 0:
                stop = self._leaf(d)
            else:
                for val in (1, 0):
                    sub_queue: list[int] = []
                    if self._set(var, val, sub_queue):
                        stop = self._search(d + 1, sub_queue)
                    self._unset(var)
                    if stop:
                        break
        for var in reversed(trail):
            self._unset(var)
        return stop

    def run(self) -> _Dpll:
        if all(self.clauses):  # an empty clause has no model
            self._search(0, [ci for ci, c in enumerate(self.clauses) if len(c) == 1])
        return self


def exact_count(
    formula: CnfFormula, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Exact model count by DPLL backtracking with unit propagation.

    Raises :class:`BudgetExceededError` when the node budget runs out.
    """
    count = _Dpll(formula, node_budget).run().count
    ln = float(math.log(count)) if count > 0 else None
    return ExactResult(count, ln)


def exact_marginals(formula: CnfFormula) -> np.ndarray:
    """Exact marginals b_i(1) over the uniform distribution on models.

    Computed in one DPLL counting pass that also accumulates, per variable,
    the number of models where the variable is 1, within
    ``DEFAULT_NODE_BUDGET`` nodes. Raises ``ValueError`` on unsatisfiable
    input (marginals are undefined there).
    """
    dpll = _Dpll(formula, DEFAULT_NODE_BUDGET, want_sums=True).run()
    count, sums = dpll.count, dpll.sums
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


def find_model(formula: CnfFormula) -> list[int] | None:
    """A model by DPLL with unit propagation, or None when there is none:
    the counting search, stopped at its first solution cube, with no node
    budget.

    Entry ``v - 1`` is variable v's value, 0 or 1, or -1 when the model
    leaves v free: every clause is satisfied by an assigned variable.
    """
    return _Dpll(formula, None, first_model=True).run().model


def satisfiable(formula: CnfFormula) -> bool:
    """Complete satisfiability decision (DPLL with unit propagation)."""
    return find_model(formula) is not None
