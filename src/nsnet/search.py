"""Stochastic local search: WalkSAT started from rounded marginals.

The SLS core is WalkSAT with break counts: pick a random unsatisfied
clause; with probability ``noise`` flip a random variable from it, else
flip one minimizing the number of clauses broken (ties uniform). The first
try starts exactly from the supplied assignment (for example rounded
marginals); later tries re-randomize by flipping each bit of it with
probability 1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cnf import CnfFormula


@dataclass(frozen=True)
class SlsConfig:
    max_tries: int = 100
    max_flips: int | None = None  # None means 100 * num_vars
    noise: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.max_tries < 1:
            raise ValueError("max_tries must be >= 1")
        if self.max_flips is not None and self.max_flips < 0:
            raise ValueError("max_flips must be >= 0")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise must be in [0, 1]")


@dataclass(frozen=True)
class SlsResult:
    """A WalkSAT run: the model when ``solved``, the tries it took (or
    ``max_tries``), and the flips over all of them."""

    solved: bool
    assignment: tuple[int, ...] | None
    tries_used: int
    flips_total: int


def round_marginals(marginals: np.ndarray) -> tuple[int, ...]:
    """Round b_i(1) to an assignment; exactly 0.5 rounds to 1. Raises on a
    value that is not a probability (NaN, infinite, or outside [0, 1])."""
    bad = np.flatnonzero(np.clip(marginals, 0, 1) != marginals)  # NaN != NaN
    if len(bad):
        raise ValueError(f"marginal of variable {bad[0] + 1} is {marginals[bad[0]]}, not in [0, 1]")
    return tuple(int(b >= 0.5) for b in marginals)


class _WalkSatState:
    """Incremental clause bookkeeping for WalkSAT.

    ``sat_count[c]`` is the number of currently-true literals of clause c;
    a variable's break count is the number of clauses where its literal is
    the single true one.
    """

    def __init__(self, formula: CnfFormula, assignment: list[int]):
        self.clauses = formula.clauses
        self.assign = assignment
        self.occ: list[list[tuple[int, int]]] = [
            [] for _ in range(formula.num_vars + 1)
        ]
        for ci, clause in enumerate(self.clauses):
            for lit in clause:
                self.occ[abs(lit)].append((ci, 1 if lit > 0 else 0))
        self.sat_count = [0] * len(self.clauses)
        self.unsat: list[int] = []
        self.unsat_pos = [-1] * len(self.clauses)
        for ci, clause in enumerate(self.clauses):
            cnt = 0
            for lit in clause:
                if assignment[abs(lit) - 1] == (1 if lit > 0 else 0):
                    cnt += 1
            self.sat_count[ci] = cnt
            if cnt == 0:
                self.unsat_pos[ci] = len(self.unsat)
                self.unsat.append(ci)

    def break_count(self, var: int) -> int:
        val = self.assign[var - 1]
        cnt = 0
        for ci, want in self.occ[var]:
            if val == want and self.sat_count[ci] == 1:
                cnt += 1
        return cnt

    def flip(self, var: int):
        old = self.assign[var - 1]
        self.assign[var - 1] = 1 - old
        sat_count = self.sat_count
        for ci, want in self.occ[var]:
            if want == old:  # literal was true, becomes false
                sat_count[ci] -= 1
                if sat_count[ci] == 0:
                    self.unsat_pos[ci] = len(self.unsat)
                    self.unsat.append(ci)
            else:  # literal becomes true
                sat_count[ci] += 1
                if sat_count[ci] == 1:
                    pos = self.unsat_pos[ci]
                    last = self.unsat[-1]
                    self.unsat[pos] = last
                    self.unsat_pos[last] = pos
                    self.unsat.pop()
                    self.unsat_pos[ci] = -1


def sls_solve(
    formula: CnfFormula,
    config: SlsConfig = SlsConfig(),
    initial: Sequence[int] | None = None,
) -> SlsResult:
    """WalkSAT over up to ``max_tries`` restarts.

    ``initial`` supplies the guided first-try assignment; without it every
    try starts uniformly at random. Not finding a model is a result, not an
    error.
    """
    n = formula.num_vars
    if formula.num_clauses == 0:
        a = tuple(initial) if initial is not None else (0,) * n
        return SlsResult(True, a, 0, 0)
    if formula.has_empty_clause():
        return SlsResult(False, None, config.max_tries, 0)
    max_flips = config.max_flips if config.max_flips is not None else 100 * n
    rng = random.Random(config.seed)

    flips_total = 0
    for try_i in range(1, config.max_tries + 1):
        if initial is None:
            assign = [rng.randrange(2) for _ in range(n)]
        elif try_i == 1:
            assign = list(initial)
        else:
            assign = [b ^ (rng.random() < 0.5) for b in initial]
        state = _WalkSatState(formula, assign)
        flips_this = 0
        while state.unsat and flips_this < max_flips:
            clause = formula.clauses[state.unsat[rng.randrange(len(state.unsat))]]
            if rng.random() < config.noise:
                var = abs(clause[rng.randrange(len(clause))])
            else:
                breaks = [(state.break_count(abs(lit)), abs(lit)) for lit in clause]
                best = min(b for b, _ in breaks)
                candidates = [v for b, v in breaks if b == best]
                var = candidates[rng.randrange(len(candidates))]
            state.flip(var)
            flips_this += 1
            flips_total += 1
        if not state.unsat:
            return SlsResult(True, tuple(assign), try_i, flips_total)
    return SlsResult(False, None, config.max_tries, flips_total)

