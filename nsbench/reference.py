"""Input generators and reference computations of the benchmark.

Nothing here imports ``nsnet``: the benchmark decides its inputs and checks
the program's outputs with code that shares no logic with the program. A
formula is a pair ``(num_vars, clauses)`` where each clause is a tuple of
non-zero DIMACS literals over variables ``1..num_vars``.
"""

from __future__ import annotations

import numpy as np

BRUTE_FORCE_VAR_LIMIT = 20


def distinct_rows(rng: np.random.Generator, num_rows: int, width: int, n: int) -> np.ndarray:
    """``num_rows`` rows of ``width`` distinct variables drawn from 1..n.

    Rows that repeat a variable are redrawn until none does, so every row is
    a uniform draw of ``width`` distinct variables in random order.
    """
    if width > n:
        raise ValueError(f"cannot draw {width} distinct variables from {n}")
    rows = rng.integers(1, n + 1, size=(num_rows, width))
    while True:
        s = np.sort(rows, axis=1)
        bad = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if len(bad) == 0:
            return rows
        rows[bad] = rng.integers(1, n + 1, size=(len(bad), width))


def random_ksat(
    rng: np.random.Generator, n: int, clauses_per_length: dict[int, int]
) -> tuple[int, list[tuple[int, ...]]]:
    """Uniform random CNF with a fixed number of clauses of each length.

    Each clause has distinct variables and independent fair signs. The
    clause order is shuffled, so lengths interleave.
    """
    clauses: list[tuple[int, ...]] = []
    for length, count in sorted(clauses_per_length.items()):
        if length < 1:
            raise ValueError("clause lengths must be positive")
        vs = distinct_rows(rng, count, length, n)
        signs = np.where(rng.integers(0, 2, size=(count, length)) == 1, 1, -1)
        clauses.extend(tuple(int(x) for x in row) for row in vs * signs)
    order = rng.permutation(len(clauses))
    return n, [clauses[i] for i in order]


def forest_formula(
    rng: np.random.Generator, n: int, min_len: int = 2, max_len: int = 4
) -> tuple[int, list[tuple[int, ...]]]:
    """A formula whose factor graph is a forest.

    Every clause takes fresh variables and at most one variable some earlier
    clause already holds, so no cycle can form; about one clause in four
    starts a new tree. There are no unit clauses. Variables the clauses do
    not reach stay free.
    """
    clauses: list[tuple[int, ...]] = []
    used: list[int] = []
    next_fresh = 1
    while True:
        length = int(rng.integers(min_len, max_len + 1))
        attach = bool(used) and rng.random() < 0.75
        need = length - 1 if attach else length
        if next_fresh + need - 1 > n:
            break
        vs = list(range(next_fresh, next_fresh + need))
        next_fresh += need
        if attach:
            vs.append(used[int(rng.integers(len(used)))])
        used.extend(vs)
        signs = rng.integers(0, 2, size=len(vs))
        clauses.append(tuple(v if s else -v for v, s in zip(vs, signs)))
    return n, clauses


def satisfies(clauses, assignment) -> bool:
    """True iff the 0/1 ``assignment`` (position v-1 is variable v) makes
    every clause true."""
    for clause in clauses:
        if not any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            return False
    return True


def brute_force_count(n: int, clauses) -> int:
    """Number of satisfying assignments, by testing all 2^n of them."""
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_VAR_LIMIT} variables")
    codes = np.arange(1 << n, dtype=np.uint32)
    value = [None] + [((codes >> (v - 1)) & 1).astype(bool) for v in range(1, n + 1)]
    ok = np.ones(1 << n, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            sat |= value[lit] if lit > 0 else ~value[-lit]
        ok &= sat
    return int(ok.sum())
