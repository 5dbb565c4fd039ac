"""Reproducible synthetic SAT instance generators.

Three distributions at desk scale: random 3-SAT at the phase-transition
clause ratio, NeuroSAT's SR(n) (satisfiable member of each pair, clause
length capped), and a community-attachment (CA) pseudo-industrial
generator.

Randomness comes from numpy's counter-based Philox generator keyed directly
by the instance seed, so every formula is a pure function of (config, seed).
Per-instance seeds for a corpus are derived from the master seed by the
documented mixing rule in :func:`derive_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .cnf import Clause, CnfFormula

DISTRIBUTIONS = ("random3sat", "sr", "ca")

# longest clause gen_sr draws
SR_MAX_CLAUSE_LEN = 4

# gen_ca's inclusive ranges of the community count and of the modularity Q
CA_COMMUNITIES = (3, 10)
CA_MODULARITY = (0.7, 0.9)

# golden-ratio increment, the splitmix64 stream constant
_SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Per-instance seed: master + (index+1) * golden-ratio constant, mod 2^64."""
    return (master_seed + (index + 1) * _SEED_MIX) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; a range of ``num_vars`` is an inclusive (lo, hi)
    pair. The CA distribution draws its communities and modularity from
    ``CA_COMMUNITIES`` and ``CA_MODULARITY``."""

    distribution: str = "random3sat"
    num_vars: int | tuple[int, int] = 20
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        lo, hi = self.var_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad num_vars range ({lo}, {hi})")

    @property
    def var_range(self) -> tuple[int, int]:
        if isinstance(self.num_vars, int):
            return (self.num_vars, self.num_vars)
        return self.num_vars


def clause_count_3sat(n: int) -> int:
    """Phase-transition clause count 4.258*n + 58.26*n^(-2/3), rounded.

    Round-to-nearest with ties away from zero (the value is always positive,
    so ties round up).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return int(math.floor(4.258 * n + 58.26 * n ** (-2.0 / 3.0) + 0.5))


def _random_clause(rng: np.random.Generator, n: int, k: int) -> Clause:
    """k distinct variables drawn uniformly, each negated with prob 1/2."""
    variables = rng.choice(n, size=k, replace=False) + 1
    signs = rng.integers(0, 2, size=k)
    return tuple(int(v) if s else -int(v) for v, s in zip(variables, signs))


def gen_random_3sat(n: int, seed: int) -> CnfFormula:
    """Random 3-SAT at the phase-transition ratio; not filtered for SAT."""
    if n < 3:
        raise ValueError("random 3-SAT needs n >= 3")
    rng = make_rng(seed)
    m = clause_count_3sat(n)
    return CnfFormula(n, tuple(_random_clause(rng, n, 3) for _ in range(m)))


def gen_sr(n: int, seed: int) -> CnfFormula:
    """The satisfiable member of an SR(n) pair (NeuroSAT, Selsam et al.).

    Random clauses are added until the formula becomes unsatisfiable. Each
    clause has k = 1 + Bernoulli(0.7) + Geo(0.4) distinct variables, where
    Geo counts trials up to the first success and so starts at 1, making
    k >= 2. Unlike SR, k is truncated to ``SR_MAX_CLAUSE_LEN`` and to n; the
    cap bounds the 2^k enumeration of the counting readout. Every model of
    the clauses before the last falsifies all literals of the last one, so
    negating one of its literals, drawn uniformly, gives a satisfiable
    formula that differs from the unsatisfiable member in that literal.

    The solver runs only when a new clause is false under the model of the
    clauses before it; a free variable of that model may be set to satisfy it.
    """
    if n < 2:
        raise ValueError("SR generation needs n >= 2")
    rng = make_rng(seed)
    clauses: list[Clause] = []
    model = [-1] * n  # of the clauses so far; -1 is a free variable
    # ends with probability 1: any step may complete an unsatisfiable set
    # of 2-clauses
    while True:
        k = 1 + int(rng.random() < 0.7) + int(rng.geometric(0.4))
        clause = _random_clause(rng, n, min(k, SR_MAX_CLAUSE_LEN, n))
        clauses.append(clause)
        if _satisfy(model, clause):
            continue
        model = oracle.find_model(CnfFormula(n, tuple(clauses)))
        if model is None:
            break
    last = clauses[-1]
    j = int(rng.integers(len(last)))
    clauses[-1] = last[:j] + (-last[j],) + last[j + 1:]
    return CnfFormula(n, tuple(clauses))


def _satisfy(model: list[int], clause: Clause) -> bool:
    """Whether ``model`` satisfies ``clause``, once a free variable of the
    clause, if it has one and needs it, is set to make its literal true."""
    free = 0
    for lit in clause:
        value = model[abs(lit) - 1]
        if value == -1:
            free = free or lit
        elif value == (lit > 0):
            return True
    if free:
        model[abs(free) - 1] = int(free > 0)
    return bool(free)


def gen_ca(n: int, seed: int) -> CnfFormula:
    """Community-attachment 3-SAT: clauses are intra-community with
    probability Q, otherwise spread across three distinct communities.

    Variables are partitioned into near-equal contiguous communities. The
    community count is drawn from ``CA_COMMUNITIES``, capped at n // 3 so
    every community can host a 3-variable clause; Q is drawn uniformly from
    ``CA_MODULARITY``.
    """
    rng = make_rng(seed)
    clo, chi = CA_COMMUNITIES
    chi = min(chi, n // 3)
    if chi < clo:
        raise ValueError(
            f"fewer variables than communities support: n={n} cannot host "
            f">= {clo} communities of size 3"
        )
    c = int(rng.integers(clo, chi + 1))
    qlo, qhi = CA_MODULARITY
    q = qlo + (qhi - qlo) * float(rng.random())

    bounds = np.linspace(0, n, c + 1).astype(int)
    communities = [np.arange(bounds[j], bounds[j + 1]) + 1 for j in range(c)]

    clauses: list[Clause] = []
    for _ in range(clause_count_3sat(n)):
        if rng.random() < q:
            members = communities[int(rng.integers(c))]
            variables = rng.choice(members, size=3, replace=False)
        else:
            picked = rng.choice(c, size=3, replace=False)
            variables = np.array(
                [communities[j][int(rng.integers(len(communities[j])))] for j in picked]
            )
        signs = rng.integers(0, 2, size=3)
        clauses.append(
            tuple(int(v) if s else -int(v) for v, s in zip(variables, signs))
        )
    return CnfFormula(n, tuple(clauses))


def generate(config: GenConfig, index: int) -> CnfFormula:
    """Instance ``index`` of the corpus described by ``config``."""
    seed = derive_seed(config.seed, index)
    lo, hi = config.var_range
    if lo == hi:
        n = lo
    else:
        n = lo + int(make_rng(seed ^ _SEED_MIX).integers(hi - lo + 1))
    if config.distribution == "random3sat":
        return gen_random_3sat(n, seed)
    if config.distribution == "sr":
        return gen_sr(n, seed)
    return gen_ca(n, seed)

