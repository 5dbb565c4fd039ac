"""The benchmark's workloads: set-up, one timed operation, and the checks.

Each workload builds its inputs with :mod:`reference` from the workload seed
and hands only those inputs to ``nsnet``'s public functions. Every call into
the library sits in a span named after its layer (see :mod:`tracing`).
A set-up pass builds every input from scratch, from one of several draws
of the seed, so set-up can be timed over several passes. An operation's time covers its library calls only; its
checks run after the clock stops.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nsnet import (
    BpConfig,
    CnfFormula,
    SlsConfig,
    bethe_ln_z,
    bp_marginals,
    bp_reduction_params,
    bp_run,
    build_factor_graph,
    exact_count,
    forward,
    init_params,
    round_marginals,
    satisfiable,
    sls_solve,
    train,
)

import reference as ref
from tracing import NullTracer

LENGTHS = (2, 3, 4, 5)
PARAMS_SEED = 0  # NSNet weights are init_params(d, PARAMS_SEED)
NULL = NullTracer()


class OpFailed(RuntimeError):
    """The library returned without error but did not do the operation."""


def split_lengths(m: int, lengths=LENGTHS) -> dict[int, int]:
    """``m`` clauses spread as evenly as possible over ``lengths``."""
    q, r = divmod(m, len(lengths))
    return {L: q + (1 if i < r else 0) for i, L in enumerate(lengths)}


def rng_for(seed: int, tag: int, part: int, draw: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, tag, part, draw])


def formula(n: int, clauses) -> CnfFormula:
    return CnfFormula(n, tuple(clauses))


class Workload:
    name = ""
    instances_per_op = 1
    # set-up passes per run, each on its own draw of inputs; the reported
    # set-up time is their median, so it rests less on one draw's formulas
    setup_passes = 5

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.errors: list[str] = []

    def warm_up(self) -> None:
        """Pay imports and first-call costs on a small input, untimed."""

    def setup_pass(self, tracer, draw: int) -> None:
        """Build every input of ``draw``, replacing any earlier pass's. Draw 0
        holds the workload's inputs; the others only time set-up on inputs
        of the same make-up."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Checks on the set-up's outputs; run after set-up is timed."""

    @property
    def ops_per_round(self) -> int:
        raise NotImplementedError

    def probe(self, k: int, tracer) -> None:
        """Extra calls a traced run makes before operation ``k``, untimed."""

    def op(self, k: int, tracer):
        """Operation ``k`` of a round; returns (seconds, result)."""
        raise NotImplementedError

    def check_op(self, k: int, result) -> None:
        pass

    def final_checks(self) -> None:
        """Checks that need the library outside the timed phase."""

    def fail(self, message: str) -> None:
        self.errors.append(f"{self.name}: {message}")


# ------------------------------------------------------------ sat_nsnet_sls


@dataclass(frozen=True)
class SatSizes:
    num_vars: int = 100
    instances: int = 40
    d: int = 16
    T: int = 10


class SatNsnetSls(Workload):
    """Random 3-SAT below the phase transition, kept when the DPLL oracle finds
    it satisfiable; NSNet marginals, rounded, seed WalkSAT under fixed seeds."""

    name = "sat_nsnet_sls"
    TAG = 1
    # below the transition: nearer it, WalkSAT's and DPLL's heavy tails make
    # a workload seed's figures depend on a few of its formulas
    CLAUSE_RATIO = 3.7
    SLS_SEEDS = 3  # WalkSAT seeds 0 .. SLS_SEEDS - 1 per formula
    # a pass takes 0.3 to 1.3 s, most of it DPLL, whose time varies widely
    # from one draw to the next
    setup_passes = 7

    def __init__(self, cfg: SatSizes, seed: int):
        super().__init__(cfg, seed)
        self.instances: list[tuple[list, CnfFormula]] = []
        self.params = init_params(cfg.d, PARAMS_SEED)

    @property
    def ops_per_round(self) -> int:
        return len(self.instances)

    def warm_up(self) -> None:
        n, clauses = ref.random_ksat(rng_for(0, self.TAG, 10**6), 20, {3: 60})
        f = formula(n, clauses)
        satisfiable(f)
        out = forward(build_factor_graph(f), self.params, self.cfg.T, with_count=False)
        sls_solve(f, SlsConfig(max_tries=1), round_marginals(out.marginals))

    def setup_pass(self, tracer, draw: int) -> None:
        cfg = self.cfg
        m = round(self.CLAUSE_RATIO * cfg.num_vars)
        self.instances = []
        for part in range(cfg.instances):
            rng = rng_for(self.seed, self.TAG, part, draw)
            while True:
                n, clauses = ref.random_ksat(rng, cfg.num_vars, {3: m})
                f = formula(n, clauses)
                with tracer.span("oracle.sat"):
                    sat = satisfiable(f)
                if sat:
                    self.instances.append((clauses, f))
                    break

    def op(self, k: int, tracer):
        _, f = self.instances[k]
        cfg = self.cfg
        results = []
        t0 = _now()
        with tracer.span("graph.build", k):
            graph = build_factor_graph(f)
        with tracer.span("net.forward", k):
            out = forward(graph, self.params, cfg.T, with_count=False)
        with tracer.span("search.round", k):
            start = round_marginals(out.marginals)
        for s in range(self.SLS_SEEDS):
            with tracer.span("search.sls", k) as sp:
                r = sls_solve(f, SlsConfig(seed=s), start)
                sp.count("flips", r.flips_total)
            results.append(r)
        seconds = _now() - t0
        unsolved = [s for s, r in enumerate(results) if not r.solved]
        if unsolved:
            raise OpFailed(f"instance {k}: WalkSAT did not solve it under seeds {unsolved}")
        return seconds, (out.marginals, results)

    def check_op(self, k: int, result) -> None:
        marginals, results = result
        clauses = self.instances[k][0]
        if not (np.all(np.isfinite(marginals)) and np.all((marginals >= 0) & (marginals <= 1))):
            self.fail(f"instance {k}: marginals outside [0, 1]")
        for s, r in enumerate(results):
            if not ref.satisfies(clauses, r.assignment):
                self.fail(f"instance {k}, seed {s}: returned assignment violates a clause")


# ----------------------------------------------------------------- count_bp


@dataclass(frozen=True)
class CountSizes:
    num_vars: int = 5000
    clauses_per_length: int = 3000
    instances: int = 8
    canaries: int = 8


class CountBp(Workload):
    """Large mixed-length formulas without unit clauses; ln Z from the Bethe
    free energy of 10 BP iterations."""

    name = "count_bp"
    TAG = 2
    REL_TOL = 1e-9
    BP_ITERS = 10
    CANARY_VARS = (12, 20)
    CANARY_MAX_ITERS = 200

    def __init__(self, cfg: CountSizes, seed: int):
        super().__init__(cfg, seed)
        self.instances: list[CnfFormula] = []
        # ln Z and marginals of each formula's latest operation; graphs are
        # not kept, so the peak memory is the pipeline's, not the benchmark's
        self.last: dict[int, tuple] = {}

    @property
    def ops_per_round(self) -> int:
        return len(self.instances)

    def _count(self, f: CnfFormula, tracer, k: int | None):
        with tracer.span("graph.build", k):
            graph = build_factor_graph(f)
        with tracer.span("graph.enum_plan", k):
            graph.satisfying_enumeration()
        with tracer.span("bp.run", k) as sp:
            state = bp_run(graph, BpConfig(max_iters=self.BP_ITERS))
            sp.count("iterations", state.iterations_run)
        with tracer.span("bp.bethe", k):
            ln_z = bethe_ln_z(state, graph)
        with tracer.span("bp.marginals", k):
            marginals = bp_marginals(state, graph)
        return graph, state, ln_z, marginals

    def warm_up(self) -> None:
        n, clauses = ref.random_ksat(rng_for(0, self.TAG, 10**6), 50, split_lengths(100))
        self._count(formula(n, clauses), NULL, None)

    def setup_pass(self, tracer, draw: int) -> None:
        cfg = self.cfg
        per = {L: cfg.clauses_per_length for L in LENGTHS}
        self.instances = [
            formula(*ref.random_ksat(rng_for(self.seed, self.TAG, part, draw), cfg.num_vars, per))
            for part in range(cfg.instances)
        ]

    def op(self, k: int, tracer):
        t0 = _now()
        result = self._count(self.instances[k], tracer, k)
        return _now() - t0, result

    def check_op(self, k: int, result) -> None:
        graph, state, ln_z, marginals = result
        if not math.isfinite(ln_z):
            self.fail(f"instance {k}: ln Z = {ln_z}")
        pair_mass = np.logaddexp(state.v2c[:, 0], state.v2c[:, 1])
        if not np.all(np.abs(pair_mass) <= 1e-9):
            self.fail(f"instance {k}: a v2c pair is off normalisation by {np.abs(pair_mass).max():.3g}")
        if not (np.all(np.isfinite(marginals)) and np.all((marginals >= 0) & (marginals <= 1))):
            self.fail(f"instance {k}: marginals outside [0, 1]")
        self.last[k] = (ln_z, marginals)

    def final_checks(self) -> None:
        # NSNet in its BP-reduction configuration is BP: same ln Z, same marginals
        params = bp_reduction_params()
        for k, (ln_z, marginals) in sorted(self.last.items()):
            graph = build_factor_graph(self.instances[k])
            out = forward(graph, params, self.BP_ITERS, with_count=True)
            if not _close(out.ln_z, ln_z, self.REL_TOL):
                self.fail(f"instance {k}: reduction ln Z {out.ln_z!r} != BP ln Z {ln_z!r}")
            if not _marginals_close(out.marginals, marginals, self.REL_TOL):
                self.fail(f"instance {k}: reduction marginals differ from BP's")
        # BP is exact on trees: converged Bethe ln Z is the log of the model count
        rng = rng_for(self.seed, self.TAG, 10**6)
        lo, hi = self.CANARY_VARS
        for c in range(self.cfg.canaries):
            n, clauses = ref.forest_formula(rng, int(rng.integers(lo, hi + 1)))
            count = ref.brute_force_count(n, clauses)
            graph = build_factor_graph(formula(n, clauses))
            state = bp_run(graph, BpConfig(max_iters=self.CANARY_MAX_ITERS))
            ln_z = bethe_ln_z(state, graph)
            if not state.converged:
                self.fail(f"canary {c}: BP did not converge on a forest")
            elif not _close(ln_z, math.log(count), self.REL_TOL):
                self.fail(f"canary {c}: Bethe ln Z {ln_z!r} != ln {count}")


# -------------------------------------------------------------- train_count


@dataclass(frozen=True)
class TrainSizes:
    min_vars: int = 16
    max_vars: int = 40
    instances: int = 64
    batch_size: int = 16
    d: int = 16
    T: int = 10

    def sizes(self) -> list[int]:
        """Variable counts of one batch; every batch holds each once."""
        lo, hi, b = self.min_vars, self.max_vars, self.batch_size
        return [lo + (hi - lo) * j // max(b - 1, 1) for j in range(b)]


class TrainCount(Workload):
    """Small mixed-length formulas labelled with exact model counts; one
    operation is one Adam step on the ln Z regression loss."""

    name = "train_count"
    TAG = 3
    CLAUSE_RATIO = 3.0
    # gradient check: finite-difference steps, tried in turn, and the
    # tolerance FD_REL_TOL * |analytic| + FD_NORM_TOL * |gradient|
    FD_STEPS = (1e-6, 1e-7, 1e-8)
    FD_REL_TOL = 1e-3
    FD_NORM_TOL = 1e-6

    def __init__(self, cfg: TrainSizes, seed: int):
        super().__init__(cfg, seed)
        self.config = train.TrainConfig(task="counting", d=cfg.d, T=cfg.T, batch_size=cfg.batch_size)
        self.batches: list[list[train.LabeledInstance]] = []
        self.counts: list[tuple[int, list, int]] = []
        self.params = init_params(cfg.d, PARAMS_SEED)
        self.state = train.OptimizerState.initial(self.params)

    @property
    def instances_per_op(self) -> int:
        return self.cfg.batch_size

    @property
    def ops_per_round(self) -> int:
        return len(self.batches)

    def warm_up(self) -> None:
        rng = rng_for(0, self.TAG, 10**6)
        batch = []
        for n in (6, 8):
            f = formula(*ref.random_ksat(rng, n, split_lengths(8)))
            count = exact_count(f)
            batch.append(train.LabeledInstance(f, ln_count=count.ln_count))
        params = init_params(self.cfg.d, PARAMS_SEED)
        grads, _ = train.grad(batch, params, self.config)
        train.adam_step(params, grads, train.OptimizerState.initial(params), self.config)
        train.batch_loss(batch, params, self.config)

    def setup_pass(self, tracer, draw: int) -> None:
        cfg = self.cfg
        self.batches, self.counts = [], []
        batch: list[train.LabeledInstance] = []
        for part in range(cfg.instances):
            rng = rng_for(self.seed, self.TAG, part, draw)
            n = cfg.sizes()[part % cfg.batch_size]
            per = split_lengths(round(self.CLAUSE_RATIO * n))
            while True:
                _, clauses = ref.random_ksat(rng, n, per)
                f = formula(n, clauses)
                with tracer.span("oracle.count"):
                    count = exact_count(f)
                if count.model_count > 0:
                    break
            inst = train.LabeledInstance(f, ln_count=count.ln_count)
            with tracer.span("graph.build"):
                graph = inst.factor_graph()
            with tracer.span("graph.enum_plan"):
                graph.satisfying_enumeration(self.config.factor_cap)
            batch.append(inst)
            self.counts.append((n, clauses, count.model_count))
            if len(batch) == cfg.batch_size:
                self.batches.append(batch)
                batch = []

    def check_setup(self) -> None:
        small = [(n, c, k) for n, c, k in self.counts if n <= ref.BRUTE_FORCE_VAR_LIMIT]
        if not small:
            self.fail("no instance is small enough for the brute-force count")
        for n, clauses, count in small:
            brute = ref.brute_force_count(n, clauses)
            if brute != count:
                self.fail(f"exact_count {count} != brute-force count {brute} (n = {n})")

    def probe(self, k: int, tracer) -> None:
        with tracer.span("train.loss", k):
            train.batch_loss(self.batches[k], self.params, self.config)

    def op(self, k: int, tracer):
        t0 = _now()
        with tracer.span("train.grad", k):
            grads, loss = train.grad(self.batches[k], self.params, self.config)
        with tracer.span("train.adam", k):
            self.params, self.state = train.adam_step(self.params, grads, self.state, self.config)
        return _now() - t0, loss

    def check_op(self, k: int, loss) -> None:
        if not math.isfinite(loss):
            self.fail(f"step on batch {k}: loss {loss}")

    def final_checks(self) -> None:
        # the gradient's directional derivative along a random unit direction
        # against finite differences of the loss; the gradient-norm term
        # covers directions nearly orthogonal to the gradient
        batch, params = self.batches[0], self.params
        grads, _ = train.grad(batch, params, self.config)
        g_norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        rng = rng_for(self.seed, self.TAG, 10**6)
        direction = {name: rng.standard_normal(a.shape) for name, a in params.param_items()}
        norm = math.sqrt(sum(float(np.sum(u * u)) for u in direction.values()))
        analytic = sum(float(np.sum(grads[k] * u)) for k, u in direction.items()) / norm

        def loss_at(h: float) -> float:
            p = params.copy()
            for name, a in p.param_items():
                a += (h / norm) * direction[name]
            return train.batch_loss(batch, p, self.config)

        # The MLPs' ReLUs make the loss piecewise smooth. A kink within the
        # step on one side spoils that side's difference and the central one,
        # so the check passes when the central or either one-sided difference
        # agrees, at one of the steps.
        tol = self.FD_REL_TOL * abs(analytic) + self.FD_NORM_TOL * g_norm
        at_zero = loss_at(0.0)
        tried = []
        for eps in self.FD_STEPS:
            up, down = loss_at(eps), loss_at(-eps)
            diffs = ((up - down) / (2 * eps), (up - at_zero) / eps, (at_zero - down) / eps)
            if any(abs(analytic - d) <= tol for d in diffs):
                return
            tried.append(diffs)
        self.fail(
            f"directional derivative {analytic!r} matches no central, forward or backward"
            f" difference {tried!r} (gradient norm {g_norm!r})"
        )


# ----------------------------------------------------------------------------


_now = time.perf_counter


def _close(a, b, rel: float) -> bool:
    """Equal to ``rel`` relative, measured against max(1, |a|, |b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all((a == b) | (np.abs(a - b) <= rel * scale)))


def _marginals_close(a: np.ndarray, b: np.ndarray, rel: float) -> bool:
    """b(1) and b(0) = 1 - b(1) both equal to ``rel`` relative. Near 1 a
    marginal only carries float64's resolution there, so one unit in the
    last place of 1 is allowed on top."""
    small = np.maximum(np.minimum(a, 1.0 - a), np.minimum(b, 1.0 - b))
    return bool(np.all(np.abs(a - b) <= rel * small + np.finfo(float).eps))


FULL = {
    "sat_nsnet_sls": (SatNsnetSls, SatSizes()),
    "count_bp": (CountBp, CountSizes()),
    "train_count": (TrainCount, TrainSizes()),
}

TINY = {
    "sat_nsnet_sls": (SatNsnetSls, SatSizes(num_vars=30, instances=4, d=4, T=3)),
    "count_bp": (CountBp, CountSizes(num_vars=300, clauses_per_length=150, instances=2, canaries=3)),
    "train_count": (
        TrainCount,
        TrainSizes(min_vars=8, max_vars=18, instances=8, batch_size=4, d=4, T=3),
    ),
}
