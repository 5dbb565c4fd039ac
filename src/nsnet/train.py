"""Losses, exact gradients, Adam, dataset splits, and the training loop.

Gradients are exact reverse-mode derivatives through the unrolled message
passing (see ``net.backward``); central finite differences are the
correctness authority in the test suite. A batch's loss is the mean of its
formulas' losses, so its gradient is the sum of each formula's own backward
pass. A step runs each formula's forward and backward on the factor graph
and enumeration plan that formula caches, and builds no graph of the batch.
The formulas run on a thread pool, one thread per core the process may run
on (at most one per formula), and the results are added in batch order, so
a step holds one tape per thread and gives what one thread gives, bit for
bit.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import net
from .cnf import CnfFormula
from .graph import DEFAULT_FACTOR_ENUM_CAP, FactorGraph, build_factor_graph

log = logging.getLogger(__name__)

LOG_PRED_FLOOR = math.log(1e-12)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# global L2 norm the gradient is clipped to before each Adam step
CLIP_NORM = 0.65

TASKS = ("marginals", "counting")


class NonFiniteLossError(RuntimeError):
    """A batch produced a non-finite loss; carries the offending instance."""

    def __init__(self, instance_index: int):
        super().__init__(f"non-finite loss on instance {instance_index}")
        self.instance_index = instance_index


@dataclass(frozen=True)
class TrainConfig:
    task: str = "marginals"
    learning_rate: float = 1e-4
    weight_decay: float = 1e-10
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0
    T: int = 10
    d: int = 16
    hidden: int = net.DEFAULT_HIDDEN
    factor_cap: int = DEFAULT_FACTOR_ENUM_CAP
    max_steps: int | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.T < 0 or self.d < 1:
            raise ValueError("bad batch_size/T/d")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class LabeledInstance:
    """A formula with its ground-truth label for one of the two tasks."""

    formula: CnfFormula
    marginals: np.ndarray | None = None  # b_i(1) per variable
    ln_count: float | None = None
    _graph: FactorGraph | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.marginals is not None:
            m = np.asarray(self.marginals, dtype=float)
            if m.shape != (self.formula.num_vars,):
                raise ValueError("marginal label length does not match num_vars")
            if (m < 0).any() or (m > 1).any():
                raise ValueError("marginal labels must lie in [0, 1]")
            self.marginals = m

    def factor_graph(self) -> FactorGraph:
        if self._graph is None:
            self._graph = build_factor_graph(self.formula)
        return self._graph


def _tape(
    inst: LabeledInstance, params: net.ModelParams, config: TrainConfig, keep_tape: bool
) -> net._Tape:
    """The model's forward on one formula, with the readouts the task reads."""
    return net._forward(
        inst.factor_graph(), params, config.T, want_count=config.task == "counting",
        factor_cap=config.factor_cap, keep_tape=keep_tape,
    )


def _loss(inst: LabeledInstance, tape: net._Tape, config: TrainConfig) -> tuple:
    """One formula's loss and its gradient w.r.t. the model output the task
    reads. Marginals: the mean over variables of KL(truth || prediction) for
    two-valued marginals, with 0 ln 0 = 0 on the truth side and predicted
    probabilities floored at 1e-12 inside the logs (no gradient below the
    floor); the gradient is w.r.t. the (n, 2) variable log beliefs.
    Counting: the squared error of the ln Z estimate and its derivative."""
    if config.task == "marginals":
        n = inst.formula.num_vars
        t = np.stack([1.0 - inst.marginals, inst.marginals], axis=1)  # value order (0, 1)
        log_p = np.maximum(tape.lbv, LOG_PRED_FLOOR)
        entropy = np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)
        return np.sum(entropy - t * log_p) / n, -t * (tape.lbv > LOG_PRED_FLOOR) / n
    diff = tape.ln_z - np.float64(inst.ln_count)
    return diff ** 2, 2.0 * diff


def _workers(count: int) -> int:
    """Threads for a batch of ``count`` formulas: one per core this process
    may run on, at most one per formula."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(count, cores)


def _each_formula(batch: list[LabeledInstance], run):
    """``run(i)`` for every index i of ``batch``, yielded in index order.

    The formulas run on a thread pool of ``_workers(len(batch))`` threads
    while the calling thread takes the results in turn, so a result is held
    only until every earlier one has been taken. Every graph is built here
    first, so no two threads build or cache one formula's graph, even when
    the batch holds an instance twice. The first failure in index order is
    raised, as one thread would raise it, and the formulas not yet started
    are cancelled; the pool's threads are joined before this returns or
    raises. ``concurrent.futures`` is imported here, so that importing
    nsnet does not load it.
    """
    if not batch:
        raise ValueError("empty batch: a mean loss needs at least one formula")
    for inst in batch:
        try:
            inst.factor_graph()
        except ValueError:
            pass  # nothing is cached; raised again, in batch order, when its formula runs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_workers(len(batch))) as pool:
        yield from pool.map(run, range(len(batch)))


def batch_loss(
    batch: list[LabeledInstance], params: net.ModelParams, config: TrainConfig
) -> float:
    """Mean loss of a non-empty batch (no gradients).

    Runs each formula's forward without a tape, as ``net.forward`` does, on
    the thread pool of a step (see the module docstring), and gives the
    value :func:`grad` reports for the same batch: the losses are averaged
    in batch order.
    """
    run = lambda i: _loss(batch[i], _tape(batch[i], params, config, keep_tape=False), config)[0]
    return float(np.mean(list(_each_formula(batch, run))))


def grad(
    batch: list[LabeledInstance], params: net.ModelParams, config: TrainConfig
) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the mean loss of a non-empty batch for every
    parameter array: the sum over formulas of each one's backward pass, its
    output gradient divided by the batch size. A formula whose loss is not
    finite raises :class:`NonFiniteLossError` before its backward pass.

    The formulas run on the thread pool of a step (see the module
    docstring), each worker holding one formula's tape at a time; their
    gradients and losses are added in batch order, so the sums are the ones
    one thread would make, bit for bit, and an error is the lowest-index
    formula's.
    """
    grads = net.zero_grads(params)
    losses = []

    def run(i: int) -> tuple[dict[str, np.ndarray], float]:
        inst = batch[i]
        tape = _tape(inst, params, config, keep_tape=True)
        loss, d_output = _loss(inst, tape, config)
        if not np.isfinite(loss):
            raise NonFiniteLossError(i)
        d_output = d_output / len(batch)
        if config.task == "marginals":
            return net.backward(tape, params, dlbv=d_output), loss
        return net.backward(tape, params, dlnz=d_output), loss

    for inst_grads, loss in _each_formula(batch, run):
        for name, g in inst_grads.items():
            grads[name] += g
        losses.append(loss)
    return grads, float(np.mean(losses))


@dataclass
class OptimizerState:
    """Adam moments, shapes mirroring the parameter arrays."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @staticmethod
    def initial(params: net.ModelParams) -> "OptimizerState":
        return OptimizerState(
            0,
            {k: np.zeros_like(a) for k, a in params.param_items()},
            {k: np.zeros_like(a) for k, a in params.param_items()},
        )


def _global_sq_norm(grads: dict[str, np.ndarray]) -> float:
    with np.errstate(over="ignore"):
        return sum(float(np.sum(g * g)) for g in grads.values())


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so the global L2 norm is at most ``max_norm``.

    The global norm must be finite; :func:`adam_step` skips a step whose
    gradient norm is not, before it clips.
    """
    total = math.sqrt(_global_sq_norm(grads))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def adam_step(
    params: net.ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: TrainConfig,
) -> tuple[net.ModelParams, OptimizerState]:
    """One Adam update after global-norm clipping, with L2 weight decay
    (lambda * w added to the clipped gradient).

    A gradient with a non-finite global norm skips the step: ``params`` and
    ``state`` come back unchanged (the same objects, step count included),
    with a warning naming the step. Moment decay and weight decay would
    otherwise still move the weights on a zeroed gradient.
    """
    t = state.step + 1
    if not math.isfinite(_global_sq_norm(grads)):
        log.warning("non-finite gradient norm at step %s; step skipped", t)
        return params, state
    grads = clip_global_norm(grads, CLIP_NORM)
    new_params = params.copy()
    arrays = dict(new_params.param_items())
    new_m, new_v = {}, {}
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    wd = config.weight_decay
    for name, w in arrays.items():
        g = grads[name]
        if wd:
            g = g + wd * w
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        new_m[name] = m
        new_v[name] = v
        step = config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        w -= step
    return new_params, OptimizerState(t, new_m, new_v)


def split_dataset(instances: list, ratios: tuple[float, float, float], seed: int):
    """Deterministic shuffled split into (train, val, test)."""
    if not instances:
        raise ValueError("cannot split an empty dataset")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios {ratios} do not sum to 1")
    order = np.random.default_rng(seed).permutation(len(instances))
    b1 = round(ratios[0] * len(instances))
    b2 = round((ratios[0] + ratios[1]) * len(instances))
    pick = lambda idx: [instances[i] for i in idx]
    return pick(order[:b1]), pick(order[b1:b2]), pick(order[b2:])


def train_loop(
    train: list[LabeledInstance],
    val: list[LabeledInstance],
    config: TrainConfig,
    params: net.ModelParams | None = None,
) -> tuple[net.ModelParams, list[tuple[int, float, float]]]:
    """Epochs of shuffled mini-batches; returns the best-validation
    checkpoint (final parameters when there is no validation set).

    History rows are (epoch, train_loss, val_loss); val_loss is NaN without
    a validation set. A non-finite training loss aborts the loop: it
    returns the best-validation checkpoint, or, without a validation set or
    before the first epoch has ended, the last good parameters (those of
    the last step taken). Deterministic for a fixed config and seed.
    """
    for inst in train + val:
        if config.task == "marginals" and inst.marginals is None:
            raise ValueError("marginal task needs marginal labels")
        if config.task == "counting" and inst.ln_count is None:
            raise ValueError("counting task needs ln-count labels")
    if params is None:
        params = net.init_params(config.d, config.seed, config.hidden)
    state = OptimizerState.initial(params)
    rng = np.random.default_rng((config.seed, 0xD5))
    history: list[tuple[int, float, float]] = []
    best_params = params
    best_val = math.inf
    steps = 0
    stop = False
    for epoch in range(config.epochs):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, len(train), config.batch_size):
            batch = [train[i] for i in order[lo: lo + config.batch_size]]
            try:
                grads, loss = grad(batch, params, config)
            except NonFiniteLossError as exc:
                log.warning(
                    "non-finite loss on training instance %d at step %d; training stops",
                    order[lo + exc.instance_index], steps + 1,
                )
                return (best_params if val and history else params), history
            params, state = adam_step(params, grads, state, config)
            epoch_loss += loss * len(batch)
            seen += len(batch)
            steps += 1
            if config.max_steps is not None and steps >= config.max_steps:
                stop = True
                break
        train_loss = epoch_loss / max(seen, 1)
        val_loss = batch_loss(val, params, config) if val else math.nan
        history.append((epoch, train_loss, val_loss))
        if val and val_loss < best_val:
            best_val = val_loss
            best_params = params
        if stop:
            break
    return (best_params if val else params), history
