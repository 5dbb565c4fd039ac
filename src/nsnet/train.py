"""Losses, exact gradients, Adam, dataset splits, and the training loop.

Gradients are exact reverse-mode derivatives through the unrolled message
passing (see ``net.backward``); central finite differences are the
correctness authority in the test suite. Batches are evaluated on a single
disjoint-union factor graph with per-instance segment indices, so the mean
batch loss and its gradient come out of one forward/backward pass.
"""

from __future__ import annotations

import logging
import math
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
    clip_norm: float = 0.65
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
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ValueError("learning_rate and clip_norm must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.T < 0 or self.d < 1:
            raise ValueError("bad batch_size/T/d")


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


def kl_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over variables of KL(truth || pred) for two-valued marginals.

    Inputs are b_i(1) arrays; 0 ln 0 = 0 on the truth side and prediction
    probabilities are floored at 1e-12 inside the logs.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError(f"variable sets differ: {pred.shape} vs {truth.shape}")
    if (truth < 0).any() or (truth > 1).any():
        raise ValueError("truth marginals must lie in [0, 1]")
    total = 0.0
    for t, p in ((truth, pred), (1.0 - truth, 1.0 - pred)):
        log_p = np.log(np.maximum(p, 1e-12))
        entropy = np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)
        total += float(np.sum(entropy - t * log_p))
    return total / len(pred)


def mse_lnz_loss(pred_ln_z: float, true_ln_z: float) -> float:
    if not (math.isfinite(pred_ln_z) and math.isfinite(true_ln_z)):
        raise ValueError("ln Z values must be finite")
    return (pred_ln_z - true_ln_z) ** 2


def _merge_graphs(
    graphs: list[FactorGraph],
) -> tuple[FactorGraph, np.ndarray, np.ndarray]:
    """Disjoint union of factor graphs plus per-variable / per-clause
    instance ids."""
    inc_var, inc_clause, sat_value, var_incidences = [], [], [], []
    clause_start = [np.zeros(1, dtype=np.int64)]
    var_inst, clause_inst = [], []
    n_off = m_off = e_off = 0
    for i, g in enumerate(graphs):
        inc_var.append(g.inc_var + n_off)
        inc_clause.append(g.inc_clause + m_off)
        sat_value.append(g.sat_value)
        clause_start.append(g.clause_start[1:] + e_off)
        var_incidences.append(g.var_incidences + e_off)
        var_inst.append(np.full(g.num_vars, i, dtype=np.int64))
        clause_inst.append(np.full(g.num_clauses, i, dtype=np.int64))
        n_off += g.num_vars
        m_off += g.num_clauses
        e_off += g.num_incidences
    merged = FactorGraph(
        num_vars=n_off,
        num_clauses=m_off,
        inc_var=np.concatenate(inc_var),
        inc_clause=np.concatenate(inc_clause),
        sat_value=np.concatenate(sat_value),
        clause_start=np.concatenate(clause_start),
        var_incidences=np.concatenate(var_incidences),
    )
    return merged, np.concatenate(var_inst), np.concatenate(clause_inst)


def _batch_forward(
    batch: list[LabeledInstance],
    params: net.ModelParams,
    config: TrainConfig,
    keep_tape: bool = True,
):
    graphs = [inst.factor_graph() for inst in batch]
    want_count = config.task == "counting"
    merged, var_inst, clause_inst = _merge_graphs(graphs)
    tape = net._forward(
        merged, params, config.T, want_count=want_count,
        factor_cap=config.factor_cap, var_inst=var_inst, clause_inst=clause_inst,
        keep_tape=keep_tape,
    )
    return tape, var_inst


def _batch_loss_parts(batch, tape, var_inst, config):
    """Per-instance losses plus the loss gradient w.r.t. the model outputs."""
    B = len(batch)
    if config.task == "marginals":
        truth = np.concatenate([inst.marginals for inst in batch])
        sizes = np.array([inst.formula.num_vars for inst in batch], dtype=float)
        lbv = tape.lbv
        t = np.stack([1.0 - truth, truth], axis=1)  # value order (0, 1)
        log_p = np.maximum(lbv, LOG_PRED_FLOOR)
        entropy = np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)
        per_var = np.sum(entropy - t * log_p, axis=1)
        per_inst = np.zeros(B)
        np.add.at(per_inst, var_inst, per_var)
        per_inst /= sizes
        weight = 1.0 / (sizes[var_inst] * B)
        dlbv = -t * (lbv > LOG_PRED_FLOOR) * weight[:, None]
        return per_inst, dlbv, None
    truth = np.array([inst.ln_count for inst in batch], dtype=float)
    per_inst = (tape.ln_z - truth) ** 2
    dlnz = 2.0 * (tape.ln_z - truth) / B
    return per_inst, None, dlnz


def batch_loss(
    batch: list[LabeledInstance], params: net.ModelParams, config: TrainConfig
) -> float:
    """Mean loss of a batch (no gradients).

    Runs the forward without a tape, as ``net.forward`` does: the MLPs'
    hidden layers reuse two buffers across the T iterations, and the value
    is the one :func:`grad` reports for the same batch.
    """
    tape, var_inst = _batch_forward(batch, params, config, keep_tape=False)
    per_inst, _, _ = _batch_loss_parts(batch, tape, var_inst, config)
    return float(per_inst.mean())


def grad(
    batch: list[LabeledInstance], params: net.ModelParams, config: TrainConfig
) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the mean batch loss for every parameter array."""
    tape, var_inst = _batch_forward(batch, params, config)
    per_inst, dlbv, dlnz = _batch_loss_parts(batch, tape, var_inst, config)
    bad = np.flatnonzero(~np.isfinite(per_inst))
    if len(bad):
        raise NonFiniteLossError(int(bad[0]))
    grads = net.backward(
        tape, params, dlbv=dlbv, dlnz=dlnz if dlnz is not None else 0.0
    )
    return grads, float(per_inst.mean())


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
    grads = clip_global_norm(grads, config.clip_norm)
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


def evaluate_loss(
    instances: list[LabeledInstance], params: net.ModelParams, config: TrainConfig
) -> float:
    """Mean per-instance loss over a dataset, evaluated in batches."""
    if not instances:
        return math.nan
    total = 0.0
    for i in range(0, len(instances), config.batch_size):
        chunk = instances[i: i + config.batch_size]
        total += batch_loss(chunk, params, config) * len(chunk)
    return total / len(instances)


def train_loop(
    train: list[LabeledInstance],
    val: list[LabeledInstance],
    config: TrainConfig,
    params: net.ModelParams | None = None,
) -> tuple[net.ModelParams, list[tuple[int, float, float]]]:
    """Epochs of shuffled mini-batches; returns the best-validation
    checkpoint (final parameters when there is no validation set).

    History rows are (epoch, train_loss, val_loss); val_loss is NaN without
    a validation set. A non-finite training loss aborts the loop and the
    last good parameters are returned. Deterministic for a fixed config and
    seed.
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
                return (best_params if val else params), history
            params, state = adam_step(params, grads, state, config)
            epoch_loss += loss * len(batch)
            seen += len(batch)
            steps += 1
            if config.max_steps is not None and steps >= config.max_steps:
                stop = True
                break
        train_loss = epoch_loss / max(seen, 1)
        val_loss = evaluate_loss(val, params, config) if val else math.nan
        history.append((epoch, train_loss, val_loss))
        if val and val_loss < best_val:
            best_val = val_loss
            best_params = params
        if stop:
            break
    if not history:
        return params, history
    return (best_params if val else params), history
