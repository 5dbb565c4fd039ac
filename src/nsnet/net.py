"""Neural message passing on the CNF factor graph.

One d-dimensional embedding per directed (incidence, value) slot. Each
iteration updates assignment-to-clause embeddings by summing the incoming
clause-to-assignment embeddings over all *other* clauses, feeding the result
through network A1, then combining each value's vector with its flipped
value's vector through A2. Clause-to-assignment embeddings are the
coordinatewise log-sum-exp over the satisfying completions of the clause,
fed through A3 -- the same aggregation pattern as belief propagation, which
is recovered exactly by :func:`bp_reduction_params`.

The satisfying-completion LSE is computed by a factorized identity instead
of enumeration: for a satisfying branch the product set is complete, so the
LSE decomposes into a per-variable sum of pair-LSEs; for a dissatisfying
branch the single all-dissatisfying completion is removed in log space,
ln(1 - exp(delta)) added to the complete set's LSE. The factorization is
exact per coordinate and reduces the cost from O(2^L) to O(L); tests hold
it to brute-force enumeration. Every sum over incidences, and the readouts'
per-clause normalization and Bethe sum, are the factor graph's shared
reductions (see :mod:`nsnet.graph`), the ones belief propagation runs.

Training and inference share one message loop. Training keeps a tape: each
iteration's embeddings and every MLP layer's input, T x 3 activation caches
of shape (2E, hidden) that the backward pass reads. Inference (:func:`forward`,
and ``train.batch_loss``) keeps no tape: every hidden layer of A1, A2 and A3
is written into one of two (2E, widest hidden) buffers, allocated once per
call and reused across the T iterations, so the activations an inference
call allocates do not grow with T. Both paths run the same arithmetic and
give bit-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DEFAULT_FACTOR_ENUM_CAP, EnumPlan, FactorGraph, bethe_sum, log1mexp

# dissatisfying branch of a unit clause: no satisfying completion exists;
# a constant floor plays the role of BP's log-zero at embedding scale
UNIT_FLOOR = -30.0

# clamp for ln(1 - exp(delta)); the clamped branch passes no gradient
DELTA_CLAMP = -1e-12

DEFAULT_HIDDEN = 64
N_HIDDEN_LAYERS = 3

PARAMS_FORMAT_VERSION = 1


class ParamsFormatError(ValueError):
    """Weight file is corrupted, has the wrong version, or bad shapes."""


class Mlp:
    """Fully-connected network: hidden layers with ReLU, affine output.

    Weights are (out, in) row-major; applied rowwise to (rows, in) inputs.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be equal-length, nonempty")
        for w, b in zip(weights, biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match {w.shape}")
        for prev, nxt in zip(weights, weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise ValueError("layer shapes do not chain")
        self.weights = weights
        self.biases = biases

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def apply(self, x: np.ndarray, scratch: tuple | None = None) -> np.ndarray:
        """Forward without a cache. With ``scratch``, two flat buffers of at
        least rows x widest hidden layer elements, hidden layer i is written
        into ``scratch[i % 2]`` instead of a fresh array; the arithmetic is
        :meth:`apply_cached`'s, and the output is always a fresh array."""
        if scratch is None:
            out, _ = self.apply_cached(x)
            return out
        rows = x.shape[0]
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            z = scratch[i % 2][: rows * w.shape[0]].reshape(rows, w.shape[0])
            np.matmul(x, w.T, out=z)
            z += b
            np.maximum(z, 0.0, out=z)
            x = z
        out = x @ self.weights[-1].T
        out += self.biases[-1]
        return out

    def apply_cached(self, x: np.ndarray):
        """Forward keeping per-layer inputs, for the hand-rolled backward."""
        cache = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = x @ w.T
            z += b
            np.maximum(z, 0.0, out=z)
            x = z
            cache.append(x)
        out = x @ self.weights[-1].T
        out += self.biases[-1]
        return out, cache

    def backward(self, dy: np.ndarray, cache: list[np.ndarray], grads, name: str):
        """Accumulate parameter grads into ``grads`` and return the input grad."""
        last = len(self.weights) - 1
        grads[f"{name}.w{last}"] += dy.T @ cache[last]
        grads[f"{name}.b{last}"] += dy.sum(axis=0)
        dx = dy @ self.weights[last]
        for layer in range(last - 1, -1, -1):
            dz = dx
            dz *= cache[layer + 1] > 0  # dx is a fresh intermediate here
            grads[f"{name}.w{layer}"] += dz.T @ cache[layer]
            grads[f"{name}.b{layer}"] += dz.sum(axis=0)
            dx = dz @ self.weights[layer]
        return dx


class Identity:
    """Exact identity map, used by the BP-reduction configuration."""

    def apply(self, x: np.ndarray, scratch=None) -> np.ndarray:
        return x

    def apply_cached(self, x: np.ndarray):
        return x, None


class PairNormalize:
    """Exact log-normalization a - log(exp(a) + exp(b)) over a (cur, flip)
    concatenated input; the BP-reduction form of the combine network."""

    def apply(self, x: np.ndarray, scratch=None) -> np.ndarray:
        d = x.shape[1] // 2
        return x[:, :d] - np.logaddexp(x[:, :d], x[:, d:])

    def apply_cached(self, x: np.ndarray):
        return self.apply(x), None


Net = Mlp | Identity | PairNormalize


@dataclass
class ModelParams:
    """Learnable state: initial edge vectors h1/h2 and the five networks."""

    d: int
    h1: np.ndarray
    h2: np.ndarray
    a1: Net
    a2: Net
    a3: Net
    r_var: Net
    r_fac: Net

    def nets(self) -> list[tuple[str, Net]]:
        return [
            ("a1", self.a1),
            ("a2", self.a2),
            ("a3", self.a3),
            ("r_var", self.r_var),
            ("r_fac", self.r_fac),
        ]

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All learnable arrays in a fixed, documented order."""
        items = [("h1", self.h1), ("h2", self.h2)]
        for name, net in self.nets():
            if isinstance(net, Mlp):
                for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                    items.append((f"{name}.w{i}", w))
                    items.append((f"{name}.b{i}", b))
        return items

    def copy(self) -> "ModelParams":
        def copy_net(net: Net) -> Net:
            if isinstance(net, Mlp):
                return Mlp([w.copy() for w in net.weights], [b.copy() for b in net.biases])
            return net

        return ModelParams(
            self.d,
            self.h1.copy(),
            self.h2.copy(),
            *[copy_net(net) for _, net in self.nets()],
        )


def _init_mlp(rng: np.random.Generator, in_dim: int, out_dim: int, hidden: int) -> Mlp:
    dims = [in_dim] + [hidden] * N_HIDDEN_LAYERS + [out_dim]
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(rng.uniform(-math.sqrt(3.0 / a), math.sqrt(3.0 / a), size=(b, a)))
        bound = 1.0 / math.sqrt(a)
        biases.append(rng.uniform(-bound, bound, size=b))
    return Mlp(weights, biases)


def init_params(d: int, seed: int, hidden: int = DEFAULT_HIDDEN) -> ModelParams:
    """Fan-in-scaled uniform init.

    Weights are U(-sqrt(3/fan_in), sqrt(3/fan_in)) (unit standard deviation
    1/sqrt(fan_in)), which keeps the unrolled message passing stable while
    letting the satisfying/dissatisfying asymmetry survive all iterations;
    biases and the h1/h2 vectors are U(-1/sqrt(fan_in), 1/sqrt(fan_in)).
    Draw order is fixed (h1, h2, then A1, A2, A3, variable readout, factor
    readout, each layer weights before biases), so a seed pins every value.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    bound = 1.0 / math.sqrt(d)
    h1 = rng.uniform(-bound, bound, size=d)
    h2 = rng.uniform(-bound, bound, size=d)
    return ModelParams(
        d=d,
        h1=h1,
        h2=h2,
        a1=_init_mlp(rng, d, d, hidden),
        a2=_init_mlp(rng, 2 * d, d, hidden),
        a3=_init_mlp(rng, d, d, hidden),
        r_var=_init_mlp(rng, d, 1, hidden),
        r_fac=_init_mlp(rng, d, 1, hidden),
    )


def bp_reduction_params() -> ModelParams:
    """The exact configuration under which the model *is* log-space BP.

    d = 1, A1 and A3 the identity, A2 the pair normalization, h1 = ln 0.5
    and h2 = 0 (BP's uniform start), identity readouts. This is an exact
    evaluation mode, not an approximation by trained layers.
    """
    return ModelParams(
        d=1,
        h1=np.array([math.log(0.5)]),
        h2=np.array([0.0]),
        a1=Identity(),
        a2=PairNormalize(),
        a3=Identity(),
        r_var=Identity(),
        r_fac=Identity(),
    )


@dataclass
class NsnetOutput:
    """Marginals b_i(1), per-clause log factor beliefs, and the ln Z estimate.

    ``factor_beliefs`` and ``ln_z`` are None when the counting readout was
    not requested.
    """

    marginals: np.ndarray
    factor_beliefs: list[np.ndarray] | None
    ln_z: float | None


@dataclass
class _IterTape:
    c1: list | None
    c2: list | None
    c3: list | None
    v2c: np.ndarray
    lp: np.ndarray
    delta_c: np.ndarray
    grad_pass: np.ndarray


@dataclass
class _Tape:
    graph: FactorGraph
    d: int
    T: int
    iters: list[_IterTape]
    lbv: np.ndarray  # (n, 2) variable log beliefs
    c_rvar: list | None
    want_count: bool
    plan: EnumPlan | None = None
    lbf: np.ndarray | None = None  # (R,) factor log beliefs
    c_rfac: list | None = None
    ln_z: np.ndarray | None = None  # (k,) per-instance
    var_inst: np.ndarray | None = None
    clause_inst: np.ndarray | None = None
    n_inst: int = 1


def satisfying_lse(graph: FactorGraph, v2c: np.ndarray):
    """Coordinatewise LSE over each clause's satisfying completions.

    Given assignment-to-clause embeddings ``v2c`` of shape (E, 2, d),
    returns the pre-A3 aggregate ``u`` of the same shape, plus the
    intermediates the backward pass needs: the per-incidence pair-LSE
    ``lp``, the clamped log-difference ``delta_c``, and its gradient mask.

    For the satisfying branch of slot (e, x) the completion set is the full
    product set over the other variables, so the LSE is the sum of their
    pair-LSEs; for the dissatisfying branch the all-dissatisfying completion
    is removed by adding ln(1 - exp(delta)). The dissatisfying branch of a unit
    clause has no completions and yields the constant floor vector.
    """
    E = graph.num_incidences
    ar = np.arange(E)
    sat, unsat = graph.sat_value, graph.unsat_value

    lp = np.logaddexp(v2c[:, 0], v2c[:, 1])  # (E, d)
    excl = graph.clause_others_sum(np.stack([lp, v2c[ar, unsat]], axis=1))
    excl_tot, excl_q = excl[:, 0], excl[:, 1]
    delta = excl_q - excl_tot
    delta_c = np.minimum(delta, DELTA_CLAMP)
    grad_pass = delta < DELTA_CLAMP
    u_unsat = excl_tot + log1mexp(delta_c)
    unit = graph.clause_len[graph.inc_clause] == 1
    u_unsat[unit] = UNIT_FLOOR
    u = np.empty_like(v2c)
    u[ar, sat] = excl_tot
    u[ar, unsat] = u_unsat
    return u, lp, delta_c, grad_pass


def _apply(net: Net, x: np.ndarray, scratch: tuple | None):
    """``net(x)`` and its backward cache; with ``scratch`` (no tape), no cache."""
    if scratch is None:
        return net.apply_cached(x)
    return net.apply(x, scratch), None


def _message_iteration(
    graph: FactorGraph, params: ModelParams, c2v: np.ndarray, scratch: tuple | None = None
):
    """One round of updates; returns (v2c, c2v, iteration tape). With
    ``scratch`` the MLPs' hidden layers go into its two buffers and the
    iteration tape is None."""
    E, d = graph.num_incidences, params.d
    s1 = graph.var_others_sum(c2v)
    t_flat, c1 = _apply(params.a1, s1.reshape(2 * E, d), scratch)
    t = t_flat.reshape(E, 2, d)
    pair = np.concatenate([t, t[:, ::-1]], axis=2)
    v_flat, c2 = _apply(params.a2, pair.reshape(2 * E, 2 * d), scratch)
    v2c = v_flat.reshape(E, 2, d)

    u, lp, delta_c, grad_pass = satisfying_lse(graph, v2c)
    c2v_flat, c3 = _apply(params.a3, u.reshape(2 * E, d), scratch)
    c2v_new = c2v_flat.reshape(E, 2, d)
    if scratch is not None:
        return v2c, c2v_new, None
    return v2c, c2v_new, _IterTape(c1, c2, c3, v2c, lp, delta_c, grad_pass)


def _scratch(params: ModelParams, rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two flat buffers for the hidden layers of A1, A2 and A3 on ``rows``
    rows, in the dtype their matmuls produce from ``dtype`` inputs."""
    hidden = [
        w for net in (params.a1, params.a2, params.a3) if isinstance(net, Mlp)
        for w in net.weights[:-1]
    ]
    size = rows * max((w.shape[0] for w in hidden), default=0)
    dtype = np.result_type(dtype, *hidden)
    return np.empty(size, dtype), np.empty(size, dtype)


def _forward(
    graph: FactorGraph,
    params: ModelParams,
    T: int,
    want_count: bool,
    factor_cap: int = DEFAULT_FACTOR_ENUM_CAP,
    var_inst: np.ndarray | None = None,
    clause_inst: np.ndarray | None = None,
    keep_tape: bool = True,
) -> _Tape:
    """Run T iterations plus readouts, keeping everything backward needs.

    ``var_inst``/``clause_inst`` map variables and clauses to instance ids
    when the graph is a disjoint union of several formulas; ln Z then comes
    out per instance. By default everything is instance 0. Without
    ``keep_tape`` the message loop records nothing (``iters`` stays empty)
    and writes the MLPs' hidden layers into two buffers allocated here, so
    :func:`backward` refuses the tape; its outputs are the same values.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    E = graph.num_incidences
    n, d = graph.num_vars, params.d
    if var_inst is None:
        var_inst = np.zeros(n, dtype=np.int64)
        clause_inst = np.zeros(graph.num_clauses, dtype=np.int64)
        n_inst = 1
    else:
        assert clause_inst is not None
        n_inst = int(var_inst.max()) + 1 if n else 1

    c2v = np.broadcast_to(params.h2, (E, 2, d)).copy()
    v2c = np.broadcast_to(params.h1, (E, 2, d)).copy()
    scratch = None if keep_tape else _scratch(params, 2 * E, c2v.dtype)
    iters: list[_IterTape] = []
    for _ in range(T):
        v2c, c2v, it = _message_iteration(graph, params, c2v, scratch)
        if keep_tape:
            iters.append(it)

    # variable readout: sum incoming c2v per assignment node, then a two-way
    # softmax over the value axis
    sv = graph.var_sum(c2v)
    rv_flat, c_rvar = params.r_var.apply_cached(sv.reshape(2 * n, d))
    rv = rv_flat.reshape(n, 2)
    lbv = rv - np.logaddexp(rv[:, 0], rv[:, 1])[:, None]

    tape = _Tape(
        graph=graph,
        d=d,
        T=T,
        iters=iters,
        lbv=lbv,
        c_rvar=c_rvar,
        want_count=want_count,
        var_inst=var_inst,
        clause_inst=clause_inst,
        n_inst=n_inst,
    )

    if want_count:
        plan = graph.satisfying_enumeration(factor_cap)
        rf_col, c_rfac = params.r_fac.apply_cached(plan.row_sums(v2c))
        lbf = plan.log_normalize(rf_col[:, 0])
        tape.plan = plan
        tape.lbf = lbf
        tape.c_rfac = c_rfac
        tape.ln_z = bethe_sum(graph, plan, lbf, lbv, var_inst, clause_inst, n_inst)
    return tape


def forward(
    graph: FactorGraph,
    params: ModelParams,
    T: int,
    with_count: bool = True,
    factor_cap: int = DEFAULT_FACTOR_ENUM_CAP,
) -> NsnetOutput:
    """Inference on a single formula's factor graph.

    With ``with_count`` the factor-belief readout and the ln Z estimate are
    computed as well, which requires every clause length to be at most
    ``factor_cap`` (marginals have no such restriction).

    Keeps no tape: besides its outputs and each iteration's (E, 2, d)
    temporaries, freed as the loop moves on, a call allocates two
    (2E, widest hidden) buffers that every hidden layer of A1, A2 and A3
    reuses, so its peak memory does not grow with T. The numbers are the
    training forward's, bit for bit.
    """
    tape = _forward(
        graph, params, T, want_count=with_count, factor_cap=factor_cap, keep_tape=False
    )
    marginals = np.exp(tape.lbv[:, 1])
    factor_beliefs = None
    ln_z = None
    if with_count:
        assert tape.plan is not None and tape.lbf is not None
        starts = tape.plan.row_start
        factor_beliefs = [
            tape.lbf[starts[a]: starts[a + 1]] for a in range(graph.num_clauses)
        ]
        ln_z = float(tape.ln_z[0])
    return NsnetOutput(marginals, factor_beliefs, ln_z)


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.param_items()}


def backward(
    tape: _Tape,
    params: ModelParams,
    dlbv: np.ndarray | None = None,
    dlnz: np.ndarray | float = 0.0,
) -> dict[str, np.ndarray]:
    """Reverse-mode pass through the unrolled iterations and readouts.

    ``dlbv`` is the loss gradient w.r.t. the variable log beliefs (n, 2);
    ``dlnz`` w.r.t. the per-instance ln Z vector. Requires all five networks
    to be MLPs (the exact reduction mode has no trainable parameters).
    """
    for name, net in params.nets():
        if not isinstance(net, Mlp):
            raise ValueError(f"backward needs MLP networks, {name} is {type(net).__name__}")
    if len(tape.iters) != tape.T:
        raise ValueError("backward needs a tape kept by _forward(keep_tape=True)")
    graph = tape.graph
    E = graph.num_incidences
    n, d = graph.num_vars, tape.d
    ar = np.arange(E)
    sat, unsat = graph.sat_value, graph.unsat_value
    grads = zero_grads(params)

    if dlbv is None:
        dlbv = np.zeros((n, 2))
    else:
        dlbv = dlbv.copy()

    dv2c_final = np.zeros((E, 2, d))
    dlnz_vec = np.asarray(dlnz, dtype=float)
    if dlnz_vec.ndim == 0:
        dlnz_vec = np.full(tape.n_inst, float(dlnz_vec))
    if tape.want_count and np.any(dlnz_vec != 0.0):
        assert tape.plan is not None and tape.lbf is not None
        plan, lbf = tape.plan, tape.lbf
        weights = graph.var_degree - 1
        dlbv += (dlnz_vec[tape.var_inst] * weights)[:, None] * (
            np.exp(tape.lbv) * (1.0 + tape.lbv)
        )
        dlbf = dlnz_vec[tape.clause_inst[plan.row_clause]] * (-np.exp(lbf) * (1.0 + lbf))
        # log-normalization per clause: lbf = rf - LSE(rf over the clause)
        drf = dlbf - np.exp(lbf) * np.take(plan.clause_sums(dlbf), plan.row_clause)
        dsf = params.r_fac.backward(drf[:, None], tape.c_rfac, grads, "r_fac")
        dv2c_final = plan.scatter_rows(dsf, E)

    # two-way softmax: lbv = rv - logaddexp(rv0, rv1)
    drv = dlbv - np.exp(tape.lbv) * dlbv.sum(axis=1, keepdims=True)
    dsv = params.r_var.backward(
        drv.reshape(2 * n, 1), tape.c_rvar, grads, "r_var"
    ).reshape(n, 2, d)
    dc2v = np.take(dsv, graph.inc_var, axis=0)

    dv2c_pending = dv2c_final
    for k in range(tape.T - 1, -1, -1):
        it = tape.iters[k]
        du = params.a3.backward(dc2v.reshape(2 * E, d), it.c3, grads, "a3").reshape(E, 2, d)
        dexcl_tot = du[ar, sat].copy()
        # a unit clause's floor passes no gradient: clause_others_sum maps
        # its incidence's gradients to no other incidence
        du_unsat = du[ar, unsat]
        # expm1 overflow gives inf and a correct -0.0 ratio; silence the warning
        with np.errstate(over="ignore"):
            phi_p = (-1.0 / np.expm1(-it.delta_c)) * it.grad_pass
        dexcl_tot += du_unsat * (1.0 - phi_p)
        dexcl_q = du_unsat * phi_p

        dexcl = graph.clause_others_sum(np.stack([dexcl_tot, dexcl_q], axis=1))
        dlp, dq = dexcl[:, 0], dexcl[:, 1]

        dv2c = dv2c_pending
        dv2c_pending = None
        dv2c[ar, unsat] += dq
        w0 = np.exp(it.v2c[:, 0] - it.lp)
        w1 = np.exp(it.v2c[:, 1] - it.lp)
        dv2c[:, 0] += dlp * w0
        dv2c[:, 1] += dlp * w1

        dpair = params.a2.backward(
            dv2c.reshape(2 * E, d), it.c2, grads, "a2"
        ).reshape(E, 2, 2 * d)
        dt = dpair[:, :, :d] + dpair[:, ::-1, d:]
        ds1 = params.a1.backward(dt.reshape(2 * E, d), it.c1, grads, "a1").reshape(E, 2, d)
        dc2v = graph.var_others_sum(ds1)
        dv2c_pending = np.zeros((E, 2, d))

    # initial embeddings: c2v starts at h2 everywhere; v2c's h1 start is
    # consumed only when T = 0 (the first iteration recomputes v2c)
    grads["h2"] += dc2v.sum(axis=(0, 1))
    if tape.T == 0:
        grads["h1"] += dv2c_final.sum(axis=(0, 1))
    return grads


def save_params(params: ModelParams, path) -> None:
    """Versioned JSON weight file; floats round-trip losslessly via repr."""

    def encode(net: Net):
        if isinstance(net, Identity):
            return {"kind": "identity"}
        if isinstance(net, PairNormalize):
            return {"kind": "pair_normalize"}
        return {
            "kind": "mlp",
            "layers": [
                {
                    "rows": int(w.shape[0]),
                    "cols": int(w.shape[1]),
                    "w": [float(x) for x in w.ravel()],
                    "b": [float(x) for x in b],
                }
                for w, b in zip(net.weights, net.biases)
            ],
        }

    doc = {
        "version": PARAMS_FORMAT_VERSION,
        "d": params.d,
        "h1": [float(x) for x in params.h1],
        "h2": [float(x) for x in params.h2],
    }
    for name, net in params.nets():
        doc[name] = encode(net)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_params(path) -> ModelParams:
    """Load a weight file written by :func:`save_params`.

    Raises :class:`ParamsFormatError` on version mismatch, shape mismatch,
    or a corrupted file.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParamsFormatError(f"corrupted weight file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != PARAMS_FORMAT_VERSION:
        raise ParamsFormatError(
            f"unsupported weight file version {doc.get('version') if isinstance(doc, dict) else None!r}"
        )

    def decode(entry, in_dim: int, out_dim: int, name: str) -> Net:
        kind = entry.get("kind")
        if kind == "identity":
            return Identity()
        if kind == "pair_normalize":
            return PairNormalize()
        if kind != "mlp":
            raise ParamsFormatError(f"{name}: unknown network kind {kind!r}")
        weights, biases = [], []
        for layer in entry["layers"]:
            rows, cols = int(layer["rows"]), int(layer["cols"])
            w = np.asarray(layer["w"], dtype=float)
            b = np.asarray(layer["b"], dtype=float)
            if w.size != rows * cols or b.size != rows:
                raise ParamsFormatError(f"{name}: layer data does not match shape")
            weights.append(w.reshape(rows, cols))
            biases.append(b)
        try:
            mlp = Mlp(weights, biases)
        except ValueError as exc:
            raise ParamsFormatError(f"{name}: {exc}") from exc
        if mlp.in_dim != in_dim or mlp.out_dim != out_dim:
            raise ParamsFormatError(
                f"{name}: expected {in_dim}->{out_dim}, file has "
                f"{mlp.in_dim}->{mlp.out_dim}"
            )
        return mlp

    try:
        d = int(doc["d"])
        h1 = np.asarray(doc["h1"], dtype=float)
        h2 = np.asarray(doc["h2"], dtype=float)
        if h1.shape != (d,) or h2.shape != (d,):
            raise ParamsFormatError("h1/h2 length does not match d")
        return ModelParams(
            d=d,
            h1=h1,
            h2=h2,
            a1=decode(doc["a1"], d, d, "a1"),
            a2=decode(doc["a2"], 2 * d, d, "a2"),
            a3=decode(doc["a3"], d, d, "a3"),
            r_var=decode(doc["r_var"], d, 1, "r_var"),
            r_fac=decode(doc["r_fac"], d, 1, "r_fac"),
        )
    except ParamsFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsFormatError(f"corrupted weight file: {exc}") from exc
