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

Training and inference share one message loop. It allocates its work
arrays once per call and writes every iteration into them with ``out=``:
A2's input and the satisfying-completion LSE's temporaries into a flat
arena (:func:`_loop_arena`), the MLPs' hidden layers into two buffers of
one block of rows. A temporary above glibc's mmap threshold (128 KiB by
default) is a fresh mapping that page-faults on each page it touches, so a
loop that allocated them would pay that every iteration. The gathers run
``np.take`` with ``mode="clip"``, since numpy buffers the output of the
default mode; the factor graph checks its indices once instead. Inference
(:func:`forward`, and ``train.batch_loss``) keeps no tape and also reuses
one set of the arrays a tape would record, so its iterations allocate no
message-sized array. Training keeps a tape of each iteration's MLP inputs
and the intermediates of the satisfying-completion LSE, about 10 values per
incidence and embedding coordinate, in arrays that are fresh each
iteration; only the temporaries it does not keep are reused. No buffer
outlives its call or is cached on the graph or in the module, so nothing a
call returns shares memory with a later call. The backward pass recomputes
each MLP's hidden layers from its input (activation recomputation, as in
Chen et al., *Training Deep Nets with Sublinear Memory Cost*), so the tape
holds no (2E, hidden) activations, and writes its own loop into arrays
allocated once per call (:func:`_backward_arena`). Both paths run the same
arithmetic and give bit-identical outputs.

The MLPs of the loop, and every MLP's backward, are cache-blocked (as in
Goto and van de Geijn, *Anatomy of High-Performance Matrix
Multiplication*): they run ``BLOCK_ROWS`` rows at a time, so a block's
hidden layers stay in a core's L2 cache from the matmul through the bias
add, the ReLU, the mask and the bias gradient, where a (2E, 64) layer of a
large graph (4.7 MB at E = 4,626) would stream from memory at each step.
The rows are split evenly (:func:`_row_blocks`), which keeps every output
and input gradient bit-identical to an unblocked pass; only the parameter
gradients, summed block by block, change in rounding. The readouts' forward
is not blocked: its 64->1 output layer is a matrix-vector product, whose
rounding in OpenBLAS depends on the number of rows, so blocking would move
the marginals and ln Z in their last bits.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DEFAULT_FACTOR_ENUM_CAP, EnumPlan, FactorGraph, bethe_sum, log1mexp, logaddexp

# clamp for ln(1 - exp(delta)); the clamped branch passes no gradient. A unit
# clause's dissatisfying branch has no completion (delta = 0) and so gets the
# finite floor ln(1 - exp(DELTA_CLAMP)) = -27.63 in place of BP's log-zero
DELTA_CLAMP = -1e-12

DEFAULT_HIDDEN = 64
N_HIDDEN_LAYERS = 3

PARAMS_FORMAT_VERSION = 1

# rows per block of a blocked MLP pass (see _row_blocks): a block's (512, 64)
# float64 hidden layer is 256 KiB, so the matmul, bias add, ReLU, mask and
# bias gradient that follow one another on it stay within a core's L2 cache,
# where a whole (2E, 64) layer streams from memory. On a graph of
# E = 4,626, train.grad was as fast or faster at 512 rows than at 256, 1024
# or 2048
BLOCK_ROWS = 512

# the five networks in their fixed order: A1, A2, A3, the variable readout
# and the factor readout
NETS = ("a1", "a2", "a3", "r_var", "r_fac")


class ParamsFormatError(ValueError):
    """Weight file is corrupted, has the wrong version, or bad shapes."""


def _row_blocks(rows: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(rows / BLOCK_ROWS) blocks of near-equal length,
    the i-th starting at rows * i // k. OpenBLAS 0.3.31 rounds a row
    differently in a short matmul: below 76 rows for a 64->16 layer and
    below 19 rows for a 64->64 one. An even split never makes a block that
    short unless the input is (over 512 rows, every block has at least 256),
    so a blocked pass gives the unblocked pass's values bit for bit, where
    ``range(0, rows, BLOCK_ROWS)`` would leave a short tail."""
    k = -(-rows // BLOCK_ROWS)
    return [(rows * i // k, rows * (i + 1) // k) for i in range(k)]


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

    def apply(
        self, x: np.ndarray, scratch: list | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Forward. With ``scratch``, two flat buffers of at least one
        block's rows x widest hidden layer elements (see
        :func:`_hidden_buffers`), the rows run in the blocks of
        :func:`_row_blocks`: a block's hidden layer i is written into
        ``scratch[i % 2]`` and its output into its rows of ``out``, which is
        allocated when not given. Every row gets the unblocked pass's
        values."""
        if scratch is None:
            return self._apply_block(x, None, out)
        if out is None:
            out = np.empty((x.shape[0], self.out_dim), np.result_type(x, *self.weights))
        for lo, hi in _row_blocks(x.shape[0]):
            self._apply_block(x[lo:hi], scratch, out[lo:hi])
        return out

    def _apply_block(self, x: np.ndarray, scratch: list | None, out: np.ndarray | None):
        rows = x.shape[0]
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            if scratch is None:
                z = x @ w.T
            else:
                z = scratch[i % 2][: rows * w.shape[0]].reshape(rows, w.shape[0])
                np.matmul(x, w.T, out=z)
            z += b
            np.maximum(z, 0.0, out=z)
            x = z
        out = np.matmul(x, self.weights[-1].T, out=out)
        out += self.biases[-1]
        return out

    def backward(
        self, dy: np.ndarray, x: np.ndarray, grads, name: str, work: list,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Accumulate the parameter grads of output grad ``dy`` at input ``x``
        into ``grads`` and return the input grad, written into ``out`` when
        given. The rows run in the blocks of :func:`_row_blocks`: a block's
        hidden layer i is recomputed into ``work[i]`` (see :func:`_work`),
        whose last, boolean buffer takes each ReLU mask; a layer's input grad
        then overwrites it. Each row's input grad is the unblocked pass's;
        the parameter grads are summed block by block, so on more than
        ``BLOCK_ROWS`` rows they differ from a one-block sum in rounding."""
        if out is None:
            out = np.empty((x.shape[0], self.in_dim), np.result_type(dy, *self.weights))
        for lo, hi in _row_blocks(x.shape[0]):
            self._backward_block(dy[lo:hi], x[lo:hi], grads, name, work, out[lo:hi])
        return out

    def _backward_block(self, dy, x, grads, name: str, work: list, out: np.ndarray) -> None:
        rows = x.shape[0]
        mask_buf = work[-1]
        layers = [x]
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            z = work[i][: rows * w.shape[0]].reshape(rows, w.shape[0])
            np.matmul(layers[-1], w.T, out=z)
            z += b
            np.maximum(z, 0.0, out=z)
            layers.append(z)
        dz = dy
        for layer in range(len(self.weights) - 1, 0, -1):
            h = layers[layer]
            grads[f"{name}.w{layer}"] += dz.T @ h
            grads[f"{name}.b{layer}"] += dz.sum(axis=0)
            mask = mask_buf[: h.size].reshape(h.shape)
            np.greater(h, 0, out=mask)
            dz = np.matmul(dz, self.weights[layer], out=h)
            dz *= mask
        grads[f"{name}.w0"] += dz.T @ x
        grads[f"{name}.b0"] += dz.sum(axis=0)
        np.matmul(dz, self.weights[0], out=out)


class Identity:
    """Exact identity map, used by the BP-reduction configuration."""

    def apply(self, x: np.ndarray, scratch=None, out: np.ndarray | None = None) -> np.ndarray:
        """``x`` itself, or a copy of it in ``out`` when given."""
        if out is None:
            return x
        np.copyto(out, x)
        return out


class PairNormalize:
    """Exact log-normalization a - log(exp(a) + exp(b)) over a (cur, flip)
    concatenated input; the BP-reduction form of the combine network."""

    def apply(self, x: np.ndarray, scratch=None, out: np.ndarray | None = None) -> np.ndarray:
        """With ``scratch``, the last of its flat buffers, of at least rows
        x d elements, takes max(a, b); with ``out`` the result goes there."""
        rows, d = x.shape[0], x.shape[1] // 2
        work = None if scratch is None else scratch[-1][: rows * d].reshape(rows, d)
        lse = logaddexp(x[:, :d], x[:, d:], out=out, work=work)
        return np.subtract(x[:, :d], lse, out=lse)


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
        return [(name, getattr(self, name)) for name in NETS]

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
        return copy.deepcopy(self)


def _net_dims(d: int) -> list[tuple[int, int]]:
    """(input, output) widths of the networks named in ``NETS``, in order."""
    return [(d, d), (2 * d, d), (d, d), (d, 1), (d, 1)]


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
    return ModelParams(d, h1, h2, *[_init_mlp(rng, i, o, hidden) for i, o in _net_dims(d)])


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
    """Marginals b_i(1) and the ln Z estimate; ``ln_z`` is None when the
    counting readout was not requested."""

    marginals: np.ndarray
    ln_z: float | None


@dataclass
class _IterTape:
    """One iteration's MLP inputs and the intermediates of satisfying_lse."""

    s1: np.ndarray  # (E, 2, d) A1 input
    t: np.ndarray  # (E, 2, d) A1 output; A2's input pairs it with its flip
    u: np.ndarray  # (E, 2, d) A3 input
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
    sv: np.ndarray  # (n, 2, d) variable readout input
    want_count: bool
    plan: EnumPlan | None = None
    # (R,) factor log beliefs, in the plan's row order: clause length by
    # clause length, then clause by clause, then row by row
    lbf: np.ndarray | None = None
    sf: np.ndarray | None = None  # (R, d) factor readout input
    ln_z: np.floating | None = None


def satisfying_lse(
    graph: FactorGraph,
    v2c: np.ndarray,
    out: tuple | None = None,
    work: np.ndarray | None = None,
):
    """Coordinatewise LSE over each clause's satisfying completions.

    Given assignment-to-clause embeddings ``v2c`` of shape (E, 2, d),
    returns the pre-A3 aggregate ``u`` of the same shape, plus the
    intermediates the backward pass needs: the per-incidence pair-LSE
    ``lp``, the clamped log-difference ``delta_c``, and its gradient mask.
    ``out``, when given, holds the four arrays to write them into, and
    ``work`` is flat scratch of ``v2c``'s dtype and at least 4.5 ``v2c.size``
    elements (see :func:`_loop_arena`); each is allocated when not given.

    For the satisfying branch of slot (e, x) the completion set is the full
    product set over the other variables, so the LSE is the sum of their
    pair-LSEs; for the dissatisfying branch the all-dissatisfying completion
    is removed by adding ln(1 - exp(delta)). The dissatisfying branch of a unit
    clause has no completions: delta = 0 there, and the clamp gives it the
    constant floor ln(1 - exp(DELTA_CLAMP)) and no gradient.
    """
    E, _, d = v2c.shape
    if out is None:
        out = (np.empty(v2c.shape, v2c.dtype), None, None, None)
    u, lp, delta_c, grad_pass = out
    size = v2c.size
    if work is None:
        work = _loop_arena(E, d, v2c.dtype)
    stacked = work[:size].reshape(E, 2, d)
    excl = work[size: 2 * size].reshape(E, 2, d)
    tmp = work[4 * size: 4 * size + E * d].reshape(E, d)

    lp = logaddexp(v2c[:, 0], v2c[:, 1], out=lp, work=tmp)  # (E, d)
    stacked[:, 0] = lp
    stacked[:, 1] = np.take(v2c.reshape(2 * E, d), graph.unsat_slot, axis=0, out=tmp, mode="clip")
    graph.clause_others_sum(stacked, out=excl, work=work[2 * size: 4 * size])
    excl_tot, excl_q = excl[:, 0], excl[:, 1]
    delta = np.subtract(excl_q, excl_tot, out=tmp)
    grad_pass = np.less(delta, DELTA_CLAMP, out=grad_pass)
    delta_c = np.minimum(delta, DELTA_CLAMP, out=delta_c)
    u_unsat = log1mexp(delta_c, out=tmp)
    u_unsat += excl_tot
    u[...] = excl_tot[:, None]  # the satisfying slots; the others are overwritten next
    u.reshape(2 * E, d)[graph.unsat_slot] = u_unsat
    return u, lp, delta_c, grad_pass


def _pair(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A2's (2E, 2d) input: each slot's A1 output next to its flipped value's,
    written into ``out`` ((E, 2, 2d)) when given."""
    E, _, d = t.shape
    return np.concatenate([t, t[:, ::-1]], axis=2, out=out).reshape(2 * E, 2 * d)


def _loop_arena(E: int, d: int, dtype) -> np.ndarray:
    """Flat scratch for the message loop, 4.5 units of (E, 2, d) elements.
    An iteration uses it in turn for: A1's input s1 (unit 0) and output t
    (unit 1) when no tape keeps them, A2's input pair (units 2-3), then
    :func:`satisfying_lse`'s stacked input (unit 0), its clause sums
    (unit 1) and their work (units 2-3), and an (E, d) scratch (unit 4);
    each region is dead before the next use writes it."""
    return np.empty(9 * E * d, dtype)


def _iteration_arrays(E: int, d: int, dtype, arena: np.ndarray | None = None) -> _IterTape:
    """Arrays for the values one iteration records. With ``arena`` (a
    tape-free loop, which reuses these every iteration), s1 and t are its
    first two units."""
    pair_shape = (2, E, 2, d)
    s1, t = np.empty(pair_shape, dtype) if arena is None else arena[: 4 * E * d].reshape(pair_shape)
    u, v2c = np.empty(pair_shape, dtype)
    lp, delta_c = np.empty((2, E, d), dtype)
    return _IterTape(s1, t, u, v2c, lp, delta_c, grad_pass=np.empty((E, d), bool))


def _message_iteration(
    graph: FactorGraph,
    params: ModelParams,
    c2v: np.ndarray,
    scratch: list,
    arena: np.ndarray,
    it: _IterTape,
) -> None:
    """One round of updates. The new c2v messages overwrite ``c2v``; every
    value the tape records (the new v2c among them) goes into ``it``'s
    arrays, the MLPs' hidden layers into the two ``scratch`` buffers, and
    every other temporary into ``arena`` (see :func:`_loop_arena`)."""
    E, d = graph.num_incidences, params.d
    size = c2v.size
    s1 = graph.var_others_sum(c2v, out=it.s1)
    t = params.a1.apply(s1.reshape(2 * E, d), scratch, out=it.t.reshape(2 * E, d))
    pair = _pair(t.reshape(E, 2, d), out=arena[2 * size: 4 * size].reshape(E, 2, 2 * d))
    # s1 is dead now, so arena unit 0 (which holds it without a tape) is
    # free: it is the extra scratch buffer where a pair normalization, which
    # has no hidden layer, takes max(a, b) on all 2E rows
    params.a2.apply(pair, [*scratch, arena[:size]], out=it.v2c.reshape(2 * E, d))
    satisfying_lse(graph, it.v2c, out=(it.u, it.lp, it.delta_c, it.grad_pass), work=arena)
    params.a3.apply(it.u.reshape(2 * E, d), scratch, out=c2v.reshape(2 * E, d))


def _hidden_buffers(nets, rows: int, dtype, count: int) -> list[np.ndarray]:
    """``count`` flat buffers, each able to hold any hidden layer of the MLPs
    among ``nets`` on one block of a blocked pass over up to ``rows`` rows
    (min(rows, BLOCK_ROWS) rows; see :func:`_row_blocks`), in the dtype their
    matmuls produce from ``dtype`` inputs. Sized by the block, not the
    input, they stay in cache however large the graph."""
    hidden = [w for net in nets if isinstance(net, Mlp) for w in net.weights[:-1]]
    size = min(rows, BLOCK_ROWS) * max((w.shape[0] for w in hidden), default=0)
    dtype = np.result_type(dtype, *hidden)
    return [np.empty(size, dtype) for _ in range(count)]


def _work(nets, rows: int, dtype) -> list[np.ndarray]:
    """Work buffers for :meth:`Mlp.backward` on up to ``rows`` rows, each of
    one block: one per hidden layer of the deepest MLP among ``nets``, then
    a boolean one."""
    depth = max((len(net.weights) - 1 for net in nets if isinstance(net, Mlp)), default=0)
    bufs = _hidden_buffers(nets, rows, dtype, depth)
    return bufs + [np.empty(bufs[0].size if bufs else 0, dtype=bool)]


def _forward(
    graph: FactorGraph,
    params: ModelParams,
    T: int,
    want_count: bool,
    factor_cap: int = DEFAULT_FACTOR_ENUM_CAP,
    keep_tape: bool = True,
) -> _Tape:
    """Run T iterations plus readouts on one formula's factor graph.

    The loop's work arrays are allocated here, once (see :func:`forward`).
    With ``keep_tape`` each iteration records the MLPs' inputs and the
    intermediates :func:`backward` needs, and the tape keeps the readouts'
    inputs; without it ``iters`` stays empty and :func:`backward` refuses
    the tape. Either way the outputs are the same values; ``ln_z`` is the
    one ln Z estimate of the formula, a scalar of the model's dtype.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    E = graph.num_incidences
    n, d = graph.num_vars, params.d

    loop_nets = (params.a1, params.a2, params.a3)
    weights = [w for net in loop_nets if isinstance(net, Mlp) for w in net.weights]
    dtype = np.result_type(params.h2, *weights)
    c2v = np.empty((E, 2, d), dtype)
    c2v[...] = params.h2
    v2c = np.broadcast_to(params.h1, (E, 2, d)).copy()
    scratch = _hidden_buffers(loop_nets, 2 * E, dtype, 2)
    arena = _loop_arena(E, d, dtype)
    reused = None if keep_tape else _iteration_arrays(E, d, dtype, arena)
    iters: list[_IterTape] = []
    for _ in range(T):
        it = _iteration_arrays(E, d, dtype) if keep_tape else reused
        _message_iteration(graph, params, c2v, scratch, arena, it)
        v2c = it.v2c
        if keep_tape:
            iters.append(it)
    del scratch, arena, reused  # the readouts need none of the loop's work arrays

    # variable readout: sum incoming c2v per assignment node, then a two-way
    # softmax over the value axis
    sv = graph.var_sum(c2v)
    rv_flat = params.r_var.apply(sv.reshape(2 * n, d))
    rv = rv_flat.reshape(n, 2)
    lbv = rv - logaddexp(rv[:, 0], rv[:, 1])[:, None]

    tape = _Tape(
        graph=graph,
        d=d,
        T=T,
        iters=iters,
        lbv=lbv,
        sv=sv,
        want_count=want_count,
    )

    if want_count:
        plan = graph.satisfying_enumeration(factor_cap)
        sf = plan.row_sums(v2c)
        rf_col = params.r_fac.apply(sf)
        lbf = plan.log_normalize(rf_col[:, 0])
        tape.plan = plan
        tape.lbf = lbf
        tape.sf = sf
        tape.ln_z = bethe_sum(graph, lbf, lbv)
    return tape


def forward(
    graph: FactorGraph,
    params: ModelParams,
    T: int,
    with_count: bool = True,
) -> NsnetOutput:
    """Inference on a single formula's factor graph.

    With ``with_count`` the ln Z estimate is computed as well, from the
    factor-belief readout, which requires every clause length to be at most
    ``DEFAULT_FACTOR_ENUM_CAP`` (marginals have no such restriction). The
    factor beliefs themselves stay internal (``_forward(...).lbf``).

    Keeps no tape. Before its loop, a call allocates, in the model's dtype:
    the c2v messages; one set of the arrays an iteration writes (v2c, A3's
    input, the pair-LSE and the clamped log-difference, a boolean gradient
    mask); the loop's arena of 4.5 (E, 2, d) units (:func:`_loop_arena`);
    and two buffers of one block of rows (at most ``BLOCK_ROWS`` x widest
    hidden layer) that every hidden layer of A1, A2 and A3 reuses, block by
    block (:meth:`Mlp.apply`; the blocks split the rows evenly, which keeps
    every value bit-identical to an unblocked pass). Every iteration writes
    into these, so no iteration allocates an array of the messages' size
    and peak memory does not grow with T. The readouts then allocate their
    own arrays and run unblocked, since their 64->1 output layer rounds
    differently on fewer rows; none of the loop's arrays is returned.
    Training runs the same forward with a tape, one formula at a time
    (``train.grad``), and gets these numbers bit for bit.
    """
    tape = _forward(graph, params, T, want_count=with_count, keep_tape=False)
    ln_z = float(tape.ln_z) if with_count else None
    return NsnetOutput(np.exp(tape.lbv[:, 1]), ln_z)


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.param_items()}


def _backward_arena(E: int, d: int, dtype) -> np.ndarray:
    """Flat scratch for :func:`backward`'s loop, 8 units of (E, 2, d)
    elements. An iteration uses unit 0 for dc2v, unit 1 for A3's input grad
    du and then dt, units 2 and 3 for the clause sums' input (later ds1) and
    output, units 4-5 for their work, unit 6 for dv2c and unit 7 for two
    (E, d) temporaries; A2's input pair takes units 4-5 and its input grad
    units 2-3 once the clause sums are dead."""
    return np.empty(16 * E * d, dtype)


def backward(
    tape: _Tape,
    params: ModelParams,
    dlbv: np.ndarray | None = None,
    dlnz: float = 0.0,
) -> dict[str, np.ndarray]:
    """Reverse-mode pass through the unrolled iterations and readouts.

    ``dlbv`` is the loss gradient w.r.t. the variable log beliefs (n, 2);
    ``dlnz`` w.r.t. the tape's one ln Z estimate. Both are cast to the
    tape's dtype, in which all of the pass runs. Requires all five networks
    to be MLPs (the exact reduction mode has no trainable parameters). A
    batch's gradient is the sum of one call per formula (``train.grad``).

    Each MLP's hidden layers are recomputed from the input the tape holds,
    one block of rows at a time, into one set of block-sized work buffers
    that all five MLPs share. The loop's arrays (:func:`_backward_arena`)
    are allocated once per call and every iteration writes into them, so no
    iteration allocates an array of the messages' size. The gathers and the
    scatter onto the dissatisfying slots run on flat slot indices with
    ``np.take(..., mode="clip")``, as in the forward.
    """
    for name, net in params.nets():
        if not isinstance(net, Mlp):
            raise ValueError(f"backward needs MLP networks, {name} is {type(net).__name__}")
    if len(tape.iters) != tape.T:
        raise ValueError("backward needs a tape kept by _forward(keep_tape=True)")
    graph = tape.graph
    E = graph.num_incidences
    n, d = graph.num_vars, tape.d
    dtype = tape.lbv.dtype
    grads = zero_grads(params)

    dlbv = np.zeros((n, 2), dtype) if dlbv is None else np.array(dlbv, dtype=dtype)
    dv2c_final = None
    dlnz = dtype.type(dlnz)
    with_count = tape.want_count and dlnz != 0.0
    # one set of work buffers for every MLP, the factor readout's plan rows too
    rows = max(2 * E, 2 * n, 0 if tape.sf is None else len(tape.sf))
    work = _work([net for _, net in params.nets()], rows, dtype)
    if with_count:
        assert tape.plan is not None and tape.lbf is not None
        plan, lbf = tape.plan, tape.lbf
        weights = (graph.var_degree - 1).astype(dtype)
        dlbv += (dlnz * weights)[:, None] * (
            np.exp(tape.lbv) * (1.0 + tape.lbv)
        )
        dlbf = dlnz * (-np.exp(lbf) * (1.0 + lbf))
        # log-normalization per clause: lbf = rf - LSE(rf over the clause)
        drf = dlbf - np.exp(lbf) * plan.clause_sums(dlbf)
        dsf = params.r_fac.backward(drf[:, None], tape.sf, grads, "r_fac", work)
        dv2c_final = plan.scatter_rows(dsf, E)

    size = E * 2 * d
    arena = _backward_arena(E, d, dtype)
    dc2v, du, dstack, dexcl, _, _, dv2c = arena[: 7 * size].reshape(7, E, 2, d)
    cwork = arena[4 * size: 6 * size]
    pair = cwork.reshape(E, 2, 2 * d)
    dpair = arena[2 * size: 4 * size].reshape(E, 2, 2 * d)
    tmp, du_unsat = arena[7 * size:].reshape(2, E, d)
    sat_slot, unsat_slot = 2 * np.arange(E) + graph.sat_value, graph.unsat_slot

    # two-way softmax: lbv = rv - logaddexp(rv0, rv1)
    drv = dlbv - np.exp(tape.lbv) * dlbv.sum(axis=1, keepdims=True)
    dsv = params.r_var.backward(
        drv.reshape(2 * n, 1), tape.sv.reshape(2 * n, d), grads, "r_var", work
    ).reshape(n, 2, d)
    np.take(dsv, graph.inc_var, axis=0, out=dc2v, mode="clip")

    if dv2c_final is None:
        dv2c[...] = 0
    else:
        np.copyto(dv2c, dv2c_final)
    for k in range(tape.T - 1, -1, -1):
        it = tape.iters[k]
        params.a3.backward(
            dc2v.reshape(2 * E, d), it.u.reshape(2 * E, d), grads, "a3", work,
            du.reshape(2 * E, d),
        )
        # satisfying_lse's adjoint: a slot's satisfying value is excl_tot, its
        # dissatisfying one excl_tot + log1mexp(delta_c)
        du_flat = du.reshape(2 * E, d)
        dstack[:, 0] = np.take(du_flat, sat_slot, axis=0, out=tmp, mode="clip")
        # a unit clause's floor passes no gradient: clause_others_sum maps
        # its incidence's gradients to no other incidence
        np.take(du_flat, unsat_slot, axis=0, out=du_unsat, mode="clip")
        phi_p = np.negative(it.delta_c, out=tmp)
        # expm1 overflow gives inf and a correct -0.0 ratio; silence the warning
        with np.errstate(over="ignore"):
            np.expm1(phi_p, out=phi_p)
        np.divide(-1.0, phi_p, out=phi_p)
        phi_p *= it.grad_pass
        np.multiply(du_unsat, phi_p, out=dstack[:, 1])  # dexcl_q
        one_minus = np.subtract(1.0, phi_p, out=phi_p)
        one_minus *= du_unsat
        dstack[:, 0] += one_minus  # dexcl_tot

        graph.clause_others_sum(dstack, out=dexcl, work=cwork)
        dlp, dq = dexcl[:, 0], dexcl[:, 1]

        dv2c_flat = dv2c.reshape(2 * E, d)
        acc = np.take(dv2c_flat, unsat_slot, axis=0, out=tmp, mode="clip")
        acc += dq
        dv2c_flat[unsat_slot] = acc
        for value in (0, 1):
            w = np.subtract(it.v2c[:, value], it.lp, out=tmp)
            np.exp(w, out=w)
            w *= dlp
            dv2c[:, value] += w

        # A2's input grad lands on the clause sums, its input on their work
        params.a2.backward(
            dv2c.reshape(2 * E, d), _pair(it.t, out=pair), grads, "a2", work,
            dpair.reshape(2 * E, 2 * d),
        )
        dv2c[...] = 0
        dt = np.add(dpair[:, :, :d], dpair[:, ::-1, d:], out=du)
        ds1 = dstack  # dpair, which covered it, is dead once dt is made
        params.a1.backward(
            dt.reshape(2 * E, d), it.s1.reshape(2 * E, d), grads, "a1", work,
            ds1.reshape(2 * E, d),
        )
        graph.var_others_sum(ds1, out=dc2v)

    # initial embeddings: c2v starts at h2 everywhere; v2c's h1 start is
    # consumed only when T = 0 (the first iteration recomputes v2c)
    grads["h2"] += dc2v.sum(axis=(0, 1))
    if tape.T == 0 and dv2c_final is not None:
        grads["h1"] += dv2c_final.sum(axis=(0, 1))
    return grads


def save_params(params: ModelParams, path) -> None:
    """Versioned JSON weight file; floats round-trip losslessly via repr.

    Only learned weights are saved: a network that is not an :class:`Mlp`
    (the BP-reduction configuration) raises ``ValueError``.
    """

    def encode(name: str, net: Net):
        if not isinstance(net, Mlp):
            raise ValueError(f"{name}: only MLP networks are saved, not {type(net).__name__}")
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
        doc[name] = encode(name, net)
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

    def decode(entry, in_dim: int, out_dim: int, name: str) -> Mlp:
        kind = entry.get("kind")
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
        nets = [decode(doc[name], i, o, name) for name, (i, o) in zip(NETS, _net_dims(d))]
        return ModelParams(d, h1, h2, *nets)
    except ParamsFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamsFormatError(f"corrupted weight file: {exc}") from exc
