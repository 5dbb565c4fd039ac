import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import helpers
from nsnet import net, oracle
from nsnet.bp import BpConfig, bethe_ln_z, bp_marginals, bp_run
from nsnet.cnf import CnfFormula
from nsnet.graph import FactorGraph, build_factor_graph, log1mexp
from nsnet.net import (
    DELTA_CLAMP,
    Mlp,
    ModelParams,
    ParamsFormatError,
    bp_reduction_params,
    forward,
    init_params,
    load_params,
    satisfying_lse,
    save_params,
)


class TestInit:
    def test_deterministic(self):
        a = init_params(8, seed=3)
        b = init_params(8, seed=3)
        for (na, va), (nb, vb) in zip(a.param_items(), b.param_items()):
            assert na == nb
            assert np.array_equal(va, vb)

    def test_seed_changes_values(self):
        a = init_params(8, seed=3)
        b = init_params(8, seed=4)
        assert not np.array_equal(a.h1, b.h1)

    def test_degenerate_width(self):
        p = init_params(1, seed=0)
        assert p.a1.weights[0].shape == (64, 1)
        assert p.a1.weights[-1].shape == (1, 64)
        assert p.a2.weights[0].shape == (64, 2)
        assert p.r_var.weights[-1].shape == (1, 64)

    def test_all_weights_finite_and_bounded(self):
        p = init_params(64, seed=9)
        for _, arr in p.param_items():
            assert np.isfinite(arr).all()
            assert np.abs(arr).max() < 10


def _set(holder, key, value):
    holder[key] = value


def _swap_rows_cols(layer):
    layer["rows"], layer["cols"] = layer["cols"], layer["rows"]


# edits that make the weight file of init_params(3, 1, hidden=8) malformed,
# each with the array or network its error names
MALFORMED = {
    "array missing": ("h2", lambda doc: doc.pop("h2")),
    "weights missing": ("a2.w1", lambda doc: doc["a2"]["layers"][1].pop("w")),
    "layer without b": ("a3.b2", lambda doc: doc["a3"]["layers"][2].pop("b")),
    "first layer missing": ("a1", lambda doc: doc["a1"]["layers"].pop(0)),
    "middle layer missing": ("a2", lambda doc: doc["a2"]["layers"].pop(1)),
    "last layer missing": ("r_var", lambda doc: doc["r_var"]["layers"].pop()),
    "extra layer": ("r_fac", lambda doc: doc["r_fac"]["layers"].append(doc["r_fac"]["layers"][0])),
    "value missing": ("a2.w0", lambda doc: doc["a2"]["layers"][0]["w"].pop()),
    "value extra": ("h1", lambda doc: doc["h1"].append(0.5)),
    "rows and cols swapped": ("a1.w0", lambda doc: _swap_rows_cols(doc["a1"]["layers"][0])),
    "rows disagree with data": ("a3.w1", lambda doc: _set(doc["a3"]["layers"][1], "rows", 9)),
    "huge rows": ("hidden width 1000000000",
                  lambda doc: _set(doc["a1"]["layers"][0], "rows", 10**9)),
    "non-numeric value": ("r_var.w0", lambda doc: _set(doc["r_var"]["layers"][0]["w"], 3, "x")),
    "null value": ("a1.b1", lambda doc: _set(doc["a1"]["layers"][1]["b"], 2, None)),
    "nested value": ("h2", lambda doc: _set(doc["h2"], 0, [0.5, 0.5])),
    "boolean version": ("version True is not an integer", lambda doc: _set(doc, "version", True)),
    "fractional d": ("d 3.5 is not an integer", lambda doc: _set(doc, "d", 3.5)),
    "string d": ("d '3' is not an integer", lambda doc: _set(doc, "d", "3")),
    "fractional rows": ("a1.w1: rows 8.0 is not an integer",
                        lambda doc: _set(doc["a1"]["layers"][1], "rows", 8.0)),
    "boolean rows of width 1": ("r_var.w3: rows True is not an integer",
                                lambda doc: _set(doc["r_var"]["layers"][3], "rows", True)),
    "fractional hidden width": ("a1.w0: rows 8.0 is not an integer",
                                lambda doc: _set(doc["a1"]["layers"][0], "rows", 8.0)),
    "string cols": ("a3.w2: cols '8' is not an integer",
                    lambda doc: _set(doc["a3"]["layers"][2], "cols", "8")),
}


class TestSaveLoad:
    def test_bitwise_round_trip(self, tmp_path):
        p = init_params(5, seed=1)
        path = tmp_path / "w.json"
        save_params(p, path)
        q = load_params(path)
        assert q.d == p.d
        for (na, va), (nb, vb) in zip(p.param_items(), q.param_items()):
            assert na == nb
            assert va.shape == vb.shape
            assert np.array_equal(va, vb)

    def test_reduction_params_are_not_saved(self, tmp_path):
        # only learned weights have a file; the reduction is the CLI's name
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="a1"):
            save_params(bp_reduction_params(), path)
        assert not path.exists()
        save_params(init_params(1, seed=0), path)
        doc = json.loads(path.read_text())
        doc["a1"] = {"kind": "identity"}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError, match="identity"):
            load_params(path)

    def test_wrong_d_is_shape_error(self, tmp_path):
        p = init_params(3, seed=1)
        path = tmp_path / "w.json"
        save_params(p, path)
        doc = json.loads(path.read_text())
        doc["d"] = 4
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_truncated_file_is_corruption_error(self, tmp_path):
        p = init_params(3, seed=1)
        path = tmp_path / "w.json"
        save_params(p, path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_version_mismatch(self, tmp_path):
        p = init_params(3, seed=1)
        path = tmp_path / "w.json"
        save_params(p, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_file_bytes_and_loaded_arrays_are_pinned(self, tmp_path):
        # the digests are of the file and of the arrays read back from it
        # when they were first recorded
        path = tmp_path / "w.json"
        save_params(init_params(3, 1, hidden=8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "aaab4370d453f9470e11596ef9d9846c43eac6fa6341abbfac7b8bcb7f2a7ce9")
        h = hashlib.sha256()
        for name, arr in load_params(path).param_items():
            h.update(f"{name}{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == "9d0ffb13171bcd1cf38e7baf4a25ca2c4ff30336d05d53477d18754a9ac15244"

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_format_error(self, tmp_path, case):
        where, edit = MALFORMED[case]
        path = tmp_path / "w.json"
        save_params(init_params(3, 1, hidden=8), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParamsFormatError, match=re.escape(where)):
            load_params(path)

    def test_hidden_widths_must_be_one(self, tmp_path):
        # init_params gives every network one hidden width; a file that
        # mixes widths chains, but is not a layout init_params makes
        p = init_params(3, 1, hidden=8)
        p.a3 = init_params(3, 1, hidden=4).a3
        path = tmp_path / "w.json"
        save_params(p, path)
        with pytest.raises(ParamsFormatError, match="a3.w0: declared 4x3, expected 8x3"):
            load_params(path)


class TestReduction:
    def test_marginals_on_tree_match_oracle(self):
        f1 = CnfFormula(2, ((1, 2),))
        out = forward(build_factor_graph(f1), bp_reduction_params(), 50)
        assert np.abs(out.marginals - 2 / 3).max() <= 1e-9

    def test_messages_match_bp_every_iteration(self):
        rng = np.random.default_rng(5)
        red = bp_reduction_params()
        for _ in range(10):
            n = int(rng.integers(3, 15))
            formula = helpers.random_formula(rng, n, 2 * n, min_len=2)
            graph = build_factor_graph(formula)
            T = 10
            tape = net._forward(graph, red, T, want_count=False)
            for k, it in enumerate(tape.iters):
                state = bp_run(graph, BpConfig(max_iters=k + 1, convergence_eps=1e-300))
                assert np.abs(it.v2c[:, :, 0] - state.v2c).max() <= 1e-9
                c2v = satisfying_lse(graph, it.v2c)[0]  # A3 is the identity
                assert np.abs(c2v[:, :, 0] - state.c2v).max() <= 1e-9
            out = forward(graph, red, T)
            assert np.abs(out.marginals - bp_marginals(state, graph)).max() <= 1e-9

    def test_lnz_matches_bethe_on_trees(self):
        rng = np.random.default_rng(6)
        red = bp_reduction_params()
        for _ in range(10):
            formula = helpers.random_tree_formula(rng, int(rng.integers(2, 14)))
            graph = build_factor_graph(formula)
            out = forward(graph, red, 60)
            state = bp_run(graph, BpConfig(max_iters=60, convergence_eps=1e-300))
            assert out.ln_z == pytest.approx(bethe_ln_z(state, graph), abs=1e-9)

    def test_marginals_on_running_example_match_bp(self):
        graph = build_factor_graph(helpers.F0)
        out = forward(graph, bp_reduction_params(), 10)
        state = bp_run(graph, BpConfig(max_iters=10, convergence_eps=1e-300))
        assert np.abs(out.marginals - bp_marginals(state, graph)).max() <= 1e-9


def factor_beliefs(graph, params, T):
    """Per-clause log factor beliefs of the tape-free forward: its ``lbf``,
    whose rows run block by block of the enumeration plan, each block's
    (clauses, rows) in order, regrouped by clause."""
    tape = net._forward(graph, params, T, want_count=True, keep_tape=False)
    beliefs, r = [None] * graph.num_clauses, 0
    for slots in helpers.plan_slots(tape.plan):
        _, c, K = slots.shape
        for i, a in enumerate(graph.inc_clause[slots[0, :, 0] // 2]):
            beliefs[a] = tape.lbf[r + i * K: r + (i + 1) * K]
        r += c * K
    assert r == len(tape.lbf) and all(b is not None for b in beliefs)
    return beliefs


class TestForward:
    def test_marginal_pairs_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = init_params(8, seed=2)
        formula = helpers.random_formula(rng, 8, 20)
        out = forward(build_factor_graph(formula), params, 5)
        assert np.all(out.marginals >= 0) and np.all(out.marginals <= 1)

    def test_factor_beliefs_normalized(self):
        rng = np.random.default_rng(9)
        params = init_params(8, seed=2)
        formula = helpers.random_formula(rng, 8, 20, min_len=2)
        for beliefs in factor_beliefs(build_factor_graph(formula), params, 5):
            assert abs(np.exp(beliefs).sum() - 1.0) <= 1e-12

    def test_isolated_variable_gets_half(self):
        params = init_params(6, seed=4)
        out = forward(build_factor_graph(CnfFormula(3, ((1, 2),))), params, 5)
        assert out.marginals[2] == pytest.approx(0.5, abs=0)

    def test_no_clause_formula_counts_free_variables(self):
        params = init_params(6, seed=4)
        out = forward(build_factor_graph(CnfFormula(4, ())), params, 5)
        assert np.allclose(out.marginals, 0.5)
        assert out.ln_z == pytest.approx(4 * math.log(2), abs=1e-12)

    def test_factor_cap_guards_count_path_only(self):
        formula = CnfFormula(12, (tuple(range(1, 13)),))
        graph = build_factor_graph(formula)
        params = init_params(4, seed=0)
        with pytest.raises(ValueError):
            forward(graph, params, 3, with_count=True)
        out = forward(graph, params, 3, with_count=False)
        assert out.marginals.shape == (12,)
        assert out.ln_z is None

    def test_incidence_order_invariance(self):
        rng = np.random.default_rng(10)
        params = init_params(8, seed=7)
        for _ in range(5):
            formula = helpers.random_formula(rng, 7, 16, min_len=2)
            shuffled = helpers.shuffle_within_clauses(formula, rng)
            a = forward(build_factor_graph(formula), params, 6)
            b = forward(build_factor_graph(shuffled), params, 6)
            assert np.abs(a.marginals - b.marginals).max() <= 1e-9
            assert a.ln_z == pytest.approx(b.ln_z, abs=1e-9)


_cast = helpers.cast_params


class TestTapeFree:
    """``forward`` runs the message loop without a tape, reusing its hidden
    layer buffers; it must give the training forward's numbers bit for bit."""

    @staticmethod
    def assert_equals_tape_path(graph, params, T, with_count):
        out = forward(graph, params, T, with_count=with_count)
        free = net._forward(graph, params, T, want_count=with_count, keep_tape=False)
        tape = net._forward(graph, params, T, want_count=with_count)
        assert out.marginals.dtype == tape.lbv.dtype
        assert np.array_equal(out.marginals, np.exp(tape.lbv[:, 1]), equal_nan=True)
        if with_count:
            assert np.array_equal(free.lbf, tape.lbf, equal_nan=True)
            assert np.array_equal(out.ln_z, tape.ln_z, equal_nan=True)
        else:
            assert out.ln_z is None and free.lbf is None

    @pytest.mark.parametrize("params_name", ["d16", "d4", "reduction"])
    def test_forward_equals_tape_path(self, params_name):
        params = {
            "d16": lambda: init_params(16, 0),
            "d4": lambda: init_params(4, 1),
            "reduction": bp_reduction_params,
        }[params_name]()
        for formula in helpers.inference_corpus().values():
            graph = build_factor_graph(formula)
            for T in (0, 1, 10):
                for with_count in (True, False):
                    self.assert_equals_tape_path(graph, params, T, with_count)

    def test_float32_stays_float32(self, monkeypatch):
        # a buffer allocated as float64 would upcast the float32 MLPs, or
        # take their float32 results and pass them on downcast, silently:
        # every array the loop's iterations, networks and reductions see
        # must be float32
        seen = set()

        def arrays(values):
            for v in values:
                if isinstance(v, np.ndarray):
                    yield v
                elif isinstance(v, (list, tuple)):
                    yield from arrays(v)
                elif isinstance(v, net._IterTape):
                    yield from arrays(vars(v).values())

        def spy(fn):
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                seen.update(a.dtype for a in arrays((*args, *kwargs.values(), result)))
                return result
            return wrapped

        for owner, name in [(net, "_message_iteration"), (net, "satisfying_lse"),
                            (net, "logaddexp"), (net, "log1mexp"), (net.Mlp, "apply"),
                            (FactorGraph, "var_others_sum"), (FactorGraph, "clause_others_sum")]:
            monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
        params = _cast(init_params(16, 0), np.float32)
        for name, formula in helpers.inference_corpus().items():
            graph = build_factor_graph(formula)
            for with_count in (True, False):
                out = forward(graph, params, 10, with_count=with_count)
                assert out.marginals.dtype == np.float32, name
                if with_count:
                    free = net._forward(graph, params, 10, want_count=True, keep_tape=False)
                    assert free.lbf.dtype == np.float32, name
                self.assert_equals_tape_path(graph, params, 10, with_count)
        assert {dt for dt in seen if dt.kind == "f"} == {np.dtype(np.float32)}

    def test_outputs_and_tape_keep_their_values_across_calls(self):
        # a call's buffers are its own: later calls on the same graph leave
        # what an earlier one returned as it was, and each iteration a tape
        # records has arrays of its own
        graph = build_factor_graph(helpers.inference_corpus()["3sat"])
        params = init_params(16, 0)
        out = forward(graph, params, 5)
        free = net._forward(graph, params, 5, want_count=True, keep_tape=False)
        tape = net._forward(graph, params, 3, want_count=True)
        recorded = [a for it in tape.iters for a in vars(it).values()]
        for i, a in enumerate(recorded):
            assert not any(np.shares_memory(a, b) for b in recorded[i + 1:])
        returned = [out.marginals, free.lbf, tape.lbv, tape.lbf, tape.sv, *recorded]
        kept = [a.copy() for a in returned]
        forward(graph, params, 5)
        forward(graph, params, 5, with_count=False)
        net._forward(graph, params, 3, want_count=True)
        assert all(np.array_equal(a, b) for a, b in zip(returned, kept))

    def test_peak_memory_does_not_grow_with_T(self):
        graph = build_factor_graph(
            helpers.random_formula(np.random.default_rng(3), 100, 370, min_len=3, max_len=3)
        )
        params = init_params(16, 0)
        forward(graph, params, 2, with_count=False)  # build the graph's cached plans

        def peak(T):
            tracemalloc.start()
            try:
                forward(graph, params, T, with_count=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10) <= 1.1 * peak(2)

    def test_backward_refuses_tape_free_run(self):
        graph = build_factor_graph(helpers.F0)
        params = init_params(4, 1, hidden=8)
        tape = net._forward(graph, params, 3, want_count=False, keep_tape=False)
        with pytest.raises(ValueError, match="keep_tape"):
            net.backward(tape, params, dlbv=np.ones((3, 2)))

    def test_float32_ln_z(self):
        # the Bethe sum's integer degree weights must not promote float32
        params = _cast(init_params(16, 0), np.float32)
        for name, formula in helpers.inference_corpus().items():
            tape = net._forward(build_factor_graph(formula), params, 3, want_count=True)
            assert tape.lbv.dtype == tape.lbf.dtype == np.float32, name
            assert tape.ln_z.dtype == np.float32, name


class TestEquivariance:
    """Invariance/equivariance of the outputs under formula symmetries."""

    def test_variable_and_clause_permutation(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            params = init_params(8, seed=20 + trial)
            n = int(rng.integers(3, 10))
            formula = helpers.random_formula(rng, n, 2 * n, min_len=2)
            var_perm = rng.permutation(n)
            clause_perm = rng.permutation(formula.num_clauses)
            permuted = helpers.permute_formula(formula, var_perm, clause_perm)
            a = forward(build_factor_graph(formula), params, 6)
            b = forward(build_factor_graph(permuted), params, 6)
            assert np.abs(a.marginals - b.marginals[var_perm]).max() <= 1e-9
            assert a.ln_z == pytest.approx(b.ln_z, abs=1e-9)
            beliefs_a = factor_beliefs(build_factor_graph(formula), params, 6)
            beliefs_b = factor_beliefs(build_factor_graph(permuted), params, 6)
            for old_idx, beliefs in zip(clause_perm, beliefs_b):
                assert np.abs(np.sort(beliefs) - np.sort(beliefs_a[old_idx])).max() <= 1e-9

    def test_negation_swaps_marginal_pair(self):
        rng = np.random.default_rng(12)
        for trial in range(8):
            params = init_params(8, seed=40 + trial)
            n = int(rng.integers(2, 9))
            formula = helpers.random_formula(rng, n, 2 * n, min_len=2)
            v = int(rng.integers(1, n + 1))
            negated = helpers.negate_variable(formula, v)
            a = forward(build_factor_graph(formula), params, 6)
            b = forward(build_factor_graph(negated), params, 6)
            assert abs(a.marginals[v - 1] - (1.0 - b.marginals[v - 1])) <= 1e-12
            mask = np.arange(n) != v - 1
            assert np.abs(a.marginals[mask] - b.marginals[mask]).max() <= 1e-12
            assert a.ln_z == pytest.approx(b.ln_z, abs=1e-9)


class TestSatisfyingLse:
    def test_factorized_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for d in (1, 8):
            for length in range(1, 7):
                for _ in range(20):
                    lits = [
                        (j + 1) * (1 if rng.random() < 0.5 else -1)
                        for j in range(length)
                    ]
                    formula = CnfFormula(length, (tuple(lits),))
                    graph = build_factor_graph(formula)
                    v2c = rng.normal(size=(length, 2, d))
                    u, _, _, _ = satisfying_lse(graph, v2c)
                    for e in range(length):
                        for value in (0, 1):
                            ref = helpers.brute_satisfying_lse(graph, v2c, e, value)
                            if ref is None:
                                assert np.all(u[e, value] == log1mexp(DELTA_CLAMP))
                            else:
                                assert np.abs(u[e, value] - ref).max() <= 1e-9

    def test_unit_clause_branches(self):
        graph = build_factor_graph(CnfFormula(1, ((1,),)))
        v2c = np.random.default_rng(0).normal(size=(1, 2, 3))
        u, _, _, _ = satisfying_lse(graph, v2c)
        assert np.allclose(u[0, 1], 0.0)  # satisfying branch: empty sum
        assert np.all(u[0, 0] == log1mexp(DELTA_CLAMP))


class TestMlp:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Mlp([np.zeros((3, 2)), np.zeros((4, 5))], [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            Mlp([np.zeros((3, 2))], [np.zeros(2)])

    def test_apply_matches_manual(self):
        rng = np.random.default_rng(1)
        mlp = Mlp(
            [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))],
            [rng.normal(size=4), rng.normal(size=2)],
        )
        x = rng.normal(size=(5, 3))
        hidden = np.maximum(x @ mlp.weights[0].T + mlp.biases[0], 0.0)
        expected = hidden @ mlp.weights[1].T + mlp.biases[1]
        assert np.allclose(mlp.apply(x), expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_cached_reference(self, dtype):
        # recomputing the hidden layers into work buffers must give the
        # cache-based backward's gradients bit for bit
        rng = np.random.default_rng(2)
        for widths in ([5, 7, 9, 6, 3], [4, 16, 1], [3, 2]):
            mlp = Mlp(
                [rng.normal(size=(b, a)).astype(dtype) for a, b in zip(widths, widths[1:])],
                [rng.normal(size=b).astype(dtype) for b in widths[1:]],
            )
            for rows in (1, 37):
                x = rng.normal(size=(rows, widths[0])).astype(dtype)
                dy = rng.normal(size=(rows, widths[-1])).astype(dtype)
                out, cache = helpers.mlp_apply_cached(mlp, x)
                assert np.array_equal(mlp.apply(x), out)
                ref = {
                    f"m.{k}{i}": np.zeros_like(a)
                    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases))
                    for k, a in (("w", w), ("b", b))
                }
                got = {k: a.copy() for k, a in ref.items()}
                dx_ref = helpers.mlp_backward_cached(mlp, dy, cache, ref, "m")
                work = net._work([mlp], rows + 3, dtype)
                dx = mlp.backward(dy, x, got, "m", work)
                assert dx.dtype == dtype
                assert np.array_equal(dx, dx_ref), widths
                for k in ref:
                    assert got[k].dtype == dtype
                    assert np.array_equal(got[k], ref[k]), (widths, k)

    def test_row_blocks_split_evenly(self):
        for rows in (0, 1, 511, 512, 513, 3 * net.BLOCK_ROWS + 37, 10_000):
            blocks = net._row_blocks(rows)
            assert len(blocks) == -(-rows // net.BLOCK_ROWS)
            # consecutive, from 0 to rows
            assert [lo for lo, _ in blocks] + [rows] == [0] + [hi for _, hi in blocks]
            lengths = [hi - lo for lo, hi in blocks]
            assert all(min(rows, net.BLOCK_ROWS // 2) <= n <= net.BLOCK_ROWS for n in lengths)
            assert max(lengths, default=0) - min(lengths, default=0) <= 1

    @pytest.mark.parametrize(
        "widths", [[16, 64, 64, 64, 16], [32, 64, 64, 64, 16], [16, 64, 64, 64, 1]]
    )
    def test_blocked_passes_match_cached_reference(self, widths):
        # 3 blocks of 512 rows and a remainder: the even split must keep
        # every row's output and input grad, and only reorder the sums of
        # the parameter grads
        rows = 3 * net.BLOCK_ROWS + 37
        rng = np.random.default_rng(4)
        mlp = Mlp(
            [rng.normal(size=(b, a)) / math.sqrt(a) for a, b in zip(widths, widths[1:])],
            [rng.normal(size=b) for b in widths[1:]],
        )
        x = rng.normal(size=(rows, widths[0]))
        dy = rng.normal(size=(rows, widths[-1]))
        expected, cache = helpers.mlp_apply_cached(mlp, x)
        scratch = net._hidden_buffers([mlp], rows, np.float64, 2)
        assert scratch[0].size == net.BLOCK_ROWS * 64
        out = np.full_like(expected, np.nan)
        assert mlp.apply(x, scratch, out) is out
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

        ref = {
            f"m.{k}{i}": np.zeros_like(a)
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases))
            for k, a in (("w", w), ("b", b))
        }
        got = {k: a.copy() for k, a in ref.items()}
        dx_ref = helpers.mlp_backward_cached(mlp, dy, cache, ref, "m")
        dx = np.full_like(x, np.nan)
        assert mlp.backward(dy, x, got, "m", net._work([mlp], rows, np.float64), dx) is dx
        assert np.max(np.abs(dx - dx_ref)) <= 1e-13 * np.max(np.abs(dx_ref))
        diff = math.sqrt(sum(float(np.sum((got[k] - ref[k]) ** 2)) for k in ref))
        norm = math.sqrt(sum(float(np.sum(ref[k] ** 2)) for k in ref))
        assert diff <= 1e-12 * norm
