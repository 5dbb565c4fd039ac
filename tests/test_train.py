import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

import helpers
from nsnet import cli, net, oracle, train
from nsnet.cnf import CnfFormula
from nsnet.graph import build_factor_graph
from nsnet.train import (
    LabeledInstance,
    NonFiniteLossError,
    OptimizerState,
    TrainConfig,
    adam_step,
    batch_loss,
    clip_global_norm,
    grad,
    split_dataset,
    train_loop,
)

LD = np.longdouble


def labeled(formula):
    return LabeledInstance(
        formula,
        marginals=oracle.exact_marginals(formula),
        ln_count=oracle.exact_count(formula).ln_count,
    )


def to_longdouble(params):
    return helpers.cast_params(params, LD)


class TestLosses:
    """The training losses, through ``batch_loss`` on one-instance batches:
    the marginal task's mean KL(truth || prediction) and the counting task's
    squared ln Z error."""

    @staticmethod
    def loss(inst, params, task="marginals"):
        return batch_loss([inst], params, TrainConfig(task=task, d=params.d, T=3, hidden=16))

    @staticmethod
    def uniform_params():
        # a zero variable readout predicts 0.5 for every variable
        params = net.init_params(4, seed=3, hidden=16)
        for a in params.r_var.weights + params.r_var.biases:
            a[:] = 0.0
        return params

    def test_kl_zero_when_equal(self):
        formula = CnfFormula(4, ((1, -2), (2, 3), (-3, 4)))
        params = net.init_params(4, seed=5, hidden=16)
        pred = net.forward(build_factor_graph(formula), params, 3, with_count=False).marginals
        assert self.loss(LabeledInstance(formula, marginals=pred), params) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_kl_hard_truth_against_uniform(self):
        inst = LabeledInstance(CnfFormula(1, ((1,),)), marginals=np.array([1.0]))
        assert self.loss(inst, self.uniform_params()) == pytest.approx(math.log(2), abs=1e-12)

    def test_kl_uniform_over_three_variables(self):
        inst = LabeledInstance(CnfFormula(3, ((1, 2), (-2, 3))), marginals=np.full(3, 0.5))
        assert self.loss(inst, self.uniform_params()) == pytest.approx(0.0, abs=1e-12)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(0)
        for k in range(40):
            n = int(rng.integers(1, 6))
            formula = helpers.random_formula(rng, n, int(rng.integers(1, 6)), min_len=1)
            inst = LabeledInstance(formula, marginals=rng.uniform(0, 1, size=n))
            assert self.loss(inst, net.init_params(4, seed=k, hidden=16)) >= -1e-12

    def test_kl_mismatched_sets(self):
        with pytest.raises(ValueError):
            LabeledInstance(CnfFormula(1, ((1,),)), marginals=np.array([0.5, 0.5]))

    def test_mse_examples(self):
        formula = CnfFormula(3, ((1, -2), (2, 3)))
        params = net.init_params(4, seed=2, hidden=16)
        ln_z = net.forward(build_factor_graph(formula), params, 3).ln_z
        for label, expected in ((ln_z, 0.0), (ln_z - math.log(2), math.log(2) ** 2), (ln_z + 1.0, 1.0)):
            inst = LabeledInstance(formula, ln_count=label)
            assert self.loss(inst, params, "counting") == pytest.approx(expected, abs=1e-12)

    def test_mse_requires_finite(self):
        inst = LabeledInstance(CnfFormula(2, ((1, 2),)), ln_count=math.inf)
        config = TrainConfig(task="counting", d=4, T=2, hidden=16)
        with pytest.raises(NonFiniteLossError):
            grad([inst], net.init_params(4, seed=0, hidden=16), config)


class TestGrad:
    def test_finite_difference_spot_check(self):
        # full elementwise sweeps live in the acceptance suite; this is a
        # fast randomized sample over all parameter blocks for both tasks
        formula = CnfFormula(5, ((1, -2), (3,), (-1, 4, 5), (2, -4), (-3, -5)))
        inst = labeled(formula)
        params = net.init_params(4, seed=7, hidden=16)
        pld = to_longdouble(params)
        graph = inst.factor_graph()
        h = LD(1e-5)
        rng = np.random.default_rng(1)
        for task in ("marginals", "counting"):
            config = TrainConfig(task=task, d=4, T=3, hidden=16)
            grads, _ = grad([inst], params, config)

            def loss_ld():
                tape = net._forward(graph, pld, 3, want_count=(task == "counting"))
                if task == "counting":
                    return (tape.ln_z - LD(inst.ln_count)) ** 2
                t = np.stack([1.0 - inst.marginals, inst.marginals], axis=1).astype(LD)
                log_p = np.maximum(tape.lbv, LD(math.log(1e-12)))
                ent = np.where(t > 0, t * np.log(np.maximum(t, LD(1e-300))), LD(0))
                return np.sum(ent - t * log_p) / len(inst.marginals)

            for name, arr in pld.param_items():
                flat = arr.ravel()
                for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_ld()
                    flat[i] = orig - h
                    down = loss_ld()
                    flat[i] = orig
                    fd = float((up - down) / (2 * h))
                    an = grads[name].ravel()[i]
                    assert abs(an - fd) / max(abs(an), 1e-8) <= 1e-4, (task, name, i)

    def test_stationary_readout_bias(self):
        # zero-weight variable readout pins the softmax at (0.5, 0.5); with
        # truth 0.5 everywhere that is a stationary point for its bias
        formula = CnfFormula(3, ((1, 2), (-2, 3)))
        inst = LabeledInstance(formula, marginals=np.full(3, 0.5))
        params = net.init_params(4, seed=3, hidden=16)
        for w in params.r_var.weights:
            w[:] = 0.0
        for b in params.r_var.biases:
            b[:] = 0.0
        config = TrainConfig(task="marginals", d=4, T=2, hidden=16)
        grads, loss = grad([inst], params, config)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grads["r_var.b3"], 0.0, atol=1e-15)

    def test_duplicate_instance_leaves_mean_gradient(self):
        formula = CnfFormula(4, ((1, -2), (2, 3), (-3, 4)))
        inst = labeled(formula)
        params = net.init_params(4, seed=5, hidden=16)
        config = TrainConfig(task="marginals", d=4, T=3, hidden=16)
        g1, l1 = grad([inst], params, config)
        g2, l2 = grad([inst, inst], params, config)
        assert l1 == pytest.approx(l2, abs=1e-13)
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-13)

    def test_nonfinite_loss_reports_instance(self):
        good = labeled(CnfFormula(2, ((1, 2),)))
        bad = LabeledInstance(CnfFormula(2, ((1, 2),)), ln_count=float("nan"))
        config = TrainConfig(task="counting", d=4, T=2, hidden=16)
        params = net.init_params(4, seed=0, hidden=16)
        with pytest.raises(NonFiniteLossError) as err:
            grad([good, bad], params, config)
        assert err.value.instance_index == 1

    @pytest.mark.parametrize("task", ["marginals", "counting"])
    def test_float32_params_give_float32_gradients(self, task, monkeypatch):
        # the parameter grads are float32 however the pass runs, since they
        # accumulate into float32 arrays; the MLPs' gradient dtypes show it
        dtypes = set()
        mlp_backward = net.Mlp.backward

        def spy(self, dy, *args):
            dx = mlp_backward(self, dy, *args)
            dtypes.update((dy.dtype, dx.dtype))
            return dx

        rng = np.random.default_rng(3)
        batch = []
        while len(batch) < 3:
            f = helpers.random_formula(rng, int(rng.integers(5, 9)), 12, min_len=2)
            if oracle.satisfiable(f):
                batch.append(labeled(f))
        params = net.init_params(16, 0)
        config = TrainConfig(task=task, d=16, T=10)
        g64, _ = grad(batch, params, config)
        monkeypatch.setattr(net.Mlp, "backward", spy)
        g32, _ = grad(batch, helpers.cast_params(params, np.float32), config)
        assert dtypes == {np.dtype(np.float32)}
        diff = norm = 0.0
        for name, g in g64.items():
            assert g32[name].dtype == np.float32, name
            assert np.isfinite(g32[name]).all(), name
            diff += float(np.sum((g32[name].astype(float) - g) ** 2))
            norm += float(np.sum(g * g))
        assert math.sqrt(diff) <= 1e-3 * math.sqrt(norm)

    def test_tape_memory_per_iteration(self):
        # the tape keeps each iteration's MLP inputs and satisfying_lse's
        # intermediates, about 10 values per incidence per embedding
        # coordinate; keeping the MLPs' hidden layers as well takes about 84
        rng = np.random.default_rng(5)
        batch = [
            LabeledInstance(helpers.random_formula(rng, 30, 75, min_len=2, max_len=5), ln_count=1.0)
            for _ in range(4)
        ]
        E = sum(inst.factor_graph().num_incidences for inst in batch)
        params = net.init_params(16, 0)

        def peak(T):
            config = TrainConfig(task="counting", d=16, T=T)
            tracemalloc.start()
            try:
                grad(batch, params, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call costs
        per_iter = (peak(10) - peak(2)) / 8
        assert per_iter <= 16 * E * 16 * params.h1.itemsize

    @staticmethod
    def _peak_batch():
        rng = np.random.default_rng(6)
        batch = []
        while len(batch) < 8:
            f = helpers.random_formula(rng, 30, 75, min_len=2, max_len=5)
            count = oracle.exact_count(f)
            if count.model_count:
                batch.append(LabeledInstance(f, ln_count=count.ln_count))
        params = net.init_params(16, 0)
        config = TrainConfig(task="counting", d=16, T=10)
        for inst in batch:  # the graphs and their enumeration plans, cached
            inst.factor_graph().satisfying_enumeration(config.factor_cap)

        def peak(instances):
            tracemalloc.start()
            try:
                grad(instances, params, config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(batch[:1])  # first-call costs
        return batch, peak

    def test_batch_peak_stays_near_one_formula(self, monkeypatch):
        # on one thread a step holds one formula's tape at a time, so a
        # batch's traced peak is about its largest formula's, not the sum of
        # their tapes
        monkeypatch.setattr(train, "_workers", lambda count: 1)
        batch, peak = self._peak_batch()
        largest = max(peak([inst]) for inst in batch)
        assert peak(batch) <= 1.5 * largest

    def test_batch_peak_stays_near_one_formula_per_worker(self, monkeypatch):
        # w threads hold at most w tapes, and the results that wait for an
        # earlier formula are added as soon as it finishes, not at the end
        workers = 2
        monkeypatch.setattr(train, "_workers", lambda count: min(count, workers))
        batch, peak = self._peak_batch()
        singles = sorted(peak([inst]) for inst in batch)
        assert peak(batch) <= 1.5 * sum(singles[-workers:])


def _mixed_batch(seed: int = 8):
    """Satisfiable formulas of several sizes with both labels; the second
    one appears again at the end."""
    rng = np.random.default_rng(seed)
    batch = []
    for n in (5, 12, 3, 9, 7):
        while True:
            f = helpers.random_formula(rng, n, 2 * n, min_len=2, max_len=5)
            if oracle.satisfiable(f):
                break
        batch.append(labeled(f))
    return batch + [batch[1]]


class TestWorkers:
    """A step's formulas run on several threads and give what one thread
    gives, bit for bit, errors included."""

    def _with_workers(self, monkeypatch, workers: int):
        monkeypatch.setattr(train, "_workers", lambda count: min(count, workers))

    def test_workers_follow_the_cpu_affinity(self):
        cores = len(os.sched_getaffinity(0))
        assert train._workers(16) == min(16, cores)
        assert train._workers(1) == 1

    @pytest.mark.parametrize("task", ["marginals", "counting"])
    def test_threads_give_bit_identical_results(self, task, monkeypatch):
        batch = _mixed_batch()
        params = net.init_params(8, 2, hidden=16)
        config = TrainConfig(task=task, d=8, T=4, hidden=16)
        self._with_workers(monkeypatch, 1)
        g1, l1 = grad(batch, params, config)
        b1 = batch_loss(batch, params, config)
        for workers in (2, 3):
            self._with_workers(monkeypatch, workers)
            before = threading.active_count()
            g2, l2 = grad(batch, params, config)
            b2 = batch_loss(batch, params, config)
            assert threading.active_count() == before  # no helper outlives the call
            assert l2 == l1 and b2 == b1
            assert g2.keys() == g1.keys()
            for name in g1:
                assert np.array_equal(g1[name], g2[name]), (workers, name)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_index_nonfinite_loss_is_raised(self, workers, monkeypatch):
        # with more than one thread, formula 1 holds its thread until formula
        # 3 has failed on another, so the later failure is recorded first
        good = labeled(CnfFormula(2, ((1, 2),)))
        batch = [good, LabeledInstance(CnfFormula(3, ((1, 2), (-2, 3))), ln_count=float("nan")),
                 good, LabeledInstance(CnfFormula(2, ((1, -2),)), ln_count=float("nan")), good]
        config = TrainConfig(task="counting", d=4, T=2, hidden=16)
        params = net.init_params(4, 0, hidden=16)
        third_failed = threading.Event()
        loss = train._loss

        def ordered_loss(inst, tape, config):
            if inst is batch[3]:
                third_failed.set()
            elif inst is batch[1] and workers > 1:
                assert third_failed.wait(10)
                time.sleep(0.05)  # formula 3 raises right after its loss
            return loss(inst, tape, config)

        monkeypatch.setattr(train, "_loss", ordered_loss)
        self._with_workers(monkeypatch, workers)
        before = threading.active_count()
        with pytest.raises(NonFiniteLossError) as err:
            grad(batch, params, config)
        assert err.value.instance_index == 1
        assert threading.active_count() == before
        assert third_failed.is_set() == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cap_first", [True, False])
    def test_over_cap_clause_and_nonfinite_loss_keep_their_order(
        self, cap_first, workers, monkeypatch
    ):
        good = labeled(CnfFormula(2, ((1, 2),)))
        long_clause = LabeledInstance(CnfFormula(4, ((1, 2, 3, 4),)), ln_count=math.log(15))
        nan = LabeledInstance(CnfFormula(2, ((1, -2),)), ln_count=float("nan"))
        batch = [good, long_clause, good, nan] if cap_first else [good, nan, good, long_clause]
        config = TrainConfig(task="counting", d=4, T=2, hidden=16, factor_cap=3)
        params = net.init_params(4, 0, hidden=16)
        self._with_workers(monkeypatch, workers)
        if cap_first:
            with pytest.raises(ValueError, match="exceeds enumeration cap 3"):
                grad(batch, params, config)
            with pytest.raises(ValueError, match="exceeds enumeration cap 3"):
                batch_loss(batch, params, config)
        else:
            with pytest.raises(NonFiniteLossError) as err:
                grad(batch, params, config)
            assert err.value.instance_index == 1


class TestAdam:
    def test_first_step_magnitude(self):
        params = net.init_params(1, seed=0, hidden=16)
        zero = {k: np.zeros_like(v) for k, v in params.param_items()}
        zero["h1"] = np.array([1.0])
        before = params.h1.copy()
        config = TrainConfig(learning_rate=1e-4, weight_decay=0.0)
        new_params, state = adam_step(params, zero, OptimizerState.initial(params), config)
        # norm 1.0 clips to 0.65; Adam's first bias-corrected step is lr-sized
        assert new_params.h1[0] - before[0] == pytest.approx(-1e-4, rel=1e-6)
        assert state.step == 1

    def test_zero_gradient_is_identity(self):
        params = net.init_params(3, seed=1, hidden=16)
        zero = {k: np.zeros_like(v) for k, v in params.param_items()}
        config = TrainConfig(weight_decay=0.0)
        new_params, _ = adam_step(params, zero, OptimizerState.initial(params), config)
        for (_, a), (_, b) in zip(params.param_items(), new_params.param_items()):
            assert np.array_equal(a, b)

    def test_clip_rescales_global_norm(self):
        grads = {"a": np.array([1.2]), "b": np.array([0.5])}
        clipped = clip_global_norm(grads, 0.65)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
        assert total == pytest.approx(0.65, abs=1e-12)
        ratio = clipped["a"][0] / clipped["b"][0]
        assert ratio == pytest.approx(1.2 / 0.5, rel=1e-12)

    def test_clip_noop_below_threshold(self):
        grads = {"a": np.array([0.3])}
        assert clip_global_norm(grads, 0.65)["a"][0] == 0.3

    def test_nonfinite_gradient_leaves_weights_and_moments(self):
        params = net.init_params(2, seed=0, hidden=4)
        config = TrainConfig()
        small = {k: np.full_like(v, 0.01) for k, v in params.param_items()}
        params, state = adam_step(params, small, OptimizerState.initial(params), config)
        nan = {k: np.full_like(v, np.nan) for k, v in params.param_items()}
        after, after_state = adam_step(params, nan, state, config)
        assert after_state.step == state.step
        for (name, a), (_, b) in zip(params.param_items(), after.param_items()):
            assert np.array_equal(a, b), name
            assert np.array_equal(state.m[name], after_state.m[name]), name
            assert np.array_equal(state.v[name], after_state.v[name]), name

    def test_nonfinite_gradient_is_logged_with_its_step(self, caplog):
        params = net.init_params(1, seed=0, hidden=16)
        grads = {k: np.full_like(v, np.nan) for k, v in params.param_items()}
        state = OptimizerState.initial(params)
        state.step = 4
        with caplog.at_level("WARNING", logger="nsnet.train"):
            adam_step(params, grads, state, TrainConfig())
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "non-finite gradient" in caplog.text and "step 5" in caplog.text


class TestSplit:
    def test_sizes(self):
        train, val, test = split_dataset(list(range(10)), (0.6, 0.2, 0.2), seed=0)
        assert (len(train), len(val), len(test)) == (6, 2, 2)

    def test_deterministic_and_partition(self):
        data = list(range(17))
        a = split_dataset(data, (0.6, 0.2, 0.2), seed=5)
        b = split_dataset(data, (0.6, 0.2, 0.2), seed=5)
        assert a == b
        merged = sorted(a[0] + a[1] + a[2])
        assert merged == data

    def test_all_train(self):
        train, val, test = split_dataset(list(range(7)), (1.0, 0.0, 0.0), seed=1)
        assert len(train) == 7 and not val and not test

    def test_empty_error(self):
        with pytest.raises(ValueError):
            split_dataset([], (0.6, 0.2, 0.2), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_dataset([1], (0.5, 0.2, 0.2), seed=0)


class TestTrainLoop:
    def _corpus(self, count=12):
        rng = np.random.default_rng(2)
        out = []
        while len(out) < count:
            formula = helpers.random_tree_formula(rng, int(rng.integers(4, 9)))
            if oracle.satisfiable(formula):
                out.append(labeled(formula))
        return out

    def test_zero_epochs_returns_initial(self):
        corpus = self._corpus(4)
        config = TrainConfig(task="marginals", d=4, T=2, hidden=16, epochs=0, seed=3)
        params, history = train_loop(corpus, [], config)
        assert history == []
        ref = net.init_params(4, 3, hidden=16)
        for (_, a), (_, b) in zip(params.param_items(), ref.param_items()):
            assert np.array_equal(a, b)

    def test_deterministic_history(self):
        corpus = self._corpus(8)
        config = TrainConfig(
            task="marginals", d=4, T=2, hidden=16, epochs=3, seed=11, batch_size=4,
            learning_rate=1e-3,
        )
        p1, h1 = train_loop(corpus[:6], corpus[6:], config)
        p2, h2 = train_loop(corpus[:6], corpus[6:], config)
        assert h1 == h2
        for (_, a), (_, b) in zip(p1.param_items(), p2.param_items()):
            assert np.array_equal(a, b)

    def test_loss_descends(self):
        corpus = self._corpus(10)
        config = TrainConfig(
            task="marginals", d=8, T=5, hidden=16, epochs=25, seed=0, batch_size=5,
            learning_rate=1e-3,
        )
        params, history = train_loop(corpus, [], config)
        assert history[-1][1] < history[0][1]
        final = batch_loss(corpus, params, config)
        assert final < history[0][1]

    def test_validation_checkpoint_and_labels_checked(self):
        corpus = self._corpus(8)
        config = TrainConfig(task="marginals", d=4, T=2, hidden=16, epochs=2, seed=0)
        params, history = train_loop(corpus[:6], corpus[6:], config)
        assert all(math.isfinite(row[2]) for row in history)
        unlabeled = [LabeledInstance(corpus[0].formula)]
        with pytest.raises(ValueError):
            train_loop(unlabeled, [], config)

    def test_max_steps_short_circuits(self):
        corpus = self._corpus(8)
        config = TrainConfig(
            task="marginals", d=4, T=2, hidden=16, epochs=50, seed=0, batch_size=4,
            max_steps=2,
        )
        _, history = train_loop(corpus, [], config)
        assert len(history) == 1

    def test_max_steps_below_one_is_refused(self, tmp_path):
        # a loop that tests the step count only after a step would still
        # take one Adam step at max_steps = 0
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_steps"):
                TrainConfig(max_steps=bad)
        data, labels, weights = tmp_path / "data", tmp_path / "labels", tmp_path / "w.json"
        assert cli.main(["gen", "--dist", "sr", "--count", "2", "--num-vars", "6-8",
                         "--seed", "3", "--out", str(data)]) == cli.EXIT_OK
        assert cli.main(["label", "--data", str(data), "--task", "marginals",
                         "--out", str(labels)]) == cli.EXIT_OK
        code = cli.main(["train", "--data", str(data), "--labels", str(labels),
                         "--task", "marginals", "--max-steps", "0", "--out", str(weights)])
        assert code == cli.EXIT_RUNTIME
        assert not weights.exists()

    def test_nonfinite_loss_is_logged_with_its_instance(self, caplog):
        formulas = [inst.formula for inst in self._corpus(4)]
        corpus = [LabeledInstance(f, ln_count=1.0) for f in formulas]
        corpus[2] = LabeledInstance(formulas[2], ln_count=float("nan"))
        config = TrainConfig(task="counting", d=4, T=2, hidden=16, epochs=2, batch_size=1)
        with caplog.at_level("WARNING", logger="nsnet.train"):
            _, history = train_loop(corpus, [], config)
        assert history == []
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "non-finite loss on training instance 2" in caplog.text


    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_in_the_first_epoch_returns_the_last_good_parameters(self):
        # no epoch was validated, so there is no checkpoint to return: the
        # weights of the last step taken come back, as without a validation
        # set, not the initial ones
        corpus = self._corpus(8)
        config = TrainConfig(task="counting", d=4, T=2, hidden=16, epochs=1, batch_size=1,
                             learning_rate=1e12, seed=1)
        with_val, history = train_loop(corpus[:6], corpus[6:], config)
        without_val, history_without = train_loop(corpus[:6], [], config)
        assert history == history_without == []
        initial = net.init_params(4, 1, hidden=16)
        assert any(not np.array_equal(a, b)
                   for (_, a), (_, b) in zip(with_val.param_items(), initial.param_items()))
        for (_, a), (_, b) in zip(with_val.param_items(), without_val.param_items()):
            assert np.array_equal(a, b)


class TestBatchLoss:
    def test_matches_single_instance_losses(self):
        corpus = []
        rng = np.random.default_rng(4)
        while len(corpus) < 5:
            f = helpers.random_formula(rng, int(rng.integers(3, 8)), 8, min_len=2)
            if oracle.satisfiable(f):
                corpus.append(labeled(f))
        params = net.init_params(4, 8, hidden=16)
        config = TrainConfig(task="marginals", d=4, T=3, hidden=16)
        merged = batch_loss(corpus, params, config)
        singles = [batch_loss([inst], params, config) for inst in corpus]
        assert merged == pytest.approx(np.mean(singles), abs=1e-12)

        config_c = TrainConfig(task="counting", d=4, T=3, hidden=16)
        merged_c = batch_loss(corpus, params, config_c)
        singles_c = [batch_loss([inst], params, config_c) for inst in corpus]
        assert merged_c == pytest.approx(np.mean(singles_c), abs=1e-12)

    def test_kl_loss_agrees_with_forward_marginals(self):
        inst = labeled(helpers.F0)
        params = net.init_params(4, 8, hidden=16)
        config = TrainConfig(task="marginals", d=4, T=3, hidden=16)
        pred = net.forward(inst.factor_graph(), params, 3, with_count=False).marginals
        kl = 0.0
        for t, p in zip(inst.marginals, pred):
            for tv, pv in ((t, p), (1.0 - t, 1.0 - p)):
                if tv > 0:
                    kl += tv * (math.log(tv) - math.log(max(pv, 1e-12)))
        assert batch_loss([inst], params, config) == pytest.approx(kl / len(pred), abs=1e-12)

    @pytest.mark.parametrize("task", ["marginals", "counting"])
    def test_equals_tape_path(self, task):
        from nsnet.train import _loss, _tape

        rng = np.random.default_rng(7)
        batch = [
            LabeledInstance(f, marginals=rng.uniform(size=f.num_vars), ln_count=1.5)
            for f in helpers.inference_corpus().values()
        ]
        for params in (net.init_params(16, 0), net.init_params(4, 1), net.bp_reduction_params()):
            for T in (0, 1, 10):
                config = TrainConfig(task=task, d=params.d, T=T)
                for chunk in [batch] + [[inst] for inst in batch]:
                    per_inst = [_loss(inst, _tape(inst, params, config, keep_tape=True), config)[0]
                                for inst in chunk]
                    expected = float(np.mean(per_inst))
                    assert np.array_equal(batch_loss(chunk, params, config), expected, equal_nan=True)
