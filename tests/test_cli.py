import json

import numpy as np
import pytest

import helpers
from nsnet import cli, net
from nsnet.cnf import emit_dimacs


def write_dataset(tmp_path, formulas):
    data = tmp_path / "data"
    data.mkdir()
    for k, formula in enumerate(formulas):
        (data / f"{k:04d}.cnf").write_text(emit_dimacs(formula))
    return data


def run_cli(capsys, argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestEvalCounting:
    def test_model_weights_load_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        data = write_dataset(
            tmp_path, [helpers.random_formula(rng, 5, 6, min_len=2, max_len=3) for _ in range(3)]
        )
        labels = tmp_path / "labels"
        assert run_cli(capsys, ["label", "--data", data, "--task", "counting", "--out", labels])[0] == 0
        weights = tmp_path / "w.json"
        net.save_params(net.init_params(4, 0), weights)

        loads = []
        real_load = net.load_params

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(net, "load_params", counting_load)
        argv = ["eval", "--task", "counting", "--data", data, "--labels", labels,
                "--estimator", "model", "--model", weights, "--iters", "3"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["instances"] == 3 and report["failures"] == 0
        assert len(loads) == 1

        code, out_jobs = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert out_jobs == out
        assert len(loads) == 2


class TestEvalSolving:
    def test_model_weights_load_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(4)
        formulas = []
        while len(formulas) < 3:
            f = helpers.random_formula(rng, 6, 5, min_len=2, max_len=3)
            if helpers.brute_model_count(f) > 0:
                formulas.append(f)
        data = write_dataset(tmp_path, formulas)
        weights = tmp_path / "w.json"
        net.save_params(net.init_params(4, 0), weights)

        loads = []
        real_load = net.load_params

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(net, "load_params", counting_load)
        argv = ["eval", "--task", "solving", "--data", data, "--init", "model",
                "--model", weights, "--iters", "3", "--tries", "2", "--repeats", "2"]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["instances"] == 3
        assert len(loads) == 1

        code, out_jobs = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert out_jobs == out
        assert len(loads) == 2

    def test_random_init_solved_is_first_try_start(self, tmp_path, capsys):
        # with one try and no flips WalkSAT solves exactly when the
        # assignment it starts from is a model
        rng = np.random.default_rng(5)
        formulas = []
        while len(formulas) < 6:
            f = helpers.random_formula(rng, 6, 4, min_len=2, max_len=3)
            if helpers.brute_model_count(f) > 0:
                formulas.append(f)
        data = write_dataset(tmp_path, formulas)
        code, out = run_cli(capsys, ["eval", "--task", "solving", "--data", data,
                                     "--init", "random", "--tries", "1", "--max-flips", "0",
                                     "--repeats", "6"])
        assert code == 0
        rows = json.loads(out)["rows"]
        starts_solved = [s for r in rows for s in r["init_solved"]]
        assert 0 < sum(starts_solved) < len(starts_solved)
        for row in rows:
            assert row["solved"] == row["init_solved"]


REPORT_KEYS = {
    "gen": {"generated", "out"},
    "label": {"labeled", "task", "out"},
    "train": {"epochs_run", "final_train_loss", "final_val_loss", "weights"},
    "solve": {"solved", "assignment", "flips", "tries"},
    "counting": {"task", "estimator", "iterations", "instances", "failures", "rmse", "rows"},
    "solving": {"task", "init", "instances", "excluded_unsatisfiable", "repeats", "runs",
                "aggregate", "rows"},
}


@pytest.mark.parametrize("task", ["marginals", "counting"])
def test_pipeline_end_to_end(tmp_path, capsys, task):
    """gen -> label -> train -> infer -> solve -> eval on tiny SR formulas:
    report keys, exit codes, and byte-identical weights and eval reports on
    a rerun with the same seed and with --jobs 2 against --jobs 1."""

    def ok(argv, keys, code=cli.EXIT_OK):
        got, out = run_cli(capsys, argv)
        assert got == code, argv
        doc = json.loads(out)
        assert set(doc) == keys
        return doc

    data, labels = tmp_path / "data", tmp_path / "labels"
    ok(["gen", "--dist", "sr", "--count", "5", "--num-vars", "6-9", "--seed", "3",
        "--out", data], REPORT_KEYS["gen"])
    ok(["label", "--data", data, "--task", task, "--out", labels], REPORT_KEYS["label"])

    weights = [tmp_path / f"w{k}.json" for k in range(2)]
    for w in weights:
        doc = ok(["train", "--data", data, "--labels", labels, "--task", task,
                  "--max-steps", "2", "--batch-size", "2", "--d", "4", "--iters", "2",
                  "--seed", "1", "--out", w], REPORT_KEYS["train"])
        assert doc["epochs_run"] == 1
    assert weights[0].read_bytes() == weights[1].read_bytes()

    instance = data / "0000.cnf"
    keys = {"marginals", "ln_z"} if task == "counting" else {"marginals"}
    ok(["infer", "--input", instance, "--model", weights[0], "--iters", "2", "--task", task],
       keys)
    doc = ok(["solve", "--input", instance, "--init", "model", "--model", weights[0],
              "--iters", "2", "--seed", "1"], REPORT_KEYS["solve"], code=cli.EXIT_SAT)
    assert doc["solved"]

    if task == "counting":
        argv = ["eval", "--task", "counting", "--data", data, "--labels", labels,
                "--estimator", "model", "--model", weights[0], "--iters", "2"]
    else:
        argv = ["eval", "--task", "solving", "--data", data, "--init", "model",
                "--model", weights[0], "--iters", "2", "--tries", "2", "--repeats", "2"]
    reports = [tmp_path / f"r{k}.json" for k in range(3)]
    for report, jobs in zip(reports, ("1", "1", "2")):
        doc = ok(argv + ["--jobs", jobs, "--out", report], REPORT_KEYS[argv[2]])
        assert doc["instances"] == 5
    assert reports[0].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()


def test_exit_codes_of_errors(tmp_path, capsys):
    data = write_dataset(tmp_path, [helpers.F0])
    assert run_cli(capsys, ["eval", "--data", data])[0] == cli.EXIT_USAGE
    assert run_cli(capsys, ["no-such-command"])[0] == cli.EXIT_USAGE
    assert run_cli(capsys, ["solve", "--input", data / "0000.cnf", "--iters", "x"])[0] == cli.EXIT_USAGE
    missing_label = ["eval", "--task", "counting", "--data", data, "--labels", tmp_path / "none"]
    assert run_cli(capsys, missing_label)[0] == cli.EXIT_RUNTIME
    no_model = ["eval", "--task", "solving", "--data", data, "--init", "model"]
    assert run_cli(capsys, no_model)[0] == cli.EXIT_RUNTIME
    assert run_cli(capsys, ["solve", "--input", data / "0000.cnf", "--init", "model"])[0] == cli.EXIT_RUNTIME
