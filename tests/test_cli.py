import json

import numpy as np

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
