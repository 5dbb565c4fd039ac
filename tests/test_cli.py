import argparse
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import helpers
from nsnet import cli, gen, net, oracle, search
from nsnet.bp import BpConfig, bethe_ln_z, bp_marginals, bp_run
from nsnet.cnf import CnfFormula, emit_dimacs, evaluate
from nsnet.graph import build_factor_graph


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


def sr_formulas(count, n=10):
    """Unit-free SR(n) formulas: reduction mode equals BP on them."""
    formulas = [gen.gen_sr(n, seed) for seed in range(count)]
    assert all(len(c) > 1 for f in formulas for c in f.clauses)
    return formulas


def assert_marginals_close(a, b, tol):
    assert set(a) == set(b)
    assert max(abs(a[v] - b[v]) for v in a) <= tol


class TestBp:
    def test_report_follows_the_options(self, tmp_path, capsys):
        formula = sr_formulas(1, n=12)[0]
        path = tmp_path / "f.cnf"
        path.write_text(emit_dimacs(formula))
        graph = build_factor_graph(formula)
        docs = {}
        for damping, eps in ((0.0, 1e-8), (0.4, 1e-300), (0.0, 1e9)):
            code, out = run_cli(capsys, ["bp", "--input", path, "--iters", "7",
                                         "--damping", damping, "--eps", eps])
            assert code == cli.EXIT_OK
            doc = docs[damping, eps] = json.loads(out)
            assert set(doc) == {"marginals", "ln_z", "converged", "iterations"}
            state = bp_run(graph, BpConfig(max_iters=7, convergence_eps=eps, damping=damping))
            assert doc["converged"] == state.converged
            assert doc["iterations"] == state.iterations_run
            assert doc["marginals"] == cli._marginals_to_dict(bp_marginals(state, graph))
            assert doc["ln_z"] == bethe_ln_z(state, graph)
        assert docs[0.4, 1e-300]["iterations"] == 7 and not docs[0.4, 1e-300]["converged"]
        assert docs[0.0, 1e9]["iterations"] == 1 and docs[0.0, 1e9]["converged"]
        assert docs[0.4, 1e-300]["marginals"] != docs[0.0, 1e-8]["marginals"]

    def test_counts_a_clause_longer_than_the_enumeration_cap(self, tmp_path, capsys):
        # one 11-literal clause is a tree: BP's Bethe ln Z is ln(2^11 - 1)
        path = tmp_path / "f.cnf"
        path.write_text(emit_dimacs(CnfFormula(11, (tuple(range(1, 12)),))))
        code, out = run_cli(capsys, ["bp", "--input", path, "--iters", "50"])
        assert code == cli.EXIT_OK
        assert json.loads(out)["ln_z"] == pytest.approx(np.log(2**11 - 1), rel=1e-12)


def test_unsatisfiable_formula_gets_a_null_marginals_label(tmp_path, capsys, caplog):
    unsat = CnfFormula(2, ((1, 2), (-1,), (-2,)))
    data = write_dataset(tmp_path, [helpers.F0, unsat, sr_formulas(1)[0]])
    labels = tmp_path / "labels"
    code, out = run_cli(capsys, ["label", "--data", data, "--task", "marginals", "--out", labels])
    assert code == cli.EXIT_OK and json.loads(out)["labeled"] == 3
    assert json.loads((labels / "0001.json").read_text()) == {"marginals": None}
    assert json.loads((labels / "0000.json").read_text()) == {
        "marginals": cli._marginals_to_dict(oracle.exact_marginals(helpers.F0))}
    assert "0001.cnf is unsatisfiable; marginals label is null" in caplog.text

    caplog.clear()
    instances = cli._load_labeled(str(data), str(labels), "marginals")
    assert [i.formula for i in instances] == [helpers.F0, sr_formulas(1)[0]]
    assert "skipping 0001.cnf: null marginals label" in caplog.text
    code, _ = run_cli(capsys, ["train", "--data", data, "--labels", labels, "--task", "marginals",
                               "--max-steps", "1", "--d", "4", "--iters", "2",
                               "--out", tmp_path / "w.json"])
    assert code == cli.EXIT_OK

    caplog.clear()
    code, _ = run_cli(capsys, ["solve", "--input", data / "0001.cnf", "--init", "file",
                               "--labels", labels])
    assert code == cli.EXIT_RUNTIME
    assert "null marginals label" in caplog.text


def test_count_marginals_are_exact(tmp_path, capsys):
    unsat = CnfFormula(1, ((1,), (-1,)))
    for formula in (helpers.F0, sr_formulas(1)[0], unsat):
        path = tmp_path / "f.cnf"
        path.write_text(emit_dimacs(formula))
        code, out = run_cli(capsys, ["count", "--input", path, "--marginals"])
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        result = oracle.exact_count(formula)
        assert doc["count"] == str(result.model_count)
        if result.model_count:
            assert doc["marginals"] == cli._marginals_to_dict(oracle.exact_marginals(formula))
        else:
            assert "marginals" not in doc


def test_infer_reduction_equals_bp(tmp_path, capsys):
    for k, formula in enumerate(sr_formulas(3)):
        path = tmp_path / f"{k}.cnf"
        path.write_text(emit_dimacs(formula))
        code, out = run_cli(capsys, ["bp", "--input", path, "--iters", "6", "--eps", "1e-300"])
        assert code == cli.EXIT_OK
        ref = json.loads(out)
        assert ref["iterations"] == 6
        for task in ("counting", "marginals"):
            code, out = run_cli(capsys, ["infer", "--input", path, "--model", "reduction",
                                         "--iters", "6", "--task", task])
            assert code == cli.EXIT_OK
            doc = json.loads(out)
            assert_marginals_close(doc["marginals"], ref["marginals"], 1e-9)
            if task == "counting":
                assert abs(doc["ln_z"] - ref["ln_z"]) <= 1e-9
            else:
                assert "ln_z" not in doc


class TestEvalCounting:
    def test_reduction_model_equals_bp(self, tmp_path, capsys):
        data = write_dataset(tmp_path, sr_formulas(4))
        labels = tmp_path / "labels"
        assert run_cli(capsys, ["label", "--data", data, "--task", "counting", "--out", labels])[0] == 0
        base = ["eval", "--task", "counting", "--data", data, "--labels", labels, "--iters", "3"]
        reports = {}
        for estimator in (["--estimator", "bp"], ["--estimator", "model", "--model", "reduction"]):
            code, out = run_cli(capsys, base + estimator)
            assert code == cli.EXIT_OK
            reports[estimator[1]] = json.loads(out)
        bp_rows, model_rows = reports["bp"]["rows"], reports["model"]["rows"]
        assert [(r["id"], r["truth"]) for r in bp_rows] == [(r["id"], r["truth"]) for r in model_rows]
        assert reports["model"]["failures"] == 0 and len(model_rows) == 4
        for a, b in zip(bp_rows, model_rows):
            assert abs(a["pred"] - b["pred"]) <= 1e-9
        assert abs(reports["bp"]["rmse"] - reports["model"]["rmse"]) <= 1e-9

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


class TestSolve:
    def test_init_file_reads_a_labels_directory(self, tmp_path, capsys):
        formulas = [f for f in sr_formulas(6) if oracle.satisfiable(f)][:2]
        data = write_dataset(tmp_path, formulas)
        labels = tmp_path / "labels"
        assert run_cli(capsys, ["label", "--data", data, "--task", "marginals", "--out", labels])[0] == 0
        for k, formula in enumerate(formulas):
            argv = ["solve", "--input", data / f"{k:04d}.cnf", "--init", "file",
                    "--tries", "1", "--max-flips", "0"]
            by_dir = run_cli(capsys, argv + ["--labels", labels])
            by_file = run_cli(capsys, argv + ["--labels", labels / f"{k:04d}.json"])
            assert by_dir == by_file
            # no flips: solved exactly when the rounded exact marginals are a model
            start = search.round_marginals(oracle.exact_marginals(formula))
            assert json.loads(by_dir[1])["solved"] == bool(evaluate(formula, start))
            assert by_dir[0] == (cli.EXIT_SAT if evaluate(formula, start) else cli.EXIT_OK)


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


# SHA-256 of each directory's file names and bytes (see tree_digest): gen
# --count 4 --num-vars 10-20 --seed 3, then label of that corpus per task
PINNED_DIGESTS = {
    "sr": {
        "gen": "32668a0e136e890e3a3510e1f607e166dbbaede0078058cdef6d82cd83337c68",
        "marginals": "831a423feaac9968e768500830f4ec3808d02b6632fc86de4e54cb7cf29958ff",
        "counting": "b27017d80e861547c78f6a7193ed0d93962b574aac49139f7543652dd5ac5fe1",
    },
    "ca": {
        "gen": "7c5168c73746b26f05e8ac606ff17800bb4ac5f0d6cfc2462f4ccaf297287164",
        "marginals": "7fc210b175cad2713f653bea3656c34df308b0a85afe80502084ca3026229746",
        "counting": "d5adc5f0a6bd17323e29d9776ccbb5d8eccd34f6f2faa96f39a7616a07b331b2",
    },
    "random3sat": {
        "gen": "c8e8b222a8d825a4554b6d883195bc51f5c26d0c83c7c0253344b1b031745b51",
        "marginals": "360ee08263cdbaa178f2ef59193b1b07396d500cec084ca6ce18fda811cbef91",
        "counting": "1d3cad2bb1d0ce0d47b54598b9bb6f0590d152aeb098ee6ed9bb24f281111169",
    },
}


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("dist", sorted(PINNED_DIGESTS))
def test_gen_and_label_outputs_are_pinned(tmp_path, capsys, dist):
    """A corpus and its labels are the same files in every version: the
    pinned digests are of the outputs when they were first recorded."""
    data = tmp_path / "data"
    code, _ = run_cli(capsys, ["gen", "--dist", dist, "--count", "4", "--num-vars", "10-20",
                               "--seed", "3", "--out", data])
    assert code == cli.EXIT_OK
    got = {"gen": tree_digest(data)}
    for task in ("marginals", "counting"):
        labels = tmp_path / task
        code, _ = run_cli(capsys, ["label", "--data", data, "--task", task, "--out", labels])
        assert code == cli.EXIT_OK
        got[task] = tree_digest(labels)
    assert got == PINNED_DIGESTS[dist]


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
    assert run_cli(capsys, ["solve", "--input", data / "0000.cnf", "--init", "file"])[0] == cli.EXIT_RUNTIME
    no_weights = ["eval", "--task", "counting", "--data", data, "--labels", data, "--estimator", "model"]
    assert run_cli(capsys, no_weights)[0] == cli.EXIT_RUNTIME


def _subcommands() -> dict:
    (action,) = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_subcommand_help_exits_ok(command, capsys):
    assert run_cli(capsys, [command, "--help"])[0] == cli.EXIT_OK


def test_every_option_is_read():
    """A dead option parses and is ignored: each option's dest must be read
    as ``args.<dest>`` somewhere in the CLI module."""
    read = set(re.findall(r"\bargs\.(\w+)", Path(cli.__file__).read_text()))
    for command, parser in _subcommands().items():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.dest in read, f"nsnet {command}: --{action.dest} is never read"
