"""Command-line surface: generate, label, infer, train, solve, count, evaluate.

Every subcommand emits JSON on stdout and logs on stderr, so pipelines
compose. Reports are reproducible byte-for-byte from (inputs, flags, seed);
wall-clock timing is therefore opt-in via --timing and kept in a separate
report section. Exit codes: 0 success, 1 usage error, 2 runtime error,
10 model found (solve only).

Set NSNET_LOG=debug|info|warning to control stderr verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bp, gen, net, oracle, search, train
from .cnf import CnfFormula, emit_dimacs, evaluate, parse_dimacs
from .graph import build_factor_graph

log = logging.getLogger("nsnet")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_SAT = 10


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _write_report(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _marginals_to_dict(marginals: np.ndarray) -> dict[str, float]:
    return {str(i + 1): float(b) for i, b in enumerate(marginals)}


def _load_formula(path: str) -> CnfFormula:
    with open(path, "rb") as fh:
        formula, warnings = parse_dimacs(fh.read())
    for w in warnings:
        log.warning("%s: %s", path, w)
    return formula


def _dataset_files(data_dir: str) -> list[str]:
    names = sorted(f for f in os.listdir(data_dir) if f.endswith(".cnf"))
    if not names:
        raise RuntimeError(f"no .cnf files in {data_dir}")
    return names


# the key of each task's label in its label file
_LABEL_KEY = {"marginals": "marginals", "counting": "ln_count"}


def _label_path(labels_dir: str, cnf_name: str) -> str:
    return os.path.join(labels_dir, cnf_name[:-4] + ".json")


def _read_marginals(path: str, num_vars: int) -> np.ndarray | None:
    """b_i(1) for variables 1..``num_vars`` from the marginal file at
    ``path``; None for the null label of an unsatisfiable formula."""
    with open(path) as fh:
        marginals = json.load(fh)["marginals"]
    if marginals is None:
        return None
    return np.array([marginals[str(v)] for v in range(1, num_vars + 1)])


def _read_ln_count(path: str) -> float | None:
    with open(path) as fh:
        return json.load(fh).get("ln_count")


# ----------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    if "-" in args.num_vars:
        lo, hi = (int(x) for x in args.num_vars.split("-", 1))
        num_vars: int | tuple[int, int] = (lo, hi)
    else:
        num_vars = int(args.num_vars)
    config = gen.GenConfig(distribution=args.dist, num_vars=num_vars, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    instances = []
    index = 0
    produced = 0
    max_attempts = 100 * args.count + 1000
    while produced < args.count:
        if index >= max_attempts:
            raise RuntimeError(
                f"gave up after {index} attempts producing satisfiable instances"
            )
        formula = gen.generate(config, index)
        seed = gen.derive_seed(config.seed, index)
        index += 1
        sat = oracle.satisfiable(formula)
        if args.sat_only and not sat:
            continue
        name = f"{produced:04d}.cnf"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(emit_dimacs(formula))
        instances.append(
            {
                "file": name,
                "seed": seed,
                "num_vars": formula.num_vars,
                "num_clauses": formula.num_clauses,
                "satisfiable": sat,
            }
        )
        produced += 1
    manifest = {
        "distribution": args.dist,
        "num_vars": args.num_vars,
        "master_seed": args.seed,
        "sat_only": bool(args.sat_only),
        "count": args.count,
        "instances": instances,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    _emit({"generated": produced, "out": args.out})
    return EXIT_OK


# ----------------------------------------------------------------- label

def cmd_label(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    written = 0
    for name in _dataset_files(args.data):
        formula = _load_formula(os.path.join(args.data, name))
        if args.task == "counting":
            label = oracle.exact_count(formula).ln_count
        elif oracle.satisfiable(formula):
            label = _marginals_to_dict(oracle.exact_marginals(formula))
        else:
            label = None
        if label is None:
            log.warning("%s is unsatisfiable; %s label is null", name, _LABEL_KEY[args.task])
        doc = {_LABEL_KEY[args.task]: label}
        with open(_label_path(args.out, name), "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        written += 1
    _emit({"labeled": written, "task": args.task, "out": args.out})
    return EXIT_OK


# ----------------------------------------------------------------- bp / infer

def cmd_bp(args) -> int:
    formula = _load_formula(args.input)
    graph = build_factor_graph(formula)
    config = bp.BpConfig(
        max_iters=args.iters, convergence_eps=args.eps, damping=args.damping
    )
    state = bp.bp_run(graph, config)
    doc = {
        "marginals": _marginals_to_dict(bp.bp_marginals(state, graph)),
        "ln_z": bp.bethe_ln_z(state, graph),
        "converged": state.converged,
        "iterations": state.iterations_run,
    }
    _emit(doc)
    return EXIT_OK


def _load_model(spec: str) -> net.ModelParams:
    if spec == "reduction":
        return net.bp_reduction_params()
    return net.load_params(spec)


def _resolve_model(args, choice: str) -> net.ModelParams | None:
    """The weights ``--model`` names when option ``--<choice>`` selects the
    model; None, for plain BP or no estimate, otherwise."""
    if getattr(args, choice) != "model":
        return None
    if not args.model:
        raise RuntimeError(f"--{choice} model requires --model WEIGHTS")
    return _load_model(args.model)


def _estimate(formula: CnfFormula, params: net.ModelParams | None, iters: int,
              with_count: bool) -> tuple[np.ndarray, float | None]:
    """Marginals b_i(1) and, with ``with_count``, the ln Z estimate (else
    None) after ``iters`` iterations: of plain BP, with the Bethe ln Z, when
    ``params`` is None, else of the model."""
    graph = build_factor_graph(formula)
    if params is None:
        state = bp.bp_run(graph, bp.BpConfig(max_iters=iters))
        ln_z = bp.bethe_ln_z(state, graph) if with_count else None
        return bp.bp_marginals(state, graph), ln_z
    out = net.forward(graph, params, iters, with_count=with_count)
    return out.marginals, out.ln_z


def cmd_infer(args) -> int:
    formula = _load_formula(args.input)
    with_count = args.task != "marginals"
    marginals, ln_z = _estimate(formula, _load_model(args.model), args.iters, with_count)
    doc: dict = {"marginals": _marginals_to_dict(marginals)}
    if with_count:
        doc["ln_z"] = ln_z
    _emit(doc)
    return EXIT_OK


# ----------------------------------------------------------------- count

def cmd_count(args) -> int:
    formula = _load_formula(args.input)
    result = oracle.exact_count(formula)
    doc: dict = {
        "count": str(result.model_count),
        "ln_count": result.ln_count,
    }
    if args.marginals and result.model_count > 0:
        doc["marginals"] = _marginals_to_dict(oracle.exact_marginals(formula))
    _emit(doc)
    return EXIT_OK


# ----------------------------------------------------------------- train

def _load_labeled(data_dir: str, labels_dir: str, task: str) -> list[train.LabeledInstance]:
    instances = []
    for name in _dataset_files(data_dir):
        formula = _load_formula(os.path.join(data_dir, name))
        path = _label_path(labels_dir, name)
        if task == "marginals":
            label = _read_marginals(path, formula.num_vars)
        else:
            label = _read_ln_count(path)
            label = None if label is None else float(label)
        if label is None:
            log.warning("skipping %s: null %s label", name, _LABEL_KEY[task])
        else:
            instances.append(train.LabeledInstance(formula, **{_LABEL_KEY[task]: label}))
    return instances


def cmd_train(args) -> int:
    instances = _load_labeled(args.data, args.labels, args.task)
    config = train.TrainConfig(
        task=args.task,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        T=args.iters,
        d=args.d,
        max_steps=args.max_steps,
    )
    train_set, val_set, _ = train.split_dataset(instances, (0.8, 0.2, 0.0), args.seed)
    params, history = train.train_loop(train_set, val_set, config)
    net.save_params(params, args.out)
    if args.history:
        with open(args.history, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss"])
            writer.writerows(history)
    final = history[-1] if history else (0, math.nan, math.nan)
    _emit(
        {
            "epochs_run": len(history),
            "final_train_loss": final[1],
            "final_val_loss": final[2],
            "weights": args.out,
        }
    )
    return EXIT_OK


# ----------------------------------------------------------------- solve

def _initial_assignment(formula, init: str, iters: int, params=None, labels=None):
    """WalkSAT's first assignment, rounded from marginals: None for
    ``random``; BP's or the model's (``params``) after ``iters`` iterations;
    or those in the marginal file at ``labels``."""
    if init == "random":
        return None
    if init == "file":
        marginals = _read_marginals(labels, formula.num_vars)
        if marginals is None:
            raise RuntimeError(f"{labels}: null marginals label (unsatisfiable formula)")
    else:
        marginals, _ = _estimate(formula, params, iters, with_count=False)
    return search.round_marginals(marginals)


def _init_params(args) -> net.ModelParams | None:
    """Checks the --init flags; the model weights for ``--init model``."""
    if args.init == "file" and not args.labels:
        raise RuntimeError("--init file requires --labels with marginal files")
    return _resolve_model(args, "init")


def cmd_solve(args) -> int:
    params = _init_params(args)
    formula = _load_formula(args.input)
    labels = args.labels
    if labels and os.path.isdir(labels):
        labels = _label_path(labels, os.path.basename(args.input))
    initial = _initial_assignment(formula, args.init, args.iters, params, labels)
    config = search.SlsConfig(
        max_tries=args.tries, max_flips=args.max_flips, noise=args.noise, seed=args.seed
    )
    result = search.sls_solve(formula, config, initial)
    _emit(
        {
            "solved": result.solved,
            "assignment": list(result.assignment) if result.assignment else None,
            "flips": result.flips_total,
            "tries": result.tries_used,
        }
    )
    return EXIT_SAT if result.solved else EXIT_OK


# ----------------------------------------------------------------- eval

def _eval_rows(row_fn, args, params) -> list:
    """``row_fn(args, params, name)`` for each instance of ``args.data`` in
    file order, in ``args.jobs`` worker processes when that is above 1. The
    weights ``params`` are loaded once and travel with each row, so workers
    never read the weight file."""
    names = _dataset_files(args.data)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            k = len(names)
            return list(pool.map(row_fn, [args] * k, [params] * k, names))
    return [row_fn(args, params, name) for name in names]


def _eval_count_row(args, params, name):
    formula = _load_formula(os.path.join(args.data, name))
    truth = _read_ln_count(_label_path(args.labels, name))
    row: dict = {"id": name[:-4], "truth": truth}
    if truth is None:
        row["error"] = "missing ln_count label"
        return row, math.nan
    started = time.perf_counter()
    try:
        _, pred = _estimate(formula, params, args.iters, with_count=True)
    except Exception as exc:
        row["error"] = str(exc)
        return row, math.nan
    elapsed = time.perf_counter() - started
    row["pred"] = float(pred)
    return row, elapsed


def rmse(preds, truths) -> float:
    """Root mean square error over paired, nonempty lists."""
    return math.sqrt(
        sum((p - t) ** 2 for p, t in zip(preds, truths)) / len(preds)
    )


def cmd_eval_count(args) -> int:
    if not args.labels:
        raise RuntimeError("eval --task counting requires --labels")
    results = _eval_rows(_eval_count_row, args, _resolve_model(args, "estimator"))
    rows = [r for r, _ in results]
    times = [t for _, t in results]
    good = [r for r in rows if "pred" in r]
    report: dict = {
        "task": "counting",
        "estimator": args.estimator,
        "iterations": args.iters,
        "instances": len(rows),
        "failures": len(rows) - len(good),
        "rmse": rmse([r["pred"] for r in good], [r["truth"] for r in good])
        if good
        else None,
        "rows": rows,
    }
    if args.timing:
        finite = [t for t in times if not math.isnan(t)]
        report["timing"] = {"mean_seconds_per_instance": _mean(finite)}
    _write_report(report, args.out)
    return EXIT_OK


def _repeat_seeds(args) -> list[int]:
    return [gen.derive_seed(args.seed, k) for k in range(args.repeats)]


def _eval_solve_row(args, params, name):
    formula = _load_formula(os.path.join(args.data, name))
    row: dict = {"id": name[:-4]}
    sat = oracle.satisfiable(formula)
    row["satisfiable"] = sat
    if not sat:
        return row
    labels = _label_path(args.labels, name) if args.init == "file" else None
    guided = _initial_assignment(formula, args.init, args.iters, params, labels)
    init_solved, solved, flips = [], [], []
    for seed in _repeat_seeds(args):
        config = search.SlsConfig(
            max_tries=args.tries, max_flips=args.max_flips, noise=args.noise, seed=seed
        )
        if guided is not None:
            first = guided
        else:
            first_rng = np.random.Generator(np.random.Philox(key=seed))
            first = tuple(int(x) for x in first_rng.integers(0, 2, formula.num_vars))
        init_solved.append(bool(evaluate(formula, first)))
        result = search.sls_solve(formula, config, initial=first)
        solved.append(result.solved)
        flips.append(result.flips_total)
    row["init_solved"] = init_solved
    row["solved"] = solved
    row["flips"] = flips
    return row


def _mean(values: list) -> float | None:
    return sum(values) / len(values) if values else None


def _mean_std(values: list) -> dict:
    if not values:
        return {"mean": None, "std": None}
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return {"mean": _mean(values), "std": std}


def cmd_eval_solve(args) -> int:
    rows = _eval_rows(_eval_solve_row, args, _init_params(args))
    usable = [r for r in rows if r["satisfiable"]]
    excluded = len(rows) - len(usable)
    if excluded:
        log.warning("%d unsatisfiable instances excluded from accuracy", excluded)
    runs = [
        {
            "seed": seed,
            "init_solved_fraction": _mean([r["init_solved"][k] for r in usable]),
            "solved_fraction": _mean([r["solved"][k] for r in usable]),
            "mean_flips_solved": _mean([r["flips"][k] for r in usable if r["solved"][k]]),
        }
        for k, seed in enumerate(_repeat_seeds(args))
    ]
    report = {
        "task": "solving",
        "init": args.init,
        "instances": len(rows),
        "excluded_unsatisfiable": excluded,
        "repeats": args.repeats,
        "runs": runs,
        "aggregate": {
            key: _mean_std([r[key] for r in runs if r[key] is not None])
            for key in ("init_solved_fraction", "solved_fraction", "mean_flips_solved")
        },
        "rows": rows,
    }
    _write_report(report, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.task == "counting":
        return cmd_eval_count(args)
    return cmd_eval_solve(args)


# ----------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsnet",
        description="SAT/#SAT inference: BP and neural message passing on CNF factor graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that solve and eval share: the WalkSAT start and search
    search_opts = argparse.ArgumentParser(add_help=False)
    search_opts.add_argument("--init", choices=("random", "bp", "model", "file"),
                             default="random")
    search_opts.add_argument("--model", default=None, help="weights file or 'reduction'")
    search_opts.add_argument("--labels", default=None,
                             help="label file or directory; marginal files for --init file")
    search_opts.add_argument("--iters", type=int, default=10,
                             help="message passing iterations of BP or the model")
    search_opts.add_argument("--tries", type=int, default=100)
    search_opts.add_argument("--max-flips", type=int, default=None)
    search_opts.add_argument("--noise", type=float, default=0.5)
    search_opts.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate a DIMACS corpus with a manifest")
    p.add_argument("--dist", choices=gen.DISTRIBUTIONS, default="random3sat")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--num-vars", default="20", help="n or lo-hi range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sat-only", action="store_true",
                   help="keep only satisfiable instances (oracle-checked)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="write oracle labels for a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=train.TASKS, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("bp", help="belief propagation on one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--damping", type=float, default=0.0)
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("infer", help="neural model inference on one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True, help="weights file or 'reduction'")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--task", choices=train.TASKS, default="counting",
                   help="marginals skips the factor-belief readout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("count", help="exact model count (oracle)")
    p.add_argument("--input", required=True)
    p.add_argument("--marginals", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("train", help="train the model on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=train.TASKS, required=True)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--history", default=None, help="write per-epoch CSV here")
    p.add_argument("--out", required=True, help="weights file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", parents=[search_opts],
                       help="stochastic local search on one instance")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", parents=[search_opts],
                       help="evaluate counting or solving over a dataset")
    p.add_argument("--task", choices=("counting", "solving"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", choices=("bp", "model"), default="bp",
                   help="ln Z of BP or of --model for --task counting")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte-for-byte reproducibility)")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("NSNET_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_RUNTIME
    except Exception as exc:
        log.error("%s", exc)
        if os.environ.get("NSNET_LOG", "").lower() == "debug":
            raise
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
