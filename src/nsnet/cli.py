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


def _label_path(labels_dir: str, cnf_name: str) -> str:
    return os.path.join(labels_dir, cnf_name[:-4] + ".json")


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
        if args.task == "marginals":
            marginals = oracle.exact_marginals(formula)
            doc = {"marginals": _marginals_to_dict(marginals)}
        else:
            result = oracle.exact_count(formula)
            doc = {"ln_count": result.ln_count}
            if result.ln_count is None:
                log.warning("%s is unsatisfiable; ln_count label is null", name)
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


def cmd_infer(args) -> int:
    formula = _load_formula(args.input)
    graph = build_factor_graph(formula)
    params = _load_model(args.model)
    with_count = args.task != "marginals"
    out = net.forward(graph, params, args.iters, with_count=with_count)
    doc: dict = {"marginals": _marginals_to_dict(out.marginals)}
    if with_count:
        doc["ln_z"] = out.ln_z
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
        with open(_label_path(labels_dir, name)) as fh:
            doc = json.load(fh)
        if task == "marginals":
            marg = doc["marginals"]
            label = np.array([marg[str(v)] for v in range(1, formula.num_vars + 1)])
            instances.append(train.LabeledInstance(formula, marginals=label))
        else:
            if doc.get("ln_count") is None:
                log.warning("skipping %s: null ln_count label", name)
                continue
            instances.append(
                train.LabeledInstance(formula, ln_count=float(doc["ln_count"]))
            )
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
        with open(labels) as fh:
            doc = json.load(fh)
        marginals = np.array(
            [doc["marginals"][str(v)] for v in range(1, formula.num_vars + 1)]
        )
    elif init == "bp":
        graph = build_factor_graph(formula)
        marginals = bp.bp_marginals(bp.bp_run(graph, bp.BpConfig(max_iters=iters)), graph)
    else:
        graph = build_factor_graph(formula)
        marginals = net.forward(graph, params, iters, with_count=False).marginals
    return search.round_marginals(marginals)


def _init_params(args) -> net.ModelParams | None:
    """Checks the --init flags; the model weights for ``--init model``."""
    if args.init == "file" and not args.labels:
        raise RuntimeError("--init file requires --labels with marginal files")
    if args.init == "model" and not args.model:
        raise RuntimeError("--init model requires --model WEIGHTS")
    return _load_model(args.model) if args.init == "model" else None


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

def _estimate_ln_z(graph, params: net.ModelParams | None, iters: int) -> float:
    """Bethe ln Z of plain BP when ``params`` is None, else NSNet's ln Z."""
    if params is None:
        state = bp.bp_run(graph, bp.BpConfig(max_iters=iters))
        return bp.bethe_ln_z(state, graph)
    return net.forward(graph, params, iters, with_count=True).ln_z


def _eval_count_row(task_args):
    data_dir, labels_dir, name, params, args = task_args
    formula = _load_formula(os.path.join(data_dir, name))
    with open(_label_path(labels_dir, name)) as fh:
        truth = json.load(fh).get("ln_count")
    row: dict = {"id": name[:-4], "truth": truth}
    if truth is None:
        row["error"] = "missing ln_count label"
        return row, math.nan
    started = time.perf_counter()
    try:
        pred = _estimate_ln_z(build_factor_graph(formula), params, args.iters)
    except Exception as exc:
        row["error"] = str(exc)
        return row, math.nan
    elapsed = time.perf_counter() - started
    row["pred"] = float(pred)
    return row, elapsed


def rmse(preds, truths) -> float:
    """Root mean square error over paired lists."""
    if len(preds) != len(truths):
        raise ValueError("length mismatch")
    if not preds:
        raise ValueError("empty input")
    return math.sqrt(
        sum((p - t) ** 2 for p, t in zip(preds, truths)) / len(preds)
    )


def cmd_eval_count(args) -> int:
    names = _dataset_files(args.data)
    if not args.labels:
        raise RuntimeError("eval --task counting requires --labels")
    if args.estimator == "model" and not args.model:
        raise RuntimeError("--estimator model requires --model WEIGHTS")
    # the weights are loaded once and travel with each task, so worker
    # processes never read the weight file
    params = None
    if args.estimator != "bp":
        params = _load_model(args.model if args.estimator == "model" else "reduction")
    tasks = [(args.data, args.labels, name, params, args) for name in names]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_eval_count_row, tasks))
    else:
        results = [_eval_count_row(t) for t in tasks]
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
        report["timing"] = {
            "mean_seconds_per_instance": sum(finite) / len(finite) if finite else None
        }
    _write_report(report, args.out)
    return EXIT_OK


def _eval_solve_row(task_args):
    data_dir, name, seeds, params, args = task_args
    formula = _load_formula(os.path.join(data_dir, name))
    row: dict = {"id": name[:-4]}
    sat = oracle.satisfiable(formula)
    row["satisfiable"] = sat
    if not sat:
        return row
    labels = _label_path(args.labels, name) if args.init == "file" else None
    guided = _initial_assignment(formula, args.init, args.iters, params, labels)
    init_solved, solved, flips = [], [], []
    for k, seed in enumerate(seeds):
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


def _mean_std(values) -> dict:
    if not values:
        return {"mean": None, "std": None}
    mean = sum(values) / len(values)
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "std": std}


def cmd_eval_solve(args) -> int:
    names = _dataset_files(args.data)
    # as in cmd_eval_count, the weights are loaded once and travel with each task
    params = _init_params(args)
    seeds = [gen.derive_seed(args.seed, k) for k in range(args.repeats)]
    tasks = [(args.data, name, seeds, params, args) for name in names]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_eval_solve_row, tasks))
    else:
        rows = [_eval_solve_row(t) for t in tasks]
    usable = [r for r in rows if r["satisfiable"]]
    excluded = len(rows) - len(usable)
    if excluded:
        log.warning("%d unsatisfiable instances excluded from accuracy", excluded)
    runs = []
    for k, seed in enumerate(seeds):
        init_frac = (
            sum(r["init_solved"][k] for r in usable) / len(usable) if usable else None
        )
        solved_frac = (
            sum(r["solved"][k] for r in usable) / len(usable) if usable else None
        )
        flips_solved = [r["flips"][k] for r in usable if r["solved"][k]]
        runs.append(
            {
                "seed": seed,
                "init_solved_fraction": init_frac,
                "solved_fraction": solved_frac,
                "mean_flips_solved": sum(flips_solved) / len(flips_solved)
                if flips_solved
                else None,
            }
        )
    report = {
        "task": "solving",
        "init": args.init,
        "instances": len(rows),
        "excluded_unsatisfiable": excluded,
        "repeats": args.repeats,
        "runs": runs,
        "aggregate": {
            "init_solved_fraction": _mean_std(
                [r["init_solved_fraction"] for r in runs if r["init_solved_fraction"] is not None]
            ),
            "solved_fraction": _mean_std(
                [r["solved_fraction"] for r in runs if r["solved_fraction"] is not None]
            ),
            "mean_flips_solved": _mean_std(
                [r["mean_flips_solved"] for r in runs if r["mean_flips_solved"] is not None]
            ),
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

    p = sub.add_parser("solve", help="stochastic local search on one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--init", choices=("random", "bp", "model", "file"), default="random")
    p.add_argument("--model", default=None)
    p.add_argument("--labels", default=None, help="marginal file or directory for --init file")
    p.add_argument("--iters", type=int, default=10, help="message passing iterations for bp/model init")
    p.add_argument("--tries", type=int, default=100)
    p.add_argument("--max-flips", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate counting or solving over a dataset")
    p.add_argument("--task", choices=("counting", "solving"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--estimator", choices=("bp", "model", "reduction"), default="bp")
    p.add_argument("--model", default=None)
    p.add_argument("--init", choices=("random", "bp", "model", "file"), default="random")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--tries", type=int, default=100)
    p.add_argument("--max-flips", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
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
