"""Alternating parent/change pairs of the benchmark, from two checkouts.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload count_bp --seeds 21-30 --seconds 25 --out BENCH_x.json \\
        --what "10 pairs of count_bp; parent = ..., change = ..."

For each seed, runs ``nsbench/run.py --workload W --seed S`` once in each
checkout, the parent first on odd seeds and the change first on even ones,
each in a fresh process from the checkout's own directory. The results go
to ``--out`` as ``{"what", "machine", "python", "numpy", "runs"}``, one run
per record (``workload``, ``side``, ``seed``, ``correct``, ``failed``, the
metrics, and ``minflt``, the minor page faults of the run's process), in
the order they were made; ``--append`` adds to the runs
already in the file. With ``--trace 1`` the per-layer metrics are recorded,
under ``traced`` instead of ``runs``.

It then prints, per workload and metric, each side's median and quartiles
over the recorded pairs and the number of pairs the change wins, and each
side's median ``minflt``. A claimed
gain needs the change to win at least 9 of 10 pairs, and its median to be
better than the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """``21-30`` or ``11,13,15``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process in ``checkout``: its result line, its info line,
    and its minor page faults."""
    argv = [sys.executable, "nsbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    minflt = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if proc.stderr.strip():
        print(f"  {checkout.name} seed {seed}: {proc.stderr.strip()}", file=sys.stderr)
    return {"info": info, "result": result, "minflt": minflt}


def record(workload: str, side: str, seed: int, out: dict) -> dict:
    result = out["result"]
    rec = {"workload": workload, "side": side, "seed": seed,
           "correct": result["correct"], "failed": result["failed"]}
    rec.update({k: round(m["value"], 4) for k, m in result["metrics"].items()})
    rec["minflt"] = out["minflt"]
    return rec


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list[dict], better: dict[str, str]) -> None:
    """Print each side's median (q1-q3) and the change's wins per metric."""
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == workload:
                sides[r["side"]][r["seed"]] = r
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if not seeds:
            continue
        print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
        for metric in sides["parent"][seeds[0]]:
            if metric not in better:
                continue
            sign = 1.0 if better[metric] == "higher" else -1.0
            p = [sides["parent"][s][metric] for s in seeds]
            c = [sides["change"][s][metric] for s in seeds]
            wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            clear = sign * (cm - pm) > p3 - p1
            print(f"  {metric:22s} parent {pm:10.4g} ({p1:.4g}-{p3:.4g})  "
                  f"change {cm:10.4g} ({c1:.4g}-{c3:.4g})  "
                  f"change wins {wins}/{len(seeds)}, median gap beyond parent IQR: {clear}")
        faults = {side: [sides[side][s]["minflt"] for s in seeds if "minflt" in sides[side][s]]
                  for side in sides}
        if all(faults.values()):
            print(f"  {'minflt':22s} parent {statistics.median(faults['parent']):10.4g}  "
                  f"change {statistics.median(faults['change']):10.4g}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="workload to run; repeat for several")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="lo-hi or a,b,c")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    p.add_argument("--append", action="store_true", help="add to the runs already in --out")
    p.add_argument("--what", default="", help="what the pairs compare")
    args = p.parse_args(argv)

    machine = f"{os.cpu_count()}-core {platform.machine()}"
    doc = {"what": args.what, "machine": machine, "python": None, "numpy": None, "runs": []}
    if args.append and args.out.exists():
        doc = json.loads(args.out.read_text())
        doc["what"] = args.what or doc["what"]
    key = "traced" if args.trace else "runs"
    doc.setdefault(key, [])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for workload in args.workload:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                out = run_once(checkouts[side], workload, seed, args.seconds, args.trace)
                doc["python"] = doc["python"] or out["info"]["python"]
                doc["numpy"] = doc["numpy"] or out["info"]["numpy"]
                doc[key].append(record(workload, side, seed, out))
                rec = doc[key][-1]
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v}" for k, v in rec.items() if k not in
                                  ("workload", "side", "seed")), flush=True)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")

    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    summarize(doc[key], better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
