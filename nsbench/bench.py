"""Runs one workload: warm-up, timed set-up passes, timed rounds, checks,
result."""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import UNITS, Tracer, layer_metrics
from workloads import NULL


def timed_rounds(wl, tracer, seconds: float) -> dict:
    """Whole rounds of the workload's operations until ``seconds`` have
    passed (at least one round). ``times[k]`` holds operation ``k``'s time in
    each round; a failed operation counts, but has no time."""
    times: list[list[float]] = [[] for _ in range(wl.ops_per_round)]
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for k in range(wl.ops_per_round):
            if tracer.enabled:
                wl.probe(k, tracer)
            attempted += 1
            try:
                with tracer.span("op", k):
                    seconds_k, result = wl.op(k, tracer)
            except Exception:  # a failing operation is counted, not fatal
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            times[k].append(seconds_k)
            wl.check_op(k, result)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "attempted": attempted, "failed": failed, "rounds": rounds}


def rate(wl, phase: dict) -> float:
    """Instances per second: instances / the sum over operations of each
    operation's median time over the rounds.

    Every operation counts, the hardest formulas too; the median over rounds
    only filters the machine's fast and slow spells.
    """
    medians = [statistics.median(t) for t in phase["times"] if t]
    if not medians:
        return 0.0
    return wl.instances_per_op * len(medians) / sum(medians)


def run(wl, seconds: float, traced: bool, out_dir) -> tuple[dict, dict]:
    tracer = Tracer() if traced else NULL
    wl.warm_up()
    setup_pass_s = []
    # draw 0 goes last: its inputs are the ones the rounds run on
    for draw in reversed(range(wl.setup_passes)):
        with tracer.span("setup", draw):
            t0 = time.perf_counter()
            wl.setup_pass(tracer, draw)
            setup_pass_s.append(time.perf_counter() - t0)
    wl.check_setup()

    if traced:
        # untraced then traced rounds in one process; the difference in
        # throughput is the tracing overhead
        plain = timed_rounds(wl, NULL, seconds / 2)
        phase = timed_rounds(wl, tracer, seconds / 2)
        phases = [plain, phase]
    else:
        phase = timed_rounds(wl, NULL, seconds)
        phases = [phase]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.final_checks()

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    correct = not wl.errors and attempted > failed
    for message in wl.errors[:20]:
        print(message, file=sys.stderr)

    info = {
        "workload": wl.name,
        "seed": wl.seed,
        "rounds": [p["rounds"] for p in phases],
        "ops_per_round": wl.ops_per_round,
        "setup_pass_s": setup_pass_s,
        "op_s": phases[0]["times"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if traced:
        untraced_rate = rate(wl, plain)
        traced_rate = rate(wl, phase)
        summary = tracer.summary()
        m = layer_metrics(summary, phase["rounds"])
        m["trace.overhead_pct"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0
        )
        units = UNITS
        info["untraced_inst_per_s"] = untraced_rate
        info["traced_inst_per_s"] = traced_rate
        out_dir.mkdir(exist_ok=True)
        stem = f"trace-{wl.name}-seed{wl.seed}"
        tracer.write(out_dir / f"{stem}.jsonl")
        with open(out_dir / f"{stem}.summary.json", "w") as fh:
            json.dump({"info": info, "spans": summary, "metrics": m}, fh, indent=1)
    else:
        m = {
            "setup_s": statistics.median(setup_pass_s),
            "inst_per_s": rate(wl, phase),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "inst_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, info
