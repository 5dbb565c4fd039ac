"""SHA-256 digests of the outputs a performance change promises to keep.

    python3 scripts/output_digest.py --seeds 11-13
    python3 scripts/output_digest.py --compare ../parent . --seeds 11-20

computes, on the benchmark's corpora of each workload seed (built by
``nsbench/workloads.py`` from ``nsbench/reference.py``, draw 0, exactly as
the timed rounds see them), these groups of outputs:

- ``sat_nsnet_sls.marginals`` and ``sat_nsnet_sls.ln_z``: the marginals,
  and apart from them the ln Z, of ``forward`` with ``init_params(16, 0)``
  and T = 10, per formula;
- ``count_bp.bp``: per formula, ``bp_run``'s messages, iteration count and
  convergence flag at 10 iterations, ``bethe_ln_z`` and ``bp_marginals``;
- ``count_bp.reduction.marginals`` and ``count_bp.reduction.ln_z``: per
  formula, the marginals and the ln Z of the reduction-mode ``forward``
  (``bp_reduction_params()``, with count);
- ``train_count.batch_loss``: ``train.batch_loss`` of every batch at the
  initial weights;
- ``train_count.grad``: ``train.grad``'s loss and gradients on each batch
  in turn, each followed by the ``train.adam_step`` the workload takes.

Without ``--compare`` it prints one digest per group for the checkout given
by ``--root`` (this one by default), imported from its ``src/`` and
``nsbench/``. With ``--compare PARENT CHANGE`` it runs itself once on each
checkout, in a fresh process each, and prints every group as ``equal`` or
with its largest relative gap: over the group's items (one formula, one
batch or one step), the largest ||change - parent|| / ||parent||, the norms
taken over all of the item's arrays. BLAS runs on one thread, as in the
benchmark. Nothing under ``nsbench/`` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

GROUPS = (
    "sat_nsnet_sls.marginals", "sat_nsnet_sls.ln_z",
    "count_bp.bp", "count_bp.reduction.marginals", "count_bp.reduction.ln_z",
    "train_count.batch_loss", "train_count.grad",
)


def parse_seeds(text: str) -> list[int]:
    """``11-20`` or ``11,13,15``."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def collect(root: Path, seeds: list[int]) -> dict[str, list[list[np.ndarray]]]:
    """Each group's items, every item a list of arrays, computed by the
    ``nsnet`` of checkout ``root``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "nsbench")]
    import nsnet
    import workloads as wl
    from nsnet import (
        bethe_ln_z,
        bp_marginals,
        bp_reduction_params,
        bp_run,
        build_factor_graph,
        forward,
        train,
    )

    if Path(nsnet.__file__).resolve().parent.parent != (root / "src").resolve():
        raise SystemExit(f"nsnet was imported from {nsnet.__file__}, not {root / 'src'}")
    groups: dict[str, list[list[np.ndarray]]] = {g: [] for g in GROUPS}
    for seed in seeds:
        sat = wl.SatNsnetSls(wl.SatSizes(), seed)
        sat.setup_pass(wl.NULL, 0)
        for _, f in sat.instances:
            out = forward(build_factor_graph(f), sat.params, sat.cfg.T, with_count=True)
            groups["sat_nsnet_sls.marginals"].append([out.marginals])
            groups["sat_nsnet_sls.ln_z"].append([np.array([out.ln_z])])

        count = wl.CountBp(wl.CountSizes(), seed)
        count.setup_pass(wl.NULL, 0)
        for f in count.instances:
            graph = build_factor_graph(f)
            state = bp_run(graph, nsnet.BpConfig(max_iters=count.BP_ITERS))
            red = forward(graph, bp_reduction_params(), count.BP_ITERS, with_count=True)
            groups["count_bp.bp"].append([
                state.v2c, state.c2v, np.array([state.iterations_run, state.converged]),
                np.array([bethe_ln_z(state, graph)]), bp_marginals(state, graph),
            ])
            groups["count_bp.reduction.marginals"].append([red.marginals])
            groups["count_bp.reduction.ln_z"].append([np.array([red.ln_z])])

        tc = wl.TrainCount(wl.TrainSizes(), seed)
        tc.setup_pass(wl.NULL, 0)
        for batch in tc.batches:
            loss = train.batch_loss(batch, tc.params, tc.config)
            groups["train_count.batch_loss"].append([np.array([loss])])
        params, state = tc.params, tc.state
        for batch in tc.batches:
            grads, loss = train.grad(batch, params, tc.config)
            step = [np.array([loss])] + [grads[k] for k in sorted(grads)]
            groups["train_count.grad"].append(step)
            params, state = train.adam_step(params, grads, state, tc.config)
    return groups


def digest(items: list[list[np.ndarray]]) -> str:
    h = hashlib.sha256()
    for item in items:
        for a in item:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def save(groups: dict, path: Path) -> None:
    np.savez(path, **{f"{g}|{i}|{j}": a for g, items in groups.items()
                      for i, item in enumerate(items) for j, a in enumerate(item)})


def load(path: Path) -> dict[str, list[list[np.ndarray]]]:
    groups: dict[str, list[list[np.ndarray]]] = {g: [] for g in GROUPS}
    with np.load(path) as data:
        keys = sorted((k.split("|") for k in data.files),
                      key=lambda k: (k[0], int(k[1]), int(k[2])))
        for g, i, j in keys:
            items = groups[g]
            if int(i) == len(items):
                items.append([])
            items[int(i)].append(data[f"{g}|{i}|{j}"])
    return groups


def relative_gap(parent: list[np.ndarray], change: list[np.ndarray]) -> float:
    """||change - parent|| / ||parent|| over all of an item's arrays."""
    diff = sum(float(np.sum((c.astype(float) - p.astype(float)) ** 2))
               for p, c in zip(parent, change))
    norm = sum(float(np.sum(p.astype(float) ** 2)) for p in parent)
    return float(np.sqrt(diff / norm)) if norm else float(np.sqrt(diff))


def compare(parent: Path, change: Path, seeds: str) -> int:
    """Run this script on both checkouts and print each group's verdict;
    returns 1 when a group differs in shape or item count, else 0."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in (("parent", parent), ("change", change)):
            out = Path(tmp) / f"{side}.npz"
            subprocess.run([sys.executable, __file__, "--root", str(root), "--seeds", seeds,
                            "--save", str(out)], check=True, stdout=subprocess.DEVNULL)
            results[side] = load(out)
    status = 0
    for g in GROUPS:
        p_items, c_items = results["parent"][g], results["change"][g]
        if len(p_items) != len(c_items) or any(
            len(p) != len(c) or any(a.shape != b.shape for a, b in zip(p, c))
            for p, c in zip(p_items, c_items)
        ):
            print(f"{g:30s} shapes differ")
            status = 1
        elif digest(p_items) == digest(c_items):
            print(f"{g:30s} equal ({len(p_items)} items, sha256 {digest(p_items)[:16]})")
        else:
            gaps = [relative_gap(p, c) for p, c in zip(p_items, c_items)]
            differ = sum(digest([p]) != digest([c]) for p, c in zip(p_items, c_items))
            print(f"{g:30s} differs in {differ} of {len(p_items)} items, "
                  f"largest relative gap {max(gaps):.3g}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="11", help="workload seeds, lo-hi or a,b,c (default 11)")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="checkout whose src/ and nsbench/ to run (default: this one)")
    p.add_argument("--save", type=Path, help="also write every output to this .npz file")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                   help="run both checkouts and print each group as equal or its largest gap")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*(r.resolve() for r in args.compare), args.seeds)
    groups = collect(args.root.resolve(), parse_seeds(args.seeds))
    for g in GROUPS:
        print(f"{g:30s} {digest(groups[g])}  ({len(groups[g])} items)")
    if args.save:
        save(groups, args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
