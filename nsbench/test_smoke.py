"""Smoke test of the benchmark: every workload at a tiny size, with all of
its checks, traced and untraced. It sets no timing gates.

    python3 -m pytest -q nsbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.import_program() is None

import bench  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload(name, traced, tmp_path):
    cls, cfg = workloads.TINY[name]
    result, info = bench.run(cls(cfg, seed=3), 0.0, traced, tmp_path)
    assert result["correct"], info
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    assert {k: m["unit"] for k, m in metrics.items()} == spec
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if traced:
        assert (tmp_path / f"trace-{name}-seed3.jsonl").exists()
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_workload_names_match_spec():
    assert set(run.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "nsbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "nsbench/run.py", "--workload", "count_bp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _is_forest(n, clauses) -> bool:
    parent = list(range(n + len(clauses) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, clause in enumerate(clauses):
        for lit in clause:
            a, b = find(abs(lit)), find(n + 1 + c)
            if a == b:
                return False
            parent[a] = b
    return True


def test_forest_formulas_are_forests():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, clauses = ref.forest_formula(rng, 18)
        assert clauses and _is_forest(n, clauses)
        assert all(len(c) >= 2 for c in clauses)


def test_brute_force_count_and_evaluator():
    clauses = [(1, -2), (1, 3), (-1, 2, 3)]  # models: 001, 101, 110, 111
    assert ref.brute_force_count(3, clauses) == 4
    assert ref.satisfies(clauses, (0, 0, 1))
    assert not ref.satisfies(clauses, (0, 1, 0))
    assert ref.brute_force_count(4, []) == 16


def test_random_ksat_shape():
    n, clauses = ref.random_ksat(np.random.default_rng(1), 30, {2: 5, 5: 7})
    assert n == 30 and len(clauses) == 12
    assert sorted(len(c) for c in clauses) == [2] * 5 + [5] * 7
    assert all(len({abs(x) for x in c}) == len(c) for c in clauses)
