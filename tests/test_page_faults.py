"""Page faults of the message loops: an iteration allocates no array of the
messages' size.

With glibc's mmap threshold pinned at 128 KiB, as the benchmark pins it,
every larger temporary is a fresh mapping that page-faults on each page it
touches. BP, the NSNet forward (also in its BP-reduction configuration) and
the NSNet backward allocate their work arrays once per call, so 10 more
iterations must add almost no minor faults. The counts come from
a fresh interpreter, where nothing else shares the allocator; glibc only.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import nsnet

# on these inputs a loop that allocates its temporaries takes about 1,000
# faults per BP iteration and 1,100 per forward iteration (six to eight
# message arrays' worth); the bound is 5% of that. A reduction-mode forward
# that allocates only its pair normalization's (2E, 1) max takes 165 per
# iteration
MAX_FAULTS_PER_ITERATION = 50

SCRIPT = r"""
import ctypes, json, resource, sys

mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
if mallopt is None:
    print(json.dumps({"skip": "no mallopt"}))
    sys.exit()
mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
mallopt.restype = ctypes.c_int
if mallopt(-3, 128 * 1024) != 1:  # M_MMAP_THRESHOLD
    print(json.dumps({"skip": "mallopt refused the mmap threshold"}))
    sys.exit()

import numpy as np
from nsnet import (
    BpConfig, CnfFormula, bp_reduction_params, bp_run, build_factor_graph, forward, init_params,
)
from nsnet.net import _forward, backward


def random_clauses(rng, n, m, length):
    v = rng.integers(1, n + 1, size=(m, length))
    while True:
        s = np.sort(v, axis=1)
        bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
        if not bad.any():
            break
        v[bad] = rng.integers(1, n + 1, size=(int(bad.sum()), length))
    v *= rng.choice([-1, 1], size=v.shape)
    return [tuple(int(x) for x in row) for row in v]


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults(call):
    call()  # lazy set-up of the graph and the interpreter
    counts = []
    for _ in range(3):
        before = minflt()
        call()
        counts.append(minflt() - before)
    return min(counts)


rng = np.random.default_rng(13)
# BP's messages on E = 42k incidences are 672 KB
clauses = [c for L in (2, 3, 4, 5) for c in random_clauses(rng, 5000, 3000, L)]
graph = build_factor_graph(CnfFormula(5000, tuple(clauses)))
bp = [faults(lambda: bp_run(graph, BpConfig(max_iters=T, convergence_eps=1e-300)))
      for T in (10, 20)]
reduction = [faults(lambda: forward(graph, bp_reduction_params(), T, with_count=False))
             for T in (10, 20)]
# the forward's (E, 2, d) arrays at n = 100, d = 16 are 284 KB
graph = build_factor_graph(CnfFormula(100, tuple(random_clauses(rng, 100, 370, 3))))
params = init_params(16, 0)
fw = [faults(lambda: forward(graph, params, T, with_count=False)) for T in (10, 20)]
# the backward on one tape per T, each run several times
dlbv = rng.normal(size=(graph.num_vars, 2))
bw = []
for T in (10, 20):
    tape = _forward(graph, params, T, want_count=False)
    bw.append(faults(lambda: backward(tape, params, dlbv)))
print(json.dumps({"bp_run": bp, "reduction_forward": reduction, "forward": fw, "backward": bw}))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts mmap page faults under glibc",
)
def test_ten_more_iterations_add_almost_no_faults():
    src = Path(nsnet.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    # BLAS threads fault on their own stacks; the benchmark runs one
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    if "skip" in counts:
        pytest.skip(counts["skip"])
    for loop, (at10, at20) in counts.items():
        assert (at20 - at10) / 10 < MAX_FAULTS_PER_ITERATION, (loop, at10, at20)
