"""SAT and #SAT inference on CNF factor graphs.

Marginal inference and Bethe partition-function estimation via log-space
belief propagation and its learnable message-passing generalization (NSNet),
with an exact desk-scale oracle, instance generators, and local search
started from rounded marginals.
"""

from .cnf import CnfFormula, DimacsError, emit_dimacs, evaluate, normalize, parse_dimacs
from .graph import FactorGraph, build_factor_graph
from .oracle import ExactResult, exact_count, exact_marginals, satisfiable
from .bp import BpConfig, BpState, bethe_ln_z, bp_marginals, bp_run
from .net import (
    ModelParams,
    NsnetOutput,
    bp_reduction_params,
    forward,
    init_params,
    load_params,
    save_params,
)
from .train import LabeledInstance, TrainConfig, adam_step, grad, split_dataset, train_loop
from .search import SlsConfig, SlsResult, round_marginals, sls_solve
from .gen import GenConfig, clause_count_3sat, gen_ca, gen_random_3sat, gen_sr

__all__ = [
    "CnfFormula", "DimacsError", "parse_dimacs", "emit_dimacs", "evaluate",
    "normalize",
    "FactorGraph", "build_factor_graph",
    "ExactResult", "exact_count", "exact_marginals", "satisfiable",
    "BpConfig", "BpState", "bp_run", "bp_marginals", "bethe_ln_z",
    "ModelParams", "NsnetOutput", "init_params", "bp_reduction_params", "forward",
    "save_params", "load_params",
    "TrainConfig", "LabeledInstance", "grad", "adam_step", "split_dataset", "train_loop",
    "SlsConfig", "SlsResult", "round_marginals", "sls_solve",
    "GenConfig", "clause_count_3sat", "gen_random_3sat", "gen_sr", "gen_ca",
]

__version__ = "0.1.0"
