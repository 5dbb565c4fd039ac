"""SAT and #SAT inference on CNF factor graphs.

Marginal inference and Bethe partition-function estimation via log-space
belief propagation and its learnable message-passing generalization, with
an exact desk-scale oracle, instance generators, marginal-guided local
search, and decimation.
"""

from .cnf import CnfFormula, DimacsError, emit_dimacs, evaluate, normalize, parse_dimacs, simplify
from .graph import FactorGraph, build_factor_graph
from .oracle import ExactResult, enumerate_models, exact_count, exact_marginals, satisfiable
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
from .train import LabeledInstance, TrainConfig, adam_step, grad, kl_loss, mse_lnz_loss, split_dataset, train_loop
from .search import SlsConfig, SlsResult, decimate, round_marginals, sls_solve
from .gen import GenConfig, clause_count_3sat, filter_satisfiable, gen_ca, gen_random_3sat, gen_sr

__all__ = [
    "CnfFormula", "DimacsError", "parse_dimacs", "emit_dimacs", "evaluate",
    "normalize", "simplify",
    "FactorGraph", "build_factor_graph",
    "ExactResult", "enumerate_models", "exact_count", "exact_marginals", "satisfiable",
    "BpConfig", "BpState", "bp_run", "bp_marginals", "bethe_ln_z",
    "ModelParams", "NsnetOutput", "init_params", "bp_reduction_params", "forward",
    "save_params", "load_params",
    "TrainConfig", "LabeledInstance", "kl_loss", "mse_lnz_loss", "grad", "adam_step",
    "split_dataset", "train_loop",
    "SlsConfig", "SlsResult", "round_marginals", "sls_solve", "decimate",
    "GenConfig", "clause_count_3sat", "gen_random_3sat", "gen_sr", "gen_ca",
    "filter_satisfiable",
]

__version__ = "0.1.0"
