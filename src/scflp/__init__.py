"""Exact solver toolkit for the sequential competitive facility location
problem (SCFLP) under the partially binary customer choice rule.

A leader opens p facilities anticipating a follower who opens r; every
customer splits demand between the single most attractive facility of each
player, proportionally to attractiveness.  The package provides three
single-level MILP reformulations (SF, GSF, EF), their cut-separation
oracles via r-median reductions, an LP-based branch-and-cut driver, a
brute-force oracle, and structural verification checks.
"""

from .instance import GeneratorParams, Instance, InstanceError, generate_instance, load_instance, save_instance
from .market import compute_cy, follower_best_response, leader_share
from .rmedian import RMedianInstance, rmedian_enumerate, rmedian_solve
from .bnc import BncConfig, SolveReport, root_relaxation, solve
from .oracle import OracleReport, brute_force_solve, full_lp_value

__all__ = [
    "BncConfig",
    "GeneratorParams",
    "Instance",
    "InstanceError",
    "OracleReport",
    "RMedianInstance",
    "SolveReport",
    "brute_force_solve",
    "compute_cy",
    "follower_best_response",
    "full_lp_value",
    "generate_instance",
    "leader_share",
    "load_instance",
    "rmedian_enumerate",
    "rmedian_solve",
    "root_relaxation",
    "save_instance",
    "solve",
]

__version__ = "0.1.0"
