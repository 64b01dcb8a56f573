"""Desk-scale workbench for clustered-tour (GTSP) optimization.

Pipeline: GTSPLIB parsing -> instance reduction -> one-hot QUBO -> sampling
(exhaustive scan, simulated annealing, one-hot-subspace alternating-operator
simulator, external adapter) -> feasibility / approximation-ratio reports
against an exact baseline.
"""

from .baseline import exact_solve, random_tours
from .bench import build_report
from .instance import parse_gtsplib
from .qaoa import grid_search
from .qubo import build_qubo
from .sampler import sa_sample

__version__ = "0.1.0"
