"""Minimum k-cut toolkit for unweighted simple graphs and multigraphs.

The package exports the library API below; the stages behind it live in
their own modules (kcut.graph, kcut.sparsify, kcut.packing, kcut.tree,
kcut.treecut, kcut.oracles) and stay importable from there.
"""

from .errors import BudgetExceeded, Infeasible, KcutError, ParseError
from .graph import KCutSolution, MultiGraph, Partition, cut_value
from .io import gen_clique_reduction, gen_random, parse_graph, serialize_graph
from .oracles import brute_min_kcut
from .solver import SolverConfig, min_kcut, solve_with_stats
from .treecut import TrialConfig

__all__ = [
    "BudgetExceeded",
    "Infeasible",
    "KCutSolution",
    "KcutError",
    "MultiGraph",
    "ParseError",
    "Partition",
    "SolverConfig",
    "TrialConfig",
    "brute_min_kcut",
    "cut_value",
    "gen_clique_reduction",
    "gen_random",
    "min_kcut",
    "parse_graph",
    "serialize_graph",
    "solve_with_stats",
]
