"""Minimum spanning arborescence toolkit.

Contraction-based exact solvers for the rooted directed MST problem:
a classic contract-and-expand solver with three interchangeable
incoming-edge-set strategies, a growth-path solver after Gabow et al.
(its active forest has no cascading cuts and sorts each fold's new
nodes, so it is exact but does not keep their O(n log n + m) bound),
a shared reconstruction phase, oracles, and instance generators.
"""

from .active_forest import ActiveForest
from .dsu import ContractionDSU, PlainDSU
from .errors import Infeasible, ParseError, SolveTimeout
from .gen import gen_antilemon, gen_er_rooted
from .ggst import GgstSolver, ggst_solve
from .graph import (Edge, Graph, SplitMix64, attach_super_root,
                    parse_edge_list, parse_plain_edge_list, sample_weights,
                    serialize, weak_components)
from .oracle import brute_force, naive_edmonds
from .queues import LazyHeapQueue, MatrixQueue, SilQueue
from .recon import SolveResult, build_leaf_map, is_arborescence, reconstruct
from .tarjan import TarjanSolver, tarjan_solve

__all__ = [
    "ActiveForest",
    "ContractionDSU",
    "Edge",
    "GgstSolver",
    "Graph",
    "Infeasible",
    "LazyHeapQueue",
    "MatrixQueue",
    "ParseError",
    "PlainDSU",
    "SilQueue",
    "SolveResult",
    "SolveTimeout",
    "SplitMix64",
    "TarjanSolver",
    "attach_super_root",
    "brute_force",
    "build_leaf_map",
    "gen_antilemon",
    "gen_er_rooted",
    "ggst_solve",
    "is_arborescence",
    "naive_edmonds",
    "parse_edge_list",
    "parse_plain_edge_list",
    "reconstruct",
    "sample_weights",
    "serialize",
    "tarjan_solve",
    "weak_components",
]
