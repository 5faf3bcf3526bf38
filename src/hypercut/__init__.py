"""Spectral clustering of hypergraphs with edge-dependent vertex weights.

Builds symmetric submodular hyperedge cut costs from per-hyperedge vertex
importance scores, reduces the clique-profile case to a weighted graph,
approximates the second eigenpair of the graph 1-Laplacian with a nonlinear
inverse power method, and thresholds the eigenvector at the NCC-optimal
level set.
"""

from .baselines import RwLaplacian, build_rw_laplacian, cardinality_variant
from .core import (EdvwHypergraph, GKind, HKind, Partition,
                   SubmodularWeightSpec, cut_weight, evaluate_partition,
                   lovasz_extension, r1_functional, submodular_weight,
                   theta_and_degree, volume, weighted_median, with_degree_mu)
from .errors import (DataIngestError, DisconnectedGraphError,
                     HypergraphFormatError, SolverConvergenceError,
                     UnsupportedReductionError)
from .io import read_hypergraph, write_hypergraph
from .oracle import exact_h2, random_instance
from .reduction import (WeightedGraph, clique_expand, export_matrix_market,
                        graph_cut, graph_total_variation)
from .report import ClusteringReport, clustering_error, run_method
from .solver import (EigResult, IpmConfig, graph_r1, inner_tv_solve,
                     ipm_second_eigvec, median_subgradient, optimal_threshold,
                     second_eigvec_2lap)

__version__ = "0.1.0"

__all__ = [
    "ClusteringReport", "DataIngestError", "DisconnectedGraphError",
    "EdvwHypergraph", "EigResult", "GKind", "HKind", "HypergraphFormatError",
    "IpmConfig", "Partition", "RwLaplacian", "SolverConvergenceError",
    "SubmodularWeightSpec", "UnsupportedReductionError", "WeightedGraph",
    "build_rw_laplacian", "cardinality_variant", "clique_expand",
    "clustering_error", "cut_weight", "evaluate_partition", "exact_h2",
    "export_matrix_market", "graph_cut", "graph_r1", "graph_total_variation",
    "inner_tv_solve", "ipm_second_eigvec", "lovasz_extension",
    "median_subgradient", "optimal_threshold", "r1_functional",
    "random_instance", "read_hypergraph", "run_method",
    "second_eigvec_2lap", "submodular_weight", "theta_and_degree", "volume",
    "weighted_median", "with_degree_mu", "write_hypergraph",
]
