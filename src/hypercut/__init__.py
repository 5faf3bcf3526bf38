"""Spectral clustering of hypergraphs with edge-dependent vertex weights.

Builds symmetric submodular hyperedge cut costs from per-hyperedge vertex
importance scores, approximates the second eigenpair of the hypergraph
1-Laplacian with a nonlinear inverse power method whose inner problems run
on the clique-expansion graph, and thresholds the eigenvector at the
NCC-optimal level set.
"""

from .baselines import RwLaplacian, build_rw_laplacian, cardinality_variant
from .core import (EdvwHypergraph, GKind, HKind, Partition,
                   SubmodularWeightSpec, cut_weight, evaluate_partition,
                   lovasz_extension, r1_functional, submodular_weight,
                   theta_and_degree, volume, with_degree_mu)
from .errors import (DataIngestError, DisconnectedGraphError,
                     HypergraphFormatError, SolverConvergenceError,
                     UnsupportedReductionError)
from .io import read_hypergraph, write_hypergraph
from .oracle import exact_h2, random_instance
from .reduction import WeightedGraph, clique_expand, export_matrix_market
from .report import ClusteringReport, clustering_error, run_method
from .solver import (EigResult, IpmConfig, ipm_second_eigvec,
                     optimal_threshold, second_eigvec_2lap)

__version__ = "0.1.0"

__all__ = [
    "ClusteringReport", "DataIngestError", "DisconnectedGraphError",
    "EdvwHypergraph", "EigResult", "GKind", "HKind", "HypergraphFormatError",
    "IpmConfig", "Partition", "RwLaplacian", "SolverConvergenceError",
    "SubmodularWeightSpec", "UnsupportedReductionError", "WeightedGraph",
    "build_rw_laplacian", "cardinality_variant", "clique_expand",
    "clustering_error", "cut_weight", "evaluate_partition", "exact_h2",
    "export_matrix_market", "ipm_second_eigvec", "lovasz_extension",
    "optimal_threshold", "r1_functional", "random_instance",
    "read_hypergraph", "run_method", "second_eigvec_2lap",
    "submodular_weight", "theta_and_degree", "volume", "with_degree_mu",
    "write_hypergraph",
]
