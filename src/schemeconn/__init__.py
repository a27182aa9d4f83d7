"""Connectivity and spectral analysis for association scheme relations."""

from .audits import RelationContext, spec_cut_audit
from .catalog import (build_family, builtin_catalog, gen_conjugacy,
                      gen_cyclic, gen_hamming, gen_johnson, load_scheme,
                      save_scheme, scheme_from_drg)
from .connectivity import (edge_connectivity, enumerate_min_cuts,
                           local_vertex_connectivity, maximal_cliques, twins,
                           vertex_connectivity)
from .diagram import distribution_diagram, h_prime_connected
from .errors import (CapExceeded, DetectorDisagreement, Disconnected,
                     HypothesisNotMet, HypothesisViolation,
                     IdentityClassRequested, NonConstantIntersection,
                     NotAGroup, NotAPartition, NotClosedUnderTranspose,
                     NotCommutative, NotDistanceRegular, NotSymmetric,
                     ParseError, RefinementFailed, SchemeError, SizeCap)
from .graph import Graph
from .report import (AnalysisConfig, analyze_relation, analyze_scheme,
                     run_survey)
from .scheme import (RelationTable, SchemeDescriptor, relation_graph,
                     symmetrized_scheme, validate_scheme)
from .spectral import compute_spectral, primitivity, second_eigenvalue

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CapExceeded",
    "DetectorDisagreement",
    "Disconnected",
    "Graph",
    "HypothesisNotMet",
    "HypothesisViolation",
    "IdentityClassRequested",
    "NonConstantIntersection",
    "NotAGroup",
    "NotAPartition",
    "NotClosedUnderTranspose",
    "NotCommutative",
    "NotDistanceRegular",
    "NotSymmetric",
    "ParseError",
    "RefinementFailed",
    "RelationContext",
    "RelationTable",
    "SchemeDescriptor",
    "SchemeError",
    "SizeCap",
    "analyze_relation",
    "analyze_scheme",
    "build_family",
    "builtin_catalog",
    "compute_spectral",
    "distribution_diagram",
    "edge_connectivity",
    "enumerate_min_cuts",
    "gen_conjugacy",
    "gen_cyclic",
    "gen_hamming",
    "gen_johnson",
    "h_prime_connected",
    "load_scheme",
    "local_vertex_connectivity",
    "maximal_cliques",
    "primitivity",
    "relation_graph",
    "run_survey",
    "save_scheme",
    "scheme_from_drg",
    "second_eigenvalue",
    "spec_cut_audit",
    "symmetrized_scheme",
    "twins",
    "validate_scheme",
    "vertex_connectivity",
]
