"""Connectivity and spectral analysis for association scheme relations.

The root exports the README's library examples and the survey entry
points; everything else is imported from its submodule."""

from .audits import RelationContext, spec_cut_audit
from .catalog import build_family, load_scheme, save_scheme
from .connectivity import vertex_connectivity
from .errors import SchemeError
from .report import AnalysisConfig, analyze_scheme, run_survey
from .scheme import relation_graph
from .spectral import compute_spectral

__version__ = "0.4.0"

__all__ = [
    "AnalysisConfig",
    "RelationContext",
    "SchemeError",
    "analyze_scheme",
    "build_family",
    "compute_spectral",
    "load_scheme",
    "relation_graph",
    "run_survey",
    "save_scheme",
    "spec_cut_audit",
    "vertex_connectivity",
]
