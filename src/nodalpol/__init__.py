"""Exact stability and goodness analysis for polarized nodal curves.

Curves with smooth components are modeled as genus-decorated dual
multigraphs; polarizations are exact rational weight vectors.  The package
decides w-stability of the structure sheaf, certifies or refutes goodness
of a polarization, relates both to balanced multidegrees, and ships a
reproducible sweep harness hunting for a counterexample to the conjectured
equivalence between the two notions.
"""

from .balanced import MultidegreeBundle, balanced_stability_bridge, is_balanced, is_strictly_balanced, omega_degree
from .curve import CurveClass, CurveGraph, Subcurve
from .errors import NodalPolError
from .goodness import GoodnessStatus, GoodnessVerdict, conjecture_probe, decide, sufficient_check
from .pathsys import AjFamily, PathSystem, aj_family, build_path_system, delta_decomposed, star2_conditions, verify_path_identities
from .polarization import Polarization, StabilityPolytope, canonical, delta_structure, enumerate_weight_grid, from_multidegree, lambda_vector, stability_polytope
from .search import CampaignConfig, CampaignReport, enumerate_curves, run_campaign, sample_polarizations
from .sheafdata import SheafDatum, SheafSlopeReport, delta_general, delta_residual, is_locally_free, restrict, restricted_wdeg, slope_report, tensor_by_multidegree, validate_datum
from .stability import StabilityVerdict, oc_stability, rank1_stability, star_conditions

__version__ = "0.1.0"

__all__ = [
    "AjFamily",
    "CampaignConfig",
    "CampaignReport",
    "CurveClass",
    "CurveGraph",
    "GoodnessStatus",
    "GoodnessVerdict",
    "MultidegreeBundle",
    "NodalPolError",
    "PathSystem",
    "Polarization",
    "SheafDatum",
    "SheafSlopeReport",
    "StabilityPolytope",
    "StabilityVerdict",
    "Subcurve",
    "aj_family",
    "balanced_stability_bridge",
    "build_path_system",
    "canonical",
    "conjecture_probe",
    "decide",
    "delta_decomposed",
    "delta_general",
    "delta_residual",
    "delta_structure",
    "enumerate_curves",
    "enumerate_weight_grid",
    "from_multidegree",
    "is_balanced",
    "is_locally_free",
    "is_strictly_balanced",
    "lambda_vector",
    "oc_stability",
    "omega_degree",
    "rank1_stability",
    "restrict",
    "restricted_wdeg",
    "run_campaign",
    "sample_polarizations",
    "slope_report",
    "stability_polytope",
    "star2_conditions",
    "star_conditions",
    "sufficient_check",
    "tensor_by_multidegree",
    "validate_datum",
    "verify_path_identities",
]
