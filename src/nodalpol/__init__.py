"""Exact stability and goodness analysis for polarized nodal curves.

Curves with smooth components are modeled as genus-decorated dual
multigraphs; polarizations are exact rational weight vectors.  The package
decides w-stability of the structure sheaf, certifies or refutes goodness
of a polarization, relates both to balanced multidegrees, and ships a
reproducible sweep harness hunting for a counterexample to the conjectured
equivalence between the two notions.

Names load on first use: ``import nodalpol`` imports no submodule, and the
first lookup of an exported name, as ``nodalpol.decide`` or ``from nodalpol
import decide``, imports the module that defines it.  A command therefore
loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "balanced": (
        "MultidegreeBundle", "balanced_stability_bridge", "is_balanced",
        "is_strictly_balanced", "omega_degree",
    ),
    "curve": ("CurveClass", "CurveGraph", "DualGraph", "Subcurve"),
    "errors": ("NodalPolError",),
    "goodness": (
        "GoodnessStatus", "GoodnessVerdict", "conjecture_probe", "decide", "sufficient_check",
    ),
    "pathsys": (
        "AjFamily", "PathSystem", "aj_family", "build_path_system", "delta_decomposed",
        "verify_path_identities",
    ),
    "polarization": (
        "Polarization", "canonical", "delta_structure", "enumerate_weight_grid",
        "from_multidegree", "lambda_vector",
    ),
    "search": (
        "CampaignConfig", "CampaignReport", "enumerate_curves", "run_campaign",
        "sample_polarizations",
    ),
    "sheafdata": (
        "SheafDatum", "SheafSlopeReport", "delta_general", "delta_residual",
        "is_locally_free", "restrict", "restricted_wdeg", "slope_report",
        "tensor_by_multidegree", "validate_datum",
    ),
    "stability": (
        "StabilityPolytope", "StabilityVerdict", "oc_stability", "rank1_stability",
        "stability_polytope",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
