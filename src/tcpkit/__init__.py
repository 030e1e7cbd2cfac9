"""Tensor complementarity toolkit.

Library and CLI for tensor complementarity problems over the nonnegative
orthant and finitely generated polyhedral cones: multilinear contractions,
cone geometry, three-valued tensor classification, complementary-cone
membership, an enumeration solver with semismooth refinement, and seeded
stability probes.

Importing the package imports none of its modules: each exported name is
looked up in its module on first use (PEP 562), so ``import tcpkit.cli``
and ``from tcpkit import orthant`` load only what they run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "Verdict", "all_principal_nonsingular", "is_copositive", "is_K_nonsingular",
        "is_K_pd", "is_K_psd", "is_K_regular", "is_strictly_copositive",
        "min_over_basis", "q_in_dual_SA", "s_cone_samples",
    ),
    "compcones": (
        "MembershipResult", "complementary_tensor", "q_membership",
        "solution_from_membership", "tpos_contains",
    ),
    "cones": (
        "NotPointedError", "PolyhedralCone", "basis_samples", "cone_from_json",
        "cone_to_json", "contains", "delta_metric", "dist", "dual", "from_generators",
        "orthant", "project", "tangent_cone",
    ),
    "solver": (
        "EnumerationOutcome", "TcpInstance", "TcpSolution", "instance_from_json",
        "instance_to_json", "is_solution", "refine", "residual", "solution_set_probe",
        "solve_enumerate",
    ),
    "stability": (
        "PerturbationReport", "error_bound_probe", "graph_closedness_probe",
        "local_uniqueness_certificate", "nonsingularity_openness_probe",
        "perturb_existence", "unsolvable_neighborhood_probe", "usc_probe",
    ),
    "tensor": (
        "IndexSet", "ShapeError", "Tensor", "apply_m", "apply_m1", "apply_m2",
        "frobenius_distance", "is_subsymmetric", "is_symmetric", "jacobian_m1",
        "principal_subtensor", "tensor_from_dense", "tensor_from_json",
        "tensor_to_json", "unit_tensor",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
