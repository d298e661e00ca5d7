"""Volumes of differentiable stacks presented by groupoids.

Exact big-integer rational volumes for finite groupoids, including
Morita-equivalence transfer through linking groupoids, plus numerical
volumes and orbit-space densities for a fixed catalog of analytic
Lie-groupoid models.

The public names below are loaded on first access (PEP 562), so
importing the package, or only its finite side, loads no numpy; only
Monte Carlo integration and the SU(2) model need it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("CATALOG", "build_model"),
    "errors": ("NumericalFailure", "SchemaError", "StackVolError", "ValidationFailure",
               "ValidationReport", "Violation"),
    "families": ("CriticalPointError", "PoissonFamilyModel", "SymplecticModel",
                 "leaf_measure_product", "natural_leaf_measure", "poisson_stack_density",
                 "symplectic_bk_volume"),
    "finite": ("FiniteGroupoid", "Orbit", "OrbitDecomposition", "WeightData", "action_groupoid",
               "block_groupoid", "block_union", "cardinality", "classifying_groupoid",
               "disjoint_union", "empty_groupoid", "fiber_volume", "finite_sets_cardinality",
               "invariant_section", "orbit_set_measure", "orbit_volume", "orbits", "pair_groupoid",
               "random_groupoid", "random_invariant_weights", "random_positive_rescaling",
               "restrict_to_objects", "validate"),
    "groups": ("FiniteGroup", "group_zoo"),
    "morita": ("Bibundle", "MoritaVolumeReport", "block_bibundle", "compose_bibundles",
               "extend_invariant_section", "identity_bibundle", "linking_groupoid",
               "morita_volume_check", "random_morita_triple", "random_morita_weights",
               "restrict_full", "transfer_section", "validate_bibundle"),
    "quadrature": ("NonConvergenceError", "QuadratureResult", "integrate_1d",
                   "integrate_box", "integrate_mc"),
    "smooth": ("ActionModel", "BoxChart", "GroupModel", "OrbitChart", "PointChart",
               "check_invariance", "fiber_integral", "finite_action_model",
               "homogeneous_volume", "pushforward_density", "stack_volume",
               "stack_volume_vs_pushforward"),
    "su2": ("CartanData", "adjoint_orbit_density", "gaussian_test_function", "su2_cartan",
            "weyl_integration_check"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # any other name raises, so ``from stackvol import smooth`` imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
