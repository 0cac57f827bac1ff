"""Sharp norm bounds for Cauchy-wavelet localization operators.

The library computes the optimal operator-norm bound for localization
operators whose weight is constrained in two Lebesgue norms on the
hyperbolic upper half-plane, classifies which constraint binds,
reconstructs the extremal weights, and checks everything against two
independent numerical oracles: a discrete variational solver, and the
operator norm of the extremal weight, computed exactly from its radial
profile.  Every extremal weight, single-regime ones included, is given by
its multiplier pair.  The transform grid with power iteration in
:mod:`wavelock.verifier` is a first-principles reference for that norm.
"""

import importlib

# core, closed_form and solver are what every command runs, so they load
# with the package.  solver must: a caller that patches solver.compute_bound
# and then wavelock.compute_bound would, were the second looked up lazily,
# read the already patched function as the original and restore that.
from .core import (
    FOUR_PI,
    DerivedConstants,
    OracleError,
    ParameterError,
    ProblemParams,
    QuadratureError,
    Regime,
    RegimeError,
    canonical_order,
    classify_regime,
    derive_constants,
    g_eval,
)
from .closed_form import (
    SingleConstraintResult,
    disc_measure,
    distribution_of_profile,
    single_bound,
    single_profile,
)
from .solver import (
    BoundReport,
    Multipliers,
    SolverError,
    bound_integral,
    compute_bound,
    find_T,
    moment,
    multipliers,
    solve_multipliers,
    u_eval,
)

# The weight, oracle and verifier layers load on first use (PEP 562): each
# access looks the name up in its submodule, and nothing is cached here.
_LAZY = {
    name: module
    for module, names in {
        "weight": (
            "ExtremalWeight", "HalfPlanePoint", "eval_weight", "measured_distribution",
            "pseudo_hyperbolic", "psi_inverse", "radial_operator_norm", "weight_from_report",
            "weight_norms",
        ),
        "oracle": (
            "DiscreteProblem", "DiscreteSolution", "check_monotone_restoration", "run_oracle",
            "solve_discrete",
        ),
        "verifier": (
            "CauchyTransform", "FrequencyGrid", "PlaneGrid", "PowerIterationResult",
            "VerificationReport", "cauchy_wavelet_hat", "operator_norm", "run_verification",
        ),
    }.items()
    for name in names
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "FOUR_PI", "DerivedConstants", "OracleError", "ParameterError", "ProblemParams",
    "QuadratureError", "Regime", "RegimeError", "canonical_order", "classify_regime",
    "derive_constants", "g_eval",
    "SingleConstraintResult", "disc_measure", "distribution_of_profile", "single_bound",
    "single_profile",
    "BoundReport", "Multipliers", "SolverError", "bound_integral", "compute_bound", "find_T",
    "moment", "multipliers", "solve_multipliers", "u_eval",
    *_LAZY,
]

__version__ = "0.1.0"
