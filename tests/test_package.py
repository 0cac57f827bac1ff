"""The package's public surface: every name it exports, eager or loaded on use."""

import importlib

import pytest

import wavelock as wl

# Every name `wavelock` exports, with the submodule that defines it.
EXPORTS = {
    "core": (
        "FOUR_PI", "DerivedConstants", "ParameterError", "ProblemParams", "QuadratureError",
        "Regime", "RegimeError", "canonical_order", "classify_regime", "derive_constants",
        "g_eval", "g_prime",
    ),
    "closed_form": (
        "RadialProfile", "SingleConstraintResult", "disc_measure", "distribution_of_profile",
        "single_bound", "single_profile",
    ),
    "solver": (
        "BoundReport", "Multipliers", "SolverError", "bound_integral", "compute_bound", "find_T",
        "moment", "multipliers", "solve_multipliers", "u_eval",
    ),
    "weight": (
        "ExtremalWeight", "HalfPlanePoint", "eval_weight", "measured_distribution",
        "pseudo_hyperbolic", "psi_inverse", "radial_operator_norm", "weight_from_report",
        "weight_norms",
    ),
    "oracle": (
        "DiscreteProblem", "DiscreteSolution", "OracleError", "check_monotone_restoration",
        "run_oracle", "solve_discrete",
    ),
    "verifier": (
        "CauchyTransform", "FrequencyGrid", "PlaneGrid", "PowerIterationResult",
        "VerificationReport", "cauchy_wavelet_hat", "operator_norm", "run_verification",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_every_export_once():
    assert len(wl.__all__) == len(set(wl.__all__))
    assert {name for _, name in NAMES} <= set(wl.__all__)


def test_every_export_is_its_submodule_object():
    namespace = {}
    exec("from wavelock import *", namespace)
    for module, name in NAMES:
        defined = getattr(importlib.import_module(f"wavelock.{module}"), name)
        assert getattr(wl, name) is defined, name
        assert namespace[name] is defined, name


def test_lazy_names_are_not_cached_on_the_package():
    assert wl.run_oracle is importlib.import_module("wavelock.oracle").run_oracle
    assert "run_oracle" not in vars(wl)


def test_oracle_error_lives_in_core():
    assert importlib.import_module("wavelock.oracle").OracleError is wl.core.OracleError


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wl.no_such_name
    assert not hasattr(wl, "no_such_name")
