"""The package's public surface: every name it exports, eager or loaded on use."""

import ast
import importlib
import pathlib

import pytest

import wavelock as wl

# Every name `wavelock` exports, with the submodule that defines it.
EXPORTS = {
    "core": (
        "FOUR_PI", "DerivedConstants", "ParameterError", "ProblemParams", "QuadratureError",
        "Regime", "RegimeError", "canonical_order", "classify_regime", "derive_constants",
        "g_eval",
    ),
    "closed_form": (
        "SingleConstraintResult", "distribution_of_profile", "single_bound", "single_profile",
    ),
    "solver": (
        "BoundReport", "Multipliers", "SolverError", "bound_integral", "compute_bound", "find_T",
        "moment", "multipliers", "solve_multipliers", "u_eval",
    ),
    "weight": (
        "ExtremalWeight", "HalfPlanePoint", "eval_weight", "measured_distribution",
        "psi_inverse", "radial_operator_norm", "radial_s", "weight_from_report", "weight_norms",
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

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Public definitions that nothing in src/, the demos or perfbench/ refers to,
# kept on purpose.
UNUSED_ON_PURPOSE = {
    "bound_integral": "the quadrature check of compute_bound's closed-form dual bound, which perfbench hooks by name",
    "single_profile": "the closed-form reference of acceptance criterion 2",
    "solve_multipliers": "the public dual entry point, which perfbench hooks by string",
}


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


def _names_read(node: ast.AST) -> set[str]:
    """Every name a node reads, as a bare name, an attribute or an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_public_definition_has_a_caller():
    # A top-level public function or class of a wavelock module must be read
    # outside its own definition by some module other than __init__ (whose
    # re-exports do not count), a demo or perfbench/; tests do not count.
    modules = sorted(p for p in (ROOT / "src" / "wavelock").glob("*.py") if p.stem != "__init__")
    callers = [*modules, *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]
    assert len(modules) == 7 and len(callers) > len(modules)
    defined, read = [], set()
    for path in callers:
        for node in ast.parse(path.read_text()).body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            if own and path in modules and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
            read |= _names_read(node) - own
    unused = {name for name in defined if name.split(".")[1] not in read}
    assert {name.split(".")[1] for name in unused} == set(UNUSED_ON_PURPOSE), sorted(unused)
