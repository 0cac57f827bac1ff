"""The package's public surface: every name it exports, eager or loaded on use."""

import ast
import importlib
import math
import pathlib
import re

import numpy as np
import pytest

import wavelock as wl
from wavelock import cli, closed_form, core, oracle, solver

# Every name `wavelock` exports, with the submodule that defines it.
EXPORTS = {
    "core": (
        "FOUR_PI", "DerivedConstants", "ParameterError", "ProblemParams", "QuadratureError",
        "Regime", "RegimeError", "canonical_order", "classify_regime", "derive_constants",
        "g_eval",
    ),
    "closed_form": (
        "SingleConstraintResult", "distribution_of_profile", "single_bound",
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
        "DiscreteProblem", "DiscreteSolution", "OracleError", "run_oracle", "solve_discrete",
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
    "solve_multipliers": (
        "perfbench's Tracer.install hooks it with getattr and no default, so deleting it "
        "fails perfbench/tests/test_perfbench.py"
    ),
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


def test_src_modules_read_every_name_they_import():
    # No linter is installed, so this is the unused-import check: every name a
    # wavelock module other than __init__ imports must be read in that module.
    # The lines marked `# noqa: F401` are exempt; perfbench's tracer hooks
    # those three names on the importing module.
    unread, exempt = [], set()
    for path in sorted((ROOT / "src" / "wavelock").glob("*.py")):
        if path.stem == "__init__":
            continue
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name in read:
                    continue
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    exempt.add(f"{path.stem}.{name}")
                else:
                    unread.append(f"{path.stem}.{name}")
    assert unread == []
    assert exempt == {"verifier.eval_weight", "weight.derive_constants", "weight.single_bound"}


# The modules every command loads: numpy reaches them only through core's handle.
COMMAND_MODULES = ("core", "closed_form", "solver", "cli")


def _run_at_import(tree: ast.Module):
    """Every node of a module that runs when it is imported: all but the
    bodies of its functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_command_modules_reach_numpy_only_through_the_handle(module):
    tree = ast.parse((ROOT / "src" / "wavelock" / f"{module}.py").read_text())
    imports, binds = [], []
    for node in _run_at_import(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            imports += [n for n in names if n.split(".")[0] == "numpy"]
            binds += [node for a in node.names if (a.asname or a.name) == "np"]
        elif isinstance(node, ast.Assign):
            binds += [node for t in node.targets if isinstance(t, ast.Name) and t.id == "np"]
    assert imports == [], f"{module} imports numpy when it loads"
    # core binds the handle once; the others take it from core by its name.
    (bind,) = binds
    if module == "core":
        assert isinstance(bind, ast.Assign) and ast.unparse(bind.value).startswith("types.ModuleType(")
    else:
        assert isinstance(bind, ast.ImportFrom) and (bind.level, bind.module) == (1, "core")
        assert [a.asname for a in bind.names if a.name == "np"] == [None]
    assert importlib.import_module(f"wavelock.{module}").np is core.np


def test_numpy_handle_reads_numpys_names():
    assert type(core.np) is type(np) and core.np is not np
    assert core.np.__getattr__ is core._load_numpy
    for name in ("exp", "log1p", "maximum", "minimum", "all", "ndarray", "errstate", "polynomial"):
        assert getattr(core.np, name) is getattr(np, name), name
    assert solver._ARRAY_OPS is core.np
    with pytest.raises(AttributeError, match="no_such_name"):
        core.np.no_such_name


def test_plain_float_constants_are_numpys():
    # The constants the command modules form at import are plain Python
    # values, equal bit for bit to numpy's.
    assert core._LOG_FLOAT_MAX == math.log(np.finfo(float).max)
    assert closed_form._S_TOP == np.finfo(float).max / core.FOUR_PI
    assert closed_form._TOP_BITS == np.float64(closed_form._S_TOP).view(np.int64)
    assert closed_form._EPS == np.finfo(float).eps
    assert type(closed_form._S_TOP) is type(closed_form._EPS) is float
    assert type(closed_form._TOP_BITS) is int


def test_readme_states_the_schema():
    # Every "schema" the README quotes must be the one the CLI writes.
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.findall(r'"schema": "(wavelock/\d+)"', text)
    assert found, "the README no longer states the JSON schema"
    assert set(found) == {cli.SCHEMA}


def test_readme_states_the_graded_rule():
    # The README's description of the rule has gone stale before; its panel
    # counts must be the ones core builds.
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"panels halving (\d+) times into 0 and (\d+) times into 1 \((\d+) panels in all\), "
                      r"16 Gauss nodes per panel, checked against 8 nodes per panel", text)
    assert found, "the README's sentence on the graded rule is missing or reworded"
    into_0, into_1, panels = map(int, found.groups())
    assert (into_0, into_1) == (core._PANELS, core._PANELS_INTO_1)
    assert panels == len(core._graded_rule(core._PANELS, 16)[0]) // 16 == len(core._graded_rule(core._PANELS, 8)[0]) // 8


def test_readme_states_the_oracle_counts(ref_params, ref_report):
    # The README's reference counts for the oracle have gone stale before;
    # they must be the ones solve_discrete reports.
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"on the reference the solve takes (\d+) descents? and (\d+) evaluations in (\d+) steps", text)
    assert found, "the README's sentence on the oracle's reference counts is missing or reworded"
    prob = oracle.DiscreteProblem.log_spaced(ref_params, t_max=2.0 * ref_report.T, n=2000)
    sol = oracle.solve_discrete(prob)
    descents, evaluations, steps = map(int, found.groups())
    assert (descents, evaluations, steps) == (
        len(sol.diagnostics["descents"]), sol.diagnostics["dual_evaluations"], sol.iterations
    )
