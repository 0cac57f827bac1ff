"""The four benchmark workloads: bound_mix, verify, weights and cli.

A workload's set-up function builds its inputs from the seed and returns
the operations the runner times, as a list of cycles; the runner stops
only between cycles, so every run measures whole cycles.  Each
:class:`Op` runs one call into the library (or one CLI subprocess) and
has a check that the runner applies to its result after timing, with
tracing off.  ``main`` marks the
operations whose latency gives ``p50_s``; ``ref`` marks the fixed
reference operation behind ``ref_s``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wavelock import solver, verifier, weight
from wavelock.closed_form import single_bound
from wavelock.core import ProblemParams, derive_constants
from wavelock.verifier import PlaneGrid
from wavelock.weight import weight_from_report

from . import instances as inst
from .instances import REFERENCE, REFERENCE_BOUND, REFERENCE_INSTANCE, Instance

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# Checks, with the tolerances the library documents for each quantity.
RESIDUAL_TOL = 1e-8  # dual moment residuals
QUADRATURE_TOL = 1e-8  # the solver's quadrature acceptance, for bound <= single bounds
REFERENCE_TOL = 1e-12
NORM_TOL = 1e-6
DISTRIBUTION_TOL = 1e-4
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    key: object  # the operation's input: ProblemParams, or the CLI arguments
    run: Callable[[object], object]  # takes the tracer (None when untraced)
    check: Callable[[object], list[str]]
    main: bool = True
    ref: bool = False
    gated: bool = True  # False: checked and printed, but in no metric
    child: bool = False  # runs a child process, timed against the child probe


# --------------------------------------------------------------- bound_mix

def _bound_check(item: Instance):
    def check(report) -> list[str]:
        P = item.params
        errors = []
        if report.regime != item.regime:
            errors.append(f"regime {report.regime}, drawn as {item.regime}")
        if report.regime == "Dual":
            m = report.multipliers()
            res_p = abs(solver.moment(m, P, "P") - P.A**P.p) / P.A**P.p
            res_q = abs(solver.moment(m, P, "Q") - P.B**P.q) / P.B**P.q
            if max(res_p, res_q) > RESIDUAL_TOL:
                errors.append(f"moment residuals {res_p:.2e}, {res_q:.2e}")
        consts = derive_constants(P)
        cap = min(single_bound(P, consts, s, enforce_regime=False).bound for s in ("P", "Q"))
        if not report.bound <= cap * (1.0 + QUADRATURE_TOL):
            errors.append(f"bound {report.bound!r} above the single bound {cap!r}")
        if item.kind == "reference" and abs(report.bound - REFERENCE_BOUND) > REFERENCE_TOL * REFERENCE_BOUND:
            errors.append(f"reference bound {report.bound!r} != {REFERENCE_BOUND!r}")
        return [f"{P}: {e}" for e in errors]

    return check


def _bound_op(item: Instance) -> Op:
    return Op(
        label=item.kind,
        key=item.params,
        run=lambda tracer: solver.compute_bound(item.params),
        check=_bound_check(item),
        main=item.regime == "Dual",
        ref=item.kind == "reference",
    )


def bound_mix(seed: int) -> list[list[Op]]:
    """compute_bound over a shuffled seeded mix; a cycle is a block of ten."""
    items = inst.bound_mix(np.random.default_rng(seed), blocks=60)
    solver.compute_bound(REFERENCE)  # warm-up: lazy imports and caches
    return [[_bound_op(item) for item in items[k:k + 10]] for k in range(0, len(items), 10)]


# ------------------------------------------------------------------ verify

# Near the reference scale beta ~ 0.5 that the default verifier grids are
# documented for; below r1 of the reference exponents, so SingleQ.
VERIFY_SINGLE = Instance("fixed-single", ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2), "SingleQ")


def _verify_op(item: Instance) -> Op:
    def check(report) -> list[str]:
        errors = []
        if report.regime != item.regime:
            errors.append(f"regime {report.regime}, drawn as {item.regime}")
        if not report.ok:
            errors.append(f"failed checks {report.failures()}")
        return [f"{item.params}: {e}" for e in errors]

    return Op(
        label=item.kind,
        key=item.params,
        run=lambda tracer: verifier.run_verification(item.params),
        check=check,
        ref=item.kind == "reference",
    )


def verify(seed: int) -> list[list[Op]]:
    """run_verification with the operator check: cycles of the reference,
    a seeded dual instance, the fixed single-regime instance and the
    reference again."""
    rng = np.random.default_rng(seed)
    solver.compute_bound(REFERENCE)
    return [
        [_verify_op(item) for item in (REFERENCE_INSTANCE, inst.verify_dual(rng), VERIFY_SINGLE, REFERENCE_INSTANCE)]
        for _ in range(8)
    ]


# ----------------------------------------------------------------- weights

WEIGHT_LEVELS = 120
WEIGHT_CYCLES = 5


@dataclass(frozen=True)
class _WeightCase:
    item: Instance
    w: object  # ExtremalWeight
    levels: np.ndarray
    expected: np.ndarray  # u(t) at the levels


def _weight_op(case: _WeightCase, pgrid: PlaneGrid) -> Op:
    def run(tracer):
        norms = weight.weight_norms(case.w)
        dist = weight.measured_distribution(case.w, case.levels)
        F = verifier.sample_weight(case.w, pgrid)
        return norms, dist, F

    def check(result) -> list[str]:
        (p_norm, q_norm), dist, F = result
        P = case.item.params
        errors = []
        for name, got, budget, tight in (
            ("p", p_norm, P.A, case.item.regime != "SingleQ"),
            ("q", q_norm, P.B, case.item.regime != "SingleP"),
        ):
            if tight and not abs(got - budget) <= NORM_TOL * budget:
                errors.append(f"{name}-norm {got!r} != budget {budget!r}")
            if not tight and not got <= budget * (1.0 + NORM_TOL):
                errors.append(f"{name}-norm {got!r} above budget {budget!r}")
        worst = float(np.max(np.abs(dist - case.expected) / case.expected))
        if not worst <= DISTRIBUTION_TOL:
            errors.append(f"distribution off u(t) by {worst:.2e}")
        if not (np.all(np.isfinite(F)) and F.min() >= 0.0 and F.max() <= case.w.peak):
            errors.append("sampled weight outside [0, peak]")
        return [f"{P}: {e}" for e in errors]

    return Op(
        label=case.item.kind,
        key=case.item.params,
        run=run,
        check=check,
        main=case.item.regime == "Dual",
        ref=case.item.kind == "reference",
    )


def weights(seed: int) -> list[list[Op]]:
    """weight_norms, measured_distribution and sample_weight per weight, in
    cycles of the reference, two seeded duals and a seeded single-regime
    weight; the bound reports and weights are built here, in set-up."""
    rng = np.random.default_rng(seed)
    pgrid = PlaneGrid.default()
    reference = _weight_op(_weight_case(REFERENCE_INSTANCE), pgrid)
    return [
        [reference] + [
            _weight_op(_weight_case(item), pgrid)
            for item in (inst.interior_dual(rng), inst.interior_dual(rng), inst.single_regime(rng))
        ]
        for _ in range(WEIGHT_CYCLES)
    ]


def _weight_case(item: Instance) -> _WeightCase:
    report = solver.compute_bound(item.params)
    m = report.multipliers()
    levels = np.linspace(0.01 * m.T, 0.99 * m.T, WEIGHT_LEVELS)
    return _WeightCase(item, weight_from_report(item.params, report), levels, solver.u_eval(levels, m, item.params))


# --------------------------------------------------------------------- cli

SCAN_ARGS = (
    "scan", "--beta", "0.5", "--p", "2", "--q", "4", "--A", "1",
    "--ratio-min", "0.2", "--ratio-max", "0.8", "--steps", "41",
)
SCAN_ROWS = 41


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources importable and
    scan parallelism left at its default."""
    env = dict(os.environ)
    env.pop("WAVELOCK_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_cli(args: tuple[str, ...], tracer, spans_dir: Path):
    """One fresh interpreter running the CLI; traced through cli_child.py."""
    if tracer is None:
        cmd = [sys.executable, "-m", "wavelock.cli", *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr
    spans_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=spans_dir, suffix=".json", delete=False) as fh:
        spans_path = Path(fh.name)
    try:
        cmd = [sys.executable, str(CLI_CHILD), str(spans_path), str(tracer.op), *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode == 0:
            tracer.merge_json(json.loads(spans_path.read_text()))
    finally:
        spans_path.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_bound_op(item: Instance, expected: float, spans_dir: Path) -> Op:
    P = item.params
    args = ("bound", "--beta", repr(P.beta), "--p", repr(P.p), "--q", repr(P.q),
            "--A", repr(P.A), "--B", repr(P.B), "--format", "json")

    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"bound {P}: exit {code}: {err.strip()[-300:]}"]
        try:
            data = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"bound {P}: output is not JSON ({exc})"]
        errors = []
        if data.get("bound") != expected:
            errors.append(f"bound {data.get('bound')!r} != in-process {expected!r}")
        if data.get("regime") != item.regime:
            errors.append(f"regime {data.get('regime')}, drawn as {item.regime}")
        return [f"bound {P}: {e}" for e in errors]

    return Op(
        label="bound",
        key=args,
        run=lambda tracer: _run_cli(args, tracer, spans_dir),
        check=check,
        ref=item.kind == "reference",
        child=True,
    )


def _cli_scan_op(spans_dir: Path) -> Op:
    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"scan: exit {code}: {err.strip()[-300:]}"]
        lines = out.splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        errors = []
        if len(rows) != SCAN_ROWS:
            errors.append(f"{len(rows)} rows, expected {SCAN_ROWS}")
        col = header.index("error") if "error" in header else None
        if col is None or any(len(r) != len(header) or r[col] for r in rows):
            errors.append("error column missing or not empty")
        return [f"scan: {e}" for e in errors]

    return Op(
        label="scan",
        key=SCAN_ARGS,
        run=lambda tracer: _run_cli(SCAN_ARGS, tracer, spans_dir),
        check=check,
        main=False,
        gated=False,
        child=True,
    )


def cli(seed: int, spans_dir: Path) -> list[list[Op]]:
    """Fresh ``python -m wavelock.cli`` processes, one at a time: cycles of
    ``bound`` on the reference and on two seeded single-regime instances,
    twice, then the reference ratio ``scan``."""
    rng = np.random.default_rng(seed)
    reference = _cli_bound_op(REFERENCE_INSTANCE, solver.compute_bound(REFERENCE).bound, spans_dir)
    cycles = []
    for _ in range(6):
        cycle = []
        for _ in range(2):
            cycle.append(reference)
            for _ in range(2):
                item = inst.single_regime(rng)
                cycle.append(_cli_bound_op(item, solver.compute_bound(item.params).bound, spans_dir))
        cycles.append(cycle + [_cli_scan_op(spans_dir)])
    # Warm-up: one interpreter start, so the first timed run does not pay
    # for a cold file cache.
    subprocess.run(
        [sys.executable, "-m", "wavelock.cli", "--help"],
        capture_output=True, env=child_env(), timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return cycles
