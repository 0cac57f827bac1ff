"""Command line surface: bound, profile, verify and scan subcommands.

Exit codes: 0 success, 2 invalid parameters, 3 solver failure, 4 I/O
error, 5 verification tolerance breach.  JSON output carries a top-level
"schema": "wavelock/1" key and prints floats with 17 significant digits
(text mode uses 9).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import math
import sys

import numpy as np

from .core import ParameterError, ProblemParams, QuadratureError
from .solver import BoundReport, SolverError, compute_bound, u_eval
from .verifier import FrequencyGrid, PlaneGrid, run_verification
from .weight import weight_from_report

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5

SCHEMA = "wavelock/1"

# Entries in the largest array verify may build: the grid check's
# oscillation matrix holds nx x n_omega complex numbers (32 MB here).
_MAX_ARRAY = 2_000_000
_GRID_DEFAULTS = {
    name: param.default
    for fn in (FrequencyGrid.default, PlaneGrid.default)
    for name, param in inspect.signature(fn).parameters.items()
}

_EPILOG = """exit codes:
  0  success
  2  invalid parameters (p = q, nonpositive values, bad flags)
  3  solver failure (no convergence or quadrature breakdown)
  4  I/O error writing an output file
  5  verification tolerance breach
"""


def _fmt_json(value, digits: int = 17) -> str:
    """Minimal JSON emitter with fixed significant digits for floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no inf or nan: an unavailable value (no certificate) is null.
        return f"{float(value):.{digits}g}" if np.isfinite(value) else "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        items = ", ".join(f'"{k}": {_fmt_json(v, digits)}' for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v, digits) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _report_dict(report: BoundReport) -> dict:
    return {
        "schema": SCHEMA,
        "beta": report.params.beta,
        "p": report.params.p,
        "q": report.params.q,
        "A": report.params.A,
        "B": report.params.B,
        "regime": report.regime,
        "boundary": report.boundary,
        "bound": report.bound,
        "r1": report.r1,
        "r2": report.r2,
        "lambda1": report.lambda1,
        "lambda2": report.lambda2,
        "T": report.T,
        "residual_p": report.residual_p,
        "residual_q": report.residual_q,
        "wall_time_s": report.wall_time_s,
    }


def _print_text(data: dict, digits: int = 9) -> None:
    for key, value in data.items():
        if key == "schema":
            continue
        if isinstance(value, (float, np.floating)):
            print(f"{key} = {float(value):.{digits}g}")
        elif value is None:
            print(f"{key} = null")
        else:
            print(f"{key} = {value}")


def _params_from(args) -> ProblemParams:
    return ProblemParams(beta=args.beta, p=args.p, q=args.q, A=args.A, B=args.B)


def _given(**flags) -> dict:
    """The flags that were passed, as keyword arguments; the rest keep their defaults."""
    return {k: v for k, v in flags.items() if v is not None}


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, required=True, help="Cauchy wavelet exponent (> 0)")
    sub.add_argument("--p", type=float, required=True, help="first Lebesgue exponent (> 1)")
    sub.add_argument("--q", type=float, required=True, help="second Lebesgue exponent (> 1, != p)")
    sub.add_argument("--A", type=float, required=True, help="budget for the p-norm")
    sub.add_argument("--B", type=float, required=True, help="budget for the q-norm")


def cmd_bound(args) -> int:
    params = _params_from(args)
    report = compute_bound(params)
    data = _report_dict(report)
    if args.format == "json":
        print(_fmt_json(data))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        keys = [k for k in data if k != "schema"]
        writer.writerow(keys)
        writer.writerow([_csv_cell(data[k]) for k in keys])
    else:
        _print_text(data)
    return EXIT_OK


def cmd_profile(args) -> int:
    params = _params_from(args)
    if args.samples < 1:
        raise ParameterError("--samples must be at least 1")
    report = compute_bound(params)
    center = None
    if args.center:
        try:
            cx, cy = (float(v) for v in args.center.split(","))
        except ValueError as exc:
            raise ParameterError(f"--center expects 'x,y', got {args.center!r}") from exc
        from .weight import HalfPlanePoint

        center = HalfPlanePoint(cx, cy)
    w = weight_from_report(params, report, center=center)
    prof = w.profile()

    n = args.samples
    ds = np.linspace(0.0, 1.0, n, endpoint=False)
    mags = prof(ds)
    t_top = report.T if report.T is not None else w.peak
    ts = np.linspace(t_top / n, t_top, n)
    us = u_eval(ts, report.multipliers(), params)

    try:
        with open(args.out, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["d", "magnitude", "t", "u"])
            for d, mv, t, uv in zip(ds, mags, ts, us):
                out.writerow([repr(float(d)), repr(float(mv)), repr(float(t)), repr(float(uv))])
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {n} profile rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from(args)
    # The oracle grid needs 100 nodes, a plane axis 2 and a Gauss panel 1.
    for flag, value, least in (
        ("--oracle-points", args.oracle_points, 100),
        ("--nodes-per-panel", args.nodes_per_panel, 1),
        ("--nx", args.nx, 2),
        ("--ny", args.ny, 2),
    ):
        if value is not None and not least <= value <= _MAX_ARRAY:
            raise ParameterError(f"{flag} must be between {least} and {_MAX_ARRAY}, got {value}")
    if args.omega_max is not None and not 0.0 < args.omega_max <= _MAX_ARRAY:
        raise ParameterError(
            f"--omega-max must be positive and at most {_MAX_ARRAY}, got {args.omega_max}"
        )
    fkw = _given(omega_max=args.omega_max, nodes_per_panel=args.nodes_per_panel)
    pkw = _given(nx=args.nx, ny=args.ny)
    grid = {**_GRID_DEFAULTS, **fkw, **pkw}
    npp, nx, ny = grid["nodes_per_panel"], grid["nx"], grid["ny"]
    # FrequencyGrid.default: three head panels, then unit panels up to omega_max.
    n_omega = npp * (3 + max(0, math.ceil(grid["omega_max"] - 1.5)))
    for what, size in (
        ("nodes-per-panel squared", npp * npp),
        ("nx x n_omega", nx * n_omega),
        ("ny x n_omega", ny * n_omega),
        ("nx x ny", nx * ny),
    ):
        if size > _MAX_ARRAY:
            raise ParameterError(
                f"{what} must be at most {_MAX_ARRAY}, got {size} "
                f"(nx = {nx}, ny = {ny}, n_omega = {n_omega})"
            )
    fgrid = FrequencyGrid.default(**fkw) if fkw else None
    pgrid = PlaneGrid.default(**pkw) if pkw else None
    report = run_verification(
        params,
        fgrid=fgrid,
        pgrid=pgrid,
        oracle_points=args.oracle_points,
        skip_operator=args.skip_operator,
        corrupt_weight=args.inject_corruption,
    )
    data = {
        "schema": SCHEMA,
        "regime": report.regime,
        "bound": report.bound,
        "oracle_objective": report.oracle_objective,
        "oracle_rel_gap": report.oracle_rel_gap,
        "oracle_pointwise_err": report.oracle_pointwise_err,
        "oracle_converged": report.oracle_converged,
        "oracle_duality_gap": report.oracle_duality_gap,
        "isometry_defects": report.isometry_defects,
        "operator_norm": report.operator_norm,
        "operator_rel_gap": report.operator_rel_gap,
        "operator_iterations": report.operator_iterations,
        "grid": report.grid,
        "checks": report.checks,
        "ok": report.ok,
        "wall_time_s": report.wall_time_s,
    }
    if args.format == "json":
        print(_fmt_json(data))
    else:
        _print_text({k: v for k, v in data.items() if k not in ("grid", "checks", "isometry_defects")})
        print(f"isometry_defects = {[f'{d:.3e}' for d in report.isometry_defects]}")
        for name, passed in report.checks.items():
            print(f"check {name}: {'pass' if passed else 'FAIL'}")
    if not report.ok:
        print(f"verification failed: {', '.join(report.failures())}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _scan_row(task) -> dict:
    beta, p, q, A, B = task
    row = {"ratio": float(B / A), "q": float(q)}
    try:
        report = compute_bound(ProblemParams(beta=beta, p=p, q=q, A=A, B=B))
        row.update(
            regime=report.regime,
            bound=report.bound,
            lambda1=report.lambda1,
            lambda2=report.lambda2,
            r1=report.r1,
            r2=report.r2,
            error="",
        )
    except (ParameterError, SolverError, QuadratureError) as exc:
        row.update(
            regime="", bound=None, lambda1=None, lambda2=None, r1=None, r2=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    return row


def cmd_scan(args) -> int:
    if (args.ratio_min is None) != (args.ratio_max is None):
        raise ParameterError("--ratio-min and --ratio-max must be given together")
    if args.ratio_min is None and not args.q_sweep:
        raise ParameterError("scan needs either a ratio range or --q-sweep")

    tasks = []
    if args.ratio_min is not None:
        if args.steps < 1:
            raise ParameterError("--steps must be at least 1")
        ratios = (
            np.linspace(args.ratio_min, args.ratio_max, args.steps)
            if args.steps > 1
            else np.array([args.ratio_min])
        )
        tasks = [(args.beta, args.p, args.q, args.A, args.A * r) for r in ratios]
    else:
        try:
            qs = [float(v) for v in args.q_sweep.split(",")]
        except ValueError as exc:
            raise ParameterError("--q-sweep expects comma-separated numbers") from exc
        tasks = [(args.beta, args.p, qv, args.A, args.B) for qv in qs]

    rows = [_scan_row(t) for t in tasks]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    columns = ("ratio", "q", "regime", "bound", "lambda1", "lambda2", "r1", "r2", "error")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in columns])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelock",
        description=(
            "Sharp norm bounds for Cauchy-wavelet localization operators "
            "with weights constrained in two Lebesgue norms."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="compute the sharp bound for one instance")
    _add_param_flags(b)
    b.add_argument("--format", choices=("json", "csv", "text"), default="text")
    b.set_defaults(func=cmd_bound)

    pr = sub.add_parser("profile", help="export the extremal weight profile as CSV")
    _add_param_flags(pr)
    pr.add_argument("--samples", type=int, default=1000)
    pr.add_argument("--out", required=True, help="output CSV path")
    pr.add_argument("--center", default=None, help="weight centre as 'x,y' (default 0,1)")
    pr.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run the discrete and operator verifications")
    _add_param_flags(v)
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--skip-operator", action="store_true", help="run only the discrete oracle")
    v.add_argument(
        "--oracle-points", type=int, default=2000,
        help=f"discrete oracle grid size, 100 to {_MAX_ARRAY} (default 2000)",
    )
    g = v.add_argument_group(
        "grid operator check",
        "any of these selects the grid operator check (transform grids and power "
        "iteration) in place of the exact operator norm. The grids have "
        "n_omega = nodes-per-panel x (3 + ceil(omega-max - 1.5)) frequency nodes "
        "(920 by default). Each flag, nx x n_omega, ny x n_omega, nx x ny and "
        f"nodes-per-panel squared must be at most {_MAX_ARRAY}",
    )
    g.add_argument("--omega-max", type=float, default=None, help="frequency grid cutoff")
    g.add_argument("--nodes-per-panel", type=int, default=None, help="frequency nodes per unit panel")
    g.add_argument("--nx", type=int, default=None, help="plane grid x resolution")
    g.add_argument("--ny", type=int, default=None, help="plane grid y resolution")
    v.add_argument(
        "--inject-corruption",
        action="store_true",
        help="test hook: corrupt the weight so verification must fail",
    )
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("scan", help="sweep the budget ratio or the q exponent")
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, default=None, help="q exponent (ratio sweeps)")
    s.add_argument("--A", type=float, required=True)
    s.add_argument("--B", type=float, default=None, help="q-budget (q sweeps)")
    s.add_argument("--ratio-min", type=float, default=None)
    s.add_argument("--ratio-max", type=float, default=None)
    s.add_argument("--steps", type=int, default=41)
    s.add_argument("--q-sweep", default=None, help="comma-separated q values")
    s.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan":
        if args.ratio_min is not None and args.q is None:
            parser.error("ratio sweeps need --q")
        if args.q_sweep is not None and args.B is None:
            parser.error("q sweeps need --B")
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (SolverError, QuadratureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
