"""Command line surface: bound, profile, verify and scan subcommands.

Exit codes: 0 success, 2 invalid parameters, 3 solver failure, 4 I/O
error, 5 verification tolerance breach.  JSON output carries a top-level
"schema": "wavelock/1" key and prints floats with 17 significant digits
(text mode uses 9).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict, fields

import numpy as np

# bound and scan need only these; verify and profile import their layers
# when they run.
from .core import OracleError, ParameterError, ProblemParams, QuadratureError, _write_columns
from .solver import BoundReport, SolverError, compute_bound, u_eval

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5

SCHEMA = "wavelock/1"

# The largest array a flag can size: verify's oracle grid, profile's rows and
# scan's ratio steps.
_MAX_ARRAY = 2_000_000

_EPILOG = """exit codes:
  0  success
  2  invalid parameters (p = q, nonpositive values, bad flags)
  3  solver failure (no convergence, quadrature breakdown or oracle failure)
  4  I/O error writing an output file
  5  verification tolerance breach

A value that starts with "-" but is not a plain decimal (-1e308, -inf) reads
as a flag unless it is joined to its own: --ratio-min=-1e308, --A=-1e-3.
"""


def _fmt_json(value) -> str:
    """Minimal JSON emitter with fixed significant digits for floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no inf or nan: an unavailable value (no certificate) is null.
        return f"{float(value):.17g}" if np.isfinite(value) else "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, dict):
        items = ", ".join(f'"{k}": {_fmt_json(v)}' for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _report_dict(report: BoundReport) -> dict:
    """The wavelock/1 record: the schema, the instance, then the report's
    other fields in their declared order."""
    rest = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "params"}
    return {"schema": SCHEMA, **asdict(report.params), **rest}


def _print_text(data: dict) -> None:
    for key, value in data.items():
        if key == "schema":
            continue
        if isinstance(value, (float, np.floating)):
            print(f"{key} = {float(value):.9g}")
        elif value is None:
            print(f"{key} = null")
        else:
            print(f"{key} = {value}")


def _params_from(args) -> ProblemParams:
    return ProblemParams(beta=args.beta, p=args.p, q=args.q, A=args.A, B=args.B)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--beta", type=float, required=True, help="Cauchy wavelet exponent (> 0)")
    sub.add_argument("--p", type=float, required=True, help="first Lebesgue exponent (> 1)")
    sub.add_argument("--q", type=float, required=True, help="second Lebesgue exponent (> 1, != p)")
    sub.add_argument("--A", type=float, required=True, help="budget for the p-norm")
    sub.add_argument("--B", type=float, required=True, help="budget for the q-norm")


def cmd_bound(args) -> int:
    data = _report_dict(compute_bound(_params_from(args)))
    if args.format == "json":
        print(_fmt_json(data))
    elif args.format == "csv":
        _print_csv([k for k in data if k != "schema"], [data])
    else:
        _print_text(data)
    return EXIT_OK


def cmd_profile(args) -> int:
    from .weight import weight_from_report

    params = _params_from(args)
    if not 1 <= args.samples <= _MAX_ARRAY:
        raise ParameterError(f"--samples must be between 1 and {_MAX_ARRAY}, got {args.samples}")
    w = weight_from_report(params, compute_bound(params))
    n = args.samples
    ds = np.linspace(0.0, 1.0, n, endpoint=False)
    ts = np.linspace(w.peak / n, w.peak, n)
    us = u_eval(ts, w.mults, params)
    _write_columns(args.out, ("d", "magnitude", "t", "u"), ds, w.profile()(ds), ts, us)
    print(f"wrote {n} profile rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verifier import run_verification

    params = _params_from(args)
    # The oracle grid needs 100 nodes.
    if not 100 <= args.oracle_points <= _MAX_ARRAY:
        raise ParameterError(
            f"--oracle-points must be between 100 and {_MAX_ARRAY}, got {args.oracle_points}"
        )
    report = run_verification(params, oracle_points=args.oracle_points)
    data = {
        "schema": SCHEMA,
        "regime": report.regime,
        "bound": report.bound,
        "oracle_objective": report.oracle_objective,
        "oracle_rel_gap": report.oracle_rel_gap,
        "oracle_pointwise_err": report.oracle_pointwise_err,
        "oracle_converged": report.oracle_converged,
        "oracle_duality_gap": report.oracle_duality_gap,
        # The keys of the former grid check stay in wavelock/1, always empty.
        "isometry_defects": [],
        "operator_norm": report.operator_norm,
        "operator_rel_gap": report.operator_rel_gap,
        "operator_iterations": None,
        "grid": {},
        "checks": report.checks,
        "ok": report.ok,
        "wall_time_s": report.wall_time_s,
    }
    if args.format == "json":
        print(_fmt_json(data))
    else:
        empty = ("isometry_defects", "operator_iterations", "grid")
        _print_text({k: v for k, v in data.items() if k not in (*empty, "checks")})
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


def _print_csv(columns, rows) -> None:
    """Write a header and one line per row dict to stdout; a missing key is empty."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(k)) for k in columns] for row in rows)


_SCAN_COLUMNS = ("ratio", "q", "regime", "bound", "lambda1", "lambda2", "r1", "r2", "error")


def _scan_row(beta, p, q, A, B) -> dict:
    """One scan line: the instance's report record, or only its error."""
    row = {"ratio": float(B / A), "q": float(q), "error": ""}
    try:
        row.update(_report_dict(compute_bound(ProblemParams(beta=beta, p=p, q=q, A=A, B=B))))
    except (ParameterError, SolverError, QuadratureError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_scan(args) -> int:
    if (args.ratio_min is None) != (args.ratio_max is None):
        raise ParameterError("--ratio-min and --ratio-max must be given together")
    if args.ratio_min is None and not args.q_sweep:
        raise ParameterError("scan needs either a ratio range or --q-sweep")

    if args.ratio_min is not None:
        if not 1 <= args.steps <= _MAX_ARRAY:
            raise ParameterError(f"--steps must be between 1 and {_MAX_ARRAY}, got {args.steps}")
        # A non-finite end makes the difference non-finite too.
        if not math.isfinite(args.ratio_max - args.ratio_min):
            raise ParameterError(
                f"--ratio-min and --ratio-max must be finite, with a finite difference; "
                f"got {args.ratio_min!r} and {args.ratio_max!r}"
            )
        ratios = np.linspace(args.ratio_min, args.ratio_max, args.steps)
        rows = [_scan_row(args.beta, args.p, args.q, args.A, args.A * r) for r in ratios]
    else:
        try:
            qs = [float(v) for v in args.q_sweep.split(",")]
        except ValueError as exc:
            raise ParameterError("--q-sweep expects comma-separated numbers") from exc
        rows = [_scan_row(args.beta, args.p, qv, args.A, args.B) for qv in qs]
    _print_csv(_SCAN_COLUMNS, rows)
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
    pr.add_argument(
        "--samples", type=int, default=1000,
        help=f"profile rows, 1 to {_MAX_ARRAY} (default 1000)",
    )
    pr.add_argument("--out", required=True, help="output CSV path")
    pr.set_defaults(func=cmd_profile)

    v = sub.add_parser("verify", help="run the discrete and operator verifications")
    _add_param_flags(v)
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument(
        "--oracle-points", type=int, default=2000,
        help=f"discrete oracle grid size, 100 to {_MAX_ARRAY} (default 2000)",
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
    s.add_argument(
        "--steps", type=int, default=41,
        help=f"ratio sweep steps, 1 to {_MAX_ARRAY} (default 41)",
    )
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
    except (SolverError, QuadratureError, OracleError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
