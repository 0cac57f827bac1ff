"""The discrete oracle and ``verify`` over the six test samplers.

Each sampler's draws are taken in order; those that ``compute_bound`` does
not solve are skipped, as ``verify`` would reject them first.  Every solved
draw goes through ``run_oracle`` on two grids: the one ``verify`` builds,
ending at 2 T with T the support endpoint of ``report.multipliers()`` in
every regime, and the oracle's own seed grid (``t_max=None``).  ``tally``
counts certified draws, draws whose v is nonincreasing, dual evaluations,
those that formed derivatives, Newton steps and gap checks; an
``OracleError`` counts as not certified.  It also keeps the largest
evaluation count of a single draw and that draw's index, so that a descent
stalled at its step cap shows beside the totals.  ``verify_tally`` runs
``run_verification`` on every solved draw and names each failure: its
failed checks, or the ``OracleError`` and its cause.

    PYTHONPATH=src python tests/oracle_sweep.py

prints both full tables; the tests run them through ``tally`` and
``verify_tally``.
"""

from dataclasses import dataclass, field

import numpy as np

import wavelock as wl
from conftest import (
    band_dual_params,
    near_threshold_dual_params,
    random_dual_params,
    random_single_params,
    tiny_budget_dual_params,
    wide_dual_params,
)

# name: (seed of default_rng, draws of the full sweep, draw(rng, index))
SAMPLERS = {
    "random": (101, 300, lambda rng, i: random_dual_params(rng)),
    "near-threshold": (17, 300, lambda rng, i: near_threshold_dual_params(rng)),
    "single": (5, 100, lambda rng, i: random_single_params(rng)[0]),
    "wide": (7, 150, lambda rng, i: wide_dual_params(rng)),
    "band": (11, 150, lambda rng, i: band_dual_params(rng, near=i % 2 == 1)),
    "tiny": (0, 150, lambda rng, i: tiny_budget_dual_params(rng)),
}
GRIDS = ("2T", "seed")


@dataclass
class Tally:
    """One sampler on one grid: solved draws, certified solves, solves whose
    v is nonincreasing, and the dual evaluations, those of them that formed
    derivatives, Newton steps and gap checks summed over the solves that
    return; and the most evaluations one solve took, with its draw index."""

    solved: int = 0
    certified: int = 0
    monotone: int = 0
    evaluations: int = 0
    derivatives: int = 0
    steps: int = 0
    gap_checks: int = 0
    most: int = 0
    most_draw: int | None = None


@dataclass
class VerifyTally:
    """One sampler's solved draws through ``run_verification``: the draws
    that pass every check, and each failing draw's index mapped to its
    failed checks (comma-separated) or to ``OracleError`` and the first four
    words of its message."""

    passed: int = 0
    failures: dict = field(default_factory=dict)


def solved_draws(sampler: str, count: int | None = None):
    """(index, params, T) of the sampler's first ``count`` draws (all of the
    full sweep's by default) that ``compute_bound`` solves; T is the support
    endpoint of ``report.multipliers()``, defined in every regime."""
    seed, full, draw = SAMPLERS[sampler]
    rng = np.random.default_rng(seed)
    for i in range(full if count is None else count):
        params = draw(rng, i)
        try:
            report = wl.compute_bound(params)
        except (wl.SolverError, wl.QuadratureError):
            continue
        yield i, params, report.multipliers().T


def solve(params: wl.ProblemParams, T: float, grid: str):
    """The oracle's solution on ``grid``, or None where it raises OracleError."""
    t_max = 2.0 * T if grid == "2T" else None
    try:
        return wl.run_oracle(params, t_max=t_max)[1]
    except wl.OracleError:
        return None


def tally(sampler: str, grid: str, count: int | None = None) -> Tally:
    out = Tally()
    for i, params, T in solved_draws(sampler, count):
        out.solved += 1
        sol = solve(params, T, grid)
        if sol is not None:
            evaluations = sol.diagnostics["dual_evaluations"]
            out.certified += sol.converged
            out.monotone += bool(np.all(np.diff(sol.v) <= 0.0))
            out.evaluations += evaluations
            if evaluations > out.most:
                out.most, out.most_draw = evaluations, i
            out.derivatives += sol.diagnostics["derivative_evaluations"]
            out.steps += sol.iterations
            out.gap_checks += sol.diagnostics["gap_checks"]
    return out


def verify_tally(sampler: str) -> VerifyTally:
    out = VerifyTally()
    for i, params, _ in solved_draws(sampler):
        try:
            report = wl.run_verification(params)
        except wl.OracleError as exc:
            out.failures[i] = "OracleError: " + " ".join(str(exc).split()[:4])
            continue
        if report.ok:
            out.passed += 1
        else:
            out.failures[i] = ", ".join(report.failures())
    return out


def main() -> None:
    print(f"{'sampler':<16}{'grid':<6}{'solved':>8}{'certified':>11}{'monotone':>10}{'evaluations':>13}"
          f"{'derivatives':>13}{'steps':>8}{'gap_checks':>12}{'most (draw)':>14}")
    for sampler in SAMPLERS:
        for grid in GRIDS:
            t = tally(sampler, grid)
            print(f"{sampler:<16}{grid:<6}{t.solved:>8}{t.certified:>11}{t.monotone:>10}{t.evaluations:>13}"
                  f"{t.derivatives:>13}{t.steps:>8}{t.gap_checks:>12}{f'{t.most} ({t.most_draw})':>14}")
    print(f"\n{'sampler':<16}{'solved':>8}{'verified':>10}  failures")
    for sampler in SAMPLERS:
        t = verify_tally(sampler)
        failures = []
        for cause in sorted(set(t.failures.values())):
            draws = [i for i, c in t.failures.items() if c == cause]
            failures.append(f"{cause} on {len(draws)} (draws {', '.join(map(str, draws[:3]))}"
                            f"{', ...' if len(draws) > 3 else ''})")
        print(f"{sampler:<16}{t.passed + len(t.failures):>8}{t.passed:>10}  {'; '.join(failures)}")


if __name__ == "__main__":
    main()
