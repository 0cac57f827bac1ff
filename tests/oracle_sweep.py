"""The discrete oracle over the five test samplers: certified draws, draws
whose v is nonincreasing, dual evaluations, Newton steps and gap checks.

Each sampler's draws are taken in order; those that ``compute_bound`` does
not solve are skipped, as ``verify`` would reject them first.  Every solved
draw goes through ``run_oracle`` on two grids: the one ``verify`` builds,
ending at 2 T (the oracle's own seed in a single regime, where T is not
defined), and the oracle's own seed grid (``t_max=None``).  An
``OracleError`` counts as not certified.

    PYTHONPATH=src python tests/oracle_sweep.py

prints the full table; the tests run a subset through ``tally``.
"""

from dataclasses import dataclass

import numpy as np

import wavelock as wl
from conftest import (
    band_dual_params,
    near_threshold_dual_params,
    random_dual_params,
    random_single_params,
    wide_dual_params,
)

# name: (seed of default_rng, draws of the full sweep, draw(rng, index))
SAMPLERS = {
    "random": (101, 300, lambda rng, i: random_dual_params(rng)),
    "near-threshold": (17, 300, lambda rng, i: near_threshold_dual_params(rng)),
    "single": (5, 100, lambda rng, i: random_single_params(rng)[0]),
    "wide": (7, 150, lambda rng, i: wide_dual_params(rng)),
    "band": (11, 150, lambda rng, i: band_dual_params(rng, near=i % 2 == 1)),
}
GRIDS = ("2T", "seed")


@dataclass
class Tally:
    """One sampler on one grid: solved draws, certified solves, solves whose
    v is nonincreasing, and the dual evaluations, Newton steps and gap
    checks summed over the solves that return."""

    solved: int = 0
    certified: int = 0
    monotone: int = 0
    evaluations: int = 0
    steps: int = 0
    gap_checks: int = 0


def solved_draws(sampler: str, count: int | None = None):
    """(params, T or None) of the sampler's first ``count`` draws (all of
    the full sweep's by default) that ``compute_bound`` solves."""
    seed, full, draw = SAMPLERS[sampler]
    rng = np.random.default_rng(seed)
    for i in range(full if count is None else count):
        params = draw(rng, i)
        try:
            report = wl.compute_bound(params)
        except (wl.SolverError, wl.QuadratureError):
            continue
        yield params, report.T


def solve(params: wl.ProblemParams, T: float | None, grid: str):
    """The oracle's solution on ``grid``, or None where it raises OracleError."""
    t_max = 2.0 * T if grid == "2T" and T is not None else None
    try:
        return wl.run_oracle(params, t_max=t_max)[1]
    except wl.OracleError:
        return None


def tally(sampler: str, grid: str, count: int | None = None) -> Tally:
    out = Tally()
    for params, T in solved_draws(sampler, count):
        out.solved += 1
        sol = solve(params, T, grid)
        if sol is not None:
            out.certified += sol.converged
            out.monotone += bool(np.all(np.diff(sol.v) <= 0.0))
            out.evaluations += sol.diagnostics["dual_evaluations"]
            out.steps += sol.iterations
            out.gap_checks += sol.diagnostics["gap_checks"]
    return out


def main() -> None:
    print(f"{'sampler':<16}{'grid':<6}{'solved':>8}{'certified':>11}{'monotone':>10}{'evaluations':>13}"
          f"{'steps':>8}{'gap_checks':>12}")
    for sampler in SAMPLERS:
        for grid in GRIDS:
            t = tally(sampler, grid)
            print(f"{sampler:<16}{grid:<6}{t.solved:>8}{t.certified:>11}{t.monotone:>10}{t.evaluations:>13}"
                  f"{t.steps:>8}{t.gap_checks:>12}")


if __name__ == "__main__":
    main()
