import math

import numpy as np
import pytest

import wavelock as wl
from wavelock.verifier import CauchyTransform, FrequencyGrid, PlaneGrid


@pytest.fixture(scope="session")
def ref_params() -> wl.ProblemParams:
    """The dual-regime reference instance used throughout."""
    return wl.ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)


@pytest.fixture(scope="session")
def ref_report(ref_params) -> wl.BoundReport:
    return wl.compute_bound(ref_params)


@pytest.fixture(scope="session")
def default_machine() -> CauchyTransform:
    """Transform machinery on the default desk-scale grids (beta = 0.5)."""
    return CauchyTransform(FrequencyGrid.default(), PlaneGrid.default(), 0.5)


@pytest.fixture(scope="session")
def coarse_machine() -> CauchyTransform:
    """Cheaper grids for tests that only need qualitative operator behaviour."""
    return CauchyTransform(
        FrequencyGrid.default(nodes_per_panel=12),
        PlaneGrid.default(nx=151, ny=140),
        0.5,
    )


def _interior_ratio(rng: np.random.Generator, c: wl.DerivedConstants) -> float:
    """A budget ratio strictly inside the dual window of constants c."""
    if c.r2 is None:
        lo, hi = 1.2 * c.r1, 5.0 * c.r1  # dual opens upward when r2 diverges
    elif c.r1 is None:
        lo, hi = 0.1 * c.r2, 0.9 * c.r2
    else:
        span = c.r2 - c.r1
        lo, hi = c.r1 + 0.2 * span, c.r1 + 0.8 * span
    return rng.uniform(lo, hi)


def random_dual_params(rng: np.random.Generator) -> wl.ProblemParams:
    """Sample an instance strictly inside the dual window."""
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        if abs(p - q) < 0.2:
            continue
        probe = wl.ProblemParams(beta, p, q, 1.0, 1.0)
        c = wl.derive_constants(probe)
        return wl.ProblemParams(beta, p, q, 1.0, _interior_ratio(rng, c))


def band_dual_params(rng: np.random.Generator, near: bool) -> wl.ProblemParams:
    """Sample a dual instance of the test-suite domain whose moment exponent
    s = (p-1) - (q-1)/(2 beta + 1), in canonical order p < q, lies in
    (-1.1, -0.6): inside the window as in random_dual_params, or with
    ``near`` at r1 (1 + delta) or r2 (1 - delta), delta log-uniform in
    [1e-7, 1e-2]."""
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        lo, hi = sorted((p, q))
        if hi - lo < 0.2 or not -1.1 < (lo - 1.0) - (hi - 1.0) / (2.0 * beta + 1.0) < -0.6:
            continue
        c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
        if not near:
            return wl.ProblemParams(beta, p, q, 1.0, _interior_ratio(rng, c))
        params = _near_threshold(rng, beta, p, q, c)
        if params is not None:
            return params


def _near_threshold(rng: np.random.Generator, beta, p, q, c: wl.DerivedConstants):
    """The instance at r1 (1 + delta) or r2 (1 - delta), delta log-uniform in
    [1e-7, 1e-2], or None when that ratio is not classified Dual."""
    delta = 10.0 ** rng.uniform(-7.0, -2.0)
    sides = [r * f for r, f in ((c.r1, 1.0 + delta), (c.r2, 1.0 - delta)) if r is not None]
    params = wl.ProblemParams(beta, p, q, 1.0, sides[rng.integers(len(sides))])
    return params if wl.classify_regime(params, c).tag == "Dual" else None


def near_threshold_dual_params(rng: np.random.Generator) -> wl.ProblemParams:
    """Sample a dual instance of the test-suite domain next to a threshold,
    as in _near_threshold, away from the band of band_dual_params: one
    multiplier is close to 0 there."""
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        lo, hi = sorted((p, q))
        if hi - lo < 0.2 or -1.1 < (lo - 1.0) - (hi - 1.0) / (2.0 * beta + 1.0) < -0.6:
            continue
        params = _near_threshold(rng, beta, p, q, wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0)))
        if params is not None:
            return params


def random_single_params(rng: np.random.Generator) -> tuple[wl.ProblemParams, str]:
    """Sample an instance in one of the single-constraint regimes."""
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        if abs(p - q) < 0.2:
            continue
        probe = wl.ProblemParams(beta, p, q, 1.0, 1.0)
        c = wl.derive_constants(probe)
        if rng.random() < 0.5 and c.r2 is not None:
            return wl.ProblemParams(beta, p, q, 1.0, c.r2 * rng.uniform(1.2, 3.0)), "P"
        if c.r1 is not None:
            return wl.ProblemParams(beta, p, q, 1.0, c.r1 * rng.uniform(0.2, 0.8)), "Q"


def wide_dual_params(rng: np.random.Generator) -> wl.ProblemParams:
    """Sample a dual instance from the wide domain: beta log-uniform in
    [0.05, 10], p and q each 1.01 + U(0, 50) with |p - q| >= 1e-3, A = 1 and
    B log-uniform between the two thresholds."""
    while True:
        beta = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        p = 1.01 + rng.uniform(0.0, 50.0)
        q = 1.01 + rng.uniform(0.0, 50.0)
        if abs(p - q) < 1e-3:
            continue
        c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
        if c.r1 is None or c.r2 is None:
            continue
        B = math.exp(rng.uniform(math.log(c.r1), math.log(c.r2)))
        params = wl.ProblemParams(beta, p, q, 1.0, B)
        if wl.classify_regime(params, wl.derive_constants(params)).tag == "Dual":
            return params


def tiny_budget_dual_params(rng: np.random.Generator) -> wl.ProblemParams:
    """Sample a dual instance with tiny budgets at large exponents: beta
    log-uniform in [0.05, 10], p ~ U(10, 60), q = p + U(-8, 8) with
    |p - q| >= 1e-3, the smaller exponent's budget b with
    log10 b = -U(300, 323)/min(p, q), and the other budget b r (p < q) or
    b/r, with r log-uniform between the thresholds of (beta, p, q, 1, 1)."""
    while True:
        beta = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        p = rng.uniform(10.0, 60.0)
        while True:
            q = p + rng.uniform(-8.0, 8.0)
            if q > 1.01 and abs(p - q) >= 1e-3:
                break
        b = 10.0 ** (-rng.uniform(300.0, 323.0) / min(p, q))
        c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
        if c.r1 is None or c.r2 is None:
            continue
        r = math.exp(rng.uniform(math.log(c.r1), math.log(c.r2)))
        A, B = (b, b * r) if p < q else (b / r, b)
        try:
            params = wl.ProblemParams(beta, p, q, A, B)
        except wl.ParameterError:
            continue
        if wl.classify_regime(params, wl.derive_constants(params)).tag == "Dual":
            return params


def csv_text(header, *columns) -> str:
    """The exact text of a wavelock CSV export: the header row, then one line
    per row of the columns with every cell repr(float(v)), "\\n" line ends."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns, strict=True)]
    return "".join(line + "\n" for line in lines)
