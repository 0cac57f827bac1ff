"""Seeded problem instances for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns
:class:`Instance` values; the library only ever sees the ``ProblemParams``.
The sampling domain is the one the test suite draws from: beta in
[0.2, 2], p and q in [1.3, 6] with |p - q| >= 0.2, A = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wavelock.core import ProblemParams, classify_regime, derive_constants

REFERENCE = ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)
REFERENCE_BOUND = 0.14163045836641772


@dataclass(frozen=True)
class Instance:
    """A problem instance, how it was drawn and the regime that implies."""

    kind: str  # "reference", "interior", "near", "single" or "fixed-single"
    params: ProblemParams
    regime: str  # "Dual", "SingleP" or "SingleQ"


REFERENCE_INSTANCE = Instance("reference", REFERENCE, "Dual")


def _exponents(rng: np.random.Generator):
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        if abs(p - q) >= 0.2:
            return beta, p, q, derive_constants(ProblemParams(beta, p, q, 1.0, 1.0))


# In canonical order (p < q) the first moment integrand behaves like t**s,
# s = (p - 1) - (q - 1)/(2 beta + 1), over a range of scales that is wide
# near a threshold.  On this domain the solver fails (QuadratureError, or
# an untyped RuntimeError from brentq) only for s in (-1.1, -0.6); dual
# draws there, about 7% of them, are left out of the timed mixes (see
# README.md).
QUADRATURE_GAP = (-1.1, -0.6)


def moment_exponent(beta: float, p: float, q: float) -> float:
    lo, hi = min(p, q), max(p, q)
    return (lo - 1.0) - (hi - 1.0) / (2.0 * beta + 1.0)


def _dual_exponents(rng: np.random.Generator):
    while True:
        beta, p, q, c = _exponents(rng)
        if not QUADRATURE_GAP[0] < moment_exponent(beta, p, q) < QUADRATURE_GAP[1]:
            return beta, p, q, c


def interior_dual(rng: np.random.Generator) -> Instance:
    """Ratio in the middle 60% of the dual window (or of [1.2 r1, 5 r1],
    [0.1 r2, 0.9 r2] when the other threshold diverges)."""
    beta, p, q, c = _dual_exponents(rng)
    if c.r2 is None:
        lo, hi = 1.2 * c.r1, 5.0 * c.r1
    elif c.r1 is None:
        lo, hi = 0.1 * c.r2, 0.9 * c.r2
    else:
        span = c.r2 - c.r1
        lo, hi = c.r1 + 0.2 * span, c.r1 + 0.8 * span
    return Instance("interior", ProblemParams(beta, p, q, 1.0, rng.uniform(lo, hi)), "Dual")


def near_threshold_dual(rng: np.random.Generator) -> Instance:
    """Dual instance at r1 (1 + delta) or r2 (1 - delta), delta log-uniform
    in [1e-7, 1e-2]: one multiplier is close to 0 there."""
    while True:
        beta, p, q, c = _dual_exponents(rng)
        delta = 10.0 ** rng.uniform(-7.0, -2.0)
        sides = [r * f for r, f in ((c.r1, 1.0 + delta), (c.r2, 1.0 - delta)) if r is not None]
        params = ProblemParams(beta, p, q, 1.0, sides[rng.integers(len(sides))])
        if classify_regime(params, c).tag == "Dual":
            return Instance("near", params, "Dual")


def single_regime(rng: np.random.Generator) -> Instance:
    """Ratio beyond r2 (SingleP) or below r1 (SingleQ), as in the test suite."""
    while True:
        beta, p, q, c = _exponents(rng)
        if rng.random() < 0.5 and c.r2 is not None:
            return Instance("single", ProblemParams(beta, p, q, 1.0, c.r2 * rng.uniform(1.2, 3.0)), "SingleP")
        if c.r1 is not None:
            return Instance("single", ProblemParams(beta, p, q, 1.0, c.r1 * rng.uniform(0.2, 0.8)), "SingleQ")


def bound_mix(rng: np.random.Generator, blocks: int) -> list[Instance]:
    """Blocks of ten, each shuffled: the reference, five interior duals, two
    near-threshold duals and two single-regime instances."""
    out: list[Instance] = []
    for _ in range(blocks):
        block = [REFERENCE_INSTANCE]
        block += [interior_dual(rng) for _ in range(5)]
        block += [near_threshold_dual(rng) for _ in range(2)]
        block += [single_regime(rng) for _ in range(2)]
        out += [block[i] for i in rng.permutation(len(block))]
    return out


def verify_dual(rng: np.random.Generator) -> Instance:
    """Interior dual instance near the reference exponents (beta ~ 0.5, the
    scale the default verifier grids are documented for)."""
    while True:
        beta = rng.uniform(0.45, 0.55)
        p = rng.uniform(1.7, 2.3)
        q = rng.uniform(3.5, 4.5)
        c = derive_constants(ProblemParams(beta, p, q, 1.0, 1.0))
        in_gap = QUADRATURE_GAP[0] < moment_exponent(beta, p, q) < QUADRATURE_GAP[1]
        if c.r1 is not None and c.r2 is not None and not in_gap:
            span = c.r2 - c.r1
            ratio = rng.uniform(c.r1 + 0.2 * span, c.r1 + 0.8 * span)
            return Instance("interior", ProblemParams(beta, p, q, 1.0, ratio), "Dual")
