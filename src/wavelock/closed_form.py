"""Closed forms for the single-active-constraint regime.

When the budget ratio leaves the dual window, the optimal weight is the
one-constraint extremizer: a radial profile lam * (1 - d)^(1/alpha_e) in
the squared pseudo-hyperbolic coordinate d.  This module evaluates the
corresponding sharp bound, the profile and its distribution function.

Note on the profile exponent: the published display of the extremal weight
carries the exponent -alpha_e, which grows toward the boundary and has a
divergent own-norm.  The distribution-function computation, the
nonincreasing-profile requirement and the vanishing-second-multiplier
limit of the dual reconstruction all force (1 - d)^(+1/alpha_e); that is
the form implemented here, and the one every numeric check below is
consistent with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    FOUR_PI,
    DerivedConstants,
    ProblemParams,
    RegimeError,
    classify_regime,
)

_SIDES = ("P", "Q")
_BISECT_STEPS = 120


def _side_fields(params: ProblemParams, consts: DerivedConstants, side: str):
    """(own exponent, own budget, own alpha/sigma/kappa, other exponent)."""
    if side == "P":
        return params.p, params.A, consts.alpha_p, consts.sigma_p, consts.kappa_p, params.q
    if side == "Q":
        return params.q, params.B, consts.alpha_q, consts.sigma_q, consts.kappa_q, params.p
    raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


@dataclass(frozen=True)
class SingleConstraintResult:
    """Sharp bound and extremal data when only one constraint binds.

    ``cross_norm`` is the other Lebesgue norm of the extremal weight;
    it is ``math.inf`` when that norm diverges.
    """

    bound: float
    lam: float
    side: str
    cross_norm: float


@dataclass(frozen=True)
class RadialProfile:
    """A nonincreasing scalar profile, evaluated on demand.

    Used both for weight magnitudes as a function of the squared
    pseudo-hyperbolic coordinate d in [0, 1) and for distribution
    functions of t on [0, inf).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    label: str = ""

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = self.fn(x_arr)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def single_bound(
    params: ProblemParams,
    consts: DerivedConstants,
    side: str,
    *,
    enforce_regime: bool = True,
) -> SingleConstraintResult:
    """Sharp operator-norm bound when only the ``side`` constraint binds.

    bound = 2 beta (4pi)^(-1/e) sigma_e^(kappa_e) * budget, with the
    extremal amplitude lam = budget * (4pi sigma_e)^(-1/e).  The cross
    norm of the extremal weight equals r2 * A on side P (r1-analogue on
    side Q) and is infinite when the other exponent is <= alpha_e.

    With ``enforce_regime`` a side other than the one
    :func:`~wavelock.core.classify_regime` assigns to the budget ratio
    raises :class:`RegimeError`; disable it to evaluate the formulas
    outside their regime.
    """
    e, budget, alpha, sigma, kappa, other = _side_fields(params, consts, side)
    if enforce_regime and classify_regime(params, consts).tag != "Single" + side:
        raise RegimeError(
            f"single-constraint side {side} does not apply at "
            f"B/A = {params.ratio:.6g} (r1={consts.r1!r}, r2={consts.r2!r})"
        )

    bound = 2.0 * params.beta * FOUR_PI ** (-1.0 / e) * sigma**kappa * budget
    lam = budget * (FOUR_PI * sigma) ** (-1.0 / e)

    if other > alpha:
        # Cross norm of the extremal profile: (4pi alpha/(other-alpha))^(1/other) lam.
        cross = (FOUR_PI * alpha / (other - alpha)) ** (1.0 / other) * lam
    else:
        cross = math.inf

    return SingleConstraintResult(bound=bound, lam=lam, side=side, cross_norm=cross)


def single_profile(consts: DerivedConstants, lam: float, side: str) -> RadialProfile:
    """Extremal magnitude profile lam * (1 - d)^(1/alpha_e) on d in [0, 1)."""
    alpha = consts.alpha_p if side == "P" else consts.alpha_q
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if alpha <= 0:
        raise ValueError("profile undefined for alpha = 0 (exponent at its p -> 1 limit)")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    inv_alpha = 1.0 / alpha

    def fn(d):
        d = np.asarray(d, dtype=float)
        if np.any((d < 0) | (d >= 1)):
            raise ValueError("profile argument d must lie in [0, 1)")
        return lam * (1.0 - d) ** inv_alpha

    return RadialProfile(fn=fn, domain=(0.0, 1.0), label=f"single-{side}")


def disc_measure(d: float) -> float:
    """Hyperbolic area of the disc {d(z, z0) < d}: 4 pi d / (1 - d)."""
    if not 0.0 <= d < 1.0:
        raise ValueError(f"d must lie in [0, 1), got {d}")
    return FOUR_PI * d / (1.0 - d)


def distribution_of_profile(profile: RadialProfile) -> RadialProfile:
    """Distribution function t -> measure({profile > t}) of a radial profile.

    The super-level set of a nonincreasing radial profile is the disc
    {d < r(t)} with r(t) = sup{d : profile(d) > t}, located by a bisection
    run simultaneously for all requested levels; its measure is
    4 pi r/(1 - r).  The bisection stops once every bracket is two
    adjacent doubles, where the midpoint equals an end and no further
    step moves it (about 60 halvings on the extremal weights), and after
    120 halvings at most.  Levels with t >= profile(0) or
    t < profile(1 - 1e-15) have no bracket to close and do not hold it
    open.  The result is nonincreasing and right-continuous, and
    vanishes for t >= profile(0).
    """
    top = 1.0 - 1e-15

    def fn(t):
        t_in = np.asarray(t, dtype=float)
        t_arr = np.atleast_1d(t_in)
        if np.any(t_arr < 0):
            raise ValueError("distribution argument t must be nonnegative")
        inside = profile(np.zeros_like(t_arr)) > t_arr
        beyond = profile(np.full_like(t_arr, top)) > t_arr
        bracketed = inside & ~beyond
        lo = np.zeros_like(t_arr)
        hi = np.full_like(t_arr, top)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            # lo stays above t and hi at or below it, so a midpoint equal to
            # either end maps (lo, hi) to itself: every later step is void.
            if not np.any(bracketed & (mid != lo) & (mid != hi)):
                break
            above = profile(mid) > t_arr
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        r = 0.5 * (lo + hi)
        out = FOUR_PI * r / (1.0 - r)
        out = np.where(inside, out, 0.0)
        out = np.where(beyond, disc_measure(top), out)
        if t_in.ndim == 0:
            return np.float64(out[0])
        return out.reshape(t_in.shape)

    return RadialProfile(fn=fn, domain=(0.0, math.inf), label=f"dist({profile.label})")
