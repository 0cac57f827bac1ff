"""Closed forms for the single-active-constraint regime.

When the budget ratio leaves the dual window, the optimal weight is the
one-constraint extremizer: a radial profile lam * (1 + s)^(-1/alpha_e) in
s = d/(1 - d), d the squared pseudo-hyperbolic distance to its centre, so
that the disc {s < sigma} has hyperbolic measure 4 pi sigma.  This module
evaluates the corresponding sharp bound, and the profile and its
distribution function as vectorised functions that give a float at a
scalar argument.

Note on the profile exponent: the published display of the extremal weight
carries the exponent -alpha_e, which grows toward the boundary and has a
divergent own-norm.  The distribution-function computation, the
nonincreasing-profile requirement and the vanishing-second-multiplier
limit of the dual reconstruction all force (1 - d)^(+1/alpha_e), which is
(1 + s)^(-1/alpha_e); that is the form implemented here, and the one every
numeric check below is consistent with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FOUR_PI,
    DerivedConstants,
    ProblemParams,
    RegimeError,
    classify_regime,
)

_SIDES = ("P", "Q")


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
    cross_norm: float


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

    return SingleConstraintResult(bound=bound, lam=lam, cross_norm=cross)


def single_profile(consts: DerivedConstants, lam: float, side: str):
    """Extremal magnitude profile lam * (1 + s)^(-1/alpha_e) on s >= 0."""
    alpha = consts.alpha_p if side == "P" else consts.alpha_q
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    if alpha <= 0:
        raise ValueError("profile undefined for alpha = 0 (exponent at its p -> 1 limit)")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    inv_alpha = 1.0 / alpha

    def fn(s):
        s = np.asarray(s, dtype=float)
        if not np.all(s >= 0):
            raise ValueError("profile argument s must be nonnegative")
        out = lam * (1.0 + s) ** -inv_alpha
        return float(out) if s.ndim == 0 else out

    return fn


# The bisection's top: the largest s whose disc measure 4 pi s is finite.
_S_TOP = np.finfo(float).max / FOUR_PI


def distribution_of_profile(profile):
    """Distribution function t -> measure({profile > t}) of a vectorised radial profile.

    The super-level set of a nonincreasing radial profile in s is the disc
    {s < sigma(t)}, of measure 4 pi sigma(t).  sigma is located by a
    bisection run simultaneously for all requested levels over the bit
    patterns of the doubles in [0, float max/(4 pi)]: nonnegative doubles
    order like their int64 patterns, so every bracket closes to two
    adjacent doubles in at most 63 halvings, and its upper end is taken.
    Levels with t >= profile(0) or t < profile(float max/(4 pi)) have no
    bracket to close and do not hold it open; the ends are evaluated once
    each, as one-element arrays.  The result is nonincreasing and
    right-continuous, vanishes for t >= profile(0), and is inf where the
    disc outgrows the float range, t < profile(float max/(4 pi)).
    """

    def fn(t):
        t_in = np.asarray(t, dtype=float)
        t_arr = np.atleast_1d(t_in)
        if not np.all(t_arr >= 0):
            raise ValueError("distribution argument t must be nonnegative")
        inside = profile(np.zeros(1)) > t_arr
        beyond = profile(np.full(1, _S_TOP)) > t_arr
        bracketed = inside & ~beyond
        # lo stays above t and hi at or below it, as bit patterns of s.
        lo = np.zeros(t_arr.shape, dtype=np.int64)
        hi = np.full(t_arr.shape, _S_TOP.view(np.int64))
        while np.any(bracketed & (hi - lo > 1)):
            mid = lo + (hi - lo) // 2
            above = profile(mid.view(np.float64)) > t_arr
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        out = np.where(inside, FOUR_PI * hi.view(np.float64), 0.0)
        out = np.where(beyond, np.inf, out)
        return float(out[0]) if t_in.ndim == 0 else out.reshape(t_in.shape)

    return fn
