"""Closed forms for the single-active-constraint regime.

When the budget ratio leaves the dual window, the optimal weight is the
one-constraint extremizer: a radial profile lam * (1 + s)^(-1/alpha_e) in
s = d/(1 - d), d the squared pseudo-hyperbolic distance to its centre, so
that the disc {s < sigma} has hyperbolic measure 4 pi sigma.  The weight
itself is :mod:`wavelock.weight`'s, which carries the inactive multiplier
as zero.  This module evaluates the corresponding sharp bound, and the
distribution function of any vectorised radial profile.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .core import (
    FOUR_PI,
    DerivedConstants,
    ProblemParams,
    RegimeError,
    classify_regime,
    np,
)

_SIDES = ("P", "Q")


def _side_fields(params: ProblemParams, consts: DerivedConstants, side: str):
    """(own exponent, own budget, own sigma/kappa)."""
    if side == "P":
        return params.p, params.A, consts.sigma_p, consts.kappa_p
    if side == "Q":
        return params.q, params.B, consts.sigma_q, consts.kappa_q
    raise ValueError(f"side must be one of {_SIDES}, got {side!r}")


@dataclass(frozen=True)
class SingleConstraintResult:
    """Sharp bound and extremal amplitude when only one constraint binds."""

    bound: float
    lam: float


def single_bound(
    params: ProblemParams,
    consts: DerivedConstants,
    side: str,
    *,
    enforce_regime: bool = True,
) -> SingleConstraintResult:
    """Sharp operator-norm bound when only the ``side`` constraint binds.

    bound = 2 beta (4pi)^(-1/e) sigma_e^(kappa_e) * budget, with the
    extremal amplitude lam = budget * (4pi sigma_e)^(-1/e).  The weight's
    other norm (r2 * A on side P, inf when the other exponent is <= alpha_e)
    is :func:`~wavelock.weight.weight_norms`'s.  A side other than "P" or
    "Q" raises ValueError.

    With ``enforce_regime`` a side other than the one
    :func:`~wavelock.core.classify_regime` assigns to the budget ratio
    raises :class:`RegimeError`; disable it to evaluate the formulas
    outside their regime.
    """
    e, budget, sigma, kappa = _side_fields(params, consts, side)
    if enforce_regime and classify_regime(params, consts).tag != "Single" + side:
        raise RegimeError(
            f"single-constraint side {side} does not apply at "
            f"B/A = {params.ratio:.6g} (r1={consts.r1!r}, r2={consts.r2!r})"
        )

    bound = 2.0 * params.beta * FOUR_PI ** (-1.0 / e) * sigma**kappa * budget
    lam = budget * (FOUR_PI * sigma) ** (-1.0 / e)
    return SingleConstraintResult(bound=bound, lam=lam)


# The search's top: the largest s whose disc measure 4 pi s is finite, and its
# bit pattern as an int64.
_S_TOP = sys.float_info.max / FOUR_PI
_TOP_BITS = struct.unpack("<q", struct.pack("<d", _S_TOP))[0]
_U_TOP = math.log1p(_S_TOP)
_EPS = sys.float_info.epsilon


def _crossing(profile, t, at_zero, at_top):
    """Upper ends of brackets of two adjacent doubles around each level's crossing.

    For each level t, with at_top <= t < at_zero the profile's values at
    s = 0 and s = float max/(4 pi), returns the double s at which the
    profile is at most t while it is above t at the double below: the
    least such s for a nonincreasing profile.  The bracket lo < s <= hi
    is kept as int64 bit patterns, in which nonnegative doubles are
    ordered and adjacent ones differ by 1, and which side a probe falls
    on is decided by comparing the profile with t alone.  Probes come from
    the secant in (u, v) = (log1p s, log profile - log t), which is
    exactly linear for a one-term profile, through the latest two probes;
    the bisections that follow a stalled step are left out of it, since
    they land far from the crossing.  The secant aims a margin past the
    crossing, toward the end that did not move last; the margin starts at
    v's rounding level eps (1 + |log t|) and doubles while the same end
    keeps moving, so a probe that creeps up on the crossing soon lands
    beyond it.  A level bisects its bit patterns instead where the secant
    is undefined or does not fall strictly inside the bracket, and where
    its last step failed to halve the bracket.  A step that does not
    halve the bracket is followed by a bisection, which does, so no level
    takes more than 2 * 63 steps.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_t = np.log(t)
        rounding = _EPS * (1.0 + np.abs(log_t))  # v's rounding level
        lo = np.zeros(t.shape, dtype=np.int64)
        hi = np.full(t.shape, _TOP_BITS)
        # The secant runs through (u1, v1), the latest probe, and (u0, v0),
        # the one before it; at first these are the ends.
        u1, v1 = np.zeros(t.shape), np.log(at_zero) - log_t
        u0, v0 = np.full(t.shape, _U_TOP), np.log(at_top) - log_t
        margin = np.zeros(t.shape)
        limit = np.full(t.shape, np.iinfo(np.int64).max)
        width = hi - lo
        while True:
            if not np.any(width > 1):
                return hi.view(np.float64)
            probe = np.expm1(u1 - (v1 + margin) * (u1 - u0) / (v1 - v0)).view(np.int64)
            stalled = width > limit
            bisect = stalled | ~((probe > lo) & (probe < hi))
            half = width >> 1
            # A closed bracket (width 1) probes its own upper end, so that it
            # keeps it whatever that probe returns.
            probe = np.where(bisect, hi - half, probe)
            limit = width - half
            s = probe.view(np.float64)
            value = profile(s)
            u_s, v_s = np.log1p(s), np.log(value) - log_t
            above = value > t
            lo, hi = np.where(above, probe, lo), np.where(above, hi, probe)
            u0, v0 = np.where(stalled, u0, u1), np.where(stalled, v0, v1)
            u1, v1 = np.where(stalled, u1, u_s), np.where(stalled, v1, v_s)
            aim = np.where(above, rounding, -rounding)
            margin = np.where(bisect, margin, np.where(margin * aim > 0.0, 2.0 * margin, aim))
            width = hi - lo


def distribution_of_profile(profile):
    """Distribution function t -> measure({profile > t}) of a vectorised radial profile.

    The super-level set of a nonincreasing radial profile in s is the disc
    {s < sigma(t)}, of measure 4 pi sigma(t).  sigma is located by a
    safeguarded bracketing search (:func:`_crossing`), run simultaneously
    for all requested levels over the doubles in [0, float max/(4 pi)]
    until every bracket is two adjacent doubles, and its upper end is
    taken: the same double a bisection of the bit patterns finds in 63
    halvings, wherever the profile is monotone to the last bit.  Each
    step is one profile call over all levels.  Secant steps in
    (log1p s, log profile) close a smooth profile's brackets in about 20
    calls; a level whose bracket fails to halve bisects at its next step,
    so none takes more than 2 * 63.  Levels with t >= profile(0) or
    t < profile(float max/(4 pi)) have no bracket to close and take no
    step; the ends are evaluated once each, as one-element arrays.  The
    result is nonincreasing and right-continuous, vanishes for
    t >= profile(0), and is inf where the disc outgrows the float range,
    t < profile(float max/(4 pi)).
    """

    def fn(t):
        t_in = np.asarray(t, dtype=float)
        t_arr = np.atleast_1d(t_in)
        if not np.all(t_arr >= 0):
            raise ValueError("distribution argument t must be nonnegative")
        at_zero = profile(np.zeros(1))
        at_top = profile(np.full(1, _S_TOP))
        inside = at_zero > t_arr
        beyond = at_top > t_arr
        out = np.where(beyond, np.inf, 0.0)
        bracketed = inside & ~beyond
        if np.any(bracketed):
            out[bracketed] = FOUR_PI * _crossing(profile, t_arr[bracketed], at_zero, at_top)
        return float(out[0]) if t_in.ndim == 0 else out.reshape(t_in.shape)

    return fn
