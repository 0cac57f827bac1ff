"""Dual-constraint solver: multipliers, moments and the bound integral.

In the dual regime the extremal distribution function is

    u(t) = 4 pi max{ phi(t)^(-c) - 1, 0 },   c = 1/(2 beta + 1),
    phi(t) = l1 t^(p-1) + l2 t^(q-1),

supported on (0, T] with T the unique root of phi(T) = 1.  The
multipliers are pinned by the two moment equations M_P = A^p and
M_Q = B^q, with M_e = e int t^(e-1) u dt.

The problem is scale invariant.  In canonical order p < q, let the
crossover share be a = l1 T^(p-1), so that 1 - a = l2 T^(q-1) and
phi(T x) = a x^(p-1) + (1 - a) x^(q-1) depends on a alone.  Then
M_e = e T^e m_e(a) with m_e(a) = int_0^1 x^(e-1) u(T x) dx, and the two
equations become one equation in a,

    R(a) = (q m_q(a))^(1/q) / (p m_p(a))^(1/p) = B/A,

with T = A (p m_p(a))^(-1/p) in closed form.  R increases from r1
(a -> 0) to r2 (a -> 1), so B/A has a root exactly in the dual window.
:func:`solve_multipliers` solves log R = log(B/A) for z = log(a/(1 - a))
by a bracketed Newton, one log-space pass of the graded rule per
iterate, and takes l1 = a T^(1-p) and l2 = (1 - a) T^(1-q) from the root.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import closed_form

from .core import (
    _LOG_FLOAT_MAX,
    _LOG_FLOAT_MIN,
    _PANELS,
    FOUR_PI,
    DerivedConstants,
    ProblemParams,
    _checked_integral,
    _graded_rule,
    canonical_order,
    classify_regime,
    derive_constants,
)


_log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """The dual multiplier solve did not converge or could not verify a solution."""


@dataclass(frozen=True)
class Multipliers:
    """Multiplier pair and the support endpoint T they determine."""

    lambda1: float
    lambda2: float
    T: float


class _Ops(NamedTuple):
    """The elementwise operations of the inversion, for one kind of operand."""

    exp: Callable
    log1p: Callable
    maximum: Callable
    minimum: Callable
    all: Callable


_FLOAT_OPS = _Ops(math.exp, math.log1p, max, min, bool)
_ARRAY_OPS = _Ops(np.exp, np.log1p, np.maximum, np.minimum, np.all)
_INVERT_MAX = 100


def _log_phi_inverse(log_c, lambda1: float, lambda2: float, p: float, q: float):
    """log t solving phi(t) = c, phi(t) = l1 t^(p-1) + l2 t^(q-1), given log c.

    Newton in x = log t on g(x) = log phi(e^x) - log c.  g is a
    log-sum-exp of affine functions of x, so it is convex and increasing:
    started at the smaller single-term root, where g >= 0, the iterates
    fall monotonically onto the root, with no bracket.  Newton stops at
    the first step that no longer lowers x, the rounding floor.  A float
    ``log_c`` runs on plain floats, an array elementwise.  The multipliers
    are nonnegative and not both zero.  Raises :class:`SolverError` on a
    non-finite start (log c) or after _INVERT_MAX steps.
    """
    ops = _FLOAT_OPS if isinstance(log_c, float) else _ARRAY_OPS
    k1, k2 = p - 1.0, q - 1.0
    if lambda2 == 0.0:
        return (log_c - math.log(lambda1)) / k1
    if lambda1 == 0.0:
        return (log_c - math.log(lambda2)) / k2
    l1, l2 = math.log(lambda1), math.log(lambda2)
    x = ops.minimum((log_c - l1) / k1, (log_c - l2) / k2)
    if not ops.all(abs(x) < math.inf):
        raise SolverError(
            f"non-finite start inverting phi for lambda = ({lambda1!r}, {lambda2!r}) "
            f"at log c = {log_c!r}"
        )
    for _ in range(_INVERT_MAX):
        a1, a2 = l1 + k1 * x, l2 + k2 * x  # the logs of the two terms
        top = ops.maximum(a1, a2)
        soft = ops.log1p(ops.exp(-abs(a1 - a2)))  # log phi - top
        g = top + soft - log_c
        nxt = x - g / (k1 + (k2 - k1) * ops.exp(a2 - top - soft))
        if ops.all(nxt >= x):
            return x
        x = ops.minimum(x, nxt)
    raise SolverError(
        f"inverting phi did not converge in {_INVERT_MAX} Newton steps "
        f"for lambda = ({lambda1!r}, {lambda2!r})"
    )


def find_T(lambda1: float, lambda2: float, params: ProblemParams) -> float:
    """Unique positive root of l1 T^(p-1) + l2 T^(q-1) = 1.

    The left side is strictly increasing from 0 to infinity, so a root
    always exists for nonnegative multipliers that are not both zero.
    T is the log-space Newton inversion of phi at c = 1
    (:func:`_log_phi_inverse`), on plain floats.  Raises
    :class:`SolverError` when T lies outside the float range or the
    inversion fails.
    """
    if lambda1 < 0 or lambda2 < 0 or (lambda1 == 0 and lambda2 == 0):
        raise ValueError("multipliers must be nonnegative and not both zero")
    log_T = _log_phi_inverse(0.0, lambda1, lambda2, params.p, params.q)
    T = math.exp(log_T) if log_T < _LOG_FLOAT_MAX else math.inf
    if not 0.0 < T < math.inf:
        raise SolverError(
            f"support endpoint T is out of the float range for lambda = ({lambda1!r}, {lambda2!r})"
        )
    return T


def multipliers(lambda1: float, lambda2: float, params: ProblemParams) -> Multipliers:
    """Bundle a multiplier pair with its support endpoint."""
    return Multipliers(lambda1, lambda2, find_T(lambda1, lambda2, params))


def u_eval(t, m: Multipliers, params: ProblemParams):
    """The dual-regime distribution function u(t); zero for t >= T.

    Continuous and strictly decreasing on (0, T], with a power blow-up
    at t -> 0 governed by the smaller exponent.
    """
    p, q, beta = params.p, params.q, params.beta
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        phi = m.lambda1 * t_arr ** (p - 1.0) + m.lambda2 * t_arr ** (q - 1.0)
        out = FOUR_PI * np.maximum(phi ** (-1.0 / (2.0 * beta + 1.0)) - 1.0, 0.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def moment(m: Multipliers, params: ProblemParams, which: str) -> float:
    """e * int_0^T t^(e-1) u(t) dt for e = p ("P") or q ("Q").

    The integrand vanishes at the origin like t to the power
    (e-1) - (min(p,q)-1)/(2 beta + 1), which is positive for every
    admissible instance; the remaining fractional-power behaviour is
    absorbed by the geometric panel grading.
    """
    if which not in ("P", "Q"):
        raise ValueError(f'which must be "P" or "Q", got {which!r}')
    e = params.p if which == "P" else params.q

    def f(t):
        # Where t^(e-1) underflows and u overflows the product is nan, which
        # the quadrature check turns into a QuadratureError.
        with np.errstate(invalid="ignore"):
            return e * t ** (e - 1.0) * u_eval(t, m, params)

    return _checked_integral(f, m.T, f"moment {which}")


def bound_integral(m: Multipliers, params: ProblemParams) -> float:
    """int_0^T G(u(t)) dt, the sharp bound in the dual regime.

    On (0, T) the integrand collapses to 1 - phi(t)^(2 beta/(2 beta + 1))
    with phi = l1 t^(p-1) + l2 t^(q-1): bounded by 1, tending to 1 at the
    origin, vanishing at T.
    """
    p, q, beta = params.p, params.q, params.beta
    gamma = 2.0 * beta / (2.0 * beta + 1.0)

    def f(t):
        phi = m.lambda1 * t ** (p - 1.0) + m.lambda2 * t ** (q - 1.0)
        return 1.0 - phi**gamma

    return _checked_integral(f, m.T, "bound integral")


_NEWTON_MAX = 50
_NEWTON_RTOL = 1e-15  # |log R - log(B/A)| at which Newton stops; the gate below is looser
_STEP_MAX = 64.0  # largest Newton step in z
_RESIDUAL_GATE = 1e-8


def _unit_pass(params: ProblemParams) -> Callable[[float], tuple[float, float, float]]:
    """z -> (log R(z), d log R/dz, log(p m_p)) for a canonical instance (p < q).

    One sweep of the 16-node graded rule on (0, 1] in log space, with
    a = 1/(1 + e^-z) and phi(x) = a x^(p-1) + (1 - a) x^(q-1):

        m_e      = 4 pi int x^(e-1) phi^(-c) (1 - phi^c) dx,
        dm_e/dz  = -4 pi c (1 - a) int x^(e-1) phi^(-c) s (1 - x^(q-p)) dx,

    where s = a x^(p-1)/phi is the p-term's share of phi.  Each
    x^(e-1) phi^(-c) is one exp of a sum of logs and the other factors lie
    in [0, 1], so nothing overflows where x^(e-1) underflows.
    """
    p, q, c = params.p, params.q, 1.0 / (2.0 * params.beta + 1.0)
    x, w = _graded_rule(_PANELS, 16)
    log_x = np.log(x)
    powers = np.stack([(p - 1.0) * log_x, (q - 1.0) * log_x])
    gap = -np.expm1((q - p) * log_x)  # 1 - x^(q-p)
    e = np.array([p, q])

    def unit(z: float) -> tuple[float, float, float]:
        log_a, log_b = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)  # log a, log(1 - a)
        # A non-finite value is the Newton loop's SolverError, not a warning.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_t1 = log_a + powers[0]
            log_phi = np.logaddexp(log_t1, log_b + powers[1])
            # 1 - phi^c and s (1 - x^(q-p)), each against both x^(e-1) phi^(-c)
            kernels = np.stack([-np.expm1(c * log_phi), np.exp(log_t1 - log_phi) * gap])
            moments, slopes = (w * kernels) @ np.exp(powers - c * log_phi).T
            log_em = np.log(FOUR_PI * e * moments)  # log(e m_e)
            log_R = log_em[1] / q - log_em[0] / p
            rates = slopes / (e * moments)
            slope = c * np.exp(log_b) * (rates[0] - rates[1])
        return float(log_R), float(slope), float(log_em[0])

    return unit


def _newton(unit: Callable, target: float) -> tuple[float, float, int, int]:
    """Solve log R(z) = target by Newton in z, kept inside a sign bracket.

    log R increases with z, so every iterate tightens the bracket; a step
    longer than _STEP_MAX is cut to it, and one that leaves the bracket
    is replaced by its midpoint.  Stops at |log R - target| <=
    _NEWTON_RTOL.  Returns z, log(p m_p) there, the iteration count and
    the number of bisections.
    """
    lo, hi, z = -math.inf, math.inf, 0.0
    bisections = 0
    for iteration in range(_NEWTON_MAX):
        log_R, slope, log_pm = unit(z)
        f = log_R - target
        if not (math.isfinite(f) and math.isfinite(slope)):  # a non-finite log_pm spoils f
            raise SolverError(f"non-finite log R = {log_R!r} or slope {slope!r} at z = {z!r}")
        if abs(f) <= _NEWTON_RTOL:
            return z, log_pm, iteration, bisections
        if f < 0.0:
            lo = z
        else:
            hi = z
        step = -f / slope if slope > 0.0 else math.copysign(_STEP_MAX, -f)
        nxt = z + min(max(step, -_STEP_MAX), _STEP_MAX)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)  # both ends are finite: z is one of them
            bisections += 1
        z = nxt
    raise SolverError(
        f"dual Newton did not converge in {_NEWTON_MAX} iterations: "
        f"z = {z!r}, |log R - log(B/A)| = {abs(f):.3e}"
    )


def _single_solution(
    params: ProblemParams, consts: DerivedConstants, side: str
) -> tuple[closed_form.SingleConstraintResult, float]:
    """The ``side``-constraint solution and its multiplier lam^-(e-1), the
    optimum outside the dual window.  Raises :class:`SolverError` when the
    multiplier is out of the float range."""
    single = closed_form.single_bound(params, consts, side, enforce_regime=False)
    e = params.p if side == "P" else params.q
    log_seed = -(e - 1.0) * math.log(single.lam)
    if not _LOG_FLOAT_MIN <= log_seed < _LOG_FLOAT_MAX:
        raise SolverError(
            f"the single-constraint multiplier lam^-(e-1) = exp({log_seed:.6g}) "
            "is out of the float range"
        )
    return single, single.lam ** (-(e - 1.0))


def _solve(params: ProblemParams) -> tuple[Multipliers, float, float]:
    """The dual solve of an instance classified Dual: multipliers and the
    relative residuals (P, Q) of params."""
    work, swapped = canonical_order(params)
    p, q = work.p, work.q
    z, log_pm, iterations, bisections = _newton(_unit_pass(work), math.log(work.ratio))
    log_T = math.log(work.A) - log_pm / p
    log_a, log_b = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
    log_lam = (log_a + (1.0 - p) * log_T, log_b + (1.0 - q) * log_T)
    if not all(_LOG_FLOAT_MIN <= v < _LOG_FLOAT_MAX for v in log_lam):
        raise SolverError(
            f"multipliers exp({log_lam[0]:.6g}), exp({log_lam[1]:.6g}) are out of the float "
            f"range (z = {z!r})"
        )
    lam1, lam2 = (math.exp(v) for v in log_lam)
    m = Multipliers(lam1, lam2, find_T(lam1, lam2, work))
    _log.debug(
        "dual solve: %d Newton iterations, %d bisections, z = log(a/(1 - a)) = %.17g",
        iterations, bisections, z,
    )
    # The quadrature-checked moments (16 against 8 nodes) certify the result.
    res_p = abs(moment(m, work, "P") - work.A**p) / work.A**p
    res_q = abs(moment(m, work, "Q") - work.B**q) / work.B**q
    if not max(res_p, res_q) <= _RESIDUAL_GATE:
        raise SolverError(
            f"moment residuals {res_p:.3e}, {res_q:.3e} exceed {_RESIDUAL_GATE:g} "
            f"(lambda1={m.lambda1!r}, lambda2={m.lambda2!r}, T={m.T!r})"
        )
    if swapped:
        return Multipliers(lambda1=m.lambda2, lambda2=m.lambda1, T=m.T), res_q, res_p
    return m, res_p, res_q


def solve_multipliers(params: ProblemParams) -> Multipliers:
    """Solve the two moment equations for (lambda1, lambda2) in the dual regime.

    In canonical order p < q, Newton solves log R(z) = log(B/A) for the
    log-odds z of the crossover share a (see the module docstring),
    bracketed by the signs seen so far and started at a = 1/2; each
    iterate is one log-space pass of the 16-node graded rule.  The
    multipliers follow as a T^(1-p) and (1 - a) T^(1-q), and T is then the
    root of phi(T) = 1 (:func:`find_T`).  The final moments must pass the
    16- against 8-node quadrature check, else :class:`QuadratureError`.
    Raises :class:`SolverError` if Newton does not converge or meets a
    non-finite value, if a multiplier is out of the float range, or if
    the relative moment residuals exceed 1e-8.
    """
    consts = derive_constants(params)
    regime = classify_regime(params, consts)
    if regime.tag != "Dual":
        raise SolverError(
            f"solve_multipliers requires the dual regime, got {regime.tag} "
            f"at B/A = {params.ratio:.6g}"
        )
    return _solve(params)[0]


@dataclass(frozen=True)
class BoundReport:
    """Everything a bound computation produced, ready for serialization.

    ``params`` is the instance the bound was computed for.  Fields that
    do not exist in a regime (T and the inactive residual in the
    single-constraint cases, thresholds whose cross-norm diverges) are
    ``None``, never a placeholder number.
    """

    params: ProblemParams
    regime: str
    boundary: bool
    bound: float
    r1: float | None
    r2: float | None
    lambda1: float
    lambda2: float
    T: float | None
    residual_p: float | None
    residual_q: float | None
    wall_time_s: float

    def multipliers(self) -> Multipliers:
        if self.T is None:
            return multipliers(self.lambda1, self.lambda2, self.params)
        return Multipliers(self.lambda1, self.lambda2, self.T)


def compute_bound(params: ProblemParams) -> BoundReport:
    """Classify the instance and evaluate the sharp bound for its regime.

    Single regimes use the closed form with the inactive multiplier
    recorded as exactly zero; the dual regime runs the Newton solve in
    the crossover share, whose checked moments give the residuals, and
    the bound integral.
    """
    start = time.perf_counter()
    consts = derive_constants(params)
    regime = classify_regime(params, consts)

    if regime.tag == "Dual":
        m, residual_p, residual_q = _solve(params)
        bound = bound_integral(m, params)
        lam1, lam2, T = m.lambda1, m.lambda2, m.T
    else:
        side = "P" if regime.tag == "SingleP" else "Q"
        single, seed = _single_solution(params, consts, side)
        bound = single.bound
        if side == "P":
            lam1, lam2 = seed, 0.0
            residual_p, residual_q = 0.0, None
        else:
            lam1, lam2 = 0.0, seed
            residual_p, residual_q = None, 0.0
        T = None

    return BoundReport(
        params=params,
        regime=regime.tag,
        boundary=regime.boundary,
        bound=bound,
        r1=consts.r1,
        r2=consts.r2,
        lambda1=lam1,
        lambda2=lam2,
        T=T,
        residual_p=residual_p,
        residual_q=residual_q,
        wall_time_s=time.perf_counter() - start,
    )
