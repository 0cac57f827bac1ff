"""Dual-constraint solver: multipliers, moments and the bound.

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
by a bracketed Newton scaled to that window, one log-space pass of the
graded rule per iterate, and takes l1 = a T^(1-p), l2 = (1 - a) T^(1-q).
The bound int_0^T (1 - phi^(2 beta/(2 beta + 1))) dt follows by parts in
closed form from the last pass's m_p and m_q (:func:`_solve`);
:func:`bound_integral` is the same integral by quadrature, its independent
check.
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
    _checked_log_integral,
    _graded_log_nodes,
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


def _log_sum_exp(a1, a2, ops: _Ops = _ARRAY_OPS):
    """log(e^a1 + e^a2) as max(a1, a2) + log1p(exp(-|a1 - a2|)).

    The formula of np.logaddexp, built from ufuncs that numpy vectorises
    (it runs np.logaddexp itself as a scalar loop).  Nothing in it
    overflows.  Plain floats go through ``_FLOAT_OPS``.
    """
    return ops.maximum(a1, a2) + ops.log1p(ops.exp(-abs(a1 - a2)))


def _log_terms(lambda1: float, lambda2: float, params: ProblemParams) -> list[tuple[float, float]]:
    """The terms of phi(t) = l1 t^(p-1) + l2 t^(q-1) as (log l, e - 1), one per
    positive multiplier, in the order (l1, p), (l2, q): a zero multiplier drops
    its term.  The one place the multipliers' logs are taken for phi."""
    return [(math.log(lam), e - 1.0) for lam, e in ((lambda1, params.p), (lambda2, params.q)) if lam > 0.0]


def _log_phi(log_t, terms):
    """log phi(t) from log t and phi's terms (:func:`_log_terms`), by the
    log-sum-exp kernel."""
    logs = [log_lam + k * log_t for log_lam, k in terms]
    return _log_sum_exp(*logs) if len(logs) == 2 else logs[0]


def _log_phi_inverse(log_c, terms):
    """log t solving phi(t) = c, given log c and phi's terms (:func:`_log_terms`).

    One term inverts in closed form.  For two, Newton in x = log t on
    g(x) = log phi(e^x) - log c.  g is a log-sum-exp of affine functions of
    x, so it is convex and increasing: started at the smaller single-term
    root, where g >= 0, the iterates fall monotonically onto the root, with
    no bracket.  With the smaller exponent first, g' = k1 + (k2 - k1) s2,
    s2 the second term's share, is a sum of nonnegative parts.  Newton
    stops at the first step that no longer lowers x, the rounding floor.  A
    float ``log_c`` runs on plain floats, an array elementwise.  Raises
    :class:`SolverError` on a non-finite start or after _INVERT_MAX steps.
    """
    if len(terms) == 1:
        return (log_c - terms[0][0]) / terms[0][1]
    ops = _FLOAT_OPS if isinstance(log_c, float) else _ARRAY_OPS
    (l1, k1), (l2, k2) = sorted(terms, key=lambda term: term[1])
    x = ops.minimum((log_c - l1) / k1, (log_c - l2) / k2)
    if not ops.all(abs(x) < math.inf):
        raise SolverError(f"non-finite start inverting phi with log terms {terms!r} at log c = {log_c!r}")
    for _ in range(_INVERT_MAX):
        a2 = l2 + k2 * x  # the log of the second term
        log_phi = _log_sum_exp(l1 + k1 * x, a2, ops)
        nxt = x - (log_phi - log_c) / (k1 + (k2 - k1) * ops.exp(a2 - log_phi))
        if ops.all(nxt >= x):
            return x
        x = ops.minimum(x, nxt)
    raise SolverError(f"inverting phi did not converge in {_INVERT_MAX} Newton steps for log terms {terms!r}")


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
    log_T = _log_phi_inverse(0.0, _log_terms(lambda1, lambda2, params))
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
    at t -> 0 governed by the smaller exponent.  Evaluated from log t, as
    4 pi max(expm1(-c log phi), 0) with c = 1/(2 beta + 1), so neither phi
    nor phi^(-c) is formed where they under- or overflow; u(0) is inf.
    """
    t_arr = np.asarray(t, dtype=float)
    c = 1.0 / (2.0 * params.beta + 1.0)
    terms = _log_terms(m.lambda1, m.lambda2, params)
    # log 0 = -inf spoils log phi at t = 0 (set below); a huge u overflows to inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = FOUR_PI * np.maximum(np.expm1(-c * _log_phi(np.log(t_arr), terms)), 0.0)
    out = np.where(t_arr >= m.T, 0.0, np.where(t_arr == 0.0, math.inf, u))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def moment(m: Multipliers, params: ProblemParams, which: str) -> float:
    """e * int_0^T t^(e-1) u(t) dt for e = p ("P") or q ("Q").

    Evaluated in log t: the integrand is
    4 pi e exp((e-1) log t - c log phi) max(1 - phi^c, 0), one exp of a
    sum of logs times a factor in [0, 1], so nothing overflows where
    t^(e-1) underflows.  It vanishes at the origin like t to the power
    (e-1) - (min(p,q)-1)/(2 beta + 1), which is positive for every
    admissible instance; the remaining fractional-power behaviour is
    absorbed by the geometric panel grading.
    """
    if which not in ("P", "Q"):
        raise ValueError(f'which must be "P" or "Q", got {which!r}')
    e = params.p if which == "P" else params.q
    c = 1.0 / (2.0 * params.beta + 1.0)
    terms = _log_terms(m.lambda1, m.lambda2, params)

    def f(log_t):
        c_log_phi = c * _log_phi(log_t, terms)
        return FOUR_PI * e * np.exp((e - 1.0) * log_t - c_log_phi) * np.maximum(-np.expm1(c_log_phi), 0.0)

    # An overflowing exp makes the sum infinite, which the quadrature check
    # turns into a QuadratureError.
    with np.errstate(over="ignore", invalid="ignore"):
        return _checked_log_integral(f, m.T, f"moment {which}")


def bound_integral(m: Multipliers, params: ProblemParams) -> float:
    """int_0^T G(u(t)) dt, the sharp bound in the dual regime.

    On (0, T) the integrand collapses to 1 - phi(t)^(2 beta/(2 beta + 1))
    with phi = l1 t^(p-1) + l2 t^(q-1): bounded by 1, tending to 1 at the
    origin, vanishing at T.  It is evaluated in log t, as
    max(-expm1(gamma log phi), 0), by the checked rule.  :func:`compute_bound`
    takes the same integral in closed form from the solve; this quadrature is
    that closed form's independent check.
    """
    gamma = 2.0 * params.beta / (2.0 * params.beta + 1.0)
    terms = _log_terms(m.lambda1, m.lambda2, params)
    return _checked_log_integral(
        lambda log_t: np.maximum(-np.expm1(gamma * _log_phi(log_t, terms)), 0.0),
        m.T,
        "bound integral",
    )


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

    where s = a x^(p-1)/phi is the p-term's share of phi.  With d =
    (q - p) log x - z, the log of the q-term over the p-term, log phi -
    (p - 1) log x is log a + softplus(d) for z >= 0 and log(1 - a) + (q - p)
    log x + softplus(-d) for z < 0, so that once one term alone counts log R
    stops moving with z, to the last bit.  Each x^(p-1) phi^(-c) is one exp
    of a sum of logs, its q-row is it times x^(q-p), and the other factors
    lie in [0, 1], so nothing overflows where x^(e-1) underflows.
    """
    p, q, c = params.p, params.q, 1.0 / (2.0 * params.beta + 1.0)
    _, w = _graded_rule(_PANELS, 16)
    log_x = _graded_log_nodes(_PANELS, 16)
    # log 0 = -inf at zero weights and at x = 1; an overflow ends in Newton's SolverError.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lift = (q - p) * log_x  # log x^(q-p)
        rise = np.exp(lift)  # x^(q-p)
        c_head = c * (p - 1.0) * log_x  # c log x^(p-1)
        log_row = np.log(w) + (1.0 - c) * (p - 1.0) * log_x  # log(w x^(p-1)) - c log x^(p-1)
        log_gap = np.log(-np.expm1(lift))  # log(1 - x^(q-p))

    def unit(z: float) -> tuple[float, float, float]:
        # log a and log(1 - a) as -softplus(-z) and -softplus(z): no exp of z.
        log_a = -_log_sum_exp(0.0, -z, _FLOAT_OPS)
        log_b = -_log_sum_exp(0.0, z, _FLOAT_OPS)
        # A non-finite value is the Newton loop's SolverError, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            # log phi - log x^(p-1), built on the larger share: exact once one term counts.
            # For z >= 0, lift - z <= 0 and its softplus is log1p(exp(lift - z)),
            # the log-sum-exp with 0 bit for bit.
            rest = (_log_sum_exp(z - lift, 0.0) + lift + log_b if z < 0.0
                    else np.log1p(np.exp(lift - z)) + log_a)
            c_rest = c * rest
            row = np.exp(log_row - c_rest)  # w x^(p-1) phi^(-c)
            fall = np.expm1(c_head + c_rest)  # phi^c - 1
            tilt = np.exp(log_gap + log_a - rest)  # s (1 - x^(q-p))
            m_p, d_p = -float(row @ fall), float(row @ tilt)
            row *= rise  # w x^(q-1) phi^(-c)
            m_q, d_q = -float(row @ fall), float(row @ tilt)
        if not (m_p > 0.0 and m_q > 0.0):  # a zero or NaN moment has no log
            return math.nan, math.nan, math.nan
        log_pm = math.log(FOUR_PI * p * m_p)  # log(p m_p)
        log_R = math.log(FOUR_PI * q * m_q) / q - log_pm / p
        slope = c * math.exp(log_b) * (d_p / (p * m_p) - d_q / (q * m_q))
        return log_R, slope, log_pm

    return unit


def _newton(
    unit: Callable, target: float, window=(-math.inf, math.inf), spread=math.inf
) -> tuple[float, float, int, int]:
    """Solve log R(z) = target by Newton in z, kept inside a sign bracket.

    ``window`` = (log r1, log r2) holds the limits of log R at z = -inf and
    +inf (infinite where a threshold is undefined), which log R nears
    exponentially in z.  Inside it the step is Newton's on the window logit
    F = log((log R - log r1)/(log r2 - log R)), linear in z at both ends;
    elsewhere, or where F' is not positive, it is the plain step.  log R
    increases with z, so every iterate tightens the bracket; a step longer
    than _STEP_MAX is cut to it, and one that leaves the bracket is replaced
    by its midpoint.  Stops at |log R - target| <= _NEWTON_RTOL; returns z,
    the pass's (log R, slope, log(p m_p)) there, the iteration count and the
    bisections.  A log R that repeats bit for bit while the crossover
    z/spread (spread = q - p) lies below the rule's deepest node can move no
    further: SolverError.
    """
    log_r1, log_r2 = window
    lo, hi, z, last, bisections = -math.inf, math.inf, 0.0, math.nan, 0
    for iteration in range(_NEWTON_MAX):
        out = unit(z)
        log_R, slope, _ = out
        f = log_R - target
        if not (math.isfinite(f) and math.isfinite(slope)):  # a non-finite log_pm spoils f
            raise SolverError(f"non-finite log R = {log_R!r} or slope {slope!r} at z = {z!r}")
        if abs(f) <= _NEWTON_RTOL:
            return z, out, iteration, bisections
        if log_R == last and z / spread < (deepest := _graded_log_nodes(_PANELS, 16).min()):
            raise SolverError(
                f"the crossover log x* = z/(q - p) = {z / spread:.6g} lies below the graded rule "
                f"({_PANELS} panels deep, log x >= {deepest:.6g}): log R stopped {abs(f):.3e} from log(B/A)"
            )
        last = log_R
        if f < 0.0:
            lo = z
        else:
            hi = z
        step = -f / slope if slope > 0.0 else math.copysign(_STEP_MAX, -f)
        if log_r1 < log_R < log_r2:  # Newton on F, with F(z) - F(root) formed from f
            F_slope = slope * (1.0 / (log_R - log_r1) + 1.0 / (log_r2 - log_R))
            if F_slope > 0.0:
                step = (math.log1p(-f / (log_r2 - target)) - math.log1p(f / (target - log_r1))) / F_slope
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
    amplitude lam or the multiplier is out of the float range."""
    try:
        single = closed_form.single_bound(params, consts, side, enforce_regime=False)
    except OverflowError as exc:  # lam = budget (4 pi sigma_e)^(-1/e)
        raise SolverError("the single-constraint amplitude lam is out of the float range") from exc
    e = params.p if side == "P" else params.q
    log_seed = -(e - 1.0) * math.log(single.lam)
    if not _LOG_FLOAT_MIN <= log_seed < _LOG_FLOAT_MAX:
        raise SolverError(
            f"the single-constraint multiplier lam^-(e-1) = exp({log_seed:.6g}) "
            "is out of the float range"
        )
    return single, single.lam ** (-(e - 1.0))


def _solve(params: ProblemParams, consts: DerivedConstants) -> tuple[Multipliers, float, float, float]:
    """The dual solve of an instance classified Dual by ``consts``:
    multipliers, the bound and the relative residuals (P, Q) of params.

    The bound int_0^T (1 - phi^gamma) dt, gamma = 2 beta/(2 beta + 1), is
    taken by parts in scale form from Newton's last unit pass (canonical
    order): with M_e = e T^e m_e and l1 = a T^(1-p), l2 = (1 - a) T^(1-q),

        gamma T [a (p-1)/p (1 + p m_p/4 pi) + (1 - a) (q-1)/q (1 + q m_q/4 pi)],

    where log(q m_q) = q (log R + log(p m_p)/p).  :func:`bound_integral` is
    its independent quadrature.
    """
    work, swapped = canonical_order(params)
    p, q = work.p, work.q
    log_r1 = -math.inf if consts.r1 is None else math.log(consts.r1)
    log_r2 = math.inf if consts.r2 is None else math.log(consts.r2)
    window = (-log_r2, -log_r1) if swapped else (log_r1, log_r2)  # of A/B after a swap
    z, (log_R, _, log_pm), iterations, bisections = _newton(
        _unit_pass(work), math.log(work.ratio), window, q - p
    )
    log_T = math.log(work.A) - log_pm / p
    log_a = -_log_sum_exp(0.0, -z, _FLOAT_OPS)
    log_b = -_log_sum_exp(0.0, z, _FLOAT_OPS)
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
    gamma = 2.0 * work.beta / (2.0 * work.beta + 1.0)
    bound = gamma * m.T * (
        math.exp(log_a) * (p - 1.0) / p * (1.0 + math.exp(log_pm) / FOUR_PI)
        + math.exp(log_b) * (q - 1.0) / q * (1.0 + math.exp(q * (log_R + log_pm / p)) / FOUR_PI)
    )
    if swapped:
        return Multipliers(lambda1=m.lambda2, lambda2=m.lambda1, T=m.T), bound, res_q, res_p
    return m, bound, res_p, res_q


def solve_multipliers(params: ProblemParams) -> Multipliers:
    """Solve the two moment equations for (lambda1, lambda2) in the dual regime.

    In canonical order p < q, Newton solves log R(z) = log(B/A) for the
    log-odds z of the crossover share a (module docstring; :func:`_newton`)
    from a = 1/2, one log-space pass of the 16-node graded rule per iterate.
    The multipliers follow as a T^(1-p) and (1 - a) T^(1-q), and T is then
    the root of phi(T) = 1 (:func:`find_T`).  The final moments must pass
    the 16- against 8-node quadrature check, else :class:`QuadratureError`.
    Raises :class:`SolverError` if Newton does not converge, stalls below
    the rule or meets a non-finite value, if a multiplier is out of the
    float range, or if the relative moment residuals exceed 1e-8.
    """
    consts = derive_constants(params)
    regime = classify_regime(params, consts)
    if regime.tag != "Dual":
        raise SolverError(
            f"solve_multipliers requires the dual regime, got {regime.tag} "
            f"at B/A = {params.ratio:.6g}"
        )
    return _solve(params, consts)[0]


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
    takes the bound in closed form from its last pass (:func:`_solve`),
    with no further quadrature.
    """
    start = time.perf_counter()
    consts = derive_constants(params)
    regime = classify_regime(params, consts)

    if regime.tag == "Dual":
        m, bound, residual_p, residual_q = _solve(params, consts)
        lam1, lam2, T = m.lambda1, m.lambda2, m.T
    else:
        side = "P" if regime.tag == "SingleP" else "Q"
        single, seed = _single_solution(params, consts, side)
        bound, T = single.bound, None
        lam1, lam2, residual_p, residual_q = (seed, 0.0, 0.0, None) if side == "P" else (0.0, seed, None, 0.0)

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
