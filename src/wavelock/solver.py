"""Dual-constraint solver: multipliers, moments and the bound integral.

In the dual regime the extremal distribution function is

    u(t) = 4 pi max{ phi(t)^(-1/(2 beta + 1)) - 1, 0 },
    phi(t) = l1 t^(p-1) + l2 t^(q-1),

supported on (0, T] with T the unique root of phi(T) = 1.  The
multipliers are pinned by the two moment equations M_P = A^p and
M_Q = B^q, with M_e = e int t^(e-1) u dt.  These are the stationarity
conditions of the convex Lagrangian dual

    D(l) = int_0^T [(4 pi/(2 beta)) (1 - phi^gamma) - u phi] dt
           + l1 A^p/p + l2 B^q/q,            gamma = 2 beta/(2 beta + 1),

whose gradient is ((A^p - M_P)/p, (B^q - M_Q)/q) and whose Hessian
H_ij = int t^(e_i-1) t^(e_j-1) (-du/dphi) dt is a positive definite 2x2
moment matrix; no boundary term appears because u(T) = 0.
:func:`solve_multipliers` minimises D by damped Newton, with one fused
quadrature pass per iterate giving D, both moments and H.
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


_DUAL_ROUNDOFF = 64.0 * np.finfo(float).eps
_NEWTON_MAX = 50
_NEWTON_RTOL = 1e-15  # residual at which Newton stops; the gate below is looser
_RESIDUAL_GATE = 1e-8
_ARMIJO = 1e-4
_FLOOR = 0.1  # a step cuts a coordinate linearly down to this fraction of it


class _DualPoint(NamedTuple):
    """The dual D and its derivatives at one multiplier pair."""

    lam: np.ndarray
    T: float
    value: float
    roundoff: float  # size of the rounding error in value
    moments: np.ndarray  # (M_P, M_Q)
    grad: np.ndarray
    hess: np.ndarray


class _Dual:
    """D, its gradient and its Hessian on the 16-node graded Gauss rule.

    The rule's nodes scale with T, so the powers t^(e-1) are taken once on
    the unit rule and every evaluation is one vectorized pass over the
    nodes.  Since phi^gamma = phi * phi^(-1/(2 beta + 1)), one fractional
    power per node serves u, D and the Hessian.
    """

    def __init__(self, params: ProblemParams):
        self.params = params
        self.e = np.array([params.p, params.q])
        self.budget = np.array([params.A**params.p, params.B**params.q])
        self.c = 1.0 / (2.0 * params.beta + 1.0)
        self.gain = FOUR_PI / (2.0 * params.beta)
        # As l1 -> 0 (canonical order) the moments move like l1^kappa,
        # kappa = (p - (q-1)/(2 beta + 1))/(q - p): the l1 term matters only
        # for t below (l1/l2)^(1/(q-p)).  Below 1 that is singular in l1 and
        # regular in l1^kappa, the coordinate _advance steps in.
        lead = params.p - (params.q - 1.0) * self.c
        kappa = lead / (params.q - params.p) if lead > 0.0 else 1.0
        self.kappa = np.array([min(kappa, 1.0), 1.0])
        x, self.w = _graded_rule(_PANELS, 16)
        self.powers = x[None, :] ** (self.e[:, None] - 1.0)

    def __call__(self, lam: np.ndarray) -> _DualPoint:
        T = find_T(lam[0], lam[1], self.params)
        Te = T ** (self.e - 1.0)
        # D = gain - spent + paid, the three terms of the module docstring.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi = (lam * Te) @ self.powers
            s = phi ** (-self.c)  # 1 + u/(4 pi)
            wu = self.w * (FOUR_PI * np.maximum(s - 1.0, 0.0))
            moments = self.e * T * Te * (self.powers @ wu)
            gain = self.gain * T * (self.w @ (1.0 - phi * s))
            spent = T * (wu @ phi)
            paid = lam @ (self.budget / self.e)
            kern = self.w * (FOUR_PI * self.c) * s / phi  # -du/dphi
            hess = T * np.outer(Te, Te) * ((self.powers * kern) @ self.powers.T)
        return _DualPoint(
            lam=lam,
            T=T,
            value=gain - spent + paid,
            roundoff=_DUAL_ROUNDOFF * (abs(gain) + abs(spent) + abs(paid)),
            moments=moments,
            grad=(self.budget - moments) / self.e,
            hess=hess,
        )

    def residuals(self, point: _DualPoint) -> np.ndarray:
        """Relative moment residuals |M - budget|/budget."""
        return np.abs(point.moments - self.budget) / self.budget


def _advance(lam: np.ndarray, d: np.ndarray, t: float, kappa: np.ndarray) -> np.ndarray:
    """Multipliers a step t along the Newton direction d, kept positive.

    Each multiplier moves in the coordinate w = lam^kappa, by the
    first-order change r w with r = kappa t d/lam.  Growth is a step in
    log w (w e^r), since the moments fall like powers of the multipliers.
    A cut is linear (w (1 + r)) while it keeps w above _FLOOR of its
    value and exponential beyond, so a multiplier can fall by many
    orders of magnitude in one step without changing sign.  The path is
    C1 with velocity d at t = 0, so the slope of D along it is grad . d.
    A multiplier that is exactly zero (the single-constraint start)
    moves linearly.
    """
    out = lam + t * d
    moved = lam > 0.0
    r = kappa[moved] * t * d[moved] / lam[moved]  # first-order relative change of w
    log_grow = np.where(r > 0.0, r, np.log1p(np.maximum(r, _FLOOR - 1.0)))
    past = r < _FLOOR - 1.0
    log_grow[past] = math.log(_FLOOR) + (r[past] - _FLOOR + 1.0) / _FLOOR
    # No single step needs to grow a multiplier by more than e^40; the cap
    # keeps a wild trial step finite for the line search to reject.
    out[moved] = lam[moved] * np.exp(np.minimum(log_grow / kappa[moved], 40.0))
    return out


def _newton(dual: _Dual, lam: np.ndarray) -> tuple[_DualPoint, int, int]:
    """Minimise D from ``lam`` by damped Newton with Armijo backtracking.

    D itself is the merit function.  Once the predicted decrease (half
    the squared Newton decrement) falls below the rounding of D, Armijo
    cannot tell a good step from a bad one, so full Newton steps are
    taken while they keep lowering the residuals.  Returns the final
    point, the iteration count and the number of trial evaluations.
    """
    point = dual(lam)
    evaluations = 0
    for iteration in range(_NEWTON_MAX):
        if not (np.isfinite(point.value) and np.isfinite(point.hess).all()):
            raise SolverError(
                f"non-finite dual at lambda = {point.lam.tolist()!r}, T = {point.T!r}"
            )
        res = dual.residuals(point).max()
        if res <= _NEWTON_RTOL:
            return point, iteration, evaluations
        (h11, h12), (_, h22) = point.hess
        g1, g2 = point.grad
        det = h11 * h22 - h12 * h12
        if not det > 0.0:
            raise SolverError(f"singular dual Hessian at lambda = {point.lam.tolist()!r}")
        d = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det
        if np.any(d[point.lam == 0.0] <= 0.0):
            raise SolverError(
                f"dual Newton cannot move off lambda = {point.lam.tolist()!r}: a multiplier "
                "is zero (underflow, or B/A on a threshold)"
            )
        slope = point.grad @ d
        if -slope <= point.roundoff:
            trial = dual(_advance(point.lam, d, 1.0, dual.kappa))
            evaluations += 1
            if not dual.residuals(trial).max() < res:
                return point, iteration, evaluations
        else:
            t = 1.0
            while True:
                trial = dual(_advance(point.lam, d, t, dual.kappa))
                evaluations += 1
                if trial.value <= point.value + _ARMIJO * t * slope:
                    break
                t *= 0.5
                if t < 1e-12:
                    raise SolverError(
                        f"line search found no decrease of the dual at "
                        f"lambda = {point.lam.tolist()!r} (residual {res:.3e})"
                    )
        point = trial
    raise SolverError(
        f"dual Newton did not converge in {_NEWTON_MAX} iterations: "
        f"lambda = {point.lam.tolist()!r}, residual {dual.residuals(point).max():.3e}"
    )


def _start(work: ProblemParams, sigma_p: float) -> np.ndarray:
    """The p-constraint solution (lambda2 = 0), where Newton starts.

    lambda1 matches A^p in closed form (``sigma_p`` belongs to work's p),
    and in canonical order (p < q) the q-moment is finite there, so D is
    smooth at this start; the first Newton step opens lambda2.  The lambda1 = 0 end is no start: when
    kappa < 1 the curvature of D in lambda1 is infinite there.
    """
    T_p = work.A * (FOUR_PI * sigma_p) ** (-1.0 / work.p)
    return np.array([T_p ** (-(work.p - 1.0)), 0.0])


def _solve(params: ProblemParams, consts: DerivedConstants) -> tuple[Multipliers, float, float]:
    """The dual solve of an instance classified Dual, with its constants:
    multipliers and the relative residuals (P, Q) of params."""
    work, swapped = canonical_order(params)
    dual = _Dual(work)
    sigma_p = consts.sigma_q if swapped else consts.sigma_p
    point, iterations, evaluations = _newton(dual, _start(work, sigma_p))
    _log.debug(
        "dual solve: %d Newton iterations, %d line-search evaluations, "
        "relative residuals %.2e %.2e",
        iterations, evaluations, *dual.residuals(point),
    )
    m = Multipliers(*(float(v) for v in point.lam), T=point.T)
    # The quadrature-checked moments (16 against 8 nodes) certify the result.
    res_p = abs(moment(m, work, "P") - work.A**work.p) / work.A**work.p
    res_q = abs(moment(m, work, "Q") - work.B**work.q) / work.B**work.q
    if not max(res_p, res_q) <= _RESIDUAL_GATE:
        raise SolverError(
            f"moment residuals {res_p:.3e}, {res_q:.3e} exceed {_RESIDUAL_GATE:g} "
            f"(lambda1={m.lambda1!r}, lambda2={m.lambda2!r}, T={m.T!r})"
        )
    if swapped:
        return Multipliers(lambda1=m.lambda2, lambda2=m.lambda1, T=m.T), res_q, res_p
    return m, res_p, res_q


def solve_multipliers(
    params: ProblemParams, consts: DerivedConstants | None = None
) -> Multipliers:
    """Solve the two moment equations for (lambda1, lambda2) in the dual regime.

    Damped Newton on the convex Lagrangian dual D (see the module
    docstring), in canonical order p < q and started from the
    p-constraint solution (lambda2 = 0), with D as the merit function and
    Armijo backtracking.  Each iterate costs one fused pass of the
    16-node graded rule.  The final moments must pass the 16- against
    8-node quadrature check, else :class:`QuadratureError`.  Raises
    :class:`SolverError` if Newton does not converge, meets a non-finite
    iterate, or ends with relative moment residuals above 1e-8.
    ``consts``, the derived constants of ``params``, saves recomputing them.
    """
    if consts is None:
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
        T = self.T if self.T is not None else find_T(self.lambda1, self.lambda2, self.params)
        return Multipliers(self.lambda1, self.lambda2, T)


def compute_bound(params: ProblemParams) -> BoundReport:
    """Classify the instance and evaluate the sharp bound for its regime.

    Single regimes use the closed form with the inactive multiplier
    recorded as exactly zero; the dual regime runs the Newton solve of
    the multipliers, whose checked moments give the residuals, and the
    bound integral.
    """
    start = time.perf_counter()
    consts = derive_constants(params)
    regime = classify_regime(params, consts)

    if regime.tag == "Dual":
        m, residual_p, residual_q = _solve(params, consts)
        bound = bound_integral(m, params)
        lam1, lam2, T = m.lambda1, m.lambda2, m.T
    else:
        side = "P" if regime.tag == "SingleP" else "Q"
        single = closed_form.single_bound(params, consts, side)
        bound = single.bound
        e = params.p if side == "P" else params.q
        log_seed = -(e - 1.0) * math.log(single.lam)
        if not _LOG_FLOAT_MIN <= log_seed < _LOG_FLOAT_MAX:
            raise SolverError(
                f"the single-regime multiplier lam^-(e-1) = exp({log_seed:.6g}) "
                "is out of the float range"
            )
        seed = single.lam ** (-(e - 1.0))
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
