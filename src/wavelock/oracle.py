"""Brute-force discrete solver for the constrained profile problem.

Maximizes sum_i G(v_i) dt_i over v >= 0 subject to the two discrete
moment constraints p sum t^(p-1) v dt <= A^p and q sum t^(q-1) v dt <= B^q
through the grid's own Lagrangian dual.  The machinery is deliberately
disjoint from the analytic solver: no multiplier equations, no closed
forms of the continuum problem, and constant seeds; the grid ends at the
caller's t_max, or else (:meth:`DiscreteProblem.log_spaced`) at twice the
larger single-constraint support endpoint, from ``derive_constants``.

The Lagrangian separates over the nodes and G - c s has a closed-form
maximiser, so the dual function D(mu) is explicit, convex, two-dimensional
and bounds every feasible objective from above.  Each evaluation is a
value pass over the nodes against rows and prices formed once per problem,
which is all a line-search trial needs; the gradient, Hessian and maximiser
are a second pass, from the arrays the first one kept, formed only at the
points a descent keeps.
Damped Newton in log mu minimises it over the quadrant mu >= 0, with an
active set of the multipliers held at the boundary (Bertsekas 1982), and
each maximiser s(mu) it reaches meets both budgets to within the descent's
residual.  Dividing s by its budget load, when that exceeds 1, makes it
feasible; since G is concave with G(0) = 0, G(s/L) >= G(s)/L, so this
costs at most that residual.  The best of these points is the discrete
answer.  Convergence is certified, not assumed: by the relative gap
between the lowest D and that point's objective.  The same gap ends the
solve early: the seed with the lower D is descended first, and the other
only where that descent leaves the gap open; and it ends each descent at the
first point, among those where D is flat to rounding, that it certifies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FOUR_PI, OracleError, ProblemParams, derive_constants, g_eval


_T_MIN_FACTOR = 1e-6  # the grid's first node, relative to t_max
_GAP_TOL = 1e-6  # relative duality gap that certifies convergence
_ARMIJO = 1e-4  # sufficient-decrease fraction of a dual Newton step
_HALVINGS = 60  # backtracking halvings before a dual descent gives up
_MAX_LOG_STEP = 40.0  # no trial step moves a multiplier by more than e^40
_EXPAND = 0.9  # a first trial that shrinks a multiplier by e^0.9 or more doubles t
_COLLAPSE = 1e-30  # share of mu . caps below which a multiplier is frozen
_ROUNDOFF = 64.0 * np.finfo(float).eps  # rounding of D relative to its terms

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DiscreteProblem:
    """A log-spaced grid, its quadrature weights and the two budgets."""

    params: ProblemParams
    t: np.ndarray
    dt: np.ndarray
    budget_p: float
    budget_q: float

    def __post_init__(self):
        if self.t.size < 100:
            raise ValueError("grid needs at least 100 nodes")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(self.dt > 0):
            raise ValueError("grid weights must be positive")

    @classmethod
    def log_spaced(
        cls,
        params: ProblemParams,
        t_max: float | None = None,
        n: int = 2000,
    ) -> "DiscreteProblem":
        """Build a geometric grid on (0, t_max].

        Without an explicit t_max the single-constraint support endpoints
        seed it (doubled); callers who know the analytic endpoint should
        pass 2x that value.  The grid starts at t_min = 1e-6 t_max.  The
        mass omitted below t_min is bounded by t_min for the objective
        (G < 1) and by the vanishing integrands t^(e-1) u for the
        constraints, both negligible.  Raises OracleError where that seed or
        t_max is out of the float range.
        """
        if t_max is None:
            c = derive_constants(params)
            try:
                T_p = params.A * (FOUR_PI * c.sigma_p) ** (-1.0 / params.p)
                T_q = params.B * (FOUR_PI * c.sigma_q) ** (-1.0 / params.q)
            except OverflowError as exc:
                raise OracleError(
                    "a single-constraint support endpoint (4 pi sigma)^(-1/e) exceeds the float "
                    f"range (sigma_p = {c.sigma_p!r}, sigma_q = {c.sigma_q!r})"
                ) from exc
            t_max = 2.0 * max(T_p, T_q)
        if not t_max < math.inf:
            raise OracleError(f"the grid's end t_max = {t_max!r} is out of the float range")
        t = np.geomspace(_T_MIN_FACTOR * t_max, t_max, n)
        edges = np.empty(n + 1)
        edges[1:-1] = 0.5 * (t[1:] + t[:-1])
        edges[0] = 0.0
        edges[-1] = t[-1] + 0.5 * (t[-1] - t[-2])
        dt = np.diff(edges)
        return cls(
            params=params,
            t=t,
            dt=dt,
            budget_p=params.A**params.p,
            budget_q=params.B**params.q,
        )

    def moment_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Constraint rows a, b with a . v <= A^p and b . v <= B^q."""
        p, q = self.params.p, self.params.q
        a = p * self.t ** (p - 1.0) * self.dt
        b = q * self.t ** (q - 1.0) * self.dt
        return a, b


@dataclass
class DiscreteSolution:
    """Feasible near-maximizer of the discrete problem."""

    v: np.ndarray
    objective: float
    residual_p: float
    residual_q: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _dual_terms(prob: DiscreteProblem) -> tuple:
    """The arguments of ``_dual`` after mu, formed once per problem: the
    stacked rows (a, b), their prices rows/(dt G'(0)), dt, the budgets and beta.

    Raises OracleError where a row underflows to 0 at a node: no multiplier
    prices that node, and s(mu) there would be infinite.
    """
    beta = prob.params.beta
    rows = np.stack(prob.moment_vectors())
    for name, row in zip("pq", rows):
        under = ~(row > 0.0)
        if under.any():
            raise OracleError(
                f"moment row {name} underflows to 0 at {np.count_nonzero(under)} of {row.size} "
                f"grid nodes, up to t = {prob.t[under].max():.3e}; the dual cannot price them"
            )
    prices = rows / (prob.dt * (2.0 * beta / FOUR_PI))  # G'(0) = 2 beta/4pi
    return rows, prices, prob.dt, np.array([prob.budget_p, prob.budget_q]), beta


def _dual_value(mu, prices: np.ndarray, dt: np.ndarray, caps: np.ndarray, beta: float) -> tuple:
    """The value pass: D(mu), and the arrays rho, r, x and x - 1 that ``_dual``
    forms its derivatives from.

    ``prices`` is rows/(dt G'(0)), from ``_dual_terms``.  D(mu) = sum_i dt_i
    [G(s_i) - c_i s_i] + mu . caps with c_i = (mu1 a_i + mu2 b_i)/dt_i, where
    s_i maximises G(s) - c_i s over s >= 0.  With rho_i = mu . prices_i =
    c_i/G'(0), r_i = min(rho_i, 1) and x_i = r_i^(-1/(2 beta+1)) that
    maximiser is s_i = 4pi (x_i - 1), exactly 0 where r_i = 1, and the bracket
    collapses to 1 - r_i x_i - 2 beta r_i (x_i - 1), which stays finite as
    r_i -> 0 and is exactly 0 at r_i = 1.  So the pass runs over all nodes.
    Requires mu != 0.  Where mu . prices underflows to 0, D and every array
    are nan.
    """
    rho = np.dot(mu, prices)  # c/G'(0)
    if not rho[0] > 0.0:  # the prices e t^(e-1)/G'(0) rise with t: node 0 underflows first
        rho *= math.nan
        return math.nan, rho, rho, rho, rho
    r = np.minimum(rho, 1.0)
    x = r ** (-1.0 / (2.0 * beta + 1.0))
    x_1 = x - 1.0
    bracket = r * x  # 1 - r x - 2 beta r (x - 1), in place and in that order
    np.subtract(1.0, bracket, out=bracket)
    paid = (2.0 * beta) * r
    paid *= x_1
    bracket -= paid
    value = float(dt @ bracket)
    value += float(mu[0] * caps[0] + mu[1] * caps[1])
    return value, rho, r, x, x_1


def _dual(
    mu, rows: np.ndarray, prices: np.ndarray, dt: np.ndarray, caps: np.ndarray, beta: float, kept=None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Lagrangian dual D(mu), its gradient and Hessian, and the maximiser s(mu).

    ``rows`` stacks the constraint rows a, b and ``prices`` is rows/(dt G'(0)),
    both from ``_dual_terms``.  ``kept`` is the value pass at mu
    (``_dual_value``); where it is not given, the value pass runs here.  The
    derivative pass forms s = 4pi (x - 1), the gradient caps - rows s in one
    matrix-vector product and the Hessian in one product with the 2 x n rows,
    masking out the nodes where r = 1.  Every value is nan where D is.
    """
    value, rho, r, x, x_1 = _dual_value(mu, prices, dt, caps, beta) if kept is None else kept
    s = FOUR_PI * x_1
    grad = caps - rows @ s
    k = (FOUR_PI / (2.0 * beta + 1.0)) * x
    k[r == 1.0] = 0.0
    # x/rho overflows where rho underflows; prices/rho = rows/(mu . rows) <= 1/mu.
    weights = prices / rho
    weights *= k
    hess = weights @ rows.T
    return value, grad, hess, s


def _advance(m: float, d: float, t: float) -> float:
    """A multiplier a step t along d: m exp(t d/m) when m > 0, max(t d, 0) when m = 0.

    A positive multiplier moves multiplicatively, with velocity d at t = 0,
    so it never crosses zero however far the line search reaches; a zero
    multiplier opens linearly and is clamped at zero.
    """
    return m * math.exp(t * d / m) if m > 0.0 else max(t * d, 0.0)


def _log_newton(m1, m2, g1, g2, h11, h12, h22):
    """Newton's step in eta = log mu for the positive multipliers, as a velocity in mu.

    Its gradient is mu g and its Hessian diag(mu) H diag(mu) + diag(mu g),
    with the diag(mu g) term clipped at 0, so the step descends wherever H
    is positive definite; a zero multiplier stays linear.  Returns None
    where the clipped Hessian is not positive definite.
    """
    s1, s2 = (m if m > 0.0 else 1.0 for m in (m1, m2))
    e1, e2 = s1 * g1, s2 * g2
    k11, k22 = s1 * s1 * h11 + max(e1, 0.0), s2 * s2 * h22 + max(e2, 0.0)
    k12 = s1 * s2 * h12
    det = k11 * k22 - k12 * k12
    if not (k11 > 0.0 and det > 0.0):
        return None
    return s1 * (k12 * e2 - k22 * e1) / det, s2 * (k12 * e1 - k11 * e2) / det


def _descend(mu: tuple, dual, derive, caps: np.ndarray, max_steps: int, point: tuple, certified):
    """Damped Newton descent of the convex dual over the quadrant mu >= 0.

    Every step is Newton's step in eta = log mu (``_log_newton``) on Python
    floats, over the free multipliers: a held one gets the identity for its
    Hessian row and 0 for its gradient.  A multiplier is held where it is 0
    and its constraint holds (gradient >= 0), and for the rest of the
    descent once its share of mu . caps collapses below 1e-30: the optimum
    then lies within rounding of the other face, and it is frozen where it
    is, since zeroing it would re-price the deep nodes.  Newton's method is
    affine-invariant, so a step in eta suits the path ``_advance`` moves a
    positive multiplier along (Boyd & Vandenberghe 2004, section 9.5).  The
    first trial is capped so that no multiplier moves by more than e^40,
    then backtracked by Armijo over a fixed number of halvings rather than
    down to a floor on the step: far from the optimum the quadratic model
    of D overshoots by many orders of magnitude, and the capped first trial
    can already be below 1e-12; a trial where D is not finite ends the
    descent.  Where the first trial passes and shrinks a positive
    multiplier by e^0.9 or more, near the model's limit of one e-fold per
    step, t doubles up to the cap while D keeps falling.  Once the
    predicted decrease is below the rounding of D, the descent ends where
    ``certified(point)`` holds, and otherwise takes a full step while the
    relative moment residual of the free multipliers keeps falling.
    A trial is priced by D alone: ``dual(mu)`` is the value pass
    (``_dual_value``), and ``derive(mu, trial)`` forms the gradient, Hessian
    and maximiser from it (``_dual``) only at the point a step keeps, and at
    the trial whose residual the rounding branch reads.  Returns the final
    multipliers, the dual there (value, gradient, Hessian, maximiser) and
    the steps taken.  ``point`` is the dual at ``mu``, the seed's.
    """
    (c1, c2), frozen1, frozen2 = caps.tolist(), False, False

    def residual(grad):
        return max(abs(grad[0]) / c1 if f1 else 0.0, abs(grad[1]) / c2 if f2 else 0.0)

    for step in range(max_steps):
        (m1, m2), (value, grad, hess, _) = mu, point
        (h11, h12), (_, h22) = hess.tolist()
        g1, g2 = grad.tolist()
        f1 = not (frozen1 or (m1 == 0.0 and g1 >= 0.0))
        f2 = not (frozen2 or (m2 == 0.0 and g2 >= 0.0))
        g1, g2, h12 = g1 if f1 else 0.0, g2 if f2 else 0.0, h12 if f1 and f2 else 0.0
        h11, h22 = h11 if f1 else 1.0, h22 if f2 else 1.0
        direction = _log_newton(m1, m2, g1, g2, h11, h12, h22)
        if direction is None:
            return mu, point, step
        d1, d2 = direction
        moving = [(m, d) for m, d in ((m1, d1), (m2, d2)) if m > 0.0 and d != 0.0]
        cap = min((_MAX_LOG_STEP * m / abs(d) for m, d in moving), default=math.inf)
        t = min(1.0, cap)
        slope = g1 * d1 + g2 * d2
        if -slope <= _ROUNDOFF * (abs(value) + m1 * c1 + m2 * c2):
            if certified(point):
                return mu, point, step
            trial_mu = (_advance(m1, d1, t), _advance(m2, d2, t))
            trial = derive(trial_mu, dual(trial_mu))
            if not residual(trial[1]) < residual(grad):
                return mu, point, step
        else:
            for halving in range(_HALVINGS):
                trial_mu = (_advance(m1, d1, t), _advance(m2, d2, t))
                trial = dual(trial_mu)
                if not math.isfinite(trial[0]):
                    return mu, point, step
                if trial[0] <= value + _ARMIJO * t * slope:
                    break
                t *= 0.5
            else:
                return mu, point, step
            expand = halving == 0 and any(t * d <= -_EXPAND * m for m, d in moving)
            while expand and t < cap:
                t = min(2.0 * t, cap)
                ahead_mu = (_advance(m1, d1, t), _advance(m2, d2, t))
                ahead = dual(ahead_mu)
                if not ahead[0] < trial[0]:
                    break
                trial_mu, trial = ahead_mu, ahead
            trial = derive(trial_mu, trial)
        mu, point = trial_mu, trial
        collapse = _COLLAPSE * (mu[0] * c1 + mu[1] * c2)
        frozen1 = frozen1 or 0.0 < mu[0] * c1 <= collapse
        frozen2 = frozen2 or 0.0 < mu[1] * c2 <= collapse
    return mu, point, max_steps


def solve_discrete(prob: DiscreteProblem, max_iter: int = 100) -> DiscreteSolution:
    """Maximise the discrete problem through its explicit dual, certified by the gap.

    D(mu) is minimised by one descent over the quadrant (``_descend``) from
    each constant seed, (1, 0) and (0, 1), the seed with the lower D first
    ((1, 0) on a tie); the other runs only where the lowest D and the best
    objective are not yet within rounding (64 eps relative) of each other.
    The same test ends a descent early: once its predicted decrease is below
    the rounding of D, it stops at the first point whose own D and scaled
    objective pass it; diagnostics["gap_checks"] counts these tests.
    The lowest D reached bounds every feasible objective from above; the
    primal answer is the best of the maximisers s(mu) the descents end at,
    each divided by its budget load max(a.s/A^p, b.s/B^q) when that exceeds
    1.  Taking the two separately matters where D is flat in a multiplier
    near zero.  ``converged`` means certified: (D - obj)/obj <= 1e-6.
    ``max_iter`` caps the Newton steps of each descent; ``iterations`` counts
    the steps of all of them, and diagnostics["dual_evaluations"] the
    evaluations of D, the two seeds and line-search and expansion trials
    included.  Each of those is a value pass (``_dual_value``); only a seed
    a descent starts from, a point a step keeps and a trial whose residual
    is read get the derivative pass (``_dual``) as well, and
    diagnostics["derivative_evaluations"] counts these.  A point's scaled
    maximiser and objective are formed once, whether the gap test or the
    answer reads them first.  The rows, their prices and the budgets are
    formed once (``_dual_terms``), which raises OracleError where a row
    underflows to 0; so does a solve whose best objective is nan (every
    descent) or 0.0.
    diagnostics["descents"] lists each descent in run order as (seed,
    Newton steps).  One DEBUG record on the ``wavelock.oracle`` logger gives
    the descents, the dual evaluations, those with derivatives, the gap
    checks and the relative gap.
    """
    terms = _dual_terms(prob)
    rows, prices, dt, caps, beta = terms
    evaluations = derivatives = gap_checks = 0
    last = None, None  # the point scaled last, and its scaled maximiser and objective

    def dual(m):
        nonlocal evaluations
        evaluations += 1
        return _dual_value(m, prices, dt, caps, beta)

    def derive(m, kept):
        nonlocal derivatives
        derivatives += 1
        return _dual(m, *terms, kept)

    def scaled(point):
        """The maximiser s(mu) at a point of the dual, divided by its budget
        load where that exceeds 1, and its objective; formed once per point."""
        nonlocal last
        if last[0] is not point:
            s = point[3]
            load = float(np.max(rows @ s / caps))
            z = s / load if load > 1.0 else s
            last = point, (z, float(g_eval(z, beta) @ dt))
        return last[1]

    def certified(point):
        nonlocal gap_checks
        gap_checks += 1
        obj_z = scaled(point)[1]
        return point[0] - obj_z <= _ROUNDOFF * obj_z

    seeds = ((1.0, 0.0), (0.0, 1.0))
    starts = [dual(seed) for seed in seeds]
    descents, obj = [], -np.inf
    for i in sorted((0, 1), key=lambda i: starts[i][0]):  # stable: (1, 0) first on a tie
        start = derive(seeds[i], starts[i])
        mu, point, steps = _descend(seeds[i], dual, derive, caps, max_iter, start, certified)
        descents.append((seeds[i], steps))
        if len(descents) == 1 or point[0] < dual_value:
            mu_dual, dual_value = mu, point[0]
        z, obj_z = scaled(point)
        if obj_z > obj:
            v, obj = z, obj_z
        if dual_value - obj <= _ROUNDOFF * obj:
            break
    if obj == -np.inf:
        raise OracleError(
            f"every descent ends at a nan objective; {np.count_nonzero(~np.isfinite(prices))} of "
            f"{prices.size} prices rows/(dt G'(0)) are not finite"
        )
    if obj == 0.0:
        raise OracleError(f"the best objective is 0.0 (v = 0) against a dual value of {dual_value:.3e}")

    # D(mu) + mu . (a.v - caps)^+ >= obj(v) for every v >= 0: the excess
    # term absorbs the rounding that can leave the scaled point an ulp over
    # a budget.
    used = rows @ v
    excess = np.maximum(used - caps, 0.0)
    gap = (dual_value - obj) / max(obj, 1e-300)
    _log.debug(
        "discrete dual solve: descents (seed, Newton steps) %s, %d dual evaluations, %d of them with "
        "derivatives, %d gap checks, relative gap %.3e",
        descents, evaluations, derivatives, gap_checks, gap,
    )
    if gap + float(np.dot(mu_dual, excess)) / max(obj, 1e-300) < -1e-12:
        raise OracleError(f"weak duality violated: relative gap {gap:.3e}")

    res_p, res_q = ((used - caps) / caps).tolist()
    tail = v[int(0.95 * v.size):]
    diagnostics = {
        "support_truncated": bool(np.max(tail) > 1e-8 * max(np.max(v), 1e-300)),
        "duality_gap": gap,
        "dual_value": dual_value,
        "dual_multipliers": mu_dual,
        "dual_evaluations": evaluations,
        "derivative_evaluations": derivatives,
        "gap_checks": gap_checks,
        "descents": descents,
    }
    return DiscreteSolution(
        v=v,
        objective=obj,
        residual_p=res_p,
        residual_q=res_q,
        iterations=sum(steps for _, steps in descents),
        converged=gap <= _GAP_TOL,
        diagnostics=diagnostics,
    )


def run_oracle(
    params: ProblemParams,
    t_max: float | None = None,
    n: int = 2000,
    max_iter: int = 100,
) -> tuple[DiscreteProblem, DiscreteSolution]:
    """Solve on one log grid; OracleError where the solution's support looks
    truncated (above 1e-8 of its peak in the grid's last 5 %)."""
    prob = DiscreteProblem.log_spaced(params, t_max=t_max, n=n)
    sol = solve_discrete(prob, max_iter=max_iter)
    if sol.diagnostics["support_truncated"]:
        raise OracleError(f"the grid's end t_max = {prob.t[-1]:.6g} is too short for the solution's support")
    return prob, sol
