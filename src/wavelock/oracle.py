"""Brute-force discrete solver for the constrained profile problem.

Maximizes sum_i G(v_i) dt_i over v >= 0 subject to the two discrete
moment constraints p sum t^(p-1) v dt <= A^p and q sum t^(q-1) v dt <= B^q
through the grid's own Lagrangian dual.  The machinery is deliberately
disjoint from the analytic solver: no multiplier equations, no support
endpoint, no closed forms of the continuum problem, and constant seeds.

The Lagrangian separates over the nodes and G - c s has a closed-form
maximiser, so the dual function D(mu) is explicit, convex, two-dimensional
and bounds every feasible objective from above; each evaluation is one
pass over the nodes against rows and prices formed once per problem.
Damped Newton minimises it, stepping in log mu where the step in mu would
leave the quadrant, and each maximiser s(mu) it reaches meets both budgets
to within the descent's residual.  Dividing s by its budget load, when
that exceeds 1, makes it feasible; since G is concave with G(0) = 0,
G(s/L) >= G(s)/L, so this costs at most that residual.  The best of these
points is the discrete answer.  Convergence is certified, not assumed: by
the relative gap between the lowest D and that point's objective.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import FOUR_PI, OracleError, ProblemParams, _write_columns, derive_constants, g_eval


_T_MIN_FACTOR = 1e-6  # the grid's first node, relative to t_max
_GAP_TOL = 1e-6  # relative duality gap that certifies convergence
_ARMIJO = 1e-4  # sufficient-decrease fraction of a dual Newton step
_HALVINGS = 60  # backtracking halvings before a dual descent gives up
_MAX_LOG_STEP = 40.0  # no trial step moves a multiplier by more than e^40
_COLLAPSE = 1e-30  # share of mu . caps below which a multiplier has collapsed to 0
_ROUNDOFF = 64.0 * np.finfo(float).eps  # rounding of D relative to its terms
_MAX_EXPANSIONS = 3  # doublings of t_max while the support looks truncated
_MONOTONE_TOL = 1e-6  # relative adjacent-node increase accepted as noise

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
        constraints, both negligible.
        """
        if t_max is None:
            c = derive_constants(params)
            T_p = params.A * (FOUR_PI * c.sigma_p) ** (-1.0 / params.p)
            T_q = params.B * (FOUR_PI * c.sigma_q) ** (-1.0 / params.q)
            t_max = 2.0 * max(T_p, T_q)
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


def _dual(
    mu, rows: np.ndarray, prices: np.ndarray, dt: np.ndarray, caps: np.ndarray, beta: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Lagrangian dual D(mu), its gradient and Hessian, and the maximiser s(mu).

    ``rows`` stacks the constraint rows a, b and ``prices`` is rows/(dt G'(0)),
    both from ``_dual_terms``.  D(mu) = sum_i dt_i [G(s_i) - c_i s_i]
    + mu . caps with c_i = (mu1 a_i + mu2 b_i)/dt_i, where s_i maximises
    G(s) - c_i s over s >= 0.  With r_i = min(mu . prices_i, 1) =
    min(c_i/G'(0), 1) and x_i = r_i^(-1/(2 beta+1)) that maximiser is
    s_i = 4pi (x_i - 1), exactly 0 where r_i = 1, and the bracket collapses to
    1 - r_i x_i - 2 beta r_i (x_i - 1), which stays finite as r_i -> 0 and is
    exactly 0 at r_i = 1.  So every pass runs over all nodes, and only the
    Hessian masks out r_i = 1.  The gradient caps - rows s is one
    matrix-vector product and the Hessian one product with the 2 x n rows.
    Requires mu != 0.  Where mu . prices underflows to 0, every value is nan.
    """
    rho = np.dot(mu, prices)  # c/G'(0)
    if not rho[0] > 0.0:  # the prices e t^(e-1)/G'(0) rise with t: node 0 underflows first
        return math.nan, caps * math.nan, np.full((2, 2), math.nan), rho * math.nan
    r = np.minimum(rho, 1.0)
    x = r ** (-1.0 / (2.0 * beta + 1.0))
    s = FOUR_PI * (x - 1.0)
    value = float(dt @ (1.0 - r * x - 2.0 * beta * r * (x - 1.0)))
    value += float(mu[0] * caps[0] + mu[1] * caps[1])
    grad = caps - rows @ s
    k = (FOUR_PI / (2.0 * beta + 1.0)) * x
    k[r == 1.0] = 0.0
    # x/rho overflows where rho underflows; prices/rho = rows/(mu . rows) <= 1/mu.
    weights = prices / rho
    weights *= k
    hess = weights @ rows.T
    return value, grad, hess, s


def _advance(m: float, d: float, t: float) -> float:
    """A multiplier a step t along d: m exp(t d/m) when m > 0, m + t d when m = 0.

    A positive multiplier moves multiplicatively, with velocity d at t = 0,
    so it never crosses zero however far the line search reaches; a zero
    multiplier opens linearly.
    """
    return m * math.exp(t * d / m) if m > 0.0 else m + t * d


def _log_newton(m1, m2, g1, g2, h11, h12, h22):
    """Newton's step in eta = log mu for the positive multipliers, as a velocity in mu.

    Its gradient is mu g and its Hessian diag(mu) H diag(mu) + diag(mu g); a
    zero or held multiplier stays linear.  Returns None where that Hessian is
    not positive definite.
    """
    s1, s2 = (m if m > 0.0 else 1.0 for m in (m1, m2))
    e1, e2 = s1 * g1, s2 * g2
    k11 = s1 * s1 * h11 + (e1 if m1 > 0.0 else 0.0)
    k22 = s2 * s2 * h22 + (e2 if m2 > 0.0 else 0.0)
    k12 = s1 * s2 * h12
    det = k11 * k22 - k12 * k12
    if not (k11 > 0.0 and det > 0.0):
        return None
    return s1 * (k12 * e2 - k22 * e1) / det, s2 * (k12 * e1 - k11 * e2) / det


def _descend(mu: tuple, free: tuple, dual, caps: np.ndarray, max_steps: int):
    """Damped Newton descent of the convex dual over the multipliers flagged ``free``.

    The others stay at zero.  The step runs on Python floats: the explicit
    2x2 Newton solve, with the identity in place of a held multiplier's
    Hessian row and 0 for its gradient, which leaves the 1x1 solve on a
    face.  Where that step would carry a positive multiplier to or past zero,
    Newton's step in eta = log mu (``_log_newton``) replaces it: the path
    below already moves those multipliers in eta, and Newton's method is
    affine-invariant, so the step suits the path, whereas a step in mu that
    leaves the quadrant says little about how far to go (Boyd & Vandenberghe
    2004, section 9.5).  Each direction is followed along ``_advance`` with
    the first trial capped so that no multiplier moves by more than e^40,
    then backtracked by Armijo over a fixed number of halvings rather than
    down to a floor on the step: far from the optimum the quadratic model of
    D overshoots by many orders of magnitude, and the capped first trial can
    already be below 1e-12; a trial where D is not finite ends the descent.
    A step in eta whose first trial passes is expanded instead, doubling t
    up to the cap while D keeps falling.  Once the predicted decrease is
    below the rounding of D, full steps are taken while the relative moment
    residual keeps falling.  The descent stops
    when a multiplier's share of mu . caps collapses below 1e-30: the
    optimum then lies within rounding of the face that the other seed
    descends, and further steps would only shrink that multiplier toward
    underflow.  Returns the final multipliers, the dual there (value,
    gradient, Hessian, maximiser) and the steps taken.
    """
    (f1, f2), (c1, c2) = free, caps.tolist()

    def residual(grad):
        return max(abs(grad[0]) / c1 if f1 else 0.0, abs(grad[1]) / c2 if f2 else 0.0)

    point = dual(mu)
    for step in range(max_steps):
        (m1, m2), (value, grad, hess, _) = mu, point
        (h11, h12), (_, h22) = hess.tolist()
        g1, g2 = grad.tolist()
        g1, g2, h12 = g1 if f1 else 0.0, g2 if f2 else 0.0, h12 if f1 and f2 else 0.0
        h11, h22 = h11 if f1 else 1.0, h22 if f2 else 1.0
        det = h11 * h22 - h12 * h12
        log_step = None
        if det > 0.0:
            d1, d2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
            if m1 + d1 <= 0.0 < m1 or m2 + d2 <= 0.0 < m2:
                log_step = _log_newton(m1, m2, g1, g2, h11, h12, h22)
                d1, d2 = log_step or (d1, d2)
        elif not hess.any():  # every node priced out: D = mu . caps
            d1, d2 = -_MAX_LOG_STEP * m1 * f1, -_MAX_LOG_STEP * m2 * f2
        else:
            return mu, point, step
        if (m1 == 0.0 and d1 < 0.0) or (m2 == 0.0 and d2 < 0.0):
            return mu, point, step
        moving = [(m, d) for m, d in ((m1, d1), (m2, d2)) if m > 0.0 and d != 0.0]
        cap = min((_MAX_LOG_STEP * m / abs(d) for m, d in moving), default=math.inf)
        t = min(1.0, cap)
        slope = g1 * d1 + g2 * d2
        if -slope <= _ROUNDOFF * (abs(value) + m1 * c1 + m2 * c2):
            trial_mu = (_advance(m1, d1, t), _advance(m2, d2, t))
            trial = dual(trial_mu)
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
            while log_step and halving == 0 and t < cap:
                t = min(2.0 * t, cap)
                ahead_mu = (_advance(m1, d1, t), _advance(m2, d2, t))
                ahead = dual(ahead_mu)
                if not ahead[0] < trial[0]:
                    break
                trial_mu, trial = ahead_mu, ahead
        mu, point = trial_mu, trial
        collapse = _COLLAPSE * (mu[0] * c1 + mu[1] * c2)
        if (f1 and mu[0] * c1 <= collapse) or (f2 and mu[1] * c2 <= collapse):
            return mu, point, step + 1
    return mu, point, max_steps


def solve_discrete(prob: DiscreteProblem, max_iter: int = 100) -> DiscreteSolution:
    """Maximise the discrete problem through its explicit dual, certified by the gap.

    D(mu) is minimised by damped Newton steps on Python floats from
    constant seeds only: a unit multiplier on each face, first (1, 0) and
    then (0, 1), each descended with the other multiplier held at zero.  A
    face minimiser at which the other constraint holds (its dual gradient is
    >= 0) satisfies the KKT conditions and so minimises D over the whole
    quadrant.  When the other constraint is violated at both, the optimum
    prices both constraints and both descents continue over the two
    multipliers.  The lowest D reached bounds every feasible objective from
    above; the primal answer is the best of the descents' maximisers s(mu),
    each divided by its budget load max(a.s/A^p, b.s/B^q) when that exceeds
    1.  Taking the two separately matters where D is flat in a multiplier
    near zero.  ``converged`` means certified: (D - obj)/obj <= 1e-6.
    ``max_iter`` caps the Newton steps of each descent; ``iterations`` counts
    the steps of all of them, and diagnostics["dual_evaluations"] the
    evaluations of D, line-search and expansion trials included.  The rows,
    their prices and the budgets are formed once (``_dual_terms``), which
    raises OracleError where a row underflows to 0.  One DEBUG record on the
    ``wavelock.oracle`` logger gives the descents, the Newton steps of each,
    the dual evaluations and the relative gap.
    """
    terms = _dual_terms(prob)
    rows, _, dt, caps, beta = terms
    evaluations = 0

    def dual(m):
        nonlocal evaluations
        evaluations += 1
        return _dual(m, *terms)

    descents = [_descend(seed, (seed[0] > 0.0, seed[1] > 0.0), dual, caps, max_iter)
                for seed in ((1.0, 0.0), (0.0, 1.0))]
    if all(point[1][1 - face] < 0.0 for face, (_, point, _) in enumerate(descents)):
        descents += [_descend(mu, (True, True), dual, caps, max_iter) for mu, _, _ in descents]
    newton_steps = [steps for *_, steps in descents]
    mu_dual, (dual_value, *_), _ = min(descents, key=lambda c: c[1][0])
    obj = -np.inf
    for _, (*_, s), _ in descents:
        load = float(np.max(rows @ s / caps))
        z = s / load if load > 1.0 else s
        obj_z = float(g_eval(z, beta) @ dt)
        if obj_z > obj:
            v, obj = z, obj_z

    # D(mu) + mu . (a.v - caps)^+ >= obj(v) for every v >= 0: the excess
    # term absorbs the rounding that can leave the scaled point an ulp over
    # a budget.
    used = rows @ v
    excess = np.maximum(used - caps, 0.0)
    gap = (dual_value - obj) / max(obj, 1e-300)
    _log.debug(
        "discrete dual solve: %d descents, Newton steps %s, %d dual evaluations, relative gap %.3e",
        len(descents), newton_steps, evaluations, gap,
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
    }
    return DiscreteSolution(
        v=v,
        objective=obj,
        residual_p=res_p,
        residual_q=res_q,
        iterations=sum(newton_steps),
        converged=gap <= _GAP_TOL,
        diagnostics=diagnostics,
    )


def run_oracle(
    params: ProblemParams,
    t_max: float | None = None,
    n: int = 2000,
    max_iter: int = 100,
) -> tuple[DiscreteProblem, DiscreteSolution]:
    """Solve on a log grid, doubling t_max (at most 3 times) while the
    support looks truncated."""
    for _ in range(_MAX_EXPANSIONS + 1):
        prob = DiscreteProblem.log_spaced(params, t_max=t_max, n=n)
        sol = solve_discrete(prob, max_iter=max_iter)
        if not sol.diagnostics["support_truncated"]:
            return prob, sol
        t_max = 2.0 * prob.t[-1]
    raise OracleError("grid expansion failed to cover the solution support")


@dataclass(frozen=True)
class MonotoneReport:
    """Outcome of the monotonicity restoration check."""

    max_relative_violation: float
    within: bool


def check_monotone_restoration(sol: DiscreteSolution) -> MonotoneReport:
    """Verify a solution of the unordered problem is already nonincreasing
    up to adjacent-node noise (1e-6 relative).

    The continuous problem's maximizer over the enlarged (unordered) class
    is nonincreasing; this measures how closely the discrete iterate
    reproduces that, relative to the profile's peak.
    """
    v = sol.v
    scale = max(float(np.max(v)), 1e-300)
    viol = float(np.max(np.maximum(v[1:] - v[:-1], 0.0))) / scale
    return MonotoneReport(max_relative_violation=viol, within=viol <= _MONOTONE_TOL)


def export_solution(
    prob: DiscreteProblem, sol: DiscreteSolution, path: str, u_analytic: np.ndarray
) -> None:
    """Write (t, v, u_analytic) rows as CSV."""
    _write_columns(path, ("t", "v", "u_analytic"), prob.t, sol.v, u_analytic)


def truncation_note(prob: DiscreteProblem) -> str:
    """Human-readable bound on the mass omitted below the first grid node."""
    t0 = float(prob.t[0])
    return (
        f"objective mass omitted on (0, {t0:.3e}) is at most {t0:.3e} "
        "(the integrand G(u) is below 1); both constraint integrands vanish "
        "there like t^(e-1-alpha) with a positive exponent"
    )
