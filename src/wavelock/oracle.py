"""Brute-force discrete solver for the constrained profile problem.

Maximizes sum_i G(v_i) dt_i over v >= 0 subject to the two discrete
moment constraints p sum t^(p-1) v dt <= A^p and q sum t^(q-1) v dt <= B^q
by projected gradient ascent on the concave objective.  The machinery is
deliberately disjoint from the analytic solver: no multiplier equations,
no support endpoint, no closed forms; only gradients, Euclidean-style
projections in the grid's natural weighted metric, and the grid's own
Lagrangian dual.

The gradient step uses the diagonal metric induced by the quadrature
weights, under which the curvature of the objective is bounded by the
curvature bound of G alone, so a fixed step of its reciprocal guarantees
monotone ascent.  The feasibility step is the exact metric projection
onto the intersection of the nonnegative cone with the two half-spaces,
computed by a safeguarded active-set Newton iteration on its
two-dimensional dual (with a bisection fallback).

Convergence is certified, not assumed.  The Lagrangian separates over the
nodes and G - c s has a closed-form maximiser, so the dual function D(mu)
of the discrete problem is explicit, convex and bounds every feasible
objective from above.  The ascent stops once D at a numerically
minimised mu is within a relative duality gap of the iterate's
objective; the dual minimiser is seeded only from the ascent's own
projection multipliers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import FOUR_PI, ProblemParams, derive_constants, g_curvature_bound, g_eval, g_prime


class OracleError(RuntimeError):
    """The discrete solve failed to produce a usable feasible point."""


_T_MIN_FACTOR = 1e-6  # the grid's first node, relative to t_max
_GAP_TOL = 1e-6  # relative duality gap that certifies convergence
_CHECK_EVERY = 200  # ascent iterations between dual certifications
_MAX_EXPANSIONS = 3  # doublings of t_max while the support looks truncated
_MONOTONE_TOL = 1e-6  # relative adjacent-node increase accepted as noise


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


def _project_feasible(
    w: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    dt: np.ndarray,
    cap_a: float,
    cap_b: float,
    mu: tuple[float, float],
    tol: float = 1e-12,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Exact dt-metric projection of w onto {v >= 0, a.v <= cap_a, b.v <= cap_b}.

    The projection has the closed parametric form
    v(mu) = max(w - mu1 a/dt - mu2 b/dt, 0) with multipliers mu >= 0 fixed
    by complementarity.  An active-set Newton iteration on the 2x2 dual
    usually lands in one or two steps when warm-started; a monotone
    bisection fallback guards the rare step where it stalls.
    """
    atil = a / dt
    btil = b / dt
    mu1, mu2 = mu

    def point(m1: float, m2: float) -> np.ndarray:
        return np.maximum(w - m1 * atil - m2 * btil, 0.0)

    for _ in range(60):
        x = point(mu1, mu2)
        ra = float(a @ x) - cap_a
        rb = float(b @ x) - cap_b
        ok_a = ra <= tol * cap_a and (mu1 == 0.0 or ra >= -tol * cap_a)
        ok_b = rb <= tol * cap_b and (mu2 == 0.0 or rb >= -tol * cap_b)
        if ok_a and ok_b:
            return x, (mu1, mu2)
        act_a = mu1 > 0.0 or ra > 0.0
        act_b = mu2 > 0.0 or rb > 0.0
        s = x > 0.0
        Maa = float(np.sum(a[s] * atil[s]))
        Mab = float(np.sum(a[s] * btil[s]))
        Mbb = float(np.sum(b[s] * btil[s]))
        if act_a and act_b:
            det = Maa * Mbb - Mab * Mab
            if det > 0.0:
                mu1 = max(mu1 + (Mbb * ra - Mab * rb) / det, 0.0)
                mu2 = max(mu2 + (Maa * rb - Mab * ra) / det, 0.0)
                continue
            # Degenerate Gram matrix on the active set: hand the step to the
            # monotone fallback rather than guessing an active row.
            return _project_bisect(w, a, b, dt, cap_a, cap_b, tol)
        if act_a and not act_b:
            mu2 = 0.0
            mu1 = max(mu1 + ra / Maa, 0.0) if Maa > 0.0 else 0.0
        elif act_b and not act_a:
            mu1 = 0.0
            mu2 = max(mu2 + rb / Mbb, 0.0) if Mbb > 0.0 else 0.0
        else:
            return np.maximum(w, 0.0), (0.0, 0.0)

    return _project_bisect(w, a, b, dt, cap_a, cap_b, tol)


def _project_bisect(w, a, b, dt, cap_a, cap_b, tol):
    """Nested-bisection fallback for the same projection."""
    atil, btil = a / dt, b / dt

    def mu1_for(m2: float) -> float:
        x = np.maximum(w - m2 * btil, 0.0)
        if float(a @ x) <= cap_a:
            return 0.0
        lo, hi = 0.0, 1.0
        while float(a @ np.maximum(w - hi * atil - m2 * btil, 0.0)) > cap_a:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(a @ np.maximum(w - mid * atil - m2 * btil, 0.0)) > cap_a:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def b_gap(m2: float) -> float:
        m1 = mu1_for(m2)
        return float(b @ np.maximum(w - m1 * atil - m2 * btil, 0.0)) - cap_b

    if b_gap(0.0) <= tol * cap_b:
        m1 = mu1_for(0.0)
        return np.maximum(w - m1 * atil, 0.0), (m1, 0.0)
    lo, hi = 0.0, 1.0
    while b_gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e200:
            raise OracleError("projection fallback failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if b_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    m2 = 0.5 * (lo + hi)
    m1 = mu1_for(m2)
    return np.maximum(w - m1 * atil - m2 * btil, 0.0), (m1, m2)


def _dual(
    mu: np.ndarray, a: np.ndarray, b: np.ndarray, dt: np.ndarray, caps: np.ndarray, beta: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Lagrangian dual D(mu), its gradient and Hessian, and the maximiser s(mu).

    D(mu) = sum_i dt_i [G(s_i) - c_i s_i] + mu . caps with
    c_i = (mu1 a_i + mu2 b_i)/dt_i, where s_i maximises G(s) - c_i s over
    s >= 0.  With r_i = c_i/G'(0) and x_i = r_i^(-1/(2 beta+1)) that
    maximiser is s_i = 4pi (x_i - 1) when r_i < 1 and 0 otherwise, and the
    bracket collapses to 1 - (2 beta+1) r_i x_i + 2 beta r_i, which stays
    finite as r_i -> 0.  Requires mu != 0.
    """
    den = mu[0] * a + mu[1] * b
    r = den / (dt * g_prime(0.0, beta))
    on = r < 1.0
    x = r[on] ** (-1.0 / (2.0 * beta + 1.0))
    s = np.zeros_like(r)
    s[on] = FOUR_PI * (x - 1.0)
    value = float(dt[on] @ (1.0 - (2.0 * beta + 1.0) * r[on] * x + 2.0 * beta * r[on]))
    value += float(mu @ caps)
    grad = caps - np.array([a @ s, b @ s])
    rows = np.stack((a[on], b[on]))
    hess = (FOUR_PI / (2.0 * beta + 1.0)) * (rows * (x / den[on])) @ rows.T
    return value, grad, hess, s


def _dual_direction(mu: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimiser of the model grad.d + d.hess.d/2 over mu + d >= 0, and its value.

    The candidates are the free Newton step and the steps that pin one
    multiplier at zero; the zero step is the fallback.
    """
    (h11, h12), (_, h22) = hess
    candidates = []
    if h11 * h22 > h12 * h12:
        candidates.append(-np.linalg.solve(hess, grad))
    if h22 > 0.0:
        candidates.append(np.array([-mu[0], (h12 * mu[0] - grad[1]) / h22]))
    if h11 > 0.0:
        candidates.append(np.array([(h12 * mu[1] - grad[0]) / h11, -mu[1]]))
    best, best_model = np.zeros(2), 0.0
    for d in candidates:
        model = float(grad @ d + 0.5 * d @ hess @ d)
        if np.all(mu + d >= 0.0) and np.any(mu + d > 0.0) and model < best_model:
            best, best_model = d, model
    return best, best_model


def _minimize_dual(mu: np.ndarray, dual, rtol: float = 1e-13, max_steps: int = 50):
    """Projected damped Newton descent on the convex dual over mu >= 0.

    Each step minimises the quadratic model on the feasible quadrant and
    backtracks along it until the Armijo condition holds.  A full step
    that is accepted at once is doubled while D keeps falling: near a zero
    multiplier the curvature of D is steep, and the model then
    underestimates how far that multiplier has to move.  Stops when a
    step lowers D by at most ``rtol`` relative, and returns the final
    multipliers, D there and the dual maximiser s(mu).
    """
    value, grad, hess, s = dual(mu)
    for _ in range(max_steps):
        d, model = _dual_direction(mu, grad, hess)
        if model == 0.0:
            break
        step, best = 1.0, None
        while step > 1e-12:
            trial = np.maximum(mu + step * d, 0.0)
            cand = (trial, *dual(trial))
            if cand[1] <= value + 1e-4 * step * float(grad @ d):
                best = cand
                break
            step *= 0.5
        if best is None:
            break
        while 1.0 <= step < 1e60:
            step *= 2.0
            trial = np.maximum(mu + step * d, 0.0)
            if not trial.any():
                break
            cand = (trial, *dual(trial))
            if cand[1] >= best[1]:
                break
            best = cand
        decrease = value - best[1]
        mu, value, grad, hess, s = best
        if decrease <= rtol * abs(value):
            break
    return mu, value, s


def solve_discrete(prob: DiscreteProblem, max_iter: int = 40000) -> DiscreteSolution:
    """Accelerated projected gradient ascent from v = 0, certified by duality.

    Fixed step equal to the reciprocal curvature bound of the kernel, a
    momentum extrapolation in the feasible direction, and a restart
    whenever the objective dips: the momentum is what lifts the nodes
    deep in the kernel's saturation region (where the gradient decays
    like a high negative power) at a quadratic instead of linear rate.

    Every 200 iterations the explicit Lagrangian dual D(mu) is
    minimised by projected Newton steps, seeded from the projection
    multipliers over the step and then warm-started.  D(mu) bounds every
    feasible objective from above, so the run stops, with ``converged``
    meaning certified, once (D - obj)/obj <= 1e-6 at an ascent iterate.
    When the feasible projection of the dual maximiser s(mu) beats the
    iterate by more than that gap relative, the ascent restarts from it.
    While no constraint has become active the dual step is skipped and
    the gap is reported as infinite.  ``max_iter`` is a safety cap.
    """
    beta = prob.params.beta
    a, b = prob.moment_vectors()
    dt = prob.dt
    caps = np.array([prob.budget_p, prob.budget_q])
    step = 1.0 / g_curvature_bound(beta)

    def dual(m):
        return _dual(m, a, b, dt, caps, beta)

    def project(w, m):
        return _project_feasible(w, a, b, dt, prob.budget_p, prob.budget_q, m)

    def duality_gap(value, m, v, obj):
        # D(m) + m . (a.v - caps)^+ >= obj(v) for every v >= 0: the slack
        # term absorbs the projection's 1e-12 feasibility tolerance.
        excess = np.maximum(np.array([a @ v, b @ v]) - caps, 0.0)
        gap = (value - obj) / max(obj, 1e-300)
        if gap + float(m @ excess) / max(obj, 1e-300) < -1e-12:
            raise OracleError(f"weak duality violated: relative gap {gap:.3e}")
        return gap

    v = np.zeros_like(prob.t)
    v_prev = v
    t_acc = 1.0
    mu = (0.0, 0.0)
    mu_dual = None
    dual_value = gap = np.inf
    obj_last = 0.0
    converged = False
    iterations = max_iter
    for k in range(max_iter):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = np.maximum(v + ((t_acc - 1.0) / t_next) * (v - v_prev), 0.0)
        t_acc = t_next
        v_prev = v
        v, mu = project(y + step * g_prime(y, beta), mu)
        if (k + 1) % _CHECK_EVERY:
            continue
        obj = float(g_eval(v, beta) @ dt)
        if obj < obj_last:
            t_acc = 1.0  # momentum overshoot: restart from the current point
            v_prev = v
        obj_last = obj
        if mu == (0.0, 0.0):
            continue  # no constraint active yet: no finite dual seed
        seed = np.array(mu) / step if mu_dual is None else mu_dual
        mu_dual, dual_value, s = _minimize_dual(seed, dual)
        gap = duality_gap(dual_value, mu_dual, v, obj)
        if gap <= _GAP_TOL:
            converged = True
            iterations = k + 1
            break
        z, _ = project(s, (0.0, 0.0))
        obj_z = float(g_eval(z, beta) @ dt)
        if obj_z > obj + _GAP_TOL * obj:
            v = v_prev = z  # dual restart; certified only after a further window
            t_acc = 1.0
            obj_last = obj_z

    mom_p = float(a @ v)
    mom_q = float(b @ v)
    res_p = (mom_p - prob.budget_p) / prob.budget_p
    res_q = (mom_q - prob.budget_q) / prob.budget_q
    obj = float(g_eval(v, beta) @ dt)
    if mu_dual is not None:
        gap = duality_gap(dual_value, mu_dual, v, obj)
        converged = converged and gap <= _GAP_TOL

    tail = v[int(0.95 * v.size):]
    diagnostics = {
        "constraints_active": (res_p > -1e-6, res_q > -1e-6),
        "support_truncated": bool(np.max(tail) > 1e-8 * max(np.max(v), 1e-300)),
        "multipliers": mu,
        "step": step,
        "duality_gap": gap,
        "dual_value": dual_value,
        "dual_multipliers": None if mu_dual is None else (float(mu_dual[0]), float(mu_dual[1])),
    }
    return DiscreteSolution(
        v=v,
        objective=obj,
        residual_p=res_p,
        residual_q=res_q,
        iterations=iterations,
        converged=converged,
        diagnostics=diagnostics,
    )


def run_oracle(
    params: ProblemParams,
    t_max: float | None = None,
    n: int = 2000,
    max_iter: int = 40000,
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
    tolerance: float


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
    return MonotoneReport(
        max_relative_violation=viol, within=viol <= _MONOTONE_TOL, tolerance=_MONOTONE_TOL
    )


def objective_of(prob: DiscreteProblem, v: np.ndarray) -> float:
    """Discrete objective sum G(v_i) dt_i of an arbitrary profile."""
    return float(g_eval(np.asarray(v, dtype=float), prob.params.beta) @ prob.dt)


def is_feasible(prob: DiscreteProblem, v: np.ndarray, rtol: float = 1e-9) -> bool:
    a, b = prob.moment_vectors()
    v = np.asarray(v, dtype=float)
    return bool(
        np.all(v >= 0)
        and float(a @ v) <= prob.budget_p * (1.0 + rtol)
        and float(b @ v) <= prob.budget_q * (1.0 + rtol)
    )


def export_solution(
    prob: DiscreteProblem,
    sol: DiscreteSolution,
    path: str,
    u_analytic: np.ndarray | None = None,
) -> None:
    """Write (t, v, u_analytic) rows as CSV; the last column may be empty."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["t", "v", "u_analytic"])
        for i in range(prob.t.size):
            u_val = "" if u_analytic is None else repr(float(u_analytic[i]))
            out.writerow([repr(float(prob.t[i])), repr(float(sol.v[i])), u_val])


def truncation_note(prob: DiscreteProblem) -> str:
    """Human-readable bound on the mass omitted below the first grid node."""
    t0 = float(prob.t[0])
    return (
        f"objective mass omitted on (0, {t0:.3e}) is at most {t0:.3e} "
        "(the integrand G(u) is below 1); both constraint integrands vanish "
        "there like t^(e-1-alpha) with a positive exponent"
    )
