import logging
import warnings

import numpy as np
import pytest

import wavelock as wl
from wavelock import oracle, solver
from wavelock.oracle import (
    DiscreteProblem,
    OracleError,
    _dual,
    run_oracle,
    solve_discrete,
)
from conftest import random_dual_params, random_single_params, wide_dual_params
import oracle_sweep


def objective_of(prob: DiscreteProblem, v: np.ndarray) -> float:
    """Discrete objective sum G(v_i) dt_i of an arbitrary profile."""
    return float(wl.g_eval(np.asarray(v, dtype=float), prob.params.beta) @ prob.dt)


def near_threshold_params(rng: np.random.Generator) -> wl.ProblemParams:
    """Sample an instance just inside the dual window, at r1 (1 + delta) or
    r2 (1 - delta) with delta log-uniform in [1e-7, 1e-2]."""
    while True:
        beta = rng.uniform(0.2, 2.0)
        p = rng.uniform(1.3, 6.0)
        q = rng.uniform(1.3, 6.0)
        if abs(p - q) < 0.2:
            continue
        c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
        delta = 10.0 ** rng.uniform(-7.0, -2.0)
        if c.r1 is not None and (c.r2 is None or rng.random() < 0.5):
            return wl.ProblemParams(beta, p, q, 1.0, c.r1 * (1.0 + delta))
        if c.r2 is not None:
            return wl.ProblemParams(beta, p, q, 1.0, c.r2 * (1.0 - delta))


def descent_starts(monkeypatch) -> list:
    """Patch ``oracle._descend`` to record the multipliers each descent starts from."""
    starts, real_descend = [], oracle._descend

    def descend(mu, *args):
        starts.append(mu)
        return real_descend(mu, *args)

    monkeypatch.setattr(oracle, "_descend", descend)
    return starts


def solve_eagerly(prob: DiscreteProblem):
    """``solve_discrete`` with the derivatives formed at every evaluation of D,
    as one fused pass would, and each point a descent keeps given those
    formed at its own multipliers."""
    rows = oracle._dual_terms(prob)[0]
    value_pass, derivative_pass = oracle._dual_value, oracle._dual
    formed = {}

    def value_and_derivatives(mu, *terms):
        kept = value_pass(mu, *terms)
        formed[tuple(mu)] = derivative_pass(mu, rows, *terms, kept)
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_dual_value", value_and_derivatives)
        patch.setattr(oracle, "_dual", lambda mu, *args: formed[tuple(mu)])
        return solve_discrete(prob)


def criterion_5_instances():
    rng = np.random.default_rng(5)
    ref = wl.ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)
    return [ref] + [random_dual_params(rng) for _ in range(4)]


# The oracle objectives of test_instances_certify, frozen while the primal
# point was still the exact dt-metric projection of the dual maximiser; the
# maximiser scaled into the budgets must agree to rounding.
CERTIFY_OBJECTIVES = [
    0.14163124245023956,
    0.6116850722082288,
    0.06570053361988792,
    0.3318648794764898,
    0.47978483832512187,
    0.0724175046066051,
]


# A tiny-budget draw that compute_bound solves (tiny_budget_dual_params,
# default_rng(0)): at p = 53 the row p t^(p-1) dt of the oracle's grid
# underflows to 0 at its deep nodes.
TINY_BUDGET = (0.126811563241098, 53.15894611749433, 53.8223256414798,
               1.6860579765364995e-06, 1.68276119823051e-06)


@pytest.fixture(scope="module")
def ref_solution(ref_params, ref_report):
    prob, sol = run_oracle(ref_params, t_max=2.0 * ref_report.T, n=2000)
    return prob, sol


class TestGrid:
    def test_log_spaced_structure(self, ref_params):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=1.0, n=500)
        assert prob.t.size == 500
        assert np.all(np.diff(prob.t) > 0)
        assert np.all(prob.dt > 0)
        assert prob.t[0] == pytest.approx(1e-6, rel=1e-12)
        # cell widths tile (0, t_max] up to the trailing half cell
        assert np.sum(prob.dt) == pytest.approx(
            prob.t[-1] + 0.5 * (prob.t[-1] - prob.t[-2]), rel=1e-12
        )

    def test_minimum_size(self, ref_params):
        with pytest.raises(ValueError):
            DiscreteProblem.log_spaced(ref_params, t_max=1.0, n=50)

    def test_nodes_and_weights_are_validated(self, ref_params):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=1.0, n=200)
        with pytest.raises(ValueError, match="strictly increasing"):
            DiscreteProblem(ref_params, prob.t[::-1], prob.dt, prob.budget_p, prob.budget_q)
        for bad in (0.0, -1e-3):
            dt = prob.dt.copy()
            dt[7] = bad
            with pytest.raises(ValueError, match="weights must be positive"):
                DiscreteProblem(ref_params, prob.t, dt, prob.budget_p, prob.budget_q)

    def test_default_t_max_covers_support(self, ref_params, ref_report):
        prob = DiscreteProblem.log_spaced(ref_params)
        assert prob.t[-1] >= 2.0 * ref_report.T * 0.99

    @pytest.mark.parametrize(
        "params, message",
        [
            # sigma_q = 1.1e-316, so (4 pi sigma_q)^(-1/q) overflows.
            (wl.ProblemParams(1e300, 50.0, 1.0000000000000002, 0.5, 1e300),
             "a single-constraint support endpoint"),
            # B (4 pi sigma_q)^(-1/q) overflows to inf, the seed grid's t_max.
            (wl.ProblemParams(1e-300, 2.0, 1.0000000000000002, 2.0, 1e300),
             "the grid's end t_max = inf is out of the float range"),
        ],
        ids=["support-endpoint-overflows", "grid-end-overflows"],
    )
    def test_seed_grid_out_of_the_float_range(self, params, message):
        with pytest.raises(OracleError, match=f"^{message}"):
            run_oracle(params)


class TestSolveDiscrete:
    def test_reference_agreement(self, ref_solution, ref_report):
        prob, sol = ref_solution
        gap = abs(ref_report.bound - sol.objective) / ref_report.bound
        assert gap <= 0.01
        assert sol.residual_p <= 1e-9 and sol.residual_q <= 1e-9

    def test_pointwise_profile_match(self, ref_solution, ref_params, ref_report):
        prob, sol = ref_solution
        m = ref_report.multipliers()
        window = (prob.t > 0.05 * m.T) & (prob.t < 0.9 * m.T)
        u_ref = wl.u_eval(prob.t[window], m, ref_params)
        rel = np.abs(sol.v[window] - u_ref) / u_ref
        assert np.max(rel) <= 0.02

    def test_constraints_active_in_dual(self, ref_solution):
        _, sol = ref_solution
        assert sol.residual_p > -1e-6 and sol.residual_q > -1e-6
        assert not sol.diagnostics["support_truncated"]

    def test_deterministic(self, ref_params, ref_report):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=400)
        s1 = solve_discrete(prob, max_iter=3000)
        s2 = solve_discrete(prob, max_iter=3000)
        assert np.array_equal(s1.v, s2.v)
        assert s1.objective == s2.objective

    def test_huge_budgets_saturate_the_kernel(self):
        # The optimum spends the p-budget on nodes so deep in G's saturation
        # that the objective comes within 1.2e-11 of sum(dt), the supremum
        # of sum G(v) dt, since G < 1.
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1e6, 1e6)
        prob = DiscreteProblem.log_spaced(params, t_max=1.0, n=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_discrete(prob, max_iter=2000)
        assert sol.residual_p == 0.0
        assert sol.residual_q <= 1e-9
        assert sol.objective < float(np.sum(prob.dt))
        assert sol.objective == pytest.approx(float(np.sum(prob.dt)), rel=1e-10)

    def test_face_descent_steps_in_log_mu(self, ref_params, ref_report):
        # From the seed (1, 0) the damped Newton step in mu is d = -75, which
        # leaves the quadrant.  Followed along mu exp(t d/mu) it reached the
        # e^40 cap, mu1 = 4.2e-18, and 20 evaluations climbed back to the face
        # optimum mu1 = 0.0814; Newton's step in log mu comes within 5 % of
        # it instead, and mu2 opens from there.  The reference's solve does
        # not descend from this seed (its (0, 1) seed has the lower D), so the
        # descent is driven from the seed directly, with a gap test that never
        # passes; it ends at the solve's multipliers.
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        terms = oracle._dual_terms(prob)
        seen = []

        def dual(mu):
            seen.append(tuple(mu))
            return oracle._dual_value(mu, *terms[1:])

        def derive(mu, kept):
            return _dual(mu, *terms, kept)

        seed = (1.0, 0.0)
        start = derive(seed, dual(seed))
        mu, point, _ = oracle._descend(seed, dual, derive, terms[3], 100, start, lambda point: False)
        assert min(mu1 for mu1, _ in seen) >= 1e-3
        opened = next(k for k, (_, mu2) in enumerate(seen) if mu2 > 0.0)
        assert seen[opened - 1] == (pytest.approx(0.0814, rel=0.05), 0.0)  # near the face optimum
        assert mu == pytest.approx((0.016013035445537664, 1.0703723298649788), rel=1e-12)
        assert np.all(np.abs(point[1]) <= 1e-12 * terms[3])

    def test_descent_ends_where_every_halving_fails(self):
        # At mu = (1, 0) with D = 1, gradient (1, 0) and Hessian I, Newton's
        # step is d = (-0.5, 0); a dual whose every trial reads 2.0 never meets
        # the Armijo line, so the descent gives up after the last halving, at
        # its start.  No trial is kept, so none gets its derivatives.
        trials = []

        def dual(mu):
            trials.append(mu)
            return 2.0, np.ones(1), np.ones(1), np.ones(1), np.zeros(1)

        def derive(mu, kept):
            raise AssertionError(f"derivatives formed at the rejected trial {mu}")

        start = (1.0, np.array([1.0, 0.0]), np.eye(2), np.zeros(1))
        mu, point, steps = oracle._descend(
            (1.0, 0.0), dual, derive, np.array([1.0, 1.0]), 100, start, lambda point: False
        )
        assert mu == (1.0, 0.0) and point is start and steps == 0
        assert len(trials) == oracle._HALVINGS == 60
        assert trials[0] == (pytest.approx(np.exp(-0.5), rel=1e-15), 0.0)

    def test_huge_budgets_certify_at_the_default_step_cap(self):
        # D is close to mu . caps here, so Newton's step in log mu moves mu by
        # only about e^-1; expanded along its path, it reaches the optimum
        # well within the default 100 steps of each descent.
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1e6, 1e6)
        prob = DiscreteProblem.log_spaced(params, t_max=1.0, n=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_discrete(prob)
        assert sol.converged
        assert sol.iterations < 100

    def test_step_cap_reports_no_certificate(self, ref_params, ref_report):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob, max_iter=1)
        assert not sol.converged
        assert 1e-6 < sol.diagnostics["duality_gap"] < np.inf

    def test_whole_profile_match(self, ref_params):
        # v tracks u(t) on all of (t_min, 0.9 T], saturated deep nodes included.
        rng = np.random.default_rng(2024)
        for params in [ref_params] + [random_dual_params(rng) for _ in range(15)]:
            report = wl.compute_bound(params)
            m = report.multipliers()
            prob, sol = run_oracle(params, t_max=2.0 * report.T)
            window = prob.t <= 0.9 * m.T
            u_ref = wl.u_eval(prob.t[window], m, params)
            rel = np.abs(sol.v[window] - u_ref) / u_ref
            assert np.max(rel) <= 1e-3, params


class TestCertificate:
    def test_weak_duality_at_random_multipliers(self, ref_solution):
        prob, sol = ref_solution
        scale = np.array(sol.diagnostics["dual_multipliers"])
        rng = np.random.default_rng(11)
        for k in range(20):
            mu = scale * np.exp(rng.uniform(-4.0, 4.0, size=2))
            if k < 4:
                mu[k % 2] = 0.0  # one constraint priced at zero
            value = _dual(mu, *oracle._dual_terms(prob))[0]
            assert value >= sol.objective
        assert sol.diagnostics["dual_value"] >= sol.objective * (1.0 - 1e-12)

    def test_dual_matches_its_definition(self, ref_solution):
        # Value, gradient, Hessian and maximiser against the definition of
        # D(mu) = sum dt [G(s) - c s] + mu . caps, not against its formulas.
        prob, sol = ref_solution
        a, b = prob.moment_vectors()
        dt, beta = prob.dt, prob.params.beta
        rows = np.stack((a, b))
        caps = np.array([prob.budget_p, prob.budget_q])
        scale = np.array(sol.diagnostics["dual_multipliers"])
        rng = np.random.default_rng(12)
        priced_out_nodes = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(20):
                mu = scale * np.exp(rng.uniform(-4.0, 4.0, size=2))
                if k < 4:
                    mu[k % 2] = 0.0
                value, grad, hess, s = _dual(mu, *oracle._dual_terms(prob))
                c = (mu @ rows) / dt
                expected = float(dt @ (wl.g_eval(s, beta) - c * s)) + float(mu @ caps)
                assert value == pytest.approx(expected, rel=1e-12)
                load = rows @ s
                assert np.all(np.abs(grad - (caps - load)) <= 1e-13 * (caps + load))
                priced_out = c >= 2.0 * beta / wl.FOUR_PI  # G'(0) = beta/(2 pi)
                assert np.all(s[priced_out] == 0.0)
                priced_out_nodes += np.count_nonzero(priced_out)
                # Only along positive multipliers: a central difference along a
                # zero one leaves the quadrant, and at mu1 = 0 the first nodes'
                # prices mu2 b_i lie below mu1 a_i for any usable step in mu1.
                for j in np.flatnonzero(mu):
                    step = np.zeros(2)
                    step[j] = 1e-6 * mu[j]
                    plus = _dual(mu + step, *oracle._dual_terms(prob))[1]
                    minus = _dual(mu - step, *oracle._dual_terms(prob))[1]
                    np.testing.assert_allclose(hess[:, j], (plus - minus) / (2.0 * step[j]), rtol=1e-6)
        assert priced_out_nodes > 0

    def test_counts_every_dual_evaluation(self, ref_params, ref_report, monkeypatch):
        counts = {"_dual_value": 0, "_dual": 0, "_descend": 0}
        for name in counts:
            def counted(*args, _name=name, _f=getattr(oracle, name)):
                counts[_name] += 1
                return _f(*args)

            monkeypatch.setattr(oracle, name, counted)
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob)
        evaluations = sol.diagnostics["dual_evaluations"]
        assert evaluations == counts["_dual_value"]
        assert sol.diagnostics["derivative_evaluations"] == counts["_dual"]
        # one evaluation at each seed and at least one per Newton step
        assert evaluations >= sol.iterations + 2
        assert counts["_descend"] == 1  # from the (0, 1) seed only

    def test_derivatives_only_where_a_descent_keeps_the_point(self, ref_params, ref_report):
        # On the reference, 10 of the 16 evaluations form derivatives: the
        # (0, 1) seed the descent starts from and the point each step keeps;
        # the (1, 0) seed and the rejected trials are priced by D alone.
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob)
        derivatives = sol.diagnostics["derivative_evaluations"]
        assert sol.iterations + len(sol.diagnostics["descents"]) <= derivatives <= 10
        assert derivatives < sol.diagnostics["dual_evaluations"]

    def test_derivatives_at_kept_points_keep_every_bit(self, ref_params, ref_report):
        # The reference and the first 20 draws of each TestSweep sampler on
        # the 2T grid, solved as they are and with the derivatives formed at
        # every evaluation of D, each kept point taking those formed at its
        # own multipliers (``solve_eagerly``).
        problems = [DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)]
        for sampler in ("random", "near-threshold", "single", "wide", "band"):
            problems += [
                DiscreteProblem.log_spaced(params, t_max=2.0 * T)
                for _, params, T in oracle_sweep.solved_draws(sampler, 20)
            ]
        for prob in problems:
            lazy, eager = solve_discrete(prob), solve_eagerly(prob)
            assert np.array_equal(lazy.v, eager.v), prob.params
            assert lazy.objective == eager.objective, prob.params
            assert (lazy.residual_p, lazy.residual_q) == (eager.residual_p, eager.residual_q), prob.params
            for key in ("dual_multipliers", "descents", "dual_evaluations", "gap_checks"):
                assert lazy.diagnostics[key] == eager.diagnostics[key], (key, prob.params)
            assert lazy.diagnostics["derivative_evaluations"] >= lazy.iterations, prob.params

    def test_first_joint_descent_closing_the_gap_ends_the_solve(
        self, ref_params, ref_report, monkeypatch
    ):
        # D is lower at the seed (0, 1) than at (1, 0), so that seed is
        # descended first; its descent over the quadrant brings the lowest D
        # within rounding of the best scaled objective, and the (1, 0) seed is
        # never descended.  The values are those of the solve that still ran
        # all four face and joint descents.
        starts = descent_starts(monkeypatch)
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob)
        assert starts == [(0.0, 1.0)]
        assert sol.converged
        assert sol.objective == pytest.approx(0.14163124245023956, rel=1e-14)
        assert sol.diagnostics["dual_value"] == pytest.approx(0.14163124245023953, rel=1e-14)
        assert sol.diagnostics["dual_multipliers"] == pytest.approx(
            (0.016013035445537664, 1.0703723298649788), rel=1e-14
        )

    def test_reference_certifies_within_24_evaluations(self, ref_params, ref_report):
        # 16: one descent over the quadrant from the (0, 1) seed, which ends
        # at the second of its gap checks; 18 where it runs on until the
        # moment residual stops falling.
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob)
        assert sol.converged
        assert sol.diagnostics["dual_evaluations"] <= 16
        assert sol.diagnostics["gap_checks"] == 2

    def test_descents_are_listed_in_run_order(self, ref_params, ref_report, monkeypatch):
        starts = descent_starts(monkeypatch)
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        sol = solve_discrete(prob)
        descents = sol.diagnostics["descents"]
        assert [seed for seed, _ in descents] == starts == [(0.0, 1.0)]
        assert sum(steps for _, steps in descents) == sol.iterations

    @pytest.mark.parametrize(
        "params, face",
        [
            (wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2), (0.0, 1.0)),
            (wl.ProblemParams(0.2, 1.3, 6.0, 1.0, 10.0), (1.0, 0.0)),
        ],
        ids=["SingleQ", "SingleP"],
    )
    def test_single_regime_certifies_after_one_descent(self, params, face, monkeypatch):
        # One budget is inactive at the optimum: the face of the active one
        # has the lower D at its seed, and its minimiser meets the other
        # budget and closes the gap.
        starts = descent_starts(monkeypatch)
        _, sol = run_oracle(params)
        assert starts == [face]
        assert len(sol.diagnostics["descents"]) == 1
        assert sol.converged
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    @pytest.mark.parametrize(
        "params, descents",
        [
            # near_threshold_dual_params(default_rng(17)), draw 56
            (wl.ProblemParams(
                0.9894191058196213, 4.2773682362730305, 1.9092448367423884, 1.0, 3.134805853194568
            ), [(1.0, 0.0)]),
            # wide_dual_params(default_rng(7)), draw 19
            (wl.ProblemParams(
                2.7014306697989405, 41.536341515862254, 7.848202577129077, 1.0, 1.3089493348991776
            ), [(1.0, 0.0), (0.0, 1.0)]),
        ],
        ids=["near-threshold", "wide"],
    )
    def test_second_joint_descent_runs_where_the_first_leaves_a_gap(
        self, params, descents, monkeypatch
    ):
        # The near-threshold draw certifies in the descent from (1, 0).  On
        # the wide draw that descent opens mu2 to 1.2e-182, where its share of
        # mu . caps has collapsed and it is frozen, and ends at a relative gap
        # of 7.3e-2; the descent from (0, 1) closes it.
        starts = descent_starts(monkeypatch)
        _, sol = run_oracle(params, t_max=2.0 * wl.compute_bound(params).T)
        assert starts == descents
        assert [seed for seed, _ in sol.diagnostics["descents"]] == descents
        assert sol.converged
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    @pytest.mark.parametrize(
        "params, objective",
        [
            pytest.param(p, obj, id=f"b{p.beta:.3f}-p{p.p:.3f}-q{p.q:.3f}-B{p.B:.3f}")
            for p, obj in zip(
                criterion_5_instances() + [wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)],
                CERTIFY_OBJECTIVES,
            )
        ],
    )
    def test_instances_certify(self, params, objective):
        report = wl.compute_bound(params)
        t_max = 2.0 * report.T if report.T is not None else None
        _, sol = run_oracle(params, t_max=t_max, n=2000)
        assert sol.converged
        assert sol.diagnostics["duality_gap"] <= 1e-6
        assert sol.iterations < 2000
        assert sol.diagnostics["dual_value"] >= sol.objective * (1.0 - 1e-12)
        assert abs(sol.objective - objective) <= 1e-14 * objective

    def test_huge_budgets_certify(self):
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1e6, 1e6)
        prob = DiscreteProblem.log_spaced(params, t_max=1.0, n=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_discrete(prob, max_iter=2000)
        assert sol.converged
        assert abs(sol.diagnostics["duality_gap"]) <= 1e-6
        mu1, mu2 = sol.diagnostics["dual_multipliers"]
        assert mu1 > 0.0 and mu2 >= 0.0

    def test_wide_domain_hessian_stays_finite(self):
        # At p = 45.8 the (1, 0) descent reaches mu = (2.06e-9, 0), where
        # den underflows and x/den overflowed to a non-finite Hessian.
        params = wl.ProblemParams(
            2.635744914613019, 45.83933653795897, 7.297075876708458, 1.0, 1.2954860504595624
        )
        t_max = 2.0 * wl.compute_bound(params).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, sol = run_oracle(params, t_max=t_max)
        assert sol.converged
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    def test_descent_stops_at_an_underflowing_price(self):
        # The (0, 1) face descent chases mu2 -> 0 here (B^q ~ 2.6e37), until
        # mu . prices underflows to 0 at deep nodes and D is nan; that descent
        # took 4 666 of 4 689 dual evaluations.  It now ends at the first such
        # trial, with the same answer; and since the (1, 0) seed has the lower
        # D and its descent certifies, that descent no longer runs (37
        # evaluations while it did).  The descent from (1, 0) shrinks mu1 by
        # e^0.9 or more per step and doubles t along it: 24 evaluations, 32
        # where t never doubles.
        params = wl.ProblemParams(
            0.06807039803611685, 21.923613374766816, 61.243458071553654,
            2.6354074314180034, 4.083572726376347,
        )
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", RuntimeWarning)
            _, sol = run_oracle(params)
        assert sol.converged
        assert sol.diagnostics["dual_evaluations"] <= 24
        assert sol.objective == pytest.approx(1.5562883842545392, rel=1e-14)
        messages = [str(w.message) for w in seen]
        assert not [m for m in messages if "divide by zero" in m or "invalid value" in m], messages

    def test_collapsed_multiplier_is_frozen_not_zeroed(self):
        # wide_dual_params(default_rng(55)), draw 398.  Set to 0 instead of
        # frozen where its share of mu . caps collapses, a multiplier re-prices
        # the deep nodes, and the solve ends at a relative gap of 5.1e-4.
        params = wl.ProblemParams(
            0.24270849246814782, 21.44493158776138, 32.24535945743397, 1.0, 0.8165174445129156
        )
        _, sol = run_oracle(params, t_max=2.0 * wl.compute_bound(params).T)
        assert sol.converged
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    @pytest.mark.parametrize(
        "params",
        [
            wl.ProblemParams(
                1.9031236364149775, 5.876822940994526, 1.8085416282933355, 1.0, 3.937289637312705
            ),
            wl.ProblemParams(
                1.5202809613785782, 2.3864699145738175, 5.798706736409825, 1.0, 0.4256747471666012
            ),
            wl.ProblemParams(
                1.675541306341685, 4.312545031044424, 1.725372035826569, 1.0, 3.004965827013623
            ),
        ],
        ids=["432", "969", "1104"],
    )
    def test_near_threshold_draws_certify_on_the_seed_grid(self, params):
        # near_threshold_dual_params(default_rng(33)), on the oracle's own
        # grid: the four face and joint descents left these at relative gaps
        # of 1.75e-4, 5.5e-6 and 1.3e-5.
        _, sol = run_oracle(params)
        assert sol.converged
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    def test_wide_draws_certify(self):
        # The first 40 wide-domain draws that compute_bound solves: beta down
        # to 0.05 and exponents up to 51.
        rng = np.random.default_rng(7)
        certified = 0
        while certified < 40:
            params = wide_dual_params(rng)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                _, sol = run_oracle(params, t_max=2.0 * report.T)
            assert sol.converged, params
            assert max(sol.residual_p, sol.residual_q) <= 1e-9, params
            certified += 1

    def test_underflowing_row_is_an_oracle_error(self):
        params = wl.ProblemParams(*TINY_BUDGET)
        t_max = 2.0 * wl.compute_bound(params).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OracleError, match="moment row p underflows to 0 at 1808 of 2000"):
                run_oracle(params, t_max=t_max)

    def test_sweep_certifies_without_analytic_input(self):
        # With this seed one near-threshold draw certifies only because the
        # best D and the best feasible point are taken from different descents.
        rng = np.random.default_rng(811)
        instances = (
            [random_dual_params(rng) for _ in range(8)]
            + [random_single_params(rng)[0] for _ in range(8)]
            + [near_threshold_params(rng) for _ in range(8)]
        )
        for params in instances:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                _, sol = run_oracle(params)
            assert sol.converged, params
            assert sol.diagnostics["duality_gap"] <= 1e-6, params
            assert max(sol.residual_p, sol.residual_q) <= 1e-9, params

    def test_seed_that_prices_out_every_node_certifies(self):
        # SingleP far above r2: at the seed mu = (1, 0) every node's price
        # a_i/dt_i exceeds G'(0), so s(mu) = 0 and D is linear there.
        params = wl.ProblemParams(0.2, 1.3, 6.0, 1.0, 10.0)
        prob, sol = run_oracle(params)
        a, _ = prob.moment_vectors()
        assert np.min(a / prob.dt) > 2.0 * params.beta / wl.FOUR_PI  # G'(0)
        assert sol.converged
        assert sol.diagnostics["duality_gap"] <= 1e-6
        assert max(sol.residual_p, sol.residual_q) <= 1e-9

    def test_weak_duality_violation_raises(self, ref_params, ref_report, monkeypatch):
        def low_dual(*args):
            value, grad, hess, s = _dual(*args)
            return 0.5 * value, grad, hess, s

        monkeypatch.setattr(oracle, "_dual", low_dual)
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=300)
        with pytest.raises(OracleError, match="weak duality"):
            solve_discrete(prob)

    def test_independent_of_analytic_solver(self, ref_params, ref_report, monkeypatch):
        t_max = 2.0 * ref_report.T

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the analytic solver")

        for name in ("compute_bound", "solve_multipliers", "u_eval"):
            monkeypatch.setattr(solver, name, forbidden)
            monkeypatch.setattr(wl, name, forbidden)
        _, sol = run_oracle(ref_params, t_max=t_max, n=500)
        assert sol.converged

    def test_short_grid_is_an_oracle_error(self, ref_params, ref_report):
        # One grid, no doubling: a t_max inside the support truncates it.
        with pytest.raises(OracleError, match="too short"):
            run_oracle(ref_params, t_max=0.5 * ref_report.T, n=500)


class TestSweep:
    def test_first_draws_certify_within_their_evaluations(self):
        # The first 20 draws of each sampler of tests/oracle_sweep.py on the
        # grid verify builds: certified counts as floors and evaluation totals
        # as ceilings, each at its measured value.
        measured = {
            "random": (20, 316),
            "near-threshold": (20, 436),
            "single": (20, 167),
            "wide": (18, 333),
            "band": (18, 374),
        }
        for sampler, (certified, evaluations) in measured.items():
            tally = oracle_sweep.tally(sampler, "2T", 20)
            assert tally.certified >= certified, (sampler, tally)
            assert tally.evaluations <= evaluations, (sampler, tally)
            assert tally.monotone == tally.certified, (sampler, tally)


class TestLogging:
    def test_one_debug_record_per_solve(self, ref_params, ref_report, caplog):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=2000)
        with caplog.at_level(logging.DEBUG, logger="wavelock"):
            sol = solve_discrete(prob)
        records = [r for r in caplog.records if r.name.startswith("wavelock")]
        assert len(records) == 1
        assert records[0].name == "wavelock.oracle"
        assert records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert f"descents (seed, Newton steps) [((0.0, 1.0), {sol.iterations})]," in message
        assert f"{sol.diagnostics['dual_evaluations']} dual evaluations" in message
        assert "relative gap" in message

    def test_silent_by_default(self, ref_params, ref_report, capfd):
        run_oracle(ref_params, t_max=2 * ref_report.T, n=500)
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == ""


class TestMonotoneRestoration:
    def test_solution_already_monotone(self, ref_solution):
        # v = 4 pi (r^(-1/(2 beta + 1)) - 1) with r = min(mu . prices, 1), and
        # every price row e t^(e-1)/G'(0) rises with t: no ordering constraint
        # is imposed, and none is needed.
        _, sol = ref_solution
        assert np.all(np.diff(sol.v) <= 0.0)

    def test_non_monotone_same_moments_scores_lower(self, ref_solution, ref_params):
        prob, sol = ref_solution
        a, b = prob.moment_vectors()
        # Perturb along a direction in the null space of both constraint
        # rows so the moments are unchanged, then verify the objective drops.
        rng = np.random.default_rng(23)
        idx = np.where(sol.v > 0.05 * sol.v.max())[0]
        i, j, k, l = idx[100], idx[200], idx[300], idx[400]
        direction = np.zeros_like(sol.v)
        direction[i], direction[j] = 1.0, -1.0
        # Solve 2x2 so that a . dir = b . dir = 0 using nodes k, l.
        M = np.array([[a[k], a[l]], [b[k], b[l]]])
        rhs = -np.array([a[i] - a[j], b[i] - b[j]])
        ck, cl = np.linalg.solve(M, rhs)
        direction[k], direction[l] = ck, cl
        eps = 0.25 * sol.v.min() if sol.v.min() > 0 else 0.05 * sol.v[idx].min()
        v2 = sol.v + eps * direction
        assert np.all(v2 >= 0)
        assert abs(a @ v2 - a @ sol.v) <= 1e-9 * prob.budget_p
        assert abs(b @ v2 - b @ sol.v) <= 1e-9 * prob.budget_q
        assert np.any(np.diff(v2) > 1e-12)  # genuinely non-monotone now
        assert objective_of(prob, v2) < sol.objective

    def test_refinement_shrinks_gap(self, ref_params, ref_report):
        gaps = []
        for n in (100, 400, 2000):
            _, sol = run_oracle(ref_params, t_max=2 * ref_report.T, n=n, max_iter=20000)
            gaps.append(abs(ref_report.bound - sol.objective) / ref_report.bound)
        assert gaps[2] < gaps[0]
        assert gaps[2] <= 0.01


class TestInvariants:
    def test_objective_below_bound(self, ref_solution, ref_report):
        _, sol = ref_solution
        assert sol.objective <= ref_report.bound * (1.0 + 1e-3)

    def test_objective_monotone_in_budgets(self):
        # One grid for all three, to twice the largest support, T(B = 0.45).
        t_max = 2 * wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.45)).T
        objs = []
        for B in (0.35, 0.4, 0.45):
            params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)
            _, sol = run_oracle(params, t_max=t_max, n=500, max_iter=15000)
            objs.append(sol.objective)
        assert objs[0] < objs[1] < objs[2]

    def test_random_dual_instance(self):
        rng = np.random.default_rng(77)
        params = random_dual_params(rng)
        report = wl.compute_bound(params)
        _, sol = run_oracle(params, t_max=2 * report.T, n=1500)
        gap = abs(report.bound - sol.objective) / report.bound
        assert gap <= 0.01

