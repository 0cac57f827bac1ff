import warnings

import numpy as np
import pytest

import wavelock as wl
from wavelock import oracle, solver
from wavelock.oracle import (
    DiscreteProblem,
    OracleError,
    _dual,
    _project_feasible,
    export_solution,
    objective_of,
    run_oracle,
    solve_discrete,
    truncation_note,
)
from conftest import random_dual_params


def criterion_5_instances():
    rng = np.random.default_rng(5)
    ref = wl.ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)
    return [ref] + [random_dual_params(rng) for _ in range(4)]


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

    def test_default_t_max_covers_support(self, ref_params, ref_report):
        prob = DiscreteProblem.log_spaced(ref_params)
        assert prob.t[-1] >= 2.0 * ref_report.T * 0.99


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
        assert sol.diagnostics["constraints_active"] == (True, True)
        assert not sol.diagnostics["support_truncated"]

    def test_deterministic(self, ref_params, ref_report):
        prob = DiscreteProblem.log_spaced(ref_params, t_max=2 * ref_report.T, n=400)
        s1 = solve_discrete(prob, max_iter=3000)
        s2 = solve_discrete(prob, max_iter=3000)
        assert np.array_equal(s1.v, s2.v)
        assert s1.objective == s2.objective

    def test_huge_budgets_leave_constraints_slack(self):
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1e6, 1e6)
        prob = DiscreteProblem.log_spaced(params, t_max=1.0, n=200)
        sol = solve_discrete(prob, max_iter=2000)
        assert sol.diagnostics["constraints_active"] == (False, False)
        assert sol.residual_p < -0.9 and sol.residual_q < -0.9


class TestCertificate:
    def test_weak_duality_at_random_multipliers(self, ref_solution):
        prob, sol = ref_solution
        a, b = prob.moment_vectors()
        caps = np.array([prob.budget_p, prob.budget_q])
        scale = np.array(sol.diagnostics["dual_multipliers"])
        rng = np.random.default_rng(11)
        for k in range(20):
            mu = scale * np.exp(rng.uniform(-4.0, 4.0, size=2))
            if k < 4:
                mu[k % 2] = 0.0  # one constraint priced at zero
            value = _dual(mu, a, b, prob.dt, caps, prob.params.beta)[0]
            assert value >= sol.objective
        assert sol.diagnostics["dual_value"] >= sol.objective * (1.0 - 1e-12)

    @pytest.mark.parametrize(
        "params",
        criterion_5_instances() + [wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)],
        ids=lambda p: f"b{p.beta:.3f}-p{p.p:.3f}-q{p.q:.3f}-B{p.B:.3f}",
    )
    def test_instances_certify(self, params):
        report = wl.compute_bound(params)
        t_max = 2.0 * report.T if report.T is not None else None
        _, sol = run_oracle(params, t_max=t_max, n=2000)
        assert sol.converged
        assert sol.diagnostics["duality_gap"] <= 1e-6
        assert sol.iterations < 2000
        assert sol.diagnostics["dual_value"] >= sol.objective * (1.0 - 1e-12)

    def test_slack_constraints_report_no_certificate(self):
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1e6, 1e6)
        prob = DiscreteProblem.log_spaced(params, t_max=1.0, n=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_discrete(prob, max_iter=2000)
        assert not sol.converged
        assert sol.diagnostics["duality_gap"] == np.inf
        assert sol.diagnostics["dual_multipliers"] is None

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


class TestProjection:
    def test_degenerate_gram_falls_back_to_bisection(self, ref_params):
        # b = 2a makes the two constraint rows parallel, so the 2x2 Gram
        # matrix of the active-set Newton step is singular; with
        # cap_b = 2 cap_a both caps bind at once.
        prob = DiscreteProblem.log_spaced(ref_params, t_max=1.0, n=200)
        a = prob.moment_vectors()[0]
        b = 2.0 * a
        w = np.linspace(3.0, 1.0, prob.t.size)
        cap_a = 0.5 * float(a @ w)
        cap_b = 2.0 * cap_a
        x, (mu1, mu2) = _project_feasible(w, a, b, prob.dt, cap_a, cap_b, (0.0, 0.0))
        assert np.all(x >= 0.0)
        assert mu1 >= 0.0 and mu2 >= 0.0 and mu1 + mu2 > 0.0
        assert float(a @ x) <= cap_a * (1.0 + 1e-9)
        assert float(b @ x) <= cap_b * (1.0 + 1e-9)
        # Complementarity: a positive multiplier means its constraint is tight.
        if mu1 > 0.0:
            assert float(a @ x) == pytest.approx(cap_a, rel=1e-9)
        if mu2 > 0.0:
            assert float(b @ x) == pytest.approx(cap_b, rel=1e-9)
        # Stationarity: x is the clipped shift of w by the priced rows.
        shift = (mu1 * a + mu2 * b) / prob.dt
        assert np.allclose(x, np.maximum(w - shift, 0.0), rtol=0, atol=1e-12)


class TestMonotoneRestoration:
    def test_solution_already_monotone(self, ref_solution):
        _, sol = ref_solution
        report = wl.check_monotone_restoration(sol)
        assert report.within
        assert report.max_relative_violation <= 1e-6

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

    def test_objective_monotone_in_budgets(self, ref_params, ref_report):
        objs = []
        for B in (0.35, 0.4, 0.45):
            params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)
            _, sol = run_oracle(params, t_max=2 * ref_report.T, n=500, max_iter=15000)
            objs.append(sol.objective)
        assert objs[0] < objs[1] < objs[2]

    def test_random_dual_instance(self):
        rng = np.random.default_rng(77)
        params = random_dual_params(rng)
        report = wl.compute_bound(params)
        _, sol = run_oracle(params, t_max=2 * report.T, n=1500)
        gap = abs(report.bound - sol.objective) / report.bound
        assert gap <= 0.01


class TestExport:
    def test_csv_roundtrip(self, ref_solution, ref_params, ref_report, tmp_path):
        prob, sol = ref_solution
        path = tmp_path / "oracle.csv"
        u = wl.u_eval(prob.t, ref_report.multipliers(), ref_params)
        export_solution(prob, sol, str(path), u_analytic=u)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,v,u_analytic"
        assert len(lines) == 1 + prob.t.size
        t0, v0, u0 = (float(x) for x in lines[1].split(","))
        assert t0 == pytest.approx(prob.t[0])

    def test_truncation_note_mentions_first_node(self, ref_solution):
        prob, _ = ref_solution
        assert f"{prob.t[0]:.3e}" in truncation_note(prob)
