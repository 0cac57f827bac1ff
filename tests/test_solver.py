import logging
import math

import numpy as np
import pytest
from scipy import integrate

import wavelock as wl
from wavelock import core, solver
from wavelock.core import FOUR_PI
from conftest import (
    band_dual_params,
    near_threshold_dual_params,
    random_dual_params,
    tiny_budget_dual_params,
    wide_dual_params,
)

BOUND_P_REF = 0.1628675039676399738621282076127823349
BOUND_Q_REF = 0.3620853651710456641018198367231578514


def params_ref():
    return wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.4)


def count_passes(monkeypatch) -> list:
    """Make every unit pass of the dual Newton append its z to the list returned."""
    passes = []
    real = solver._unit_pass

    def counting(params):
        unit = real(params)

        def evaluate(z):
            passes.append(z)
            return unit(z)

        return evaluate

    monkeypatch.setattr(solver, "_unit_pass", counting)
    return passes


class TestFindT:
    def test_examples(self):
        p24 = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        assert wl.find_T(1.0, 0.0, p24) == pytest.approx(1.0, rel=1e-15)
        assert wl.find_T(0.3, 0.7, p24) == pytest.approx(1.0, rel=1e-13)
        assert wl.find_T(4.0, 0.0, p24) == pytest.approx(0.25, rel=1e-15)
        assert wl.find_T(0.0, 16.0, p24) == pytest.approx(16.0 ** (-1 / 3), rel=1e-15)

    def test_defining_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            params = wl.ProblemParams(
                rng.uniform(0.1, 3.0), rng.uniform(1.2, 5.0), rng.uniform(5.1, 9.0),
                1.0, 1.0,
            )
            l1, l2 = rng.uniform(0.01, 20.0, size=2)
            T = wl.find_T(l1, l2, params)
            resid = l1 * T ** (params.p - 1) + l2 * T ** (params.q - 1) - 1.0
            assert abs(resid) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wl.find_T(0.0, 0.0, params_ref())


class TestUEval:
    def test_vanishes_at_T(self):
        m = wl.multipliers(0.7, 3.0, params_ref())
        assert abs(wl.u_eval(m.T, m, params_ref())) <= 1e-10
        assert wl.u_eval(2 * m.T, m, params_ref()) == 0.0

    def test_single_multiplier_value(self):
        # With l1 = 1, l2 = 0, p = 2, beta = 1/2: u(1/4) = 4 pi (2 - 1).
        m = wl.multipliers(1.0, 0.0, params_ref())
        assert wl.u_eval(0.25, m, params_ref()) == pytest.approx(FOUR_PI, rel=1e-14)

    def test_small_t_asymptotics(self):
        params = params_ref()
        m = wl.multipliers(2.0, 5.0, params)
        ts = np.array([1e-10, 1e-12])
        expected = FOUR_PI * (m.lambda1 * ts ** (params.p - 1)) ** (-1.0 / (2 * params.beta + 1))
        vals = wl.u_eval(ts, m, params)
        assert np.allclose(vals, expected, rtol=1e-4)

    def test_strictly_decreasing(self):
        params = params_ref()
        m = wl.multipliers(0.4, 50.0, params)
        ts = np.linspace(1e-6, m.T, 500)
        vals = wl.u_eval(ts, m, params)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_budgets_match_mpmath(self):
        # Tiny budgets at large exponents put phi far below the float range
        # inside (0, T); u must still be finite and accurate there.
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 6:
            params = tiny_budget_dual_params(rng)
            try:
                m = wl.compute_bound(params).multipliers()
            except (wl.SolverError, wl.QuadratureError):
                continue
            ts = m.T * np.arange(1, 8) / 8
            got = wl.u_eval(ts, m, params)
            with mp.workdps(40):
                c = 1 / (2 * mp.mpf(params.beta) + 1)
                for t, value in zip(ts, got):
                    phi = (mp.mpf(m.lambda1) * mp.mpf(t) ** (params.p - 1)
                           + mp.mpf(m.lambda2) * mp.mpf(t) ** (params.q - 1))
                    exact = FOUR_PI * (phi ** -c - 1)
                    assert abs(value - exact) <= 1e-12 * exact, (params, t)
            ends = wl.u_eval(np.array([0.0, m.T, 2.0 * m.T]), m, params)
            assert ends[0] == math.inf and ends[1] == 0.0 and ends[2] == 0.0
            checked += 1


class TestMoment:
    def test_closed_form_single_multiplier(self):
        # 4 pi sigma_p with lambda1 = 1: equals 4 pi / 3 at (beta, p) = (1/2, 2).
        m = wl.multipliers(1.0, 0.0, params_ref())
        val = wl.moment(m, params_ref(), "P")
        assert val == pytest.approx(FOUR_PI / 3.0, rel=1e-12)

    def test_monotone_in_multiplier(self):
        params = params_ref()
        vals = [
            wl.moment(wl.multipliers(l1, 0.0, params), params, "P") for l1 in (0.5, 1.0, 2.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_against_scipy_quad(self):
        params = params_ref()
        m = wl.multipliers(0.4, 53.8, params)
        for which, e in (("P", 2.0), ("Q", 4.0)):
            mine = wl.moment(m, params, which)
            ref, _ = integrate.quad(
                lambda t: e * t ** (e - 1.0) * wl.u_eval(t, m, params),
                0.0, m.T, epsabs=1e-14, epsrel=1e-12, limit=400,
            )
            assert mine == pytest.approx(ref, rel=1e-9)

    def test_nan_integrand_is_a_quadrature_error(self, monkeypatch):
        # Here t^(p-1) underflows where u overflows, which made the linear
        # integrand's product nan; in log t the moments are finite.
        params = wl.ProblemParams(
            4.506108126611198, 14.545912456105732, 15.098453525992603,
            4.745634443856013e-22, 4.729355723705874e-22,
        )
        report = wl.compute_bound(params)
        assert max(report.residual_p, report.residual_q) <= 1e-8
        # A nan in the integrand must still end in a QuadratureError, with no
        # RuntimeWarning.
        real = solver._log_phi

        def spoiled(log_t, terms):
            out = real(log_t, terms)
            return np.where(np.arange(out.size) == out.size // 2, math.nan, out)

        monkeypatch.setattr(solver, "_log_phi", spoiled)
        with pytest.raises(wl.QuadratureError, match="moment P"):
            wl.compute_bound(params)

    def test_one_evaluation_gives_both_rules(self, monkeypatch):
        # The checked integral evaluates its integrand once, on the 16- and
        # 8-node log nodes side by side, and splits the two sums from it.
        params = params_ref()
        m = wl.solve_multipliers(params)
        real_integral, real_checked = solver._checked_log_integral, core._checked
        seen, sums = [], []

        def spy(f, upper, what):
            calls = []

            def counted(log_t):
                calls.append(log_t.size)
                return f(log_t)

            seen.append((f, upper, calls))
            return real_integral(counted, upper, what)

        def checked(value, coarse, what):
            sums.append((value, coarse))
            return real_checked(value, coarse, what)

        monkeypatch.setattr(solver, "_checked_log_integral", spy)
        monkeypatch.setattr(core, "_checked", checked)
        for which in ("P", "Q"):
            wl.moment(m, params, which)
        assert len(seen) == len(sums) == 2
        for (f, upper, calls), pair in zip(seen, sums):
            assert calls == [core._graded_log_nodes(core._PANELS, 16, 8).size]
            for nodes, value in zip((16, 8), pair):
                _, w = core._graded_rule(core._PANELS, nodes)
                alone = upper * float(w @ f(math.log(upper) + core._graded_log_nodes(core._PANELS, nodes)))
                assert abs(value - alone) <= 1e-15 * abs(alone)


class TestSolveMultipliers:
    def test_reference_instance(self, ref_report):
        params = params_ref()
        m = wl.solve_multipliers(params)
        assert m.lambda1 > 0 and m.lambda2 > 0
        # Support identity to 1e-12 relative.
        resid = m.lambda1 * m.T + m.lambda2 * m.T**3 - 1.0
        assert abs(resid) <= 1e-12
        Ap, Bq = 1.0, 0.4**4
        assert abs(wl.moment(m, params, "P") - Ap) / Ap <= 1e-8
        assert abs(wl.moment(m, params, "Q") - Bq) / Bq <= 1e-8

    def test_stationarity_identity(self):
        params = params_ref()
        m = wl.solve_multipliers(params)
        ts = np.linspace(0.01 * m.T, 0.99 * m.T, 50)
        u = wl.u_eval(ts, m, params)
        lhs = (1.0 + u / FOUR_PI) ** (-(2 * params.beta + 1))
        rhs = m.lambda1 * ts ** (params.p - 1) + m.lambda2 * ts ** (params.q - 1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_swap_maps_solution(self):
        params = params_ref()
        m = wl.solve_multipliers(params)
        m_sw = wl.solve_multipliers(params.swapped())
        assert m_sw.lambda1 == pytest.approx(m.lambda2, rel=1e-12)
        assert m_sw.lambda2 == pytest.approx(m.lambda1, rel=1e-12)
        assert m_sw.T == pytest.approx(m.T, rel=1e-12)

    def test_near_boundary_limit(self):
        # Approaching r2 from inside the dual window: lambda2 -> 0 and the
        # bound approaches the single-constraint value.
        base = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        c = wl.derive_constants(base)
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.999 * c.r2)
        m = wl.solve_multipliers(params)
        assert 0 < m.lambda2 < 0.05
        bound = wl.bound_integral(m, params)
        assert bound == pytest.approx(BOUND_P_REF, rel=1e-4)
        lam_seed = 1.0 * (FOUR_PI * c.sigma_p) ** (-1.0 / 2.0)
        assert m.lambda1 == pytest.approx(lam_seed ** (-1.0), rel=1e-2)

    def test_regime_mismatch_raises(self):
        with pytest.raises(wl.SolverError):
            wl.solve_multipliers(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0))

    def test_degenerate_exponent_pair(self):
        # p <= alpha_q leaves r1 undefined; the dual solve must still work.
        params = wl.ProblemParams(0.1, 1.5, 4.0, 1.0, 0.1)
        c = wl.derive_constants(params)
        assert c.r1 is None
        regime = wl.classify_regime(params, c)
        assert regime.tag == "Dual"
        m = wl.solve_multipliers(params)
        assert m.lambda1 > 0 and m.lambda2 > 0
        Bq = 0.1**4
        assert abs(wl.moment(m, params, "Q") - Bq) / Bq <= 1e-8


class TestBoundIntegral:
    def test_single_multiplier_closed_form(self):
        # l2 = 0 with the budget-matched l1 reproduces the closed bound.
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        c = wl.derive_constants(params)
        lam = 1.0 * (FOUR_PI * c.sigma_p) ** (-0.5)
        m = wl.multipliers(lam ** (-1.0), 0.0, params)
        val = wl.bound_integral(m, params)
        assert val == pytest.approx(BOUND_P_REF, rel=1e-12)
        assert val == pytest.approx(2 * params.beta * c.sigma_p * lam, rel=1e-12)

    def test_strictly_inside_unit_band(self):
        params = params_ref()
        m = wl.solve_multipliers(params)
        val = wl.bound_integral(m, params)
        assert 0.0 < val < m.T

    def test_dual_below_both_closed_forms(self, ref_report):
        assert ref_report.bound < BOUND_P_REF
        assert ref_report.bound < 0.4 * BOUND_Q_REF

    # (draw from a generator, seed, draws, solved at least): every sampler of
    # the wide-domain contract, all of its draws.
    SAMPLERS = {
        "wide": (lambda rng, i: wide_dual_params(rng), 7, 1500, 1377),
        "tiny": (lambda rng, i: tiny_budget_dual_params(rng), 0, 600, 317),
        "band": (lambda rng, i: band_dual_params(rng, near=i % 2 == 1), 11, 800, 709),
        "random": (lambda rng, i: random_dual_params(rng), 101, 300, 300),
        "near": (lambda rng, i: near_threshold_dual_params(rng), 17, 300, 300),
    }

    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    def test_checks_the_closed_form(self, sampler):
        # compute_bound takes the dual bound by parts from Newton's last pass;
        # the quadrature of the same integral at the solved multipliers checks it.
        draw, seed, draws, floor = self.SAMPLERS[sampler]
        rng = np.random.default_rng(seed)
        solved = 0
        for i in range(draws):
            params = draw(rng, i)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError):
                continue
            check = wl.bound_integral(report.multipliers(), params)
            assert abs(report.bound - check) <= 1e-13 * check, params
            solved += 1
        assert solved >= floor


class TestComputeBound:
    def test_dispatch(self, ref_report):
        rp = wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0))
        assert rp.regime == "SingleP"
        assert rp.bound == pytest.approx(BOUND_P_REF, rel=1e-13)
        assert rp.lambda2 == 0.0 and rp.T is None and rp.residual_q is None

        rq = wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.1))
        assert rq.regime == "SingleQ"
        assert rq.bound == pytest.approx(0.1 * BOUND_Q_REF, rel=1e-13)
        assert rq.lambda1 == 0.0

        assert ref_report.regime == "Dual"
        assert ref_report.residual_p <= 1e-8 and ref_report.residual_q <= 1e-8
        assert ref_report.T is not None and ref_report.wall_time_s > 0

    def test_dual_bound_runs_only_the_two_moment_quadratures(self, monkeypatch):
        real = solver._checked_log_integral
        seen = []

        def counting(f, upper, what):
            seen.append(what)
            return real(f, upper, what)

        def forbidden(*args):
            raise AssertionError("compute_bound ran bound_integral")

        monkeypatch.setattr(solver, "_checked_log_integral", counting)
        monkeypatch.setattr(solver, "bound_integral", forbidden)
        for params in (params_ref(), params_ref().swapped()):
            seen.clear()
            report = wl.compute_bound(params)
            assert report.regime == "Dual" and seen == ["moment P", "moment Q"]

    def test_monotone_in_budgets(self):
        bounds = [
            wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)).bound
            for B in np.linspace(0.27, 0.56, 7)
        ]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        bounds_A = [
            wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, A, 0.4)).bound
            for A in (0.8, 1.0, 1.2)
        ]
        assert bounds_A[0] < bounds_A[1] < bounds_A[2]

    def test_swap_invariance(self):
        r = wl.compute_bound(params_ref())
        r_sw = wl.compute_bound(params_ref().swapped())
        assert r_sw.bound == pytest.approx(r.bound, rel=1e-12)
        assert r_sw.regime == "Dual"

    def test_random_dual_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(4):
            params = random_dual_params(rng)
            rep = wl.compute_bound(params)
            assert rep.regime == "Dual"
            assert rep.lambda1 > 0 and rep.lambda2 > 0
            assert max(rep.residual_p, rep.residual_q) <= 1e-8
            m = rep.multipliers()
            assert abs(wl.u_eval(m.T, m, params)) <= 1e-10


# Dual bounds from an independent solver (brentq in lambda2 around brentq
# in lambda1 on the two moment equations), frozen as (beta, p, q, A, B) ->
# bound.  Interior draws come from
# random_dual_params(np.random.default_rng(2024)); the near-threshold
# ratios are r1 (1 + delta) and r2 (1 - delta); the narrow windows
# (|p - q| ~ 0.2-0.3) have an ill-conditioned Hessian; at the last one a
# multiplier tends to 0.
GOLDEN_BOUNDS = [
    ((0.5, 2.0, 4.0, 1.0, 0.4), 0.14163045836641774),
    ((1.4164964083663072, 2.3073190458198107, 2.754424545143951, 1.0, 0.8706886220718292), 0.3500227707669028),
    ((1.9924437779578401, 1.9684895318162434, 1.6700100086813952, 1.0, 1.117975145338843), 0.3675920948237468),
    ((0.8473644050408318, 2.0972104736231274, 4.067168783036732, 1.0, 0.5400531035851385), 0.23032291858719353),
    ((0.38969422354707617, 3.958935939821404, 1.3217593236434133, 1.0, 5.68237588190901), 0.2904194007547922),
    ((1.9561199557313678, 5.057313660722036, 4.105065123509357, 1.0, 1.0972144485727653), 0.6377129874225778),
    ((0.5714190404939545, 3.3808101653363263, 2.606794578787472, 1.0, 1.3495450138810678), 0.32631497789137764),
    ((0.5836832223211419, 2.5889515199998185, 5.093755336398934, 1.0, 0.4679201950719446), 0.21592226141161514),
    ((0.6825131652217327, 1.633144385881737, 3.4958814249791024, 1.0, 0.36169297413782514), 0.1281254043011143),
    ((1.8000956684566862, 2.6456960689502895, 4.936704578983126, 1.0, 0.6936643653979141), 0.42262999246584076),
    ((1.0424342844822958, 5.835171978918247, 5.52166847126426, 1.0, 1.0281735993375978), 0.5889558268670123),
    ((0.6413676871848784, 2.1684992697801566, 5.555732048992404, 1.0, 0.3644258688368589), 0.1791020738032693),
    ((0.8689861654877453, 5.219316045366084, 2.939231118609782, 1.0, 1.6329544265645444), 0.5268936107889615),
    # near thresholds, delta = 1e-7, 1e-4, 1e-2 (r1 side, then r2 side)
    ((0.5, 2.0, 4.0, 1.0, 0.269882523715014), 0.09772051215263425),
    ((0.5, 2.0, 4.0, 1.0, 0.26990948497643696), 0.09773027443082204),
    ((0.5, 2.0, 4.0, 1.0, 0.27258132169403193), 0.09869770731437053),
    ((0.5, 2.0, 4.0, 1.0, 0.5655664098594456), 0.16286750396763827),
    ((0.5, 2.0, 4.0, 1.0, 0.5655099097694506), 0.16286750228769514),
    ((0.5, 2.0, 4.0, 1.0, 0.5599108017519313), 0.1628503367554053),
    ((1.3, 4.5, 2.2, 1.0, 1.4422626137026004), 0.4637397103157523),
    ((1.3, 4.5, 2.2, 1.0, 1.442406695723301), 0.4637860315579342),
    ((1.3, 4.5, 2.2, 1.0, 1.4566850941711171), 0.4683125279627772),
    ((1.3, 4.5, 2.2, 1.0, 2.156192588101575), 0.5436939728166381),
    ((1.3, 4.5, 2.2, 1.0, 2.155977184440483), 0.5436939728131689),
    ((1.3, 4.5, 2.2, 1.0, 2.1346308756836465), 0.5436919552518759),
    # narrow windows
    ((1.6608573249441514, 4.170528692383574, 4.392722583575112, 1.0269679689246165, 1.0), 0.5747137514468136),
    ((0.7646986496040391, 5.04649649037681, 5.355203404118053, 1.0373463391011692, 1.0), 0.5191668530042421),
    ((1.2170607685153583, 4.662624485252961, 5.972640648016378, 1.0, 0.8846591280936776), 0.5434805530188466),
    # near threshold, lambda1 -> 0
    ((1.1321479297942438, 2.100152817624698, 5.549536323640131, 1.0, 0.28097006413250775), 0.16464232904888632),
]

# Inside the dual window, but lambda1 would fall below the smallest double
# (its moment integrand goes like t^s with s + 1 ~ 3e-3).
UNREPRESENTABLE = (0.4344753046388565, 5.48591166754509, 2.402783507962045, 1.0, 21.291906208301892)


class TestNewtonDual:
    @pytest.mark.parametrize("params", [params_ref(), wl.ProblemParams(*GOLDEN_BOUNDS[-2][0])])
    def test_fused_pass_matches_finite_differences(self, params):
        # The unit pass at a fixed z against the checked moments of the
        # multipliers that z gives, and its slope against log R itself.  At
        # |z| = 12 one of a, 1 - a is 6e-6 and the slope falls to 1e-6-1e-7, so
        # the difference is the five-point one with a step long enough that
        # the rounding of log R stays below the tolerance.
        p, q = params.p, params.q
        unit = solver._unit_pass(params)
        for z in (-12.0, -3.0, -0.5, 2.0, 12.0):
            log_R, slope, log_pm = unit(z)
            a = 1.0 / (1.0 + math.exp(-z))
            T = params.A * math.exp(-log_pm / p)
            m = wl.multipliers(a * T ** (1.0 - p), (1.0 - a) * T ** (1.0 - q), params)
            assert m.T == pytest.approx(T, rel=1e-14)
            log_qm = q * (log_R + log_pm / p)  # log(q m_q)
            assert wl.moment(m, params, "P") == pytest.approx(math.exp(log_pm) * m.T**p, rel=1e-12)
            assert wl.moment(m, params, "Q") == pytest.approx(math.exp(log_qm) * m.T**q, rel=1e-12)
            h = 0.03
            fd = (8.0 * (unit(z + h)[0] - unit(z - h)[0]) - (unit(z + 2 * h)[0] - unit(z - 2 * h)[0])) / (12.0 * h)
            assert slope > 0.0
            assert slope == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize(
        "params, non_finite",
        [(params_ref(), 0), (wl.ProblemParams(0.05, 1.01, 51.0, 1.0, 1.0), 2)],
        ids=["reference", "wide"],
    )
    def test_extreme_iterates_are_values_not_warnings(self, params, non_finite):
        # Newton's capped steps can carry z into the thousands.  There the
        # pass neither raises nor warns, and a non-finite value it returns is
        # the Newton loop's SolverError.
        unit = solver._unit_pass(params)
        seen = 0
        for z in (-3000.0, -800.0, 800.0, 3000.0):
            out = unit(z)
            if all(math.isfinite(v) for v in out):
                continue
            seen += 1
            with pytest.raises(wl.SolverError, match="non-finite"):
                solver._newton(lambda _: out, 0.0)
        assert seen == non_finite

    def test_softplus_branch_is_the_log_sum_exp(self):
        # For z >= 0 the unit pass takes softplus(lift - z), lift - z <= 0, as
        # log1p(exp(v)), which must be the log-sum-exp of v and 0 bit for bit.
        rng = np.random.default_rng(5)
        edges = [-0.0, 0.0, -math.inf, -745.0, -1e-320, -5e-324, -1e-300, -1e-17, -36.7, -709.8, -746.0]
        v = np.concatenate([
            edges,
            -rng.uniform(0.0, 800.0, 50_000),
            -np.geomspace(5e-324, 1e3, 50_000),
        ])
        got, want = np.log1p(np.exp(v)), solver._log_sum_exp(v, 0.0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_zero_moment_is_a_solver_error(self, monkeypatch):
        # A zero moment has no log; the pass returns no value Newton can use.
        x, w = solver._graded_rule(solver._PANELS, 16)
        monkeypatch.setattr(solver, "_graded_rule", lambda panels, nodes: (x, np.zeros_like(w)))
        with pytest.raises(wl.SolverError, match="non-finite"):
            wl.solve_multipliers(params_ref())

    @pytest.mark.parametrize("instance, bound", GOLDEN_BOUNDS)
    def test_golden_bounds(self, instance, bound):
        report = wl.compute_bound(wl.ProblemParams(*instance))
        assert report.regime == "Dual"
        assert abs(report.bound - bound) <= 1e-12 * bound
        assert max(report.residual_p, report.residual_q) <= 1e-8

    def test_one_debug_record_per_dual_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="wavelock"):
            wl.compute_bound(params_ref())
            wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0))  # single regime
        records = [r for r in caplog.records if r.name.startswith("wavelock")]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "Newton iterations" in records[0].getMessage()
        assert "bisections" in records[0].getMessage()

    def test_silent_by_default(self, capfd):
        wl.compute_bound(params_ref())
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_unrepresentable_multiplier_is_a_typed_error(self):
        try:
            report = wl.compute_bound(wl.ProblemParams(*UNREPRESENTABLE))
        except (wl.SolverError, wl.QuadratureError):
            return
        assert max(report.residual_p, report.residual_q) <= 1e-8

    def test_root_finder_failure_is_a_solver_error(self, monkeypatch):
        # One Newton step cannot also confirm that it reached the root.
        monkeypatch.setattr(solver, "_INVERT_MAX", 1)
        with pytest.raises(wl.SolverError, match="did not converge in 1 Newton steps"):
            wl.compute_bound(params_ref())

    def test_non_finite_iterate_is_a_solver_error(self, monkeypatch):
        real = solver._unit_pass
        # A NaN log R at the first iterate, an infinite slope at the third.
        for bad_call, spoil in ((0, lambda out: (math.nan, *out[1:])),
                                (2, lambda out: (out[0], math.inf, out[2]))):
            calls = []

            def spoiled(params):
                unit = real(params)

                def evaluate(z):
                    calls.append(z)
                    out = unit(z)
                    return spoil(out) if len(calls) == bad_call + 1 else out

                return evaluate

            monkeypatch.setattr(solver, "_unit_pass", spoiled)
            with pytest.raises(wl.SolverError, match="non-finite"):
                wl.solve_multipliers(params_ref())
            assert len(calls) == bad_call + 1

    @pytest.mark.parametrize("shallow_call", [0, 1])
    def test_long_steps_are_capped_and_overshoots_bisected(self, shallow_call):
        # One slope 1e6 times too shallow: at z = 0 its step is cut to
        # _STEP_MAX; at the second iterate, inside a bracket, its step
        # overshoots the bracket and is replaced by the midpoint.
        params = params_ref()
        unit = solver._unit_pass(params)
        target = math.log(params.ratio)
        calls = []

        def shallow(z):
            calls.append(z)
            log_R, slope, log_pm = unit(z)
            return log_R, slope * (1e-6 if len(calls) == shallow_call + 1 else 1.0), log_pm

        z, _, _, bisections = solver._newton(shallow, target)
        if shallow_call == 0:
            assert calls[1] == -solver._STEP_MAX
        else:
            assert bisections == 1 and calls[2] == 0.5 * calls[1]
        assert abs(unit(z)[0] - target) <= solver._NEWTON_RTOL
        assert z == pytest.approx(solver._newton(unit, target)[0], abs=1e-12)

    def test_certificate_failure_is_a_solver_error(self, monkeypatch):
        def off_budget(m, params, which):
            budget = params.A**params.p if which == "P" else params.B**params.q
            return budget * (1.0 + 1e-6)

        monkeypatch.setattr(solver, "moment", off_budget)
        with pytest.raises(wl.SolverError, match="moment residuals"):
            wl.compute_bound(params_ref())

    def test_iteration_cap_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_NEWTON_MAX", 2)
        with pytest.raises(wl.SolverError, match="did not converge in 2 iterations"):
            wl.solve_multipliers(params_ref())

    def test_window_logit_step_is_exact_on_a_logistic(self):
        # log R = tanh(z/2) runs from -1 to 1, and its window logit is z
        # itself: from z = 0 one scaled step lands on the root at z = -30,
        # where the plain step crawls about one unit per pass.
        def unit(z):
            return math.tanh(0.5 * z), 0.5 / math.cosh(0.5 * z) ** 2, 0.0

        target = math.tanh(-15.0)
        z, _, iterations, bisections = solver._newton(unit, target, (-1.0, 1.0))
        assert iterations <= 2 and bisections == 0
        z_plain, _, plain, _ = solver._newton(unit, target)
        assert plain > 20
        # There the slope is 2e-13, so the stop at |f| <= 1e-15 fixes z to 5e-3.
        assert z == pytest.approx(-30.0, abs=1e-2) and z_plain == pytest.approx(z, abs=1e-2)

    def test_near_threshold_duals_take_few_passes(self, monkeypatch):
        # Next to a threshold log R nears its limit exponentially in z; on the
        # window logit Newton needs no more passes there than inside.  Both
        # orders of the exponents occur, so both windows are exercised.
        passes = count_passes(monkeypatch)
        rng = np.random.default_rng(17)
        per_bound = []
        for _ in range(300):
            params = near_threshold_dual_params(rng)
            passes.clear()
            report = wl.compute_bound(params)
            assert max(report.residual_p, report.residual_q) <= 1e-8, params
            per_bound.append(len(passes))
        assert np.mean(per_bound) <= 5.0 and max(per_bound) <= 8

    def test_crossover_below_the_rule_fails_fast(self, monkeypatch):
        # A band draw at r1 (1 + 5.2e-7): the crossover sinks below the rule's
        # deepest node, log R stops moving short of log(B/A), and Newton
        # stops as soon as it repeats instead of spending its 50 passes.
        passes = count_passes(monkeypatch)
        params = wl.ProblemParams(
            0.8469417375807982, 2.0663671123811858, 5.9943716918722885, 1.0, 0.13735558739466927
        )
        with pytest.raises(wl.SolverError, match=r"crossover log x\* = z/\(q - p\) = -[0-9.]+ lies below "
                           r"the graded rule \(60 panels deep"):
            wl.compute_bound(params)
        assert len(passes) <= 10


# (beta, p, q), lambda1, lambda2 -> T, frozen from the bracketed brentq
# root finder that the log-space Newton inversion replaced.  The
# multipliers are the dual solutions of the reference, three interior
# draws, a narrow window and two near-threshold instances.
GOLDEN_T = [
    ((0.5, 2.0, 4.0), 0.40244846820140256, 53.802045387209674, 0.2554821282527535),
    ((1.4164964083663072, 2.3073190458198107, 2.754424545143951), 1.0262810535218407, 0.7707179241193793, 0.6746980084645572),
    ((0.38969422354707617, 3.958935939821404, 1.3217593236434133), 3.3196416522181185, 0.13713760404095482, 0.638767927743057),
    ((0.6825131652217327, 1.633144385881737, 3.4958814249791024), 0.26604773708213547, 31.965722055434995, 0.23843803134004696),
    ((1.2170607685153583, 4.662624485252961, 5.972640648016378), 1.6761638224614823, 2.34862661866014, 0.7265702228975747),
    ((0.5, 2.0, 4.0), 6.033365966272786e-27, 231.47097864799733, 0.1628675202543904),
    ((1.1321479297942438, 2.100152817624698, 5.549536323640131), 1.253475099386763e-28, 1048.33302784237, 0.2168135146153363),
]

# Steps of +-4.2e-16 alternate at the root here, so a stopping rule on the
# step size never fires; the inversion stops on the first step that does
# not lower log t.
CYCLING = (0.5944411433337476, 1.533785031098198, 5.266700769447286, 1.0, 0.517899690174237)


def _phi(lam1, lam2, params, t):
    return lam1 * t ** (params.p - 1.0) + lam2 * t ** (params.q - 1.0)


class TestLogInversion:
    @pytest.mark.parametrize("exponents, lam1, lam2, T", GOLDEN_T)
    def test_find_T_matches_frozen_values(self, exponents, lam1, lam2, T):
        params = wl.ProblemParams(*exponents, 1.0, 1.0)
        assert abs(wl.find_T(lam1, lam2, params) - T) <= 1e-14 * T

    def test_iterates_never_cross_the_root(self, monkeypatch):
        iterates = []

        def recording_min(*args):
            iterates.append(min(*args))
            return iterates[-1]

        monkeypatch.setattr(solver, "_FLOAT_OPS", solver._FLOAT_OPS._replace(minimum=recording_min))
        rng = np.random.default_rng(23)
        cases = [(wl.ProblemParams(*exponents, 1.0, 1.0), l1, l2) for exponents, l1, l2, _ in GOLDEN_T]
        for _ in range(40):
            params = wl.ProblemParams(
                rng.uniform(0.1, 3.0), rng.uniform(1.05, 8.0), rng.uniform(1.05, 8.0) + 0.1, 1.0, 1.0
            )
            cases.append((params, *(10.0 ** rng.uniform(-30.0, 5.0, size=2))))
        for params, l1, l2 in cases:
            iterates.clear()
            T = wl.find_T(l1, l2, params)
            assert all(b < a for a, b in zip(iterates, iterates[1:]))
            assert math.exp(iterates[-1]) == T
            # Every iterate stays on the far side of the root: phi >= 1 there.
            for x in iterates:
                assert _phi(l1, l2, params, math.exp(x)) >= 1.0 - 1e-13

    def test_array_iterates_never_cross_the_root(self, monkeypatch):
        iterates = []

        def recording_minimum(*args):
            iterates.append(np.minimum(*args))
            return iterates[-1]

        monkeypatch.setattr(solver, "_ARRAY_OPS", solver._ARRAY_OPS._replace(minimum=recording_minimum))
        params = params_ref()
        lam1, lam2 = GOLDEN_T[0][1], GOLDEN_T[0][2]
        log_c = -2.0 * np.log1p(np.geomspace(1e-8, 1e8, 50))
        x = solver._log_phi_inverse(log_c, solver._log_terms(lam1, lam2, params))
        assert np.array_equal(x, iterates[-1])
        for before, after in zip(iterates, iterates[1:]):
            assert np.all(after <= before)
        for it in iterates:
            assert np.all(_phi(lam1, lam2, params, np.exp(it)) >= np.exp(log_c) * (1.0 - 1e-13))

    def test_cycling_instance_finishes(self):
        params = wl.ProblemParams(*CYCLING)
        report = wl.compute_bound(params)
        assert report.regime == "Dual"
        assert max(report.residual_p, report.residual_q) <= 1e-8
        T = wl.find_T(report.lambda1, report.lambda2, params)
        assert T == report.T
        assert abs(_phi(report.lambda1, report.lambda2, params, T) - 1.0) <= 1e-14

    def test_non_finite_target_is_a_solver_error(self):
        with pytest.raises(wl.SolverError, match="non-finite"):
            solver._log_phi_inverse(math.nan, solver._log_terms(0.4, 53.8, params_ref()))
        with pytest.raises(wl.SolverError, match="non-finite"):
            solver._log_phi_inverse(np.array([-1.0, -math.inf]), solver._log_terms(0.4, 53.8, params_ref()))

    def test_single_term_out_of_range_is_a_solver_error(self):
        # T = 1e-5^(-1000) overflows; the float power raised OverflowError here.
        params = wl.ProblemParams(0.5, 1.001, 4.0, 1.0, 1.0)
        with pytest.raises(wl.SolverError, match="out of the float range"):
            wl.find_T(1e-5, 0.0, params)

    def test_derived_constants_once_per_dual_bound(self, monkeypatch):
        calls = []
        real = solver.derive_constants

        def counting(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(solver, "derive_constants", counting)
        wl.compute_bound(params_ref())
        wl.compute_bound(params_ref().swapped())
        assert len(calls) == 2
