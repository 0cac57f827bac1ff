import csv
import math

import numpy as np
import pytest
from scipy import integrate

import wavelock as wl
from wavelock.core import FOUR_PI
from wavelock.weight import (
    HalfPlanePoint,
    export_profile,
)
from conftest import (
    csv_text,
    near_threshold_dual_params,
    random_dual_params,
    random_single_params,
    wide_dual_params,
)

# phi = l1 t^49 + l2 t^(2.2e-16): the second term holds nearly all of phi
# below 0.9 T.
Q_NEXT_TO_1 = wl.ProblemParams(0.5, 50.0, 1.0000000000000002, 2.0, 2.0)


@pytest.fixture(scope="module")
def dual_weight(ref_params, ref_report):
    return wl.weight_from_report(ref_params, ref_report)


class TestPseudoHyperbolic:
    def test_examples(self):
        # s = d/(1 - d) at the squared pseudo-hyperbolic distances d = 1/9 and 1/5.
        i = HalfPlanePoint(0.0, 1.0)
        assert wl.radial_s(i, i) == 0.0
        assert wl.radial_s(HalfPlanePoint(0.0, 2.0), i) == 1 / 8
        assert wl.radial_s(HalfPlanePoint(1.0, 1.0), i) == 1 / 4

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = complex(rng.normal(), rng.uniform(0.01, 10))
            z0 = complex(rng.normal(), rng.uniform(0.01, 10))
            s1 = wl.radial_s(z, z0)
            s2 = wl.radial_s(z0, z)
            assert s1 == pytest.approx(s2, rel=1e-12)
            assert 0.0 <= s1 < math.inf

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            wl.radial_s(complex(0, -1), complex(0, 1))

    @pytest.mark.parametrize(
        "z, z0",
        [
            (complex(math.nan, 1.0), 1j),
            (complex(0.0, math.inf), 1j),
            (np.array([1j, complex(1.0, math.nan)]), 1j),
            (1j, complex(0.0, math.inf)),
        ],
        ids=["nan x", "inf y", "nan in array", "infinite centre"],
    )
    def test_rejects_non_finite_points(self, z, z0):
        with pytest.raises(ValueError, match="finite"):
            wl.radial_s(z, z0)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_denominator(self):
        # 4 y y0 underflows to 0 here, and |z - z0|^2 with it at close points:
        # that was 0/0, nan with a RuntimeWarning, or inf for a finite s.
        assert wl.radial_s(2e-170j, 1e-170j) == 1 / 8
        assert wl.radial_s(1e-170j, 1e-170j) == 0.0
        assert wl.radial_s(HalfPlanePoint(1e-170, 1e-170), HalfPlanePoint(0.0, 1e-170)) == 1 / 4
        assert wl.radial_s(1e-100 + 1e-170j, 1e-170j) == pytest.approx(2.5e139, rel=1e-15)
        assert wl.radial_s(1e5j, 1e-320j) == math.inf
        # Normal points in the same array keep the bits of the plain formula.
        normal = np.array([2j, 1.0 + 1e-170j, 3.0 + 0.5j])
        plain = np.abs(normal - 1j) ** 2 / (4.0 * normal.imag)
        got = wl.radial_s(np.array([2e-170j, *normal]), 1j)
        assert got[0] == pytest.approx(1.25e169, rel=1e-15) and np.array_equal(got[1:], plain)
        got = wl.radial_s(np.array([2e-170j, 1e-170j, 2j]), 1e-170j)
        assert got[0] == 1 / 8 and got[1] == 0.0 and got[2] == 4.0 / 8e-170

    def test_overflow_is_inf(self):
        # |z - z0|^2 = 1e400 overflows at these finite points; pytest turns
        # the overflow warning into an error.
        assert wl.radial_s(1e200 + 1e-200j, 1j) == math.inf
        assert np.array_equal(wl.radial_s(np.array([1e200 + 1j, 2j]), 1j), [math.inf, 1 / 8])


class TestPsiInverse:
    def test_at_zero_is_T(self, ref_params):
        m = wl.solve_multipliers(ref_params)
        assert wl.psi_inverse(0.0, m, ref_params) == pytest.approx(m.T, rel=1e-12)

    def test_infinite_argument_is_the_limit_zero(self, ref_params):
        dual = wl.solve_multipliers(ref_params)
        single = wl.multipliers(1.0, 0.0, ref_params)
        for m in (dual, single):
            assert wl.psi_inverse(math.inf, m, ref_params) == 0.0
            got = wl.psi_inverse(np.array([0.0, 1.0, math.inf]), m, ref_params)
            assert got[2] == 0.0 and got[0] == pytest.approx(m.T, rel=1e-12) and 0.0 < got[1] < got[0]

    def test_flat_log_phi_stops_at_the_root(self):
        # Over about 150 ulps of x = log t above the root, log phi rounds to
        # one value just above log c, so each Newton step lowers x by one ulp
        # only, too few steps to reach the root without the one-ulp stop.
        # The 40-digit root is 1.00021228226262344.
        params = wl.ProblemParams(
            6.3205289956917525, 29.40647064643592, 31.759824746714745, 1.0, 0.9974175789633138
        )
        m = wl.compute_bound(params).multipliers()
        s = 5.7306207524709585e-05
        assert wl.psi_inverse(s, m, params) == 1.0002122822626234
        assert wl.psi_inverse(np.array([0.0, s, 1.0]), m, params)[1] == 1.0002122822626234

    def test_float_and_array_paths_agree_to_8_eps(self, ref_params):
        # A float s runs math's exp and log1p, an array numpy's, so the two
        # may stop at neighbouring points of the rounding floor.  The widest
        # gap seen on the samplers is 4 eps relative, here on the reference
        # weight at s = 6.6194 (5 ulps of t there).
        s = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-20, 1e300, 1000)])
        rng = np.random.default_rng(7)
        weights = [(ref_params, wl.compute_bound(ref_params).multipliers())]
        while len(weights) < 21:
            params = wide_dual_params(rng)
            try:
                weights.append((params, wl.compute_bound(params).multipliers()))
            except (wl.SolverError, wl.QuadratureError):
                continue
        eps = np.finfo(float).eps
        for params, m in weights:
            array = wl.psi_inverse(s, m, params)
            floats = np.array([wl.psi_inverse(float(v), m, params) for v in s])
            assert np.all(np.abs(floats - array) <= 8.0 * eps * array), params

    def test_single_multiplier_example(self):
        # forward(t) = t^(-1/2) - 1 at (beta, p, l1, l2) = (1/2, 2, 1, 0),
        # so psi(1) solves t^(-1/2) = 2.
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        m = wl.multipliers(1.0, 0.0, params)
        assert wl.psi_inverse(1.0, m, params) == pytest.approx(0.25, rel=1e-12)

    def test_round_trips(self, ref_params):
        m = wl.solve_multipliers(ref_params)
        beta, p, q = ref_params.beta, ref_params.p, ref_params.q

        def forward(t):
            return (m.lambda1 * t ** (p - 1) + m.lambda2 * t ** (q - 1)) ** (
                -1.0 / (2 * beta + 1)
            ) - 1.0

        rng = np.random.default_rng(11)
        ts = rng.uniform(1e-4, m.T, size=100)
        s_back = np.array([forward(wl.psi_inverse(forward(t), m, ref_params)) for t in ts[:10]])
        assert np.allclose(s_back, [forward(t) for t in ts[:10]], rtol=1e-10, atol=1e-10)
        t_back = wl.psi_inverse(np.array([forward(t) for t in ts]), m, ref_params)
        assert np.allclose(t_back, ts, rtol=1e-10)
        # psi(S(t)) = t from 1e-6 T up to T, S = u/(4 pi) the level map, on
        # 16 draws of each of four samplers, single-regime weights included.
        rng = np.random.default_rng(5)
        draws = [
            sample(rng) for sample in (
                random_dual_params, lambda g: random_single_params(g)[0],
                near_threshold_dual_params, wide_dual_params,
            ) for _ in range(16)
        ]
        for params in draws:
            try:
                m = wl.compute_bound(params).multipliers()
            except wl.QuadratureError:
                continue  # a wide draw's typed failure, counted by its own contract test
            t = m.T * np.logspace(-6.0, 0.0, 200, endpoint=False)
            t_back = wl.psi_inverse(wl.u_eval(t, m, params) / FOUR_PI, m, params)
            assert np.all(np.abs(t_back - t) <= 1e-12 * t), params

    def test_q_next_to_1(self):
        # Newton's slope in the inversion of phi, taken in (p, q) order as
        # 49 + (2.2e-16 - 49) times the second term's share, rounded to 0.
        m = wl.compute_bound(Q_NEXT_TO_1).multipliers()
        t = m.T * np.logspace(-6.0, 0.0, 200, endpoint=False)
        s = wl.u_eval(t, m, Q_NEXT_TO_1) / FOUR_PI
        t_back = wl.psi_inverse(s, m, Q_NEXT_TO_1)
        # Below 0.9 T the level map is flat to 1e-15, so t is checked through it.
        assert np.all(np.abs(wl.u_eval(t_back, m, Q_NEXT_TO_1) / FOUR_PI - s) <= 1e-12 * s)
        near_peak = t >= 0.9 * m.T
        assert np.all(np.abs(t_back - t)[near_peak] <= 1e-12 * t[near_peak])
        assert wl.psi_inverse(float(s[-1]), m, Q_NEXT_TO_1) == pytest.approx(t[-1], rel=1e-12)

    def test_monotone_decreasing(self, ref_params):
        m = wl.solve_multipliers(ref_params)
        s = np.linspace(0.0, 50.0, 200)
        vals = wl.psi_inverse(s, m, ref_params)
        assert np.all(np.diff(vals) < 0)
        assert wl.psi_inverse(1e8, m, ref_params) < 1e-6


class TestEvalWeight:
    def test_center_value_is_peak(self, dual_weight, ref_report):
        val = wl.eval_weight(dual_weight, dual_weight.center)
        assert abs(val) == pytest.approx(ref_report.T, rel=1e-12)
        assert dual_weight.peak == pytest.approx(ref_report.T, rel=1e-12)

    def test_zero_where_s_overflows(self, dual_weight):
        # A finite half-plane point whose s is inf: the weight's limit 0.
        assert wl.eval_weight(dual_weight, 1e200 + 1e-200j) == 0.0
        vals = wl.eval_weight(dual_weight, np.array([1e200 + 1e-200j, dual_weight.center.z]))
        assert vals[0] == 0.0 and abs(vals[1]) == pytest.approx(dual_weight.peak, rel=1e-12)

    def test_vanishes_toward_the_boundary(self, dual_weight):
        # Deep in the tail the magnitude still follows psi: with p = 2 < q the
        # p term of phi rules, and psi(s) -> (1 + s)^-(2 beta + 1)/lambda1;
        # the q term is ~1e-55 of it.
        z = complex(0.0, 1e-15)
        s = wl.radial_s(z, dual_weight.center)
        beta, lam1 = dual_weight.params.beta, dual_weight.mults.lambda1
        tail = (1.0 + s) ** -(2.0 * beta + 1.0) / lam1
        assert abs(wl.eval_weight(dual_weight, z)) == pytest.approx(tail, rel=1e-12)
        assert abs(wl.eval_weight(dual_weight, complex(0.0, 1e-13))) < 1e-20
        assert abs(wl.eval_weight(dual_weight, complex(0.0, 1e-4))) < 1e-3

    def test_phase_is_global_constant(self, ref_params, ref_report):
        theta = 1.1
        w0 = wl.weight_from_report(ref_params, ref_report)
        w1 = wl.weight_from_report(ref_params, ref_report, phase=theta)
        zs = np.array([0.3 + 0.8j, -1.0 + 2.0j, 5.0 + 0.1j])
        v0, v1 = wl.eval_weight(w0, zs), wl.eval_weight(w1, zs)
        assert np.allclose(v1, np.exp(1j * theta) * v0, rtol=1e-14)
        assert np.allclose(np.abs(v1), np.abs(v0), rtol=1e-14)

    def test_magnitude_constant_on_hyperbolic_circles(self, dual_weight):
        rng = np.random.default_rng(5)
        z0 = dual_weight.center
        for s in (1 / 9, 1.0, 9.0):
            # s(z, z0) = s is the Euclidean circle about x0 + i y0 (1 + 2 s) of radius 2 y0 sqrt(s (1 + s)).
            centre, radius = complex(z0.x, z0.y * (1.0 + 2.0 * s)), 2.0 * z0.y * math.sqrt(s * (1.0 + s))
            zs = centre + radius * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
            assert np.allclose(wl.radial_s(zs, z0), s, rtol=1e-12, atol=0.0)
            mags = np.abs(wl.eval_weight(dual_weight, zs))
            assert np.max(np.abs(mags / mags[0] - 1.0)) < 1e-10

    def test_magnitude_nonincreasing_in_d(self, dual_weight):
        # s = d/(1 - d) increases with d.
        prof = dual_weight.profile()
        ss = np.linspace(0.0, 999999.0, 1000)
        vals = prof(ss)
        assert np.all(np.diff(vals) <= 0)

    def test_off_center_weight(self, ref_params, ref_report):
        center = HalfPlanePoint(2.0, 3.0)
        w = wl.weight_from_report(ref_params, ref_report, center=center)
        val = wl.eval_weight(w, center)
        assert abs(val) == pytest.approx(ref_report.T, rel=1e-12)


class TestWeightNorms:
    def test_dual_weights_hit_budgets(self, dual_weight, ref_params):
        pn, qn = wl.weight_norms(dual_weight)
        assert pn == pytest.approx(ref_params.A, rel=1e-6)
        assert qn == pytest.approx(ref_params.B, rel=1e-6)

    def test_single_p_norms(self):
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        report = wl.compute_bound(params)
        w = wl.weight_from_report(params, report)
        pn, qn = wl.weight_norms(w)
        consts = wl.derive_constants(params)
        assert pn == pytest.approx(1.0, rel=1e-8)
        assert qn == pytest.approx(consts.r2, rel=1e-8)


    def test_one_moment_pass_gives_each_norm(self, dual_weight, monkeypatch):
        # Both norms come from one moment call with both sides, bit for bit
        # the norms of the two one-side moments.
        single_p = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        single_q = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.1)
        weights = [dual_weight] + [wl.weight_from_report(params, wl.compute_bound(params))
                                   for params in (single_p, single_q)]
        expected = [tuple(wl.moment(w.mults, w.params, which) ** (1.0 / e)
                          for which, e in (("P", w.params.p), ("Q", w.params.q))) for w in weights]
        real = wl.solver.moment
        calls = []

        def counting(m, params, which):
            calls.append(which)
            return real(m, params, which)

        monkeypatch.setattr(wl.solver, "moment", counting)
        assert [wl.weight_norms(w) for w in weights] == expected
        assert calls == [("P", "Q")] * 3

    def test_single_weights_match_the_closed_form(self):
        # A single weight's own norm is its budget and its other norm the
        # closed form (4 pi alpha/(e - alpha))^(1/e) lam of the cross moment;
        # its operator norm is the closed-form bound.
        rng = np.random.default_rng(5)
        for _ in range(600):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            report = wl.compute_bound(params)
            lam = wl.single_bound(params, consts, side).lam
            w = wl.weight_from_report(params, report)
            own, other = (params.A, params.q) if side == "P" else (params.B, params.p)
            alpha = consts.alpha_p if side == "P" else consts.alpha_q
            cross = (FOUR_PI * alpha / (other - alpha)) ** (1.0 / other) * lam
            pn, qn = wl.weight_norms(w)
            got_own, got_cross = (pn, qn) if side == "P" else (qn, pn)
            assert got_own == pytest.approx(own, rel=1e-12), params
            assert got_cross == pytest.approx(cross, rel=1e-12), params
            assert wl.radial_operator_norm(w) == pytest.approx(report.bound, rel=1e-12), params


class TestRadialOperatorNorm:
    def test_equals_the_bound(self, ref_params, ref_report):
        rng = np.random.default_rng(43)
        instances = [ref_params] + [random_dual_params(rng) for _ in range(20)]
        instances += [random_single_params(rng)[0] for _ in range(10)]
        modes = set()
        for params in instances:
            report = wl.compute_bound(params)
            w = wl.weight_from_report(params, report)
            modes.add(report.regime)
            assert wl.radial_operator_norm(w) == pytest.approx(report.bound, rel=1e-12)
        assert modes == {"Dual", "SingleP", "SingleQ"}


class TestDistribution:
    def test_matches_solver_u(self, dual_weight):
        singles = [wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B) for B in (1.0, 0.2)]  # SingleP, SingleQ
        for w in [dual_weight] + [wl.weight_from_report(P, wl.compute_bound(P)) for P in singles]:
            ts = np.linspace(0.01 * w.peak, 0.99 * w.peak, 200)
            expected = wl.u_eval(ts, w.mults, w.params)
            worst = np.max(np.abs(wl.measured_distribution(w, ts) - expected) / expected)
            assert worst <= 1e-12, f"worst relative deviation {worst:.3e}"

    def test_levels_above_peak_measure_zero(self, dual_weight, ref_report):
        assert wl.measured_distribution(dual_weight, ref_report.T * 1.0001) == 0.0
        assert wl.measured_distribution(dual_weight, ref_report.T * 10) == 0.0


class TestExports:
    def test_profile_csv(self, dual_weight, tmp_path):
        path = tmp_path / "profile.csv"
        export_profile(dual_weight, str(path), n=64)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["d", "magnitude", "t", "u"]
        assert len(rows) == 65
        mags = [float(r[1]) for r in rows[1:]]
        assert mags[0] == pytest.approx(dual_weight.peak, rel=1e-12)
        assert all(b <= a for a, b in zip(mags, mags[1:]))
        ds = np.linspace(0.0, 1.0, 64, endpoint=False)
        ts = np.linspace(dual_weight.peak / 64, dual_weight.peak, 64)
        us = wl.u_eval(ts, dual_weight.mults, dual_weight.params)
        expected = csv_text(("d", "magnitude", "t", "u"), ds, dual_weight.profile()(ds / (1.0 - ds)), ts, us)
        assert path.read_bytes() == expected.encode()


class TestValidation:
    def test_half_plane_point(self):
        with pytest.raises(ValueError):
            HalfPlanePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            HalfPlanePoint(1.0, -2.0)
        for x, y in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                HalfPlanePoint(x, y)

    def test_mode_validation(self, ref_params):
        with pytest.raises(TypeError):
            wl.ExtremalWeight(params=ref_params, center=HalfPlanePoint(0, 1))


# psi at PSI_S for (beta, p, q), lambda1, lambda2, T, frozen from the
# 200-step bisection that the log-space Newton inversion replaced: the
# reference, an interior draw, a narrow window and the r1 side of the
# reference at delta = 1e-7 (lambda1 ~ 6e-27).
PSI_S = [0.0, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e6, 1e8]
GOLDEN_PSI = [
    ((0.5, 2.0, 4.0), 0.40244846820140256, 53.802045387209674, 0.2554821282527535,
     [0.2554821282527535, 0.2554821264242001, 0.25546384420013846, 0.25366826711427826,
      0.238558561159534, 0.1898314610227318, 0.1519722528483678, 0.1079437830655299,
      0.05114088781028603, 0.019538328427201053, 0.00024358106722811146, 2.4842932921677194e-08,
      2.4847852060963942e-12, 2.484790125973488e-16]),
    ((1.4164964083663072, 2.3073190458198107, 2.754424545143951), 1.0262810535218407, 0.7707179241193793, 0.6746980084645572,
     [0.6746980084645571, 0.6746979909919808, 0.6745233133273301, 0.6575273150759078,
      0.526613559666401, 0.23201025882394244, 0.10661107143133686, 0.03476266821526555,
      0.004870503413988722, 0.0008466089466568501, 1.3008636506077633e-06, 1.8342445700938346e-12,
      2.5100746066663476e-18, 3.433917216905166e-24]),
    ((1.2170607685153583, 4.662624485252961, 5.972640648016378), 1.6761638224614823, 2.34862661866014, 0.7265702228975747,
     [0.7265702228975746, 0.7265702170828827, 0.7265120809770345, 0.7208051047529613,
      0.673014558965261, 0.5224277362373682, 0.410711645806885, 0.29001499796895247,
      0.1567915042888493, 0.0902452850299578, 0.011455229967377866, 0.00015426376016497293,
      2.056276113324325e-06, 2.7406739099319174e-08]),
    ((0.5, 2.0, 4.0), 6.033365966272786e-27, 231.47097864799733, 0.1628675202543904,
     [0.16286752025439039, 0.16286751916860692, 0.16285666332444593, 0.1617907052836361,
      0.15284082055663123, 0.12429118005636264, 0.10260010855634302, 0.07829853703464257,
      0.04932498749295973, 0.03292855658601446, 0.007509659310268613, 0.00035086404496902947,
      1.6286741167613407e-05, 7.559640583312211e-07]),
]

# Far beyond the bisection's absolute floor T 2^-200: values of a 50-digit
# evaluation of phi(t) = (1 + s)^(-(2 beta + 1)) for (beta, p, q),
# lambda1, lambda2 = DEEP_TAIL at s = 1, 1e3, 1e6, 1e12, 1e100.
DEEP_TAIL = ((1.8657649116706672, 5.306149908164084, 5.961862900608292), 0.0006044307345032094, 2.8756665001040407)
DEEP_TAIL_S = [1.0, 1e3, 1e6, 1e12, 1e100]
DEEP_TAIL_PSI = [0.41730973739757493, 0.0011087038250899386, 1.2716514992545008e-06, 3.6478782764493006e-13, 7.396514506624349e-110]


class TestPsiInverseValues:
    @pytest.mark.parametrize("exponents, lam1, lam2, T, values", GOLDEN_PSI)
    def test_matches_frozen_values(self, exponents, lam1, lam2, T, values):
        params = wl.ProblemParams(*exponents, 1.0, 1.0)
        got = wl.psi_inverse(np.array(PSI_S), wl.Multipliers(lam1, lam2, T), params)
        values = np.array(values)
        # The bisection resolved T 2^-200 absolutely, so compare where that is small.
        kept = values > 1e-40
        assert np.all(np.abs(got[kept] - values[kept]) <= 1e-12 * values[kept])

    def test_deep_tail(self):
        exponents, lam1, lam2 = DEEP_TAIL
        params = wl.ProblemParams(*exponents, 1.0, 1.0)
        m = wl.multipliers(lam1, lam2, params)
        got = wl.psi_inverse(np.array(DEEP_TAIL_S), m, params)
        assert got == pytest.approx(DEEP_TAIL_PSI, rel=2e-13)

    def test_huge_argument_is_finite(self, ref_params, ref_report):
        m = ref_report.multipliers()
        for s in (1e300, np.array([0.0, 1e300])):
            vals = np.atleast_1d(wl.psi_inverse(s, m, ref_params))
            assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert wl.psi_inverse(0.0, m, ref_params) <= m.T


def _quad_norms(w, report):
    """(p-norm, q-norm) by scipy's adaptive quadrature of |F|^e over s = d/(1 - d).

    A single-regime weight is integrated in its closed form
    lam (1 + s)^(-1/alpha), independently of its multipliers.
    """
    params = w.params
    if report.regime == "Dual":
        def magnitude(s):
            return wl.psi_inverse(s, w.mults, params)
    else:
        consts = wl.derive_constants(params)
        side = report.regime[-1]
        alpha = consts.alpha_p if side == "P" else consts.alpha_q
        lam = wl.single_bound(params, consts, side).lam

        def magnitude(s):
            return lam * (1.0 + s) ** (-1.0 / alpha)

    norms = []
    for e in (params.p, params.q):
        val, _ = integrate.quad(lambda s: magnitude(s) ** e, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        norms.append((FOUR_PI * val) ** (1.0 / e))
    return norms


class TestWeightNormsAgainstQuad:
    def test_dual_and_single_weights(self, ref_params, ref_report):
        rng = np.random.default_rng(41)
        instances = [ref_params] + [random_dual_params(rng) for _ in range(20)]
        instances += [random_single_params(rng)[0] for _ in range(10)]
        modes = set()
        for params in instances:
            report = wl.compute_bound(params)
            w = wl.weight_from_report(params, report)
            modes.add(report.regime)
            assert wl.weight_norms(w) == pytest.approx(_quad_norms(w, report), rel=1e-9)
        assert modes == {"Dual", "SingleP", "SingleQ"}


def _worst_against_u(w, levels) -> float:
    expected = wl.u_eval(levels, w.mults, w.params)
    return float(np.max(np.abs(wl.measured_distribution(w, levels) - expected) / expected))


class TestMeasuredDistribution:
    def test_matches_u_eval(self, ref_params):
        # The reference, both single regimes, and 60 draws each of random,
        # near-threshold and single-regime weights: 183 in all.
        rng = np.random.default_rng(19)
        instances = [ref_params] + [wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B) for B in (1.0, 0.2)]
        instances += [random_dual_params(rng) for _ in range(60)]
        instances += [near_threshold_dual_params(rng) for _ in range(60)]
        instances += [random_single_params(rng)[0] for _ in range(60)]
        for params in instances:
            w = wl.weight_from_report(params, wl.compute_bound(params))
            levels = np.linspace(0.01, 0.99, 60) * w.peak
            worst = _worst_against_u(w, levels)
            assert worst <= 1e-12, (params, worst)

    def test_wide_domain(self):
        # The first 137 solved draws of the wide sampler (of its first 150
        # draws).  A bisection in d = s/(1 + s) missed 1e-4 on 57 of them,
        # wherever u(t) passed about 1e12 and 1 - d lost its digits.
        rng = np.random.default_rng(7)
        solved = 0
        while solved < 137:
            params = wide_dual_params(rng)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError):
                continue
            solved += 1
            w = wl.weight_from_report(params, report)
            levels = np.linspace(0.01, 0.99, 200) * w.peak
            worst = _worst_against_u(w, levels)
            assert worst <= 1e-12, (params, worst)


SINGLE_P = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s: wl.psi_inverse(s, wl.Multipliers(1.0, 0.5, 1.0), SINGLE_P),
        lambda s: wl.weight_from_report(SINGLE_P, wl.compute_bound(SINGLE_P)).profile()(s),
        lambda t: wl.distribution_of_profile(lambda s: np.exp(-s))(t),
    ],
    ids=["psi_inverse", "single_profile", "distribution_of_profile"],
)
@pytest.mark.parametrize(
    "arg", [math.nan, np.array([0.5, math.nan]), -1.0], ids=["nan", "nan in array", "negative"]
)
def test_nan_and_negative_arguments_are_value_errors(evaluate, arg):
    with pytest.raises(ValueError):
        evaluate(arg)
