import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

import wavelock as wl
from wavelock.closed_form import _side_fields, disc_measure
from graded_quadrature import _checked_integral
from wavelock.core import FOUR_PI
from conftest import random_single_params

# Frozen from 50-digit mpmath evaluations of the closed forms.
BOUND_P_REF = 0.1628675039676399738621282076127823349  # = 1/sqrt(12 pi)
BOUND_Q_REF = 0.3620853651710456641018198367231578514
LAM_P_REF = 0.4886025119029199215863846228383470046
R2_REF = 0.5655664664160920893771720964519743241


def make(beta, p, q, A, B):
    params = wl.ProblemParams(beta, p, q, A, B)
    return params, wl.derive_constants(params)


class TestSingleBound:
    def test_p_side_reference(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        res = wl.single_bound(params, consts, "P")
        assert res.bound == pytest.approx(BOUND_P_REF, rel=1e-14)
        assert res.lam == pytest.approx(LAM_P_REF, rel=1e-14)
        assert res.cross_norm == pytest.approx(R2_REF, rel=1e-13)

    def test_q_side_reference(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 0.1)
        res = wl.single_bound(params, consts, "Q")
        assert res.bound == pytest.approx(0.1 * BOUND_Q_REF, rel=1e-13)

    def test_regime_mismatch(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 0.4)
        with pytest.raises(wl.RegimeError):
            wl.single_bound(params, consts, "P")
        with pytest.raises(wl.RegimeError):
            wl.single_bound(params, consts, "Q")
        res = wl.single_bound(params, consts, "P", enforce_regime=False)
        assert res.bound == pytest.approx(BOUND_P_REF, rel=1e-14)

    @pytest.mark.parametrize("threshold", ["r1", "r2"])
    @pytest.mark.parametrize("offset", [-2e-12, -0.5e-12, 0.5e-12, 2e-12])
    def test_regime_rule_is_classify_regime(self, threshold, offset):
        # Within BOUNDARY_RTOL of a threshold the ratio belongs to the single
        # regime; just beyond it, to the dual one.
        _, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        params, consts = make(0.5, 2.0, 4.0, 1.0, getattr(consts, threshold) * (1.0 + offset))
        tag = wl.classify_regime(params, consts).tag
        for side in ("P", "Q"):
            if tag == "Single" + side:
                wl.single_bound(params, consts, side)
            else:
                with pytest.raises(wl.RegimeError):
                    wl.single_bound(params, consts, side)

    def test_swap_symmetry(self):
        params, consts = make(0.7, 2.5, 5.0, 1.3, 4.0)
        sw = params.swapped()
        res = wl.single_bound(params, consts, "P")
        res_sw = wl.single_bound(sw, wl.derive_constants(sw), "Q")
        assert res.bound == pytest.approx(res_sw.bound, rel=1e-15)
        assert res.lam == pytest.approx(res_sw.lam, rel=1e-15)

    def test_divergent_cross_norm(self):
        # q <= alpha_p: the q-norm of the p-extremizer is infinite.
        params, consts = make(0.1, 4.0, 1.5, 1.0, 0.01)
        res = wl.single_bound(params, consts, "P", enforce_regime=False)
        assert math.isinf(res.cross_norm)

    def test_cross_norm_agrees_with_classifier(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            res = wl.single_bound(params, consts, side)
            other_budget = params.B if side == "P" else params.A
            # Active regime means the extremal weight respects the other budget.
            assert res.cross_norm <= other_budget * (1 + 1e-12)


class TestSingleProfile:
    def test_endpoints(self):
        _, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        prof = wl.single_profile(consts, 2.5, "P")
        assert prof(0.0) == pytest.approx(2.5, rel=1e-15)
        assert prof(1.0 - 1e-12) < 1e-5
        ds = np.linspace(0.0, 0.999, 300)
        vals = prof(ds)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_alpha_zero(self):
        from wavelock.core import DerivedConstants

        degenerate = DerivedConstants(0.0, 1.0, 0.0, 0.5, 0.0, 0.5, None, None)
        with pytest.raises(ValueError):
            wl.single_profile(degenerate, 1.0, "P")

    def test_domain_validation(self):
        _, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        prof = wl.single_profile(consts, 1.0, "P")
        with pytest.raises(ValueError):
            prof(1.0)
        with pytest.raises(ValueError):
            prof(-0.1)


class TestDistribution:
    def test_zero_profile(self):
        v = wl.distribution_of_profile(lambda d: np.zeros_like(np.asarray(d, float)))
        assert v(0.5) == 0.0
        assert np.all(v(np.linspace(0, 3, 7)) == 0.0)

    def test_single_profile_closed_form(self):
        # v(t) = 4 pi ((t/lam)^(-alpha) - 1) on (0, lam]; at alpha = 1/2 and
        # t = lam/4 this is exactly 4 pi.
        _, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        lam = 1.0
        v = wl.distribution_of_profile(wl.single_profile(consts, lam, "P"))
        assert v(0.25) == pytest.approx(FOUR_PI, rel=1e-10)
        ts = np.linspace(0.05, 0.95, 25)
        expected = FOUR_PI * (ts ** (-consts.alpha_p) - 1.0)
        assert np.allclose(v(ts), expected, rtol=1e-10)
        assert v(1.0) == 0.0
        assert v(1.7) == 0.0

    def test_indicator_profile(self):
        t0, r0 = 2.0, 0.3

        def fn(d):
            d = np.asarray(d, dtype=float)
            return np.where(d < r0, t0, 0.0)

        v = wl.distribution_of_profile(fn)
        expected = FOUR_PI * r0 / (1.0 - r0)
        assert v(0.5) == pytest.approx(expected, rel=1e-10)
        assert v(1.99) == pytest.approx(expected, rel=1e-10)
        assert v(t0) == 0.0

    def test_against_grid_measure(self):
        # Brute force: sum the hyperbolic area element 4 pi/(1-d)^2 dd over
        # the super-level set on a fine d-grid.
        _, consts = make(0.8, 3.0, 2.0, 1.0, 1.0)
        prof = wl.single_profile(consts, 1.7, "Q")
        v = wl.distribution_of_profile(prof)
        d_grid = np.linspace(0.0, 1.0 - 1e-7, 400_001)
        mids = 0.5 * (d_grid[1:] + d_grid[:-1])
        areas = FOUR_PI / (1.0 - mids) ** 2 * np.diff(d_grid)
        vals = prof(mids)
        for t in (0.3, 0.9, 1.4):
            brute = float(np.sum(areas[vals > t]))
            assert v(t) == pytest.approx(brute, rel=2e-4)

    def test_disc_measure(self):
        assert disc_measure(0.0) == 0.0
        assert disc_measure(0.5) == pytest.approx(FOUR_PI, rel=1e-15)
        with pytest.raises(ValueError):
            disc_measure(1.0)


def _bisected_120(profile, t):
    """distribution_of_profile as it ran before it stopped at the fixed
    point: always 120 halvings, with the same top 1 - 1e-15."""
    top = 1.0 - 1e-15
    t_in = np.asarray(t, dtype=float)
    t_arr = np.atleast_1d(t_in)
    lo = np.zeros_like(t_arr)
    hi = np.full_like(t_arr, top)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        above = profile(mid) > t_arr
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    r = 0.5 * (lo + hi)
    out = FOUR_PI * r / (1.0 - r)
    out = np.where(profile(np.zeros_like(t_arr)) > t_arr, out, 0.0)
    out = np.where(profile(np.full_like(t_arr, top)) > t_arr, disc_measure(top), out)
    return out.reshape(t_in.shape)


def _indicator(t0=2.0, r0=0.3):
    return lambda d: np.where(np.asarray(d, dtype=float) < r0, t0, 0.0)


def _test_profiles(ref_params, ref_report):
    """(profile, peak) for the reference dual weight, a SingleP and a SingleQ
    weight, the indicator profile and the zero profile."""
    out = []
    regimes = []
    for params, report in (
        (ref_params, ref_report),
        *((p, wl.compute_bound(p)) for p in (
            wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0),
            wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2),
        )),
    ):
        w = wl.weight_from_report(params, report)
        out.append((w.profile(), w.peak))
        regimes.append(report.regime)
    assert regimes == ["Dual", "SingleP", "SingleQ"]
    out.append((_indicator(), 2.0))
    out.append((lambda d: np.zeros_like(np.asarray(d, float)), 0.0))
    return out


class _CountingProfile:
    """Wraps a profile and counts its evaluations."""

    def __init__(self, profile):
        self.calls = 0
        self.profile = profile

    def __call__(self, d):
        self.calls += 1
        return self.profile(d)

    def halvings(self, t) -> int:
        """Halvings distribution_of_profile runs at levels t: all its
        profile calls but the two at the ends of the bracket."""
        self.calls = 0
        wl.distribution_of_profile(self)(t)
        return self.calls - 2


class TestBisectionFixedPoint:
    def test_equals_the_120_halving_loop(self, ref_params, ref_report):
        for profile, peak in _test_profiles(ref_params, ref_report):
            levels = np.concatenate([
                [0.0, 5e-324, 1e-300, 1e-12 * peak],
                np.linspace(0.01, 0.99, 60) * peak,
                [peak, np.nextafter(peak, np.inf), 1.5 * peak + 1.0, 1e300],
            ])
            v = wl.distribution_of_profile(profile)
            assert np.array_equal(v(levels), _bisected_120(profile, levels))
            for t in (0.0, 0.37 * peak, peak):
                got = v(t)
                assert np.ndim(got) == 0
                assert got == _bisected_120(profile, t)

    def test_stops_within_64_halvings(self, ref_params, ref_report):
        single = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        for params, report in ((ref_params, ref_report), (single, wl.compute_bound(single))):
            w = wl.weight_from_report(params, report)
            counter = _CountingProfile(w.profile())
            interior = np.linspace(0.01, 0.99, 120) * w.peak
            halvings = counter.halvings(interior)
            assert 40 <= halvings <= 64
            # Levels at and above the peak are overwritten, so they must not
            # hold the loop open.
            beyond = np.concatenate([interior, [w.peak, 2.0 * w.peak, 1e300]])
            assert counter.halvings(beyond) <= halvings

    def test_levels_without_a_bracket_take_no_halving(self):
        counter = _CountingProfile(_indicator())
        assert counter.halvings(np.array([2.0, 3.0, 1e300])) == 0
        zero = _CountingProfile(lambda d: np.zeros_like(d))
        assert zero.halvings(np.array([0.0, 1.0])) == 0


@dataclass(frozen=True)
class MomentCheck:
    """Quadrature residuals of the two moment identities of a single profile."""

    side: str
    own_moment: float
    own_closed_form: float
    own_residual: float
    cross_moment: float
    cross_closed_form: float
    cross_residual: float | None

    @property
    def cross_diverges(self) -> bool:
        return math.isinf(self.cross_moment)


def _moment_of_single_profile(e: float, alpha: float, lam: float) -> float:
    """e * int t^(e-1) v(t) dt for v(t) = 4pi ((t/lam)^(-alpha) - 1) on (0, lam].

    After s = t/lam the integrand is s^(e-1-alpha) - s^(e-1) on (0, 1];
    the first exponent stays above -1 exactly when e > alpha.  It tends
    to -1 as the cross moment nears divergence, so the graded Gauss rule
    runs in y = s^(e-alpha), where the integrand becomes
    (1 - y^(alpha/(e-alpha)))/(e - alpha), bounded on (0, 1].
    """
    if e <= alpha:
        return math.inf
    m = 1.0 / (e - alpha)
    val = _checked_integral(
        lambda y: -m * np.expm1(alpha * m * np.log(y)),
        1.0,
        f"moment {e:g} of a single profile",
    )
    return FOUR_PI * e * lam**e * val


def verify_moment_identities(
    params: wl.ProblemParams,
    consts: wl.DerivedConstants,
    lam: float,
    side: str,
) -> MomentCheck:
    """Check the own- and cross-moment closed forms of a single profile.

    The own moment e * int t^(e-1) v dt must come out as 4 pi sigma_e
    lam^e (the budget to the e-th power when lam was matched to it); the
    cross moment must equal the threshold form (r * budget)^other, or
    diverge when other <= alpha_e.  Residuals are relative.
    """
    e, _, alpha, sigma, _, other = _side_fields(params, consts, side)

    own_closed = FOUR_PI * sigma * lam**e
    own = _moment_of_single_profile(e, alpha, lam)
    own_res = abs(own - own_closed) / own_closed

    cross_closed = (
        (FOUR_PI * alpha / (other - alpha)) * lam**other if other > alpha else math.inf
    )
    cross = _moment_of_single_profile(other, alpha, lam)
    if math.isinf(cross_closed) or math.isinf(cross):
        cross_res = None
    else:
        cross_res = abs(cross - cross_closed) / cross_closed

    return MomentCheck(
        side=side,
        own_moment=own,
        own_closed_form=own_closed,
        own_residual=own_res,
        cross_moment=cross,
        cross_closed_form=cross_closed,
        cross_residual=cross_res,
    )


class TestMomentIdentities:
    def test_reference_p_side(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        lam = wl.single_bound(params, consts, "P").lam
        chk = verify_moment_identities(params, consts, lam, "P")
        assert chk.own_closed_form == pytest.approx(1.0, rel=1e-13)  # = A^p
        assert chk.own_residual <= 1e-10
        assert chk.cross_residual is not None and chk.cross_residual <= 1e-10
        assert chk.cross_closed_form ** 0.25 == pytest.approx(R2_REF, rel=1e-13)

    def test_divergent_case(self):
        params, consts = make(0.1, 4.0, 1.5, 1.0, 1.0)
        chk = verify_moment_identities(params, consts, 1.0, "P")
        assert chk.cross_diverges
        assert math.isinf(chk.cross_moment)
        assert chk.cross_residual is None

    def test_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            lam = wl.single_bound(params, consts, side).lam
            chk = verify_moment_identities(params, consts, lam, side)
            budget = params.A if side == "P" else params.B
            e = params.p if side == "P" else params.q
            assert chk.own_closed_form == pytest.approx(budget**e, rel=1e-12)
            assert chk.own_residual <= 1e-9


class TestBoundEqualsIntegral:
    def integral_of_G_of_v(self, params, consts, side):
        lam = wl.single_bound(
            params, consts, side, enforce_regime=False
        ).lam
        v = wl.distribution_of_profile(wl.single_profile(consts, lam, side))

        def f(t):
            return wl.g_eval(float(v(t)), params.beta)

        val, _ = integrate.quad(f, 0.0, lam, epsabs=1e-13, epsrel=1e-11, limit=300)
        return val

    def test_reference(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        val = self.integral_of_G_of_v(params, consts, "P")
        assert val == pytest.approx(BOUND_P_REF, rel=1e-9)

    def test_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            closed = wl.single_bound(params, consts, side).bound
            val = self.integral_of_G_of_v(params, consts, side)
            assert val == pytest.approx(closed, rel=1e-8)
