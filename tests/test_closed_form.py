import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

import wavelock as wl
from wavelock.closed_form import _S_TOP, _side_fields
from graded_quadrature import _checked_integral
from wavelock.core import FOUR_PI
from conftest import random_single_params, wide_dual_params

# Frozen from 50-digit mpmath evaluations of the closed forms.
BOUND_P_REF = 0.1628675039676399738621282076127823349  # = 1/sqrt(12 pi)
BOUND_Q_REF = 0.3620853651710456641018198367231578514
LAM_P_REF = 0.4886025119029199215863846228383470046
R2_REF = 0.5655664664160920893771720964519743241


def make(beta, p, q, A, B):
    params = wl.ProblemParams(beta, p, q, A, B)
    return params, wl.derive_constants(params)


def cross_norm(params, consts, side, **kwargs):
    """The other norm of the ``side`` extremal weight, lam (1 + s)^(-1/alpha_e),
    by weight_norms on its one-term multipliers (lam^(1-e), with T = lam)."""
    lam = wl.single_bound(params, consts, side, **kwargs).lam
    e = params.p if side == "P" else params.q
    seed = lam ** (1.0 - e)
    mults = wl.Multipliers(seed, 0.0, lam) if side == "P" else wl.Multipliers(0.0, seed, lam)
    norms = wl.weight_norms(wl.ExtremalWeight(params, wl.HalfPlanePoint(0.0, 1.0), mults))
    return norms[1] if side == "P" else norms[0]


class TestSingleBound:
    def test_p_side_reference(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        res = wl.single_bound(params, consts, "P")
        assert res.bound == pytest.approx(BOUND_P_REF, rel=1e-14)
        assert res.lam == pytest.approx(LAM_P_REF, rel=1e-14)
        assert cross_norm(params, consts, "P") == pytest.approx(R2_REF, rel=1e-13)

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

    def test_side_validation(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="side"):
            wl.single_bound(params, consts, "R")

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
        assert math.isinf(cross_norm(params, consts, "P", enforce_regime=False))

    def test_cross_norm_agrees_with_classifier(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            other_budget = params.B if side == "P" else params.A
            # Active regime means the extremal weight respects the other budget.
            assert cross_norm(params, consts, side) <= other_budget * (1 + 1e-12)


def single_weight(params):
    """The extremal weight of a single-regime instance, lam (1 + s)^(-1/alpha_e)
    with lam = T: psi at one zero multiplier."""
    return wl.weight_from_report(params, wl.compute_bound(params))


class TestSingleProfile:
    def test_endpoints(self):
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        prof = single_weight(params).profile()
        assert prof(0.0) == pytest.approx(wl.single_bound(params, consts, "P").lam, rel=1e-15)
        assert prof(1e12) < 1e-5
        ss = np.linspace(0.0, 999.0, 300)
        vals = prof(ss)
        assert np.all(np.diff(vals) < 0)

    def test_domain_validation(self):
        prof = single_weight(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)).profile()
        with pytest.raises(ValueError):
            prof(-0.1)
        with pytest.raises(ValueError):
            prof(np.array([1.0, -np.inf]))


class TestDistribution:
    def test_zero_profile(self):
        v = wl.distribution_of_profile(lambda s: np.zeros_like(np.asarray(s, float)))
        assert v(0.5) == 0.0
        assert np.all(v(np.linspace(0, 3, 7)) == 0.0)

    def test_single_profile_closed_form(self):
        # v(t) = 4 pi ((t/lam)^(-alpha) - 1) on (0, lam]; at alpha = 1/2 and
        # t = lam/4 this is exactly 4 pi.
        params, consts = make(0.5, 2.0, 4.0, 1.0, 1.0)
        w = single_weight(params)
        lam = w.peak
        v = wl.distribution_of_profile(w.profile())
        assert v(0.25 * lam) == pytest.approx(FOUR_PI, rel=1e-10)
        ts = np.linspace(0.05, 0.95, 25)
        expected = FOUR_PI * (ts ** (-consts.alpha_p) - 1.0)
        assert np.allclose(v(ts * lam), expected, rtol=1e-10)
        assert v(lam) == 0.0
        assert v(1.7 * lam) == 0.0

    def test_indicator_profile(self):
        t0, s0 = 2.0, 0.3 / 0.7

        def fn(s):
            s = np.asarray(s, dtype=float)
            return np.where(s < s0, t0, 0.0)

        v = wl.distribution_of_profile(fn)
        expected = FOUR_PI * s0
        assert v(0.5) == pytest.approx(expected, rel=1e-10)
        assert v(1.99) == pytest.approx(expected, rel=1e-10)
        assert v(t0) == 0.0

    def test_against_grid_measure(self):
        # Brute force: sum the hyperbolic area element 4 pi/(1-d)^2 dd over
        # the super-level set on a fine grid in d, where s = d/(1 - d).
        # A SingleQ weight with lam = 1.734.
        prof = single_weight(wl.ProblemParams(0.8, 3.0, 2.0, 3.0, 3.0)).profile()
        v = wl.distribution_of_profile(prof)
        d_grid = np.linspace(0.0, 1.0 - 1e-7, 400_001)
        mids = 0.5 * (d_grid[1:] + d_grid[:-1])
        areas = FOUR_PI / (1.0 - mids) ** 2 * np.diff(d_grid)
        vals = prof(mids / (1.0 - mids))
        for t in (0.3, 0.9, 1.4):
            brute = float(np.sum(areas[vals > t]))
            assert v(t) == pytest.approx(brute, rel=2e-4)


def _bisected_63(profile, t):
    """distribution_of_profile without its stop: always 63 halvings of the
    bit patterns of s, with the same top."""
    t_in = np.asarray(t, dtype=float)
    t_arr = np.atleast_1d(t_in)
    lo = np.zeros(t_arr.shape, dtype=np.int64)
    hi = np.full(t_arr.shape, np.float64(_S_TOP).view(np.int64))
    for _ in range(63):
        mid = lo + (hi - lo) // 2
        above = profile(mid.view(np.float64)) > t_arr
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    out = FOUR_PI * hi.view(np.float64)
    out = np.where(profile(np.zeros_like(t_arr)) > t_arr, out, 0.0)
    out = np.where(profile(np.full_like(t_arr, _S_TOP)) > t_arr, np.inf, out)
    return out.reshape(t_in.shape)


def _indicator(t0=2.0, s0=0.3 / 0.7):
    return lambda s: np.where(np.asarray(s, dtype=float) < s0, t0, 0.0)


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
    out.append((lambda s: np.zeros_like(np.asarray(s, float)), 0.0))
    return out


class _CountingProfile:
    """Wraps a profile and counts its evaluations."""

    def __init__(self, profile):
        self.calls = 0
        self.profile = profile

    def __call__(self, s):
        self.calls += 1
        return self.profile(s)

    def steps(self, t) -> int:
        """Search steps distribution_of_profile takes at levels t: all its
        profile calls but the two at the ends of the bracket."""
        self.calls = 0
        wl.distribution_of_profile(self)(t)
        return self.calls - 2


def _assert_valid_brackets(profile, levels, got, msg=None):
    """Each got is 4 pi sigma for a double sigma that closes its level's
    bracket: the profile lies above the level just below sigma and not above
    it at sigma.  Every double sigma with 4 pi sigma rounding to got is tried."""
    near = (got / FOUR_PI).view(np.int64)
    valid = np.zeros(levels.shape, dtype=bool)
    for k in (-1, 0, 1):
        sigma = (near + k).view(np.float64)
        below = np.nextafter(sigma, 0.0)
        valid |= (FOUR_PI * sigma == got) & (profile(below) > levels) & (profile(sigma) <= levels)
    assert np.all(valid), msg


class TestBisectionFixedPoint:
    def test_equals_the_63_halving_loop(self, ref_params, ref_report):
        for i, (profile, peak) in enumerate(_test_profiles(ref_params, ref_report)):
            levels = np.concatenate([
                [0.0, 5e-324, 1e-300, 1e-12 * peak],
                np.linspace(0.01, 0.99, 60) * peak,
                [peak, np.nextafter(peak, np.inf), 1.5 * peak + 1.0, 1e300],
            ])
            v = wl.distribution_of_profile(profile)
            got, loop = v(levels), _bisected_63(profile, levels)
            if i == 0:
                # The reference dual weight: psi_inverse need not be monotone
                # at the last bit of its multipliers, so the search and the
                # loop may close different valid brackets (as on the wide
                # domain below); where the set is empty both read 0.
                inside = loop > 0.0
                assert np.array_equal(got[~inside], loop[~inside])
                assert np.all(np.abs(got[inside] / loop[inside] - 1.0) <= 1e-14)
                for closed in (got, loop):
                    _assert_valid_brackets(profile, levels[inside], closed[inside])
            else:
                assert np.array_equal(got, loop)
            for t in (0.0, 0.37 * peak, peak):
                got = v(t)
                assert np.ndim(got) == 0
                assert got == _bisected_63(profile, t)

    def test_closes_within_24_steps(self, ref_params, ref_report):
        # The reference dual, a SingleP and a SingleQ weight, at the levels
        # of the benchmark's weights workload; the bisection took 63 steps.
        for profile, peak in _test_profiles(ref_params, ref_report)[:3]:
            counter = _CountingProfile(profile)
            interior = np.linspace(0.01, 0.99, 120) * peak
            steps = counter.steps(interior)
            assert steps <= 24
            # Levels at and above the peak are overwritten, so they must not
            # hold the loop open.
            beyond = np.concatenate([interior, [peak, 2.0 * peak, 1e300]])
            assert counter.steps(beyond) <= steps

    def test_pathological_levels_within_130_calls(self, ref_params, ref_report):
        # Twice the 65 calls of the bisection, at levels where
        # v = log profile - log t is infinite or coarse (0 and the subnormals),
        # far down the tail, and just above the peak.
        for profile, peak in _test_profiles(ref_params, ref_report):
            counter = _CountingProfile(profile)
            levels = np.array([0.0, 5e-324, 1e-300, 1e-12 * peak, np.nextafter(peak, np.inf)])
            assert counter.steps(levels) + 2 <= 130

    def test_jump_that_defeats_the_secant_within_126_steps(self):
        # A drop by 300 decades at s = 1e-100: secant steps across it barely
        # move the bracket, and the bisection after each stalled step caps
        # the search at 2 * 63 steps.
        def jump(s):
            return np.where(np.asarray(s, dtype=float) < 1e-100, 1.0, 1e-300)

        levels = np.array([0.5, 0.41, 0.9])
        assert _CountingProfile(jump).steps(levels) <= 2 * 63
        assert np.array_equal(wl.distribution_of_profile(jump)(levels), _bisected_63(jump, levels))

    def test_wide_domain_brackets(self):
        # psi_inverse is not monotone at the last bit on some wide weights, so
        # the search and the bisection may close different brackets there; each
        # must be valid and the two must agree to a few ulps.
        rng = np.random.default_rng(7)
        solved = 0
        while solved < 40:
            params = wide_dual_params(rng)
            try:
                report = wl.compute_bound(params)
            except (wl.SolverError, wl.QuadratureError):
                continue
            solved += 1
            profile = wl.weight_from_report(params, report).profile()
            levels = np.linspace(0.01, 0.99, 200) * report.T
            got = wl.distribution_of_profile(profile)(levels)
            assert np.all(np.abs(got / _bisected_63(profile, levels) - 1.0) <= 1e-14), params
            _assert_valid_brackets(profile, levels, got, params)

    def test_levels_without_a_bracket_take_no_halving(self):
        counter = _CountingProfile(_indicator())
        assert counter.steps(np.array([2.0, 3.0, 1e300])) == 0
        zero = _CountingProfile(lambda s: np.zeros_like(s))
        assert zero.steps(np.array([0.0, 1.0])) == 0


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
    e, _, sigma, _ = _side_fields(params, consts, side)
    alpha, other = (consts.alpha_p, params.q) if side == "P" else (consts.alpha_q, params.p)

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
    def integral_of_G_of_v(self, params):
        w = single_weight(params)
        v = wl.distribution_of_profile(w.profile())

        def f(t):
            return wl.g_eval(float(v(t)), params.beta)

        val, _ = integrate.quad(f, 0.0, w.peak, epsabs=1e-13, epsrel=1e-11, limit=300)
        return val

    def test_reference(self):
        val = self.integral_of_G_of_v(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0))
        assert val == pytest.approx(BOUND_P_REF, rel=1e-9)

    def test_random_instances(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            params, side = random_single_params(rng)
            consts = wl.derive_constants(params)
            closed = wl.single_bound(params, consts, side).bound
            val = self.integral_of_G_of_v(params)
            assert val == pytest.approx(closed, rel=1e-8)
