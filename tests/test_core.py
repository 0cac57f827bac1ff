import math

import numpy as np
import pytest

import wavelock as wl
from wavelock.closed_form import single_bound
from wavelock.core import FOUR_PI

# Frozen from a 50-digit mpmath evaluation of the defining formulas at
# (beta, p, q) = (0.5, 2, 4).
R1_REF = 0.2698824967267642906119398340148430532
R2_REF = 0.5655664664160920893771720964519743241


def consts_ref():
    return wl.derive_constants(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0))


class TestParams:
    def test_rejects_equal_exponents(self):
        with pytest.raises(wl.ParameterError, match="distinct"):
            wl.ProblemParams(0.5, 2.0, 2.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=0.0, p=2, q=4, A=1, B=1),
            dict(beta=-1.0, p=2, q=4, A=1, B=1),
            dict(beta=0.5, p=1.0, q=4, A=1, B=1),
            dict(beta=0.5, p=2, q=0.5, A=1, B=1),
            dict(beta=0.5, p=2, q=4, A=0.0, B=1),
            dict(beta=0.5, p=2, q=4, A=1, B=-2.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(wl.ParameterError):
            wl.ProblemParams(**kwargs)

    def test_swap_and_canonical(self):
        params = wl.ProblemParams(0.5, 4.0, 2.0, 0.3, 1.0)
        canon, swapped = wl.canonical_order(params)
        assert swapped
        assert (canon.p, canon.q, canon.A, canon.B) == (2.0, 4.0, 1.0, 0.3)
        canon2, swapped2 = wl.canonical_order(canon)
        assert not swapped2 and canon2 == canon


class TestDerivedConstants:
    def test_reference_values(self):
        c = consts_ref()
        assert c.alpha_p == pytest.approx(0.5, rel=1e-15)
        assert c.sigma_p == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert c.kappa_p == pytest.approx(0.5, rel=1e-15)
        assert c.alpha_q == pytest.approx(1.5, rel=1e-15)
        assert c.sigma_q == pytest.approx(0.6, rel=1e-15)
        assert c.kappa_q == pytest.approx(0.75, rel=1e-15)
        assert c.r1 == pytest.approx(R1_REF, rel=1e-14)
        assert c.r2 == pytest.approx(R2_REF, rel=1e-14)

    def test_p_to_one_limit(self):
        c = wl.derive_constants(wl.ProblemParams(0.7, 1.0 + 1e-12, 3.0, 1.0, 1.0))
        assert c.alpha_p < 1e-11
        assert c.sigma_p < 1e-11

    def test_sigma_identity_random_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            beta = rng.uniform(0.1, 5.0)
            p = rng.uniform(1.0 + 1e-6, 10.0)
            q = rng.uniform(1.0 + 1e-6, 10.0)
            if p == q:
                continue
            c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
            for alpha, sigma, e in (
                (c.alpha_p, c.sigma_p, p),
                (c.alpha_q, c.sigma_q, q),
            ):
                assert sigma == pytest.approx(alpha / (e - alpha), rel=1e-14)
                assert alpha < e - 1.0

    def test_threshold_swap_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = rng.uniform(0.1, 5.0)
            p = rng.uniform(1.0 + 1e-3, 10.0)
            q = rng.uniform(1.0 + 1e-3, 10.0)
            if abs(p - q) < 1e-9:
                continue
            c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
            cs = wl.derive_constants(wl.ProblemParams(beta, q, p, 1.0, 1.0))
            if c.r1 is not None:
                assert cs.r2 is not None
                assert c.r1 * cs.r2 == pytest.approx(1.0, rel=1e-12)
            if c.r2 is not None:
                assert cs.r1 is not None
                assert c.r2 * cs.r1 == pytest.approx(1.0, rel=1e-12)

    def test_threshold_definedness(self):
        # q <= alpha_p knocks out r2 but never both thresholds.
        c = wl.derive_constants(wl.ProblemParams(0.1, 4.0, 1.5, 1.0, 1.0))
        assert c.alpha_p == pytest.approx(3.0 / 1.2, rel=1e-15)
        assert c.r2 is None and c.r1 is not None
        rng = np.random.default_rng(11)
        for _ in range(300):
            beta = rng.uniform(0.05, 5.0)
            p = rng.uniform(1.001, 10.0)
            q = rng.uniform(1.001, 10.0)
            if p == q:
                continue
            c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
            assert c.r1 is not None or c.r2 is not None
            if c.r1 is not None and c.r2 is not None:
                assert c.r1 < c.r2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_thresholds_tied_by_rounding_are_silent(self):
        # At |p - q| = 1e-13, r1 and r2 agree to rounding; the regime logic
        # resolves the tie and the two single bounds meet there.
        params = wl.ProblemParams(0.5, 2.0, 2.0000000000001, 1.0, 0.9)
        c = wl.derive_constants(params)
        assert c.r1 == pytest.approx(c.r2, rel=1e-12)
        assert wl.compute_bound(params).regime == "SingleQ"
        at = wl.ProblemParams(0.5, 2.0, 2.0000000000001, 1.0, c.r1)
        single_p, single_q = (single_bound(at, c, side, enforce_regime=False).bound for side in "PQ")
        assert single_p == pytest.approx(single_q, rel=1e-12)


class TestRegime:
    def test_reference_classification(self):
        for B, tag in ((1.0, "SingleP"), (0.1, "SingleQ"), (0.4, "Dual")):
            params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)
            regime = wl.classify_regime(params, wl.derive_constants(params))
            assert regime.tag == tag
            assert not regime.boundary

    def test_boundary_flag(self):
        base = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
        c = wl.derive_constants(base)
        at_r2 = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, c.r2 * (1.0 + 1e-13))
        regime = wl.classify_regime(at_r2, c)
        assert regime.tag == "SingleP" and regime.boundary
        at_r1 = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, c.r1 * (1.0 - 1e-13))
        regime = wl.classify_regime(at_r1, c)
        assert regime.tag == "SingleQ" and regime.boundary

    def test_swap_invariance(self):
        rng = np.random.default_rng(5)
        swap_tag = {"SingleP": "SingleQ", "SingleQ": "SingleP", "Dual": "Dual"}
        for _ in range(100):
            p, q = rng.uniform(1.1, 8.0, size=2)
            if p == q:
                continue
            params = wl.ProblemParams(
                rng.uniform(0.1, 3.0), p, q, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0)
            )
            tag = wl.classify_regime(params, wl.derive_constants(params)).tag
            sw = params.swapped()
            tag_sw = wl.classify_regime(sw, wl.derive_constants(sw)).tag
            assert tag_sw == swap_tag[tag]


class TestKernel:
    def test_g_examples(self):
        assert wl.g_eval(0.0, 0.5) == 0.0
        assert wl.g_eval(0.0, 2.3) == 0.0
        assert wl.g_eval(FOUR_PI, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert wl.g_eval(1e12, 0.5) == pytest.approx(1.0, abs=1e-5)

    def test_g_rejects_negative(self):
        with pytest.raises(ValueError):
            wl.g_eval(-0.1, 0.5)
        with pytest.raises(ValueError):
            wl.g_eval(np.array([0.5, -2.0]), 0.5)

    def test_monotone_concave_and_cap(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            beta = rng.uniform(0.1, 5.0)
            s1, s2 = sorted(rng.uniform(0.0, 100.0, size=2))
            if s1 == s2:
                continue
            assert wl.g_eval(s1, beta) < wl.g_eval(s2, beta)
            # Concave: the chord lies below G at the midpoint.
            mid = wl.g_eval(0.5 * (s1 + s2), beta)
            assert mid >= 0.5 * (wl.g_eval(s1, beta) + wl.g_eval(s2, beta))
            cap = min(1.0, beta / (2 * math.pi) * s2)
            assert wl.g_eval(s2, beta) <= cap + 1e-15

    def test_vector_and_scalar_forms(self):
        s = np.linspace(0.0, 5.0, 11)
        vec = wl.g_eval(s, 0.7)
        assert vec.shape == s.shape
        assert vec[3] == wl.g_eval(float(s[3]), 0.7)
