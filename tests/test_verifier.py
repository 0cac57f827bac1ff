import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wavelock as wl
from conftest import random_dual_params, random_single_params
from wavelock import verifier
from graded_quadrature import _checked_integral
import oracle_sweep
from wavelock.verifier import (
    CauchyTransform,
    FrequencyGrid,
    PlaneGrid,
    cauchy_wavelet_hat,
    default_test_vectors,
    feasible_perturbation,
    grid_lebesgue_norm,
    indicator_disc,
    operator_norm,
    run_verification,
    sample_weight,
    wavelet_normalization,
)
from wavelock.weight import HalfPlanePoint, weight_from_report


def wavelet_norm_check(beta: float) -> float:
    """Quadrature value of 2 pi int |psi_hat|^2 dw/w; equals 1 by design.

    The graded Gauss rule takes w in (0, 1] and, through w = 1/x, the
    tail w >= 1.
    """

    def f(w):
        return cauchy_wavelet_hat(w, beta) ** 2 / w

    head = _checked_integral(f, 1.0, "wavelet norm on (0, 1]")
    tail = _checked_integral(lambda x: f(1.0 / x) / x**2, 1.0, "wavelet norm beyond 1")
    return 2.0 * math.pi * (head + tail)


def refinement_ladder(
    params: wl.ProblemParams, report: wl.BoundReport, levels: int = 3
) -> list[dict]:
    """Isometry defect and bound gap on successively refined grids.

    Level 0 has 12 frequency nodes per panel and an 81 x 72 plane grid;
    each level multiplies the panel node count and both plane resolutions
    by 1.5x.  Used to demonstrate that both discretization measures
    shrink together.
    """
    rows = []
    for lvl in range(levels):
        f = 1.5**lvl
        fgrid = FrequencyGrid.default(nodes_per_panel=int(8 * f) + 4)
        pgrid = PlaneGrid.default(nx=int(81 * f) | 1, ny=int(72 * f))
        machine = CauchyTransform(fgrid, pgrid, params.beta)
        defect = machine.isometry_defect(default_test_vectors(fgrid)[0])
        w = weight_from_report(params, report)
        F = sample_weight(w, pgrid)
        power = operator_norm(F, machine)
        rows.append(
            {
                "level": lvl,
                "defect": defect,
                "gap": abs(power.norm - report.bound) / report.bound,
                "norm": power.norm,
            }
        )
    return rows


class TestWavelet:
    def test_normalization_quadrature(self):
        # 2 pi int |psi_hat|^2 dw/w must equal 1 exactly by the choice of c_beta.
        for beta in (0.5, 1.0, 2.0):
            assert wavelet_norm_check(beta) == pytest.approx(1.0, abs=1e-10)

    def test_profile_shape(self):
        w = np.linspace(1e-4, 20, 2000)
        for beta in (0.5, 1.7):
            vals = wl.cauchy_wavelet_hat(w, beta)
            assert wl.cauchy_wavelet_hat(1e-12, beta) < 1e-5
            assert w[np.argmax(vals)] == pytest.approx(beta, rel=1e-2)
        assert wl.cauchy_wavelet_hat(-3.0, 0.5) == 0.0

    def test_normalization_constant(self):
        from scipy.special import gamma

        for beta in (0.3, 0.5, 2.5):
            assert wavelet_normalization(beta) == pytest.approx(
                2**beta / math.sqrt(2 * math.pi * gamma(2 * beta)), rel=1e-14
            )


class TestGrids:
    def test_frequency_grid_invariants(self):
        g = FrequencyGrid.default()
        assert np.all(g.omega > 0)
        assert np.all(np.diff(g.omega) > 0)
        assert np.all(g.weights > 0)
        # The rule integrates a smooth decaying profile to near machine accuracy.
        val = float(np.sum(g.omega**2 * np.exp(-2 * g.omega) * g.weights))
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_plane_grid_invariants(self):
        from scipy.special import kv

        g = PlaneGrid.default()
        assert np.all(g.y > 0)
        assert g.nu_weights.shape == (g.x.size, g.y.size)
        # Integrate a smooth decaying field against dnu = dx dy / y^2:
        # int exp(-x^2) dx * int y^2 exp(-y - 1/y) dy/y^2 = sqrt(pi) * 2 K_1(2).
        X, Y = g.mesh()
        field = np.exp(-(X**2)) * Y**2 * np.exp(-Y - 1.0 / Y)
        val = float(np.sum(field * g.nu_weights))
        exact = float(np.sqrt(np.pi) * 2.0 * kv(1, 2.0))
        assert val == pytest.approx(exact, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0, 0.5]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            PlaneGrid(
                np.array([0.0, 1.0]),
                np.array([-1.0, 1.0]),
                np.array([1.0, 1.0]),
                np.array([1.0, 1.0]),
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="frequency weights"):
            FrequencyGrid(np.array([0.5, 1.0]), np.array([0.1, 0.0]))
        ones = np.array([1.0, 1.0])
        for wx, wy in ((np.array([1.0, -1.0]), ones), (ones, np.array([0.0, 1.0]))):
            with pytest.raises(ValueError, match="plane weights"):
                PlaneGrid(np.array([0.0, 1.0]), ones, wx, wy)


class TestTransform:
    def test_isometry_on_default_grids(self, default_machine):
        defects = [default_machine.isometry_defect(f) for f in default_test_vectors(default_machine.fgrid)]
        assert max(defects) <= 1e-3

    def test_value_at_unit_scale_origin(self, default_machine):
        # Wf(0, 1) is the frequency inner product against the wavelet profile.
        fg = default_machine.fgrid
        fhat = (fg.omega * np.exp(-fg.omega)).astype(complex)
        W = default_machine.transform(fhat)
        i0 = np.argmin(np.abs(default_machine.pgrid.x))
        j0 = np.argmin(np.abs(default_machine.pgrid.y - 1.0))
        expected = fg.inner(fhat * wl.cauchy_wavelet_hat(fg.omega, 0.5), np.ones(fg.size))
        x0, y0 = default_machine.pgrid.x[i0], default_machine.pgrid.y[j0]
        direct = np.sqrt(y0) * np.sum(
            fhat * wl.cauchy_wavelet_hat(y0 * fg.omega, 0.5) * np.exp(1j * x0 * fg.omega) * fg.weights
        )
        assert W[i0, j0] == pytest.approx(direct, rel=1e-12)

    def test_linearity(self, coarse_machine):
        fg = coarse_machine.fgrid
        rng = np.random.default_rng(2)
        f = rng.normal(size=fg.size) * np.exp(-fg.omega) + 1j * rng.normal(size=fg.size) * np.exp(-fg.omega)
        g = rng.normal(size=fg.size) * np.exp(-0.7 * fg.omega)
        a, b = 1.3, -0.5 + 0.2j
        lhs = coarse_machine.transform(a * f + b * g)
        rhs = a * coarse_machine.transform(f) + b * coarse_machine.transform(g)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_scaling_covariance(self):
        # Replacing fhat(w) by sqrt(s) fhat(s w) turns the transform value at
        # (x, y) into the original one at (x/s, y/s).
        s = 2.0
        fg = FrequencyGrid.default(omega_max=60.0)
        pg = PlaneGrid.default(x_half=8.0, nx=33, y_min=0.25, y_max=4.0, ny=17)
        pg_scaled = PlaneGrid(pg.x / s, pg.y / s, pg.weight_x, pg.weight_y)
        m = CauchyTransform(fg, pg, 0.5)
        m_scaled = CauchyTransform(fg, pg_scaled, 0.5)

        def fhat(w):
            return w * np.exp(-w) * (1 + 0j)

        W_dilated = m.transform(np.sqrt(s) * fhat(s * fg.omega))
        W_at_scaled_pts = m_scaled.transform(fhat(fg.omega))
        big = np.abs(W_at_scaled_pts) > 1e-3 * np.abs(W_at_scaled_pts).max()
        assert np.allclose(W_dilated[big], W_at_scaled_pts[big], rtol=1e-6)


class TestLocalization:
    def test_zero_weight_gives_zero(self, coarse_machine):
        fg = coarse_machine.fgrid
        F = np.zeros((coarse_machine.pgrid.x.size, coarse_machine.pgrid.y.size))
        fhat = (fg.omega * np.exp(-fg.omega)).astype(complex)
        assert np.all(coarse_machine.localize(F, fhat) == 0.0)

    def test_self_adjoint_and_positive(self, coarse_machine):
        fg = coarse_machine.fgrid
        rng = np.random.default_rng(4)
        X, Y = coarse_machine.pgrid.mesh()
        F = np.exp(-0.1 * X**2) / (1.0 + (np.log(Y)) ** 2)
        f = rng.normal(size=fg.size) * np.exp(-fg.omega) + 1j * rng.normal(size=fg.size) * np.exp(-fg.omega)
        g = rng.normal(size=fg.size) * np.exp(-0.5 * fg.omega) + 0j
        Lf, Lg = coarse_machine.localize(F, f), coarse_machine.localize(F, g)
        lhs, rhs = fg.inner(Lf, g), fg.inner(f, Lg)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        rayleigh = np.real(fg.inner(Lf, f))
        assert rayleigh >= 0.0

    def test_identity_weight_truncation_sweep(self):
        # F = 1 on growing truncations: <Lf, f> climbs toward ||f||^2.
        fg = FrequencyGrid.default()
        vals = []
        for x_half, y_min, y_max, ny in ((5, 0.2, 5, 60), (15, 0.01, 15, 120), (30, 2e-4, 40, 240)):
            pg = PlaneGrid.default(x_half=x_half, nx=int(10 * x_half) | 1, y_min=y_min, y_max=y_max, ny=ny)
            m = CauchyTransform(fg, pg, 0.5)
            fhat = (fg.omega * np.exp(-fg.omega)).astype(complex)
            F = np.ones((pg.x.size, pg.y.size))
            val = np.real(fg.inner(m.localize(F, fhat), fhat)) / fg.norm(fhat) ** 2
            vals.append(val)
        assert vals[0] < vals[1] < vals[2] <= 1.0 + 1e-6
        assert vals[2] == pytest.approx(1.0, abs=2e-3)

    def test_indicator_disc_respects_kernel_bound(self, default_machine):
        # Localizing on a disc of measure s concentrates at most G(s).
        fg = default_machine.fgrid
        for s in (1.0, 5.0, 20.0):
            F = indicator_disc(default_machine.pgrid, s)
            cap = wl.g_eval(s, 0.5)
            for fhat in default_test_vectors(fg):
                val = np.real(fg.inner(default_machine.localize(F, fhat), fhat))
                val /= fg.norm(fhat) ** 2
                assert val <= cap * (1.0 + 1e-6)

    def test_phase_of_weight_preserves_applied_norm(self, coarse_machine):
        fg = coarse_machine.fgrid
        X, Y = coarse_machine.pgrid.mesh()
        F = np.exp(-0.2 * X**2 - np.log(Y) ** 2)
        fhat = (fg.omega**1.5 * np.exp(-fg.omega)).astype(complex)
        base = fg.norm(coarse_machine.localize(F, fhat))
        rotated = fg.norm(coarse_machine.localize(F * np.exp(1j * np.pi / 3), fhat))
        assert rotated == pytest.approx(base, rel=1e-12)


class TestOperatorNorm:
    def test_extremal_weight_window(self, default_machine, ref_params, ref_report):
        w = weight_from_report(ref_params, ref_report)
        F = sample_weight(w, default_machine.pgrid)
        res = wl.operator_norm(F, default_machine)
        assert res.converged
        ratio = res.norm / ref_report.bound
        assert 0.90 <= ratio <= 1.02
        assert len(res.history) == res.iterations

    def test_grid_norms_match_budgets(self, default_machine, ref_params, ref_report):
        w = weight_from_report(ref_params, ref_report)
        F = sample_weight(w, default_machine.pgrid)
        assert grid_lebesgue_norm(F, default_machine.pgrid, 2.0) == pytest.approx(1.0, abs=2e-3)
        assert grid_lebesgue_norm(F, default_machine.pgrid, 4.0) == pytest.approx(0.4, abs=2e-3)

    def test_perturbed_weights_strictly_below(self, default_machine, ref_params, ref_report):
        w = weight_from_report(ref_params, ref_report)
        F = sample_weight(w, default_machine.pgrid)
        base = wl.operator_norm(F, default_machine).norm
        rng = np.random.default_rng(7)
        for _ in range(3):
            Fp = feasible_perturbation(F, ref_params, default_machine.pgrid, rng)
            assert grid_lebesgue_norm(Fp, default_machine.pgrid, 2.0) <= 1.0 + 1e-9
            assert grid_lebesgue_norm(Fp, default_machine.pgrid, 4.0) <= 0.4 + 1e-9
            res = wl.operator_norm(Fp, default_machine)
            assert res.norm <= ref_report.bound * 1.02
            assert res.norm < base - 1e-3 * ref_report.bound

    def test_zero_weight_has_norm_zero(self, coarse_machine):
        pgrid = coarse_machine.pgrid
        res = wl.operator_norm(np.zeros((pgrid.x.size, pgrid.y.size)), coarse_machine)
        assert res.norm == 0.0 and res.converged and res.iterations == 1

    def test_iteration_cap_is_unconverged(self, coarse_machine, ref_params, ref_report, monkeypatch):
        monkeypatch.setattr(verifier, "_POWER_MAX_ITER", 2)
        F = sample_weight(weight_from_report(ref_params, ref_report), coarse_machine.pgrid)
        res = wl.operator_norm(F, coarse_machine)
        assert not res.converged
        assert res.iterations == 2 and res.norm == res.history[-1] > 0.0

    def test_refinement_ladder_shrinks(self, ref_params, ref_report):
        rows = refinement_ladder(ref_params, ref_report, levels=3)
        defects = [r["defect"] for r in rows]
        gaps = [r["gap"] for r in rows]
        assert defects[2] < defects[0]
        assert gaps[2] < gaps[0]


class TestSampleWeight:
    def test_is_the_modulus_at_phase_0_and_phase_free(self, ref_params, ref_report):
        pgrid = PlaneGrid.default()
        X, Y = pgrid.mesh()
        single = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)
        for w in (
            weight_from_report(ref_params, ref_report),
            weight_from_report(single, wl.compute_bound(single)),
        ):
            assert w.phase == 0.0
            F = sample_weight(w, pgrid)
            assert F.shape == X.shape
            assert np.array_equal(F, np.abs(wl.eval_weight(w, X + 1j * Y)))
            assert np.array_equal(sample_weight(replace(w, phase=1.3), pgrid), F)

    # Grids against the row blocks: smaller than one block, nx not a multiple
    # of the rows per block, and rows longer than a block (one row each).
    @pytest.mark.parametrize("nx, ny", [(81, 72), (59, 280), (3, 9000)])
    @pytest.mark.parametrize("center", [None, HalfPlanePoint(0.7, 2.5)])
    def test_blocks_match_one_pass(self, ref_params, ref_report, nx, ny, center):
        rows = max(1, verifier._SAMPLE_BLOCK // ny)
        assert (nx * ny < verifier._SAMPLE_BLOCK) or (nx % rows != 0) or (ny > verifier._SAMPLE_BLOCK)
        pgrid = PlaneGrid.default(nx=nx, ny=ny)
        X, Y = pgrid.mesh()
        single = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)
        for params, report in ((ref_params, ref_report), (single, wl.compute_bound(single))):
            w = weight_from_report(params, report, center)
            one_pass = w.profile()(wl.radial_s(X + 1j * Y, w.center))
            assert np.array_equal(sample_weight(w, pgrid), one_pass)

    def test_boundary_nodes_match_a_30_digit_psi(self, ref_params):
        # On the grid's edges s reaches 1.1e7 at (x, y) = (-30, 2.2e-5): formed
        # there through d = |z - i|^2/|z + i|^2, s = d/(1 - d) was off by 8.6e-9.
        mp = pytest.importorskip("mpmath")
        pgrid = PlaneGrid.default()
        nx, ny = pgrid.x.size, pgrid.y.size
        edges = [(i, j) for i in (0, nx - 1) for j in range(ny)]
        edges += [(i, j) for j in (0, ny - 1) for i in range(1, nx - 1)]
        for params in (ref_params, wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)):
            w = weight_from_report(params, wl.compute_bound(params))
            m = w.mults
            F = sample_weight(w, pgrid)
            with mp.workdps(30):
                lam1, lam2, T = mp.mpf(m.lambda1), mp.mpf(m.lambda2), mp.mpf(m.T)
                for i, j in edges:
                    x, y = mp.mpf(pgrid.x[i]), mp.mpf(pgrid.y[j])
                    # psi(s) solves log phi(t) = -(2 beta + 1) log(1 + s), in log t.
                    level = -(2 * mp.mpf(params.beta) + 1) * mp.log1p((x**2 + (y - 1) ** 2) / (4 * y))

                    def log_phi(u):
                        phi = lam1 * mp.exp((params.p - 1) * u) + lam2 * mp.exp((params.q - 1) * u)
                        return mp.log(phi) - level

                    exact = min(mp.exp(mp.findroot(log_phi, mp.log(T) + level)), T)
                    assert abs(F[i, j] - exact) <= 1e-13 * exact, (params, pgrid.x[i], pgrid.y[j])

    def test_traced_memory_stays_within_a_few_blocks(self, ref_params, ref_report):
        # The result alone is 0.64 MiB; one pass over the mesh peaked at
        # 8.4 MiB on the reference weight and 5.2 MiB on the single one.
        pgrid = PlaneGrid.default()
        single = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 0.2)
        for params, report in ((ref_params, ref_report), (single, wl.compute_bound(single))):
            w = weight_from_report(params, report)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sample_weight(w, pgrid)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, (params, peak)


def _rayleigh_at_wavelet(machine, F) -> float:
    """<L_F psi_hat, psi_hat>/||psi_hat||^2 on the machine's grids."""
    fg = machine.fgrid
    psi = wl.cauchy_wavelet_hat(fg.omega, machine.beta).astype(complex)
    return float(np.real(fg.inner(machine.localize(F, psi), psi))) / fg.norm(psi) ** 2


class TestRadialOperatorNorm:
    # The analyzing wavelet is the top eigenvector of a radial weight's
    # operator, so the grid's Rayleigh quotient there is the exact norm up
    # to grid error, which is largest at small beta.
    @pytest.mark.parametrize("B", [0.4, 0.2])
    def test_rayleigh_quotient_at_beta_half(self, default_machine, B):
        params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, B)
        w = weight_from_report(params, wl.compute_bound(params))
        exact = wl.radial_operator_norm(w)
        rq = _rayleigh_at_wavelet(default_machine, sample_weight(w, default_machine.pgrid))
        assert rq == pytest.approx(exact, rel=1e-3)

    def test_rayleigh_quotient_at_larger_beta(self):
        params = wl.ProblemParams(1.3, 2.0, 4.0, 1.0, 0.5)
        machine = CauchyTransform(FrequencyGrid.default(), PlaneGrid.default(), params.beta)
        w = weight_from_report(params, wl.compute_bound(params))
        exact = wl.radial_operator_norm(w)
        rq = _rayleigh_at_wavelet(machine, sample_weight(w, machine.pgrid))
        assert rq == pytest.approx(exact, rel=1e-6)


class TestRunVerification:
    def test_reference_instance_passes(self, ref_params):
        report = run_verification(ref_params)
        assert report.ok, report.failures()
        assert abs(report.oracle_rel_gap) <= 0.01
        assert abs(report.operator_rel_gap) <= 1e-8
        assert report.wall_time_s > 0
        assert "isometry" not in report.checks

    def test_default_passes_on_test_suite_draws(self):
        rng = np.random.default_rng(2024)
        for i in range(24):
            params = random_single_params(rng)[0] if i % 3 == 2 else random_dual_params(rng)
            report = run_verification(params)
            assert report.ok, (params, report.failures())
            assert abs(report.operator_rel_gap) <= 1e-8
            assert report.oracle_pointwise_err <= 0.02

    def test_oracle_certificate_is_gated(self, ref_params):
        report = run_verification(ref_params, oracle_points=800)
        assert report.checks["oracle_converged"] is True
        assert report.oracle_converged
        assert report.oracle_duality_gap <= 1e-6

    @pytest.fixture
    def corrupted(self, monkeypatch):
        """The operator check sees the weight scaled by 1.5, past both budgets."""
        original = verifier.radial_operator_norm
        monkeypatch.setattr(verifier, "radial_operator_norm", lambda w: 1.5 * original(w))

    def test_corruption_hook_fails(self, ref_params, corrupted):
        report = run_verification(ref_params)
        assert not report.ok
        assert "operator_window" in report.failures()

    def test_corruption_hook_fails_exact_path(self, ref_params, corrupted):
        report = run_verification(ref_params, oracle_points=800)
        assert report.failures() == ["operator_window"]
        assert report.operator_rel_gap == pytest.approx(0.5, rel=1e-8)


class TestVerifyDomain:
    # run_verification on every solved draw of tests/oracle_sweep.py's
    # samplers: pass counts as floors at their measured values, and every
    # failure of a cause measured for its sampler.  Wide draw 139
    # (min(p, q) = 48.1, |q - p|/min(p, q) = 0.003, nearly parallel moment
    # rows) fails oracle_pointwise; every tiny-budget draw's p row
    # underflows to 0 on the oracle's grid.
    MEASURED = {
        "random": (300, set()),
        "near-threshold": (300, set()),
        "single": (100, set()),
        "wide": (136, {"oracle_pointwise"}),
        "band": (134, set()),
        "tiny": (0, {"OracleError: moment row p underflows"}),
    }

    @pytest.mark.parametrize("sampler", list(MEASURED))
    def test_solved_draws_verify(self, sampler):
        passed, causes = self.MEASURED[sampler]
        tally = oracle_sweep.verify_tally(sampler)
        assert tally.passed >= passed, (sampler, tally)
        assert set(tally.failures.values()) <= causes, (sampler, tally.failures)
