"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance below is fixed by the acceptance
contract, not calibrated after the fact.
"""

import time

import numpy as np

import wavelock as wl
from wavelock.core import FOUR_PI, _graded_gauss
from wavelock.oracle import run_oracle
from wavelock.verifier import (
    CauchyTransform,
    FrequencyGrid,
    PlaneGrid,
    default_test_vectors,
    feasible_perturbation,
    operator_norm,
    sample_weight,
)
from wavelock.weight import measured_distribution, weight_from_report, weight_norms
from conftest import random_dual_params, random_single_params

BOUND_P_REF = 0.1628675039676399738621282076127823349  # 1/sqrt(12 pi)
R2_LIMIT_REF = 0.4886025119029199215863846228383470046  # (4 pi sigma_p)^(-1/p)


def _report(n, name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {n} ({name}): PASS in {elapsed:.2f}s (budget {budget}s) {detail}")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s runtime budget"


def test_criterion_1_constant_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        beta = rng.uniform(0.1, 5.0)
        p, q = rng.uniform(1.0 + 1e-9, 10.0, size=2)
        if p == q:
            continue
        c = wl.derive_constants(wl.ProblemParams(beta, p, q, 1.0, 1.0))
        cs = wl.derive_constants(wl.ProblemParams(beta, q, p, 1.0, 1.0))
        for alpha, sigma, e in ((c.alpha_p, c.sigma_p, p), (c.alpha_q, c.sigma_q, q)):
            assert abs(sigma - alpha / (e - alpha)) <= 1e-12 * sigma
        if c.r1 is not None:
            assert cs.r2 is not None
            assert abs(c.r1 * cs.r2 - 1.0) <= 1e-12
        if c.r2 is not None:
            assert cs.r1 is not None
            assert abs(c.r2 * cs.r1 - 1.0) <= 1e-12
        checked += 1
    _report(1, "constant identities", time.perf_counter() - start, 1.0,
            f"[{checked} random triples]")


def test_criterion_2_closed_form_vs_integral():
    start = time.perf_counter()
    # Reference point first: the closed form is 1/sqrt(12 pi).
    params = wl.ProblemParams(0.5, 2.0, 4.0, 1.0, 1.0)
    consts = wl.derive_constants(params)
    ref = wl.single_bound(params, consts, "P")
    assert abs(ref.bound - BOUND_P_REF) <= 1e-12 * BOUND_P_REF

    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(20):
        inst, side = random_single_params(rng)
        c = wl.derive_constants(inst)
        res = wl.single_bound(inst, c, side)
        v = wl.distribution_of_profile(wl.single_profile(c, res.lam, side))

        def integrand(t):
            return wl.g_eval(v(t), inst.beta)

        integral = _graded_gauss(integrand, res.lam, 60, 16)
        rel = abs(integral - res.bound) / res.bound
        worst = max(worst, rel)
        assert rel <= 1e-8, f"instance {k}: {inst}, side {side}, rel err {rel:.2e}"
    _report(2, "closed form equals bound integral", time.perf_counter() - start, 5.0,
            f"[20 instances, worst rel err {worst:.1e}]")


def test_criterion_3_dual_solver(ref_params):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    instances = [ref_params] + [random_dual_params(rng) for _ in range(10)]
    for inst in instances:
        rep = wl.compute_bound(inst)
        assert rep.regime == "Dual"
        assert rep.lambda1 > 0 and rep.lambda2 > 0
        assert rep.residual_p <= 1e-8 and rep.residual_q <= 1e-8
        m = rep.multipliers()
        assert abs(wl.u_eval(m.T, m, inst)) <= 1e-10
        ts = np.linspace(0.02 * m.T, 0.98 * m.T, 50)
        u = wl.u_eval(ts, m, inst)
        lhs = (1.0 + u / FOUR_PI) ** (-(2.0 * inst.beta + 1.0))
        rhs = m.lambda1 * ts ** (inst.p - 1.0) + m.lambda2 * ts ** (inst.q - 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
    _report(3, "dual solver correctness", time.perf_counter() - start, 10.0,
            f"[{len(instances)} instances]")


def test_criterion_4_boundary_continuity(ref_params):
    start = time.perf_counter()
    consts = wl.derive_constants(ref_params)
    deltas = np.geomspace(1e-2, 1e-7, 41)

    def sweep(threshold, dual_side):
        # dual_side -1: dual regime below the threshold (r2); +1: above (r1).
        ratios_dual = threshold * (1.0 + dual_side * deltas)
        ratios_single = threshold * (1.0 - dual_side * deltas)
        reports_d = [
            wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, r)) for r in ratios_dual
        ]
        reports_s = [
            wl.compute_bound(wl.ProblemParams(0.5, 2.0, 4.0, 1.0, r)) for r in ratios_single
        ]
        assert all(r.regime == "Dual" for r in reports_d)
        assert all(r.regime != "Dual" for r in reports_s)
        # Continuity: walk the merged sweep; every jump must stay below ten
        # times the local secant slope scale.
        merged = sorted(
            [(r.params.B, r.bound) for r in reports_d] + [(r.params.B, r.bound) for r in reports_s]
        )
        ratios = np.array([m[0] for m in merged])
        bounds = np.array([m[1] for m in merged])
        secants = np.abs(np.diff(bounds)) / np.diff(ratios)
        floor = 1e-9 * bounds.mean()
        for i in range(1, len(secants) - 1):
            local = max(secants[i - 1], secants[i + 1], floor / (ratios[i + 1] - ratios[i]))
            assert secants[i] <= 10.0 * local, (
                f"jump at ratio {ratios[i]:.8f}: secant {secants[i]:.3e} "
                f"vs local {local:.3e}"
            )
        # The inactive multiplier dies off at the threshold.
        vanishing = reports_d[-1].lambda2 if dual_side < 0 else reports_d[-1].lambda1
        assert vanishing <= 1e-4
        return vanishing

    l2_at_r2 = sweep(consts.r2, -1)
    l1_at_r1 = sweep(consts.r1, +1)
    _report(4, "regime boundary continuity", time.perf_counter() - start, 30.0,
            f"[lambda2 -> {l2_at_r2:.1e} at r2, lambda1 -> {l1_at_r1:.1e} at r1]")


def test_criterion_5_oracle_equivalence(ref_params):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    instances = [ref_params] + [random_dual_params(rng) for _ in range(4)]
    details = []
    for inst in instances:
        rep = wl.compute_bound(inst)
        prob, sol = run_oracle(inst, t_max=2.0 * rep.T, n=2000)
        gap = abs(rep.bound - sol.objective) / rep.bound
        assert gap <= 0.01, f"{inst}: oracle gap {gap:.3%}"
        m = rep.multipliers()
        window = (prob.t > 0.05 * m.T) & (prob.t < 0.9 * m.T)
        u_ref = wl.u_eval(prob.t[window], m, inst)
        point = float(np.max(np.abs(sol.v[window] - u_ref) / u_ref))
        assert point <= 0.02, f"{inst}: pointwise err {point:.3%}"
        details.append((gap, point))
    worst_gap = max(d[0] for d in details)
    worst_pt = max(d[1] for d in details)
    _report(5, "discrete oracle equivalence", time.perf_counter() - start, 120.0,
            f"[5 instances, worst gap {worst_gap:.2%}, worst pointwise {worst_pt:.2%}]")


def test_criterion_6_weight_reconstruction(ref_params):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    instances = [ref_params] + [random_dual_params(rng) for _ in range(2)]
    for inst in instances:
        rep = wl.compute_bound(inst)
        w = weight_from_report(inst, rep)
        pn, qn = weight_norms(w)
        assert abs(pn - inst.A) <= 1e-6 * inst.A
        assert abs(qn - inst.B) <= 1e-6 * inst.B
        m = rep.multipliers()
        ts = np.linspace(0.01 * m.T, 0.99 * m.T, 120)
        v_meas = measured_distribution(w, ts)
        u_ref = wl.u_eval(ts, m, inst)
        assert np.max(np.abs(v_meas - u_ref) / u_ref) <= 1e-4
    _report(6, "extremal weight reconstruction", time.perf_counter() - start, 10.0,
            f"[{len(instances)} dual instances]")


def test_criterion_7_operator_verification(ref_params, ref_report):
    start = time.perf_counter()
    fgrid = FrequencyGrid.default()
    pgrid = PlaneGrid.default()
    machine = CauchyTransform(fgrid, pgrid, ref_params.beta)

    defects = [machine.isometry_defect(f) for f in default_test_vectors(fgrid)]
    assert max(defects) <= 1e-3, f"isometry defects {defects}"

    w = weight_from_report(ref_params, ref_report)
    F = sample_weight(w, pgrid)
    extremal = operator_norm(F, machine)
    assert extremal.converged
    ratio = extremal.norm / ref_report.bound
    assert 0.90 <= ratio <= 1.02, f"extremal ratio {ratio:.4f}"

    rng = np.random.default_rng(7)
    pert_ratios = []
    for _ in range(3):
        Fp = feasible_perturbation(F, ref_params, pgrid, rng)
        res = operator_norm(Fp, machine)
        assert res.norm <= ref_report.bound * 1.02
        assert res.norm < extremal.norm, "perturbed weight reached the extremal norm"
        pert_ratios.append(res.norm / ref_report.bound)
    _report(
        7, "operator verification", time.perf_counter() - start, 120.0,
        f"[defect {max(defects):.1e}, extremal {ratio:.4f}, "
        f"perturbed {', '.join(f'{r:.3f}' for r in pert_ratios)}]",
    )


def test_criterion_8_large_q_threshold_limit():
    start = time.perf_counter()
    c = wl.derive_constants(wl.ProblemParams(0.5, 2.0, 200.0, 1.0, 1.0))
    rel = abs(c.r2 - R2_LIMIT_REF) / R2_LIMIT_REF
    assert rel <= 0.02
    _report(8, "large-q threshold limit", time.perf_counter() - start, 1.0,
            f"[r2(q=200) off the limit by {rel:.2%}]")
