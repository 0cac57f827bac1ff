"""Verifying the bound on the operator itself.

Builds the wavelet transform and the localization operator on discrete
grids, measures the transform's isometry defect, then runs power
iteration on the operator with the extremal weight and sets it beside
the exact norm of the radial weight and the Rayleigh quotient at the
analyzing wavelet, the exact top eigenvector.  Perturbed feasible
weights must fall strictly lower.
"""

import numpy as np

import wavelock as wl
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
    sample_weight,
)
from wavelock.weight import radial_operator_norm, weight_from_report

params = wl.ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)
report = wl.compute_bound(params)

fgrid = FrequencyGrid.default()
pgrid = PlaneGrid.default()
machine = CauchyTransform(fgrid, pgrid, params.beta)
print(f"grids: {fgrid.size} frequency nodes, "
      f"{pgrid.x.size} x {pgrid.y.size} plane nodes")

defects = [machine.isometry_defect(f) for f in default_test_vectors(fgrid)]
print("isometry defects:", ", ".join(f"{d:.2e}" for d in defects))
print()

weight = weight_from_report(params, report)
F = sample_weight(weight, pgrid)
print(f"grid norms of the sampled weight: "
      f"p {grid_lebesgue_norm(F, pgrid, params.p):.6f}, "
      f"q {grid_lebesgue_norm(F, pgrid, params.q):.6f}")

res = operator_norm(F, machine)
exact = radial_operator_norm(weight)
psi = cauchy_wavelet_hat(fgrid.omega, params.beta).astype(complex)
rayleigh = float(np.real(fgrid.inner(machine.localize(F, psi), psi))) / fgrid.norm(psi) ** 2
print(f"power iteration:          {res.norm:.9f} in {res.iterations} steps "
      f"({res.norm / exact - 1:+.2e} from exact)")
print(f"Rayleigh quotient at psi: {rayleigh:.9f} ({rayleigh / exact - 1:+.2e} from exact)")
print(f"exact radial norm:        {exact:.9f}")
print(f"analytic bound:           {report.bound:.9f}")
# The power iteration's excess over the exact norm is a spurious grid
# eigenvalue: at the exact top eigenvector the grid reads low.
print()

# Any budget-feasible non-extremal weight concentrates strictly less.
rng = np.random.default_rng(7)
for k in range(3):
    Fp = feasible_perturbation(F, params, pgrid, rng)
    rp = operator_norm(Fp, machine)
    print(f"perturbed weight {k}: norm {rp.norm:.6f} "
          f"({rp.norm / res.norm:.4f} of the extremal norm)")
print()

# Localizing on a hyperbolic disc of measure s concentrates at most G(s).
for s in (2.0, 10.0):
    F_disc = indicator_disc(pgrid, s)
    vals = [
        float(np.real(fgrid.inner(machine.localize(F_disc, f), f)) / fgrid.norm(f) ** 2)
        for f in default_test_vectors(fgrid)
    ]
    print(f"disc of measure {s:4.1f}: best concentration {max(vals):.6f} "
          f"<= kernel value {wl.g_eval(s, params.beta):.6f}")
