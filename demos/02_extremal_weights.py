"""Reconstructing the extremal weight on the upper half-plane.

The weight that attains the dual-regime bound is radial about its centre:
F(z) = e^{i theta} psi(s) with s = |z - z0|^2/(4 Im z Im z0), which is
d/(1 - d) for the squared pseudo-hyperbolic distance d, and psi the inverse
of the two-multiplier profile map.  This script rebuilds
it, checks that both norms sit exactly on their budgets, and verifies that
its measured distribution function reproduces the solver's u(t).
"""

import numpy as np

import wavelock as wl
from wavelock.weight import (
    HalfPlanePoint,
    export_profile,
    measured_distribution,
    weight_from_report,
    weight_norms,
)

params = wl.ProblemParams(beta=0.5, p=2.0, q=4.0, A=1.0, B=0.4)
report = wl.compute_bound(params)
weight = weight_from_report(params, report, center=HalfPlanePoint(0.0, 1.0))

print(f"regime {report.regime}, bound {report.bound:.9f}, T = {report.T:.9f}")
print(f"peak magnitude at the centre: {abs(wl.eval_weight(weight, 1j)):.9f} (= T)")
print()

p_norm, q_norm = weight_norms(weight)
print(f"reconstructed norms: ||F||_p = {p_norm:.9f} (budget {params.A})")
print(f"                     ||F||_q = {q_norm:.9f} (budget {params.B})")
print()

# The super-level sets are hyperbolic discs; measuring their areas level by
# level must reproduce the solver's distribution function u.
m = report.multipliers()
levels = np.linspace(0.05 * m.T, 0.95 * m.T, 7)
measured = measured_distribution(weight, levels)
expected = wl.u_eval(levels, m, params)
print("level t        measured nu({|F|>t})   solver u(t)")
for t, vm, ue in zip(levels, measured, expected):
    print(f"{t:.6f}       {vm:12.6f}         {ue:12.6f}")
print(f"worst relative deviation: {np.max(np.abs(measured - expected) / expected):.2e}")
print()

# Magnitudes are constant on hyperbolic circles about the centre z0.  The
# circle s(z, z0) = s is the Euclidean circle about x0 + i y0 (1 + 2 s) of
# radius 2 y0 sqrt(s (1 + s)); s = 1 is the circle d = 1/2.
z0, s = weight.center, 1.0
centre, radius = complex(z0.x, z0.y * (1.0 + 2.0 * s)), 2.0 * z0.y * np.sqrt(s * (1.0 + s))
circle = centre + radius * np.exp(1j * np.linspace(0, 2 * np.pi, 9))
mags = np.abs(wl.eval_weight(weight, circle))
print(f"magnitude spread along a hyperbolic circle: {np.ptp(mags):.2e}")

export_profile(weight, "dual_weight_profile.csv", n=500)
print("wrote dual_weight_profile.csv (columns d, magnitude, t, u)")
