"""Extremal weights on the upper half-plane.

A weight is radial about its centre z0 in the squared pseudo-hyperbolic
coordinate d(z, z0) = |z - z0|^2 / |z - conj(z0)|^2, carries a constant
phase, and its magnitude profile is psi(d/(1 - d)), where psi inverts
t -> (l1 t^(p-1) + l2 t^(q-1))^(-1/(2 beta + 1)) - 1 on (0, T].  In a
single regime the inactive multiplier is zero, and psi is the closed-form
power lam (1 - d)^(1/alpha_e) with lam = T.

Everything is evaluated on demand.  The norms and the operator norm are
layer-cake integrals of phi over the level t, on which |F| is t itself,
so only pointwise evaluation inverts phi; the distribution check bisects
through the disc measure nu({d < r}) = 4 pi r / (1 - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FOUR_PI, ProblemParams, _checked_log_integral, _write_columns
from .core import derive_constants  # noqa: F401  (perfbench's tracer hooks weight.derive_constants)
from .closed_form import distribution_of_profile
from .closed_form import single_bound  # noqa: F401  (perfbench's tracer hooks weight.single_bound)
from .solver import BoundReport, Multipliers, _log_phi, _log_phi_inverse, _log_terms


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point x + i y of the upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"half-plane points need finite x and y, got ({self.x}, {self.y})")
        if not (self.y > 0):
            raise ValueError(f"half-plane points need y > 0, got y = {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def pseudo_hyperbolic(z, z0) -> float | np.ndarray:
    """d(z, z0) = |z - z0|^2 / |z - conj(z0)|^2, in [0, 1).

    Symmetric, zero exactly at z = z0.  Accepts HalfPlanePoint, complex
    scalars or complex arrays (upper half-plane assumed for arrays).
    """
    zc = z.z if isinstance(z, HalfPlanePoint) else np.asarray(z, dtype=complex)
    z0c = z0.z if isinstance(z0, HalfPlanePoint) else complex(z0)
    if np.any(np.imag(zc) <= 0) or np.imag(z0c) <= 0:
        raise ValueError("pseudo_hyperbolic is defined on the open upper half-plane")
    d = np.abs(zc - z0c) ** 2 / np.abs(zc - np.conj(z0c)) ** 2
    return float(d) if np.ndim(d) == 0 else d


def psi_inverse(s, m: Multipliers, params: ProblemParams):
    """Invert the dual profile map on (0, T]: psi(0) = T, psi -> 0 at infinity.

    Solves (l1 t^(p-1) + l2 t^(q-1))^(-1/(2 beta+1)) - 1 = s, the
    monotone form phi(t) = (1 + s)^(-(2 beta + 1)), by the solver's
    vectorized log-space Newton inversion.  It takes log c =
    -(2 beta + 1) log1p(s), since c itself underflows to 0 for large s.
    The result is capped at T, the value at s = 0.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("psi_inverse requires s >= 0")
    log_c = -(2.0 * params.beta + 1.0) * np.log1p(s_arr)
    log_t = _log_phi_inverse(log_c, _log_terms(m.lambda1, m.lambda2, params))
    out = np.minimum(np.exp(log_t), m.T)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


@dataclass(frozen=True)
class ExtremalWeight:
    """A reconstructed extremal weight: centre, multipliers and phase.

    The magnitude is the inverse profile psi of ``mults`` in s = d/(1 - d),
    d = d(z, centre), for every regime: a single-regime weight carries its
    inactive multiplier as zero.  The phase is a global unimodular
    constant.
    """

    params: ProblemParams
    center: HalfPlanePoint
    mults: Multipliers
    phase: float = 0.0

    @property
    def peak(self) -> float:
        """Magnitude at the centre, the support endpoint T."""
        return self.mults.T

    def profile(self):
        """Magnitude as a vectorised function of d in [0, 1), a float at a scalar d."""

        def fn(d):
            d = np.asarray(d, dtype=float)
            if np.any((d < 0) | (d >= 1)):
                raise ValueError("profile argument d must lie in [0, 1)")
            return psi_inverse(d / (1.0 - d), self.mults, self.params)

        return fn


def weight_from_report(
    params: ProblemParams,
    report: BoundReport,
    center: HalfPlanePoint | None = None,
    phase: float = 0.0,
) -> ExtremalWeight:
    """Build the extremal weight matching a bound report."""
    return ExtremalWeight(params, center or HalfPlanePoint(0.0, 1.0), report.multipliers(), phase)


def eval_weight(w: ExtremalWeight, z):
    """Value of the weight at z (complex scalar/array or HalfPlanePoint)."""
    d = pseudo_hyperbolic(z, w.center)
    mag = w.profile()(d)
    return np.exp(1j * w.phase) * mag


def _level_integral(w: ExtremalWeight, e: float, a: float, what: str) -> float:
    """int_0^inf |F|^e (1 + s)^(-a (2 beta + 1)) ds in s = d/(1 - d).

    Every extremal magnitude is |F| = psi(s), the inverse of the level map
    S(t) = phi(t)^(-c) - 1 on (0, peak], c = 1/(2 beta + 1),
    phi = l1 t^(p-1) + l2 t^(q-1), which has one term for a single
    weight.  As a layer-cake integral over the level t through s = S(t),
    |F| = psi(S(t)) is t itself and (1 + s)^(-(2 beta + 1)) is phi(t), so
    no node inverts phi.  The nodes are placed through t = peak y^m,
    m = 1/(e - alpha + a k0), with k0 = e0 - 1 for the smallest exponent
    e0 with a positive multiplier and alpha = c k0: the integrand in t
    behaves like t^(1/m - 1) at 0, so in y it tends to a constant however
    slowly |F|^e decays in s, and the checked graded Gauss rule on (0, 1]
    evaluates it, in log space.  The integral diverges when 1/m <= 0 and
    is returned as inf.
    """
    params = w.params
    c = 1.0 / (2.0 * params.beta + 1.0)
    terms = _log_terms(w.mults.lambda1, w.mults.lambda2, params)
    k0 = min(k for _, k in terms)
    grade = e - c * k0 + a * k0
    if grade <= 0.0:
        return math.inf
    m = 1.0 / grade
    log_peak = math.log(w.peak)

    def f(log_y):
        log_t = log_peak + m * log_y
        log_phi = _log_phi(log_t, terms)  # -(1 + 2 beta) log(1 + s)
        slope = sum(k * np.exp(log_lam + k * log_t - log_phi) for log_lam, k in terms)  # t phi'/phi
        # t^e phi^a (-S'(t)) dt/dy, with -S'(t) = c phi^(-c) (t phi'/phi)/t and dt = m t dy/y.
        return c * m * slope * np.exp(e * log_t + (a - c) * log_phi - log_y)

    return _checked_log_integral(f, 1.0, what)


def weight_norms(w: ExtremalWeight) -> tuple[float, float]:
    """(p-norm, q-norm) of the weight under the hyperbolic measure.

    Through the disc measure each norm is (4 pi int_0^inf |F|^e ds)^(1/e)
    in s = d/(1 - d), one layer-cake integral of phi over the level
    (:func:`_level_integral`).  A norm with e <= alpha diverges: inf.
    """
    return tuple(
        (FOUR_PI * _level_integral(w, e, 0.0, f"{e:g}-norm of the weight")) ** (1.0 / e)
        for e in (w.params.p, w.params.q)
    )


def radial_operator_norm(w: ExtremalWeight) -> float:
    """Norm of the Cauchy-wavelet localization operator with weight w.

    A weight radial in d about its centre makes the operator diagonal in
    the Laguerre basis (Daubechies & Paul, Inverse Problems 4, 1988),
    with eigenvalues Gamma(n + 2 beta + 1)/(n! Gamma(2 beta))
    int_0^1 |F|(d) d^n (1 - d)^(2 beta - 1) dd.  They fall with n for a
    nonincreasing profile, so the norm is the top one,
    2 beta int_0^inf |F|(s) (1 + s)^(-(2 beta + 1)) ds in s = d/(1 - d),
    one layer-cake integral of phi over the level on the norms' graded
    rule (:func:`_level_integral`).  The constant phase does not change it.
    """
    integral = _level_integral(w, 1.0, 1.0, "top eigenvalue of the localization operator")
    return 2.0 * w.params.beta * integral


def measured_distribution(w: ExtremalWeight, t):
    """Distribution function of |w| measured geometrically from its profile.

    For each level t the super-level set {|w| > t} is a disc {d < r}, and
    :func:`~wavelock.closed_form.distribution_of_profile` finds r by a
    bisection on the monotone profile, run simultaneously for all
    requested levels until every bracket is two adjacent doubles, and
    converts it through the disc measure 4 pi r/(1 - r).  Each halving
    evaluates the profile once, which for a dual weight is one
    :func:`psi_inverse` solve over all levels.  This is the measurement
    route: it never touches the analytic distribution formula it is
    checked against.  Its range: 1 - r = 4 pi/(4 pi + u) is known to the
    spacing of doubles below 1, so the result is within 1e-4 of u(t) only
    while 1 - r keeps four digits, u(t) up to about 1e12.  On 137 wide-domain
    weights (beta in [0.05, 10], p, q up to 51) 57 miss 1e-4 at some level
    in [0.01 T, 0.99 T], each at u(t) >= 1.25e13 and none above 0.49 T.
    """
    return distribution_of_profile(w.profile())(t)


def export_profile(w: ExtremalWeight, path: str, n: int = 1000) -> None:
    """Write (d, |F|) profile samples as CSV."""
    ds = np.linspace(0.0, 1.0, n, endpoint=False)
    _write_columns(path, ("d", "abs_F"), ds, w.profile()(ds))


def hyperbolic_circle(z0: HalfPlanePoint, d: float, angles) -> np.ndarray:
    """Points z with d(z, z0) = d, parameterized by angle via the Cayley map.

    Useful for isometry-invariance checks: the weight magnitude must be
    constant along each such circle.
    """
    if not 0.0 <= d < 1.0:
        raise ValueError(f"d must lie in [0, 1), got {d}")
    angles = np.asarray(angles, dtype=float)
    # Cayley transform centred at z0: w = (z - z0)/(z - conj(z0)), |w|^2 = d.
    wv = math.sqrt(d) * np.exp(1j * angles)
    z0c = z0.z
    return (z0c - wv * np.conj(z0c)) / (1.0 - wv)
