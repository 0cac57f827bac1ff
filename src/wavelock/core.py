"""Problem parameters, derived constants, the bound kernel G, regime logic,
the graded Gauss rule every integral of the package uses and the writer of
every CSV the package exports or prints.

Apart from that writer, everything here is a pure function of its inputs;
all values are plain floats, frozen dataclasses or read-only arrays and
safe to share between threads.

``np`` is the package's one numpy handle for the modules every command
loads (core, closed_form, solver and cli), so that a command that forms no
array, a single-regime ``bound`` among them, never imports numpy.  It is a
module object of its own whose module ``__getattr__`` (PEP 562) runs, at
the first attribute read, ``import numpy`` and copies numpy's names into
the handle; later reads are plain module attribute lookups, as fast as
numpy's own.  A first use from several threads at once is safe: the import
system's module lock makes every thread wait until numpy is fully imported,
and a thread that reads the handle while another copies into it finds
either the name or, through the same import, numpy's own.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import types
from dataclasses import dataclass


def _load_numpy(name: str):
    """The module ``__getattr__`` of :data:`np`: import numpy and copy its
    names into the handle (module docstring), in one update that keeps this
    ``__getattr__`` in place of numpy's own."""
    import numpy

    np.__dict__.update({**vars(numpy), "__getattr__": _load_numpy})
    return getattr(numpy, name)


np = types.ModuleType(f"{__name__}.np", "numpy, imported on the first attribute read.")
np.__getattr__ = _load_numpy

FOUR_PI = 4.0 * math.pi

# Relative tolerance used to flag B/A sitting on a regime threshold.
BOUNDARY_RTOL = 1e-12

# Logs of the largest double and of the smallest positive one.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(math.ulp(0.0))


class ParameterError(ValueError):
    """Invalid problem parameters (nonpositive values, p = q, ...)."""


class RegimeError(RuntimeError):
    """An operation was invoked outside the parameter regime it covers."""


class OracleError(RuntimeError):
    """The discrete solve failed to produce a usable feasible point."""


@dataclass(frozen=True)
class ProblemParams:
    """One problem instance: wavelet exponent, Lebesgue exponents and budgets.

    ``beta`` is the Cauchy-wavelet exponent, ``p`` and ``q`` the two
    Lebesgue exponents (both > 1, distinct), ``A`` and ``B`` the
    corresponding norm budgets.  The budgets enter through their powers
    A^p and B^q, which must be positive finite doubles.
    """

    beta: float
    p: float
    q: float
    A: float
    B: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise ParameterError(f"beta must be positive, got {self.beta}")
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (v > 1):
                raise ParameterError(f"{name} must exceed 1, got {v}")
        if self.p == self.q:
            raise ParameterError(
                "p and q must be distinct; the two-constraint problem "
                f"degenerates at p = q = {self.p}"
            )
        for name, e_name in (("A", "p"), ("B", "q")):
            v, e = getattr(self, name), getattr(self, e_name)
            if not (v > 0):
                raise ParameterError(f"{name} must be positive, got {v}")
            log_power = e * math.log(v)
            if not _LOG_FLOAT_MIN <= log_power < _LOG_FLOAT_MAX:
                raise ParameterError(
                    f"{name}^{e_name} = exp({log_power:.6g}) is not a positive finite double "
                    f"({name} = {v}, {e_name} = {e})"
                )

    @property
    def ratio(self) -> float:
        """The budget ratio B/A that selects the regime."""
        return self.B / self.A

    def swapped(self) -> "ProblemParams":
        """The same instance with the roles of the two constraints exchanged."""
        return ProblemParams(self.beta, self.q, self.p, self.B, self.A)


def canonical_order(params: ProblemParams) -> tuple[ProblemParams, bool]:
    """Return an equivalent instance with p < q, plus a flag when swapped."""
    if params.p > params.q:
        return params.swapped(), True
    return params, False


@dataclass(frozen=True)
class DerivedConstants:
    """Exponent constants and the two budget-ratio thresholds.

    ``r1``/``r2`` are ``None`` when the corresponding cross-norm diverges
    (p <= alpha_q, resp. q <= alpha_p); at most one can be undefined.
    """

    alpha_p: float
    alpha_q: float
    sigma_p: float
    sigma_q: float
    kappa_p: float
    kappa_q: float
    r1: float | None
    r2: float | None


@dataclass(frozen=True)
class Regime:
    """Which constraints bind: tag in {"SingleP", "SingleQ", "Dual"}."""

    tag: str
    boundary: bool = False


def _alpha(e: float, beta: float) -> float:
    return (e - 1.0) / (2.0 * beta + 1.0)


def _sigma(e: float, beta: float) -> float:
    return (e - 1.0) / (2.0 * beta * e + 1.0)


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """Compute alpha/sigma/kappa for both exponents and the thresholds r1, r2.

    r2 = (4pi)^(1/q-1/p) (alpha_p/(q-alpha_p))^(1/q) sigma_p^(-1/p) is the
    ratio above which only the p-constraint binds; r1 is the mirrored
    threshold below which only the q-constraint binds.  A threshold whose
    exponent condition fails (q <= alpha_p for r2, p <= alpha_q for r1) is
    returned as ``None`` rather than any float sentinel.  Raises
    ParameterError where alpha or sigma rounds to 0 or a threshold
    exceeds the float range.
    """
    beta, p, q = params.beta, params.p, params.q
    ap, aq = _alpha(p, beta), _alpha(q, beta)
    sp, sq = _sigma(p, beta), _sigma(q, beta)
    if not all(v > 0.0 for v in (ap, aq, sp, sq)):
        raise ParameterError(
            f"alpha_p, alpha_q, sigma_p, sigma_q = {ap!r}, {aq!r}, {sp!r}, {sq!r} must be positive"
        )

    pref = FOUR_PI ** (1.0 / q - 1.0 / p)
    try:
        r1 = pref * (aq / (p - aq)) ** (-1.0 / p) * sq ** (1.0 / q) if p > aq else None
        r2 = pref * (ap / (q - ap)) ** (1.0 / q) * sp ** (-1.0 / p) if q > ap else None
    except (OverflowError, ZeroDivisionError) as exc:  # 0 ** -x is the power's overflow
        raise ParameterError(
            f"a threshold r1 or r2 exceeds the float range at beta = {beta!r}, p = {p!r}, q = {q!r}"
        ) from exc

    return DerivedConstants(
        alpha_p=ap,
        alpha_q=aq,
        sigma_p=sp,
        sigma_q=sq,
        kappa_p=(p - 1.0) / p,
        kappa_q=(q - 1.0) / q,
        r1=r1,
        r2=r2,
    )


def classify_regime(params: ProblemParams, consts: DerivedConstants) -> Regime:
    """Decide which constraints are active for this instance.

    Ratios within ``BOUNDARY_RTOL`` of a threshold are classified into the
    adjacent single-constraint regime (the two cases agree there and the
    closed form is exact) with the ``boundary`` flag set.
    """
    ratio = params.ratio
    on_r1 = consts.r1 is not None and abs(ratio - consts.r1) <= BOUNDARY_RTOL * consts.r1
    on_r2 = consts.r2 is not None and abs(ratio - consts.r2) <= BOUNDARY_RTOL * consts.r2

    if consts.r2 is not None and (ratio >= consts.r2 or on_r2):
        return Regime("SingleP", boundary=on_r2)
    if consts.r1 is not None and (ratio <= consts.r1 or on_r1):
        return Regime("SingleQ", boundary=on_r1)
    return Regime("Dual")


def g_eval(s, beta: float):
    """The concentration kernel G(s) = 1 - (1 + s/4pi)^(-2 beta), s >= 0.

    Strictly increasing and concave, ranges over [0, 1).  Accepts scalars
    or arrays; negative arguments are rejected.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("g_eval requires s >= 0")
    out = 1.0 - (1.0 + s_arr / FOUR_PI) ** (-2.0 * beta)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


class QuadratureError(RuntimeError):
    """A quadrature failed to reach the tolerance of the graded rule."""


# _graded_rule halves its panels _PANELS times into 0 and _PANELS_INTO_1
# times into 1 (70 panels in all); the tolerances are those of _checked.
_PANELS = 60
_PANELS_INTO_1 = 8
_REL_TOL = 1e-10
_ABS_TOL = 1e-14


def _gauss_panels(los: np.ndarray, his: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``nodes``-point Gauss-Legendre on each panel
    [los[i], his[i]], concatenated panel by panel in the order given, which
    fixes the order of every sum over them."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mids = 0.5 * (los + his)
    halfs = 0.5 * (his - los)
    return (mids[:, None] + halfs[:, None] * x[None, :]).ravel(), (halfs[:, None] * w[None, :]).ravel()


@functools.lru_cache(maxsize=8)
def _graded_rule(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the graded Gauss rule on (0, 1].

    Gauss-Legendre within each panel, with panel widths halving ``panels``
    times into 0 and ``_PANELS_INTO_1`` times into 1.  The grading at 0
    absorbs algebraic behaviour with any exponent above -1.  Every integrand
    is analytic at 1, where a large exponent carves a boundary layer of
    width about 1/max(p, q), wider than 2^-6 for max(p, q) <= 61; on such an
    integrand Gauss-Legendre converges geometrically on each panel, so 8
    halvings resolve the layer and deeper ones add nothing.  The arrays are
    shared, so they are read-only.
    """
    down, up = (0.5 * 2.0 ** (-np.arange(n + 1, dtype=float)) for n in (panels, _PANELS_INTO_1))
    los = np.concatenate([down[1:], [0.0], 1.0 - up])
    his = np.concatenate([down, 1.0 - up[1:], [1.0]])
    pts, wts = _gauss_panels(los, his, nodes)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


@functools.lru_cache(maxsize=8)
def _graded_log_nodes(panels: int, *nodes: int) -> np.ndarray:
    """log x at the nodes of :func:`_graded_rule`, for each count in ``nodes``
    in turn, taken once; read-only."""
    log_x = np.log(np.concatenate([_graded_rule(panels, n)[0] for n in nodes]))
    log_x.flags.writeable = False
    return log_x


def _checked_log_integral(f, upper: float, whats: tuple[str, ...]) -> tuple[float, ...]:
    """Integrals over (0, upper] of integrands given as functions of log t,
    16 Gauss nodes per panel checked against 8 (:func:`_checked`).

    f is evaluated once, at log t = log(upper) + log x on the cached log
    nodes of both rules side by side, and returns one row per label in
    ``whats``.  Each row's two weighted sums are split from it and checked
    under its label, in order, so the first row that fails raises; t itself
    is never formed.
    """
    rows = f(math.log(upper) + _graded_log_nodes(_PANELS, 16, 8))
    fine, coarse = (_graded_rule(_PANELS, nodes)[1] for nodes in (16, 8))
    n = fine.size
    return tuple(
        _checked(upper * float(fine @ row[:n]), upper * float(coarse @ row[n:]), what)
        for row, what in zip(rows, whats, strict=True)
    )


def _checked(value: float, coarse: float, what: str) -> float:
    """value, unless it and the coarse rule's sum differ by more than 100 times
    (_ABS_TOL + _REL_TOL |value|) or either is not finite (QuadratureError)."""
    err = abs(value - coarse)
    if not err <= 100.0 * (_ABS_TOL + _REL_TOL * abs(value)):
        raise QuadratureError(
            f"{what}: error estimate {err:.3e} exceeds tolerance "
            f"(rel_tol={_REL_TOL:g}, abs_tol={_ABS_TOL:g})"
        )
    return value


def _is_float(value) -> bool:
    """Whether value is a float, numpy's floating scalars included: a real
    number that is not an integer, asked of :mod:`numbers`, with which numpy
    registers its scalars, so that numpy is not imported for it."""
    return isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral)


def _write_csv(out, header, rows) -> None:
    """Write a header row and then one line per row to the text stream out as
    CSV with "\\n" line ends: None is an empty cell, a float (:func:`_is_float`)
    repr(float(v)), anything else str(v)."""
    import csv  # only the exporters and the csv outputs write it

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        ["" if v is None else repr(float(v)) if _is_float(v) else str(v) for v in row]
        for row in rows
    )


def _write_columns(path: str, header, *columns) -> None:
    """Write equal-length columns to a CSV file under one header row
    (:func:`_write_csv`)."""
    with open(path, "w", newline="") as fh:
        _write_csv(fh, header, zip(*columns, strict=True))
