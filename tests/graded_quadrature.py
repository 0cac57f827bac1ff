"""The graded Gauss rule of wavelock.core on an integrand of t itself.

The library integrates only in log t (``core._checked_log_integral``);
the tests that check closed forms and the wavelet normalisation against
an independent quadrature of a linear-space integrand use these.
"""

import numpy as np

from wavelock.core import _PANELS, _checked, _graded_rule


def _graded_gauss(f, upper: float, panels: int, nodes: int) -> float:
    """Integral of f over (0, upper] by the graded rule scaled to ``upper``.

    All panels go through one vectorized evaluation of f.
    """
    x, w = _graded_rule(panels, nodes)
    return upper * float(w @ np.asarray(f(upper * x), dtype=float))


def _checked_integral(f, upper: float, what: str) -> float:
    """Integral of f over (0, upper], 16 Gauss nodes per panel checked against 8.

    Raises ``QuadratureError`` when the two differ by more than the
    tolerance of ``core._checked``, or either is not finite.
    """
    return _checked(_graded_gauss(f, upper, _PANELS, 16), _graded_gauss(f, upper, _PANELS, 8), what)
