"""Scalar root finding and extremum search helpers.

power_sum_roots finds every root of a sum of powers of t exactly, by
Rolle recursion in s = log t; the GN fiber's wells and barriers and the
coercivity infimum omega both come from it.  sign_change_brackets is
the scan under it and under the dilation-balance roots of the saddle
search; log_grid_max scans and refines a maximum on a fixed bracket.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 400
# log_grid_max: coarse scan points and tolerance in log t
MAX_SCAN = 200
MAX_TOL = 1e-10


class BracketError(RuntimeError):
    """Raised when no interior extremum could be bracketed."""


def golden_min(fn, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section minimum of fn on [lo, hi]; returns (x, fn(x)).

    Stops when the bracket is tol wide or after GOLDEN_MAX_ITER steps.
    """
    a, b = float(lo), float(hi)
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_MAX_ITER):
        if abs(b - a) <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = fn(d)
    if fc < fd:
        return c, fc
    return d, fd


def log_grid_max(fn, t_lo: float, t_hi: float):
    """Maximize fn(t) on a fixed positive bracket: a MAX_SCAN-point scan
    in log t, then golden refinement to MAX_TOL in log t."""
    x_lo, x_hi = math.log(t_lo), math.log(t_hi)
    xs = np.linspace(x_lo, x_hi, MAX_SCAN)
    vals = np.array([fn(math.exp(x)) for x in xs])
    k = int(np.nanargmax(vals))
    if k == 0 or k == MAX_SCAN - 1:
        raise BracketError("maximum sits on the bracket edge")
    x, fneg = golden_min(lambda x_: -fn(math.exp(x_)), xs[k - 1], xs[k + 1], tol=MAX_TOL)
    return math.exp(x), -fneg


def sign_change_brackets(fn, xs) -> list[tuple[float, float, bool]]:
    """All consecutive pairs of xs across which fn changes sign, each
    with whether fn rises across it.

    A scan value that is exactly zero gives the degenerate pair (a, a),
    rising when fn is positive at the next point.
    """
    vals = [fn(x) for x in xs]
    out = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if not (np.isfinite(fa) and np.isfinite(fb)):
            continue
        if fa == 0.0:
            out.append((a, a, fb > 0.0))
        elif fa * fb < 0:
            out.append((a, b, fa < 0.0))
    return out


def power_sum_roots(terms: list[tuple[float, float]], lo: float,
                    hi: float) -> list[tuple[float, bool]]:
    """Roots in (lo, hi) of h(s) = sum k exp(e s) over the terms (e, k),
    sorted by exponent, each with whether h rises through it.

    In t = exp(s) this is the power sum sum k t^e.  Rolle recursion:
    h exp(-e0 s) has the roots of h, and its derivative is a sum with
    one term fewer, so between consecutive roots of that derivative it
    is monotone and has at most one root; each such piece that changes
    sign is solved by brentq.  A root where h touches zero without
    crossing is not returned, unless rounding dips h below zero at the
    touch; it then comes back as two crossings of opposite direction
    within rounding of each other.  The count never exceeds the sign
    changes of the coefficients (Descartes' rule for such sums;
    Jameson, Math. Gazette 90 (2006) 223-234).
    """
    if len(terms) < 2:
        return []
    e0 = terms[0][0]

    def h(s: float) -> float:
        return sum(k * math.exp((e - e0) * s) for e, k in terms)
    knots = [lo, *(s for s, _ in power_sum_roots(
        [(e - e0, k * (e - e0)) for e, k in terms[1:]], lo, hi)), hi]
    return [(brentq(h, a, b, xtol=1e-15), rising)
            for a, b, rising in sign_change_brackets(h, knots) if a < b]
