"""Scalar root finding and extremum search helpers.

brentq is Brent's bracketing root finder (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4), ported line for line
from SciPy's C brentq with the checks of scipy.optimize.brentq; the
tests pin it to SciPy bit for bit, and it spares the package the
import of scipy.optimize.

power_sum_roots finds every root of a sum of powers of t exactly, by
Rolle recursion in s = log t; the GN fiber's wells and barriers and the
coercivity infimum omega both come from it.  sign_change_brackets is
the scan under it and under the dilation-balance roots of the saddle
search; log_grid_max scans and refines a maximum on a fixed bracket.
"""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 400
# log_grid_max: coarse scan points and tolerance in log t
MAX_SCAN = 200
MAX_TOL = 1e-10


class BracketError(RuntimeError):
    """Raised when no interior extremum could be bracketed."""


def brentq(fn, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4.0 * math.ulp(1.0), maxiter: int = 100) -> float:
    """A root of fn in [a, b], where fn(a) and fn(b) differ in sign.

    Stops when the bracket around the best point is within
    xtol + rtol |x|, returning that point; the defaults are SciPy's.  A
    NaN value, ends of equal sign, xtol <= 0 or rtol < 4 eps is a
    ValueError; no convergence after maxiter steps is a RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * math.ulp(1.0):
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * math.ulp(1.0):g})")

    def f(x: float) -> float:
        fx = float(fn(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        stry = math.inf  # a step that bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; a zero denominator gives C an infinite or
                # NaN step, which bisects below
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


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
    one term fewer, so between consecutive roots of that derivative (the
    knots) it is monotone and has at most one root; each such piece that
    changes sign is solved by brentq.  A root where h touches zero
    without crossing sits on a knot and is not returned: when rounding
    dips h below zero there, the two crossings it makes on either side
    of that knot are dropped together, since h at the knot is within its
    rounding bound (each term to (m + |(e - e0) s|) ulps for m terms).
    The count never exceeds the sign changes of the coefficients
    (Descartes' rule for such sums; Jameson, Math. Gazette 90 (2006)
    223-234).
    """
    if len(terms) < 2:
        return []
    e0 = terms[0][0]

    def h(s: float) -> float:
        return sum(k * math.exp((e - e0) * s) for e, k in terms)

    def rounding(s: float) -> float:
        return math.ulp(1.0) * sum(abs(k) * math.exp((e - e0) * s)
                                   * (len(terms) + abs((e - e0) * s)) for e, k in terms)
    knots = [lo, *(s for s, _ in power_sum_roots(
        [(e - e0, k * (e - e0)) for e, k in terms[1:]], lo, hi)), hi]
    roots = []
    for a, b, rising in sign_change_brackets(h, knots):
        if roots and roots[-1][2] == a and abs(h(a)) <= rounding(a):
            roots.pop()
        elif a < b:
            roots.append((brentq(h, a, b, xtol=1e-15), rising, b))
    return [root[:2] for root in roots]
