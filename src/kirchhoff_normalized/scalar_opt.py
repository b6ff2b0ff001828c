"""Scalar bracketing and golden-section search helpers."""

from __future__ import annotations

import math

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 400
# log_grid_min: starting bracket in t, coarse scan points, tolerance in
# log t, and the number of tenfold bracket expansions
MIN_T_LO, MIN_T_HI = 1e-6, 1e6
MIN_SCAN = 160
MIN_TOL = 1e-12
MAX_EXPAND = 40
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


def log_grid_min(fn):
    """Minimize fn(t) for t > 0: coarse scan in log t, then golden refinement.

    The bracket [MIN_T_LO, MIN_T_HI] is expanded by factors of 10, at
    most MAX_EXPAND times, until the MIN_SCAN-point coarse argmin is
    interior; the refinement stops at MIN_TOL in log t.
    """
    x_lo, x_hi = math.log(MIN_T_LO), math.log(MIN_T_HI)
    step = math.log(10.0)
    for _ in range(MAX_EXPAND):
        xs = np.linspace(x_lo, x_hi, MIN_SCAN)
        vals = np.array([fn(math.exp(x)) for x in xs])
        k = int(np.nanargmin(vals))
        if k == 0:
            x_lo -= step
        elif k == MIN_SCAN - 1:
            x_hi += step
        else:
            x, fx = golden_min(lambda x_: fn(math.exp(x_)), xs[k - 1], xs[k + 1],
                               tol=MIN_TOL)
            return math.exp(x), fx
    raise BracketError("could not bracket an interior minimum after expansion")


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


def sign_change_brackets(fn, xs) -> list[tuple[float, float]]:
    """All consecutive pairs of xs across which fn changes sign."""
    vals = [fn(x) for x in xs]
    out = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if not (np.isfinite(fa) and np.isfinite(fb)):
            continue
        if fa == 0.0:
            out.append((a, a))
        elif fa * fb < 0:
            out.append((a, b))
    return out
