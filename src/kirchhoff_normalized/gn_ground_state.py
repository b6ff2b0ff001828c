"""Shooting solver for the sharp interpolation extremal.

The extremal Q is the positive decreasing radial solution of

    -kappa (Q'' + (N-1) Q'/r) + m Q = Q^{p-1},   Q'(0) = 0,

with kappa = N(p-2)/4 and m = 1 + (p-2)(2-N)/4.  Its height Q(0) is
the separatrix between trajectories that cross zero and trajectories
that turn back up, located by bisection; the integrator is a classical
fixed-step 4th-order scheme started one step off the origin with the
series value Q(h) = Q(0) + (m Q(0) - Q(0)^{p-1}) h^2 / (2 N kappa),
which removes the coordinate singularity.  Its stage derivative is
written out in the step loop, with the arithmetic in the order of the
closure form it replaces; a test keeps that closure form and pins the
step to it bit for bit.

The bisection is replayed rather than run: Brent's method (Brent,
Algorithms for Minimization without Derivatives, 1973, ch. 4) on a
signed miss that is linear in the height near the separatrix brackets
it first, and only the midpoints inside that bracket are integrated.
The height is the plain bisection's, bit for bit, with about a third
of its trajectories; a tier-1 test keeps the plain bisection as its
oracle.

At the solution the interpolation constant is
C = (p / (2 |Q|_2^{p-2}))^{1/p}, and the norms obey the exact chain
|grad Q|_2^2 = |Q|_2^2 = (2/p) |Q|_p^p (combine the equation tested
against Q with its dilation identity); the chain is the module's main
self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import two_star
from .radial_grid import MAX_CELLS, MIN_CELLS, RadialFunction, make_grid
from .scalar_opt import brentq

# classification outcomes for a single integration
_CROSSED = 1
_TURNED = -1

BISECTION_REL_TOL = 1e-13
MAX_EXPANSIONS = 6


class ShootError(RuntimeError):
    """Raised when the shooting bisection cannot certify a profile."""


@dataclass
class GroundStateProfile:
    """Converged extremal with its norms and convergence diagnostics.

    integrations counts the trajectories the shoot integrated, its
    record runs and the certification shoot included.
    """

    dimension: int
    p: float
    kappa: float
    m: float
    height: float
    profile: RadialFunction
    mass: float
    grad_sq: float
    lp: float
    crit: float | None
    bisection_steps: int
    integrations: int
    truncation_radius: float
    richardson_gap: float | None

    @property
    def q_l2(self) -> float:
        return math.sqrt(self.mass)

    def identity_residual(self) -> float:
        """Largest relative deviation in the norm chain."""
        ref = self.mass
        return max(abs(self.grad_sq - ref), abs(2.0 * self.lp / self.p - ref)) / ref


def _coefficients(dimension: int, p: float) -> tuple[float, float]:
    n = int(dimension)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if p <= 2.0:
        raise ValueError("shooting needs p > 2; p = 2 is the identity case")
    if n >= 3 and p >= two_star(n):
        raise ValueError(f"p must stay below 2^* = {two_star(n):g} for dimension {n}")
    kappa = n * (p - 2.0) / 4.0
    m = 1.0 + (p - 2.0) * (2.0 - n) / 4.0
    return kappa, m


def _integrate(q0: float, kappa: float, m: float, p: float, n: int,
               h: float, n_steps: int, w_eq: float,
               record: np.ndarray | None = None) -> tuple[int, float, int]:
    """March the radial system; classify the trajectory.

    Early exits: _CROSSED when Q reaches zero, _TURNED when Q turns
    upward while already small or overshoots its start.  With `record`
    given, node values are stored and no early exit is taken on turns
    (the caller truncates).  Returns the class, a signed miss and the
    step of the exit (n_steps when the run reached the domain end).

    The miss is r^{N-1} (Q'^2 kappa/m - Q^2) at the exit: at the zero of
    a crossing trajectory and at the minimum of a turning one, each read
    within the exit step by a quadratic in r, and otherwise at the node
    where the run stops.  In the tail Q = a e^{-mu r} + b e^{mu r}, with mu^2 = m/kappa
    and a, b ~ r^{(1-N)/2}, it is -4 r^{N-1} a b to leading order at any
    radius; b is proportional to the distance of the height from the
    extremal's, so the miss passes through zero there with one slope on
    both sides.  A record run returns a miss of 0.
    """
    pm1 = p - 1.0
    inv_k = 1.0 / kappa
    nm1 = n - 1.0

    amp = (m * q0 - q0**pm1) / (2.0 * n * kappa)
    q = q0 + amp * h * h
    v = 2.0 * amp * h
    r = h
    if record is not None:
        record[0] = q0
        record[1] = q

    half = 0.5 * h
    for i in range(1, n_steps):
        # each stage derivative is (m q - |q|^{p-1} sgn q) / kappa
        # - (N - 1) v / r; q is never -0.0 here (it starts positive, and a
        # sum is -0.0 only if both terms are), so the sign branch is exact
        k1q = v
        k1v = (m * q - (q**pm1 if q >= 0.0 else -((-q) ** pm1))) * inv_k - nm1 * v / r
        k2q = v + half * k1v
        qs = q + half * k1q
        k2v = ((m * qs - (qs**pm1 if qs >= 0.0 else -((-qs) ** pm1))) * inv_k
               - nm1 * k2q / (r + half))
        k3q = v + half * k2v
        qs = q + half * k2q
        k3v = ((m * qs - (qs**pm1 if qs >= 0.0 else -((-qs) ** pm1))) * inv_k
               - nm1 * k3q / (r + half))
        k4q = v + h * k3v
        qs = q + h * k3q
        k4v = ((m * qs - (qs**pm1 if qs >= 0.0 else -((-qs) ** pm1))) * inv_k
               - nm1 * k4q / (r + h))
        dq = h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        dv = h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        q += dq
        v += dv
        r += h
        if record is not None:
            record[i + 1] = q
            continue
        if q <= 0.0:
            s = q / v if v < 0.0 else 0.0
            vc = v - dv / h * s
            return _CROSSED, (r - s) ** nm1 * vc * vc * kappa / m, i
        if v > 0.0 and q < 0.5 * w_eq:
            s = v * h / dv if dv > 0.0 else 0.0
            qt = q - 0.5 * v * s
            return _TURNED, -((r - s) ** nm1) * qt * qt, i
        if q > 1.05 * q0:
            return _TURNED, r**nm1 * (v * v * kappa / m - q * q), i
    if record is None:
        return _TURNED, r**nm1 * (v * v * kappa / m - q * q), n_steps
    return (_CROSSED if np.any(record <= 0.0) else _TURNED), 0.0, n_steps


def _bisect(lo: float, hi: float, crosses) -> tuple[float, int]:
    """The bisection on [lo, hi] that certifies the height: lo stays a
    height that turns and hi one that crosses."""
    steps = 0
    while (hi - lo) > BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
        if steps > 200:
            raise ShootError("bisection stagnated")
    return lo, steps


def _shoot_core(dimension: int, p: float, r_max: float, n_cells: int,
                runs: dict[float, tuple[int, float, int]]):
    """Certified height, profile and counts on one uniform grid.

    The height is the bisection's, bit for bit, but most midpoints are
    not integrated.  The bisection is followed, integrating, until it
    pins the height within a factor of two; Brent's method on the
    signed miss of _integrate then narrows that to a turning height t
    below a crossing height c.  Replayed from the start, the bisection
    takes a midpoint below t as turning and one above c as crossing,
    and integrates only those between or within BISECTION_REL_TOL of
    them, where rounding can decide the class.  That relies on the
    class being monotone in the height: if any integrated turning
    height lies above an integrated crossing one, every midpoint is
    integrated after all.  `runs` maps heights to _integrate results
    already known on this step size and is updated in place.
    """
    kappa, m = _coefficients(dimension, p)
    n = int(dimension)
    h = r_max / n_cells
    w_eq = m ** (1.0 / (p - 2.0))
    # the equilibrium stays put to the domain end, so it turns there
    runs.setdefault(w_eq, (_TURNED, -(r_max ** (n - 1.0)) * w_eq * w_eq, n_cells))
    calls = 0

    def run(q0: float) -> tuple[int, float, int]:
        nonlocal calls
        if q0 not in runs:
            calls += 1
            runs[q0] = _integrate(q0, kappa, m, p, n, h, n_cells, w_eq)
        return runs[q0]

    lo, hi = w_eq, 10.0 * w_eq
    for _ in range(MAX_EXPANSIONS):
        if run(hi)[0] == _CROSSED:
            break
        lo, hi = hi, 10.0 * hi
    else:
        raise ShootError("no crossing height found; bracket expansion exhausted")

    # follow the bisection, integrating, until it pins the height within
    # a factor of two, so that Brent searches no wider than that
    t, c = lo, hi
    while c - t > t:
        mid = 0.5 * (t + c)
        if run(mid)[0] == _CROSSED:
            c = mid
        else:
            t = mid
    try:
        brentq(lambda q0: run(q0)[1], t, c,
               xtol=BISECTION_REL_TOL * w_eq, rtol=BISECTION_REL_TOL)
    except (OverflowError, RuntimeError, ValueError):
        pass  # the bracket only spares integrations; a failed one spares fewer

    def bracket() -> tuple[float, float]:
        return (max(q0 for q0, res in runs.items() if res[0] == _TURNED),
                min(q0 for q0, res in runs.items() if res[0] == _CROSSED))

    turned, crossed = bracket()
    margin = BISECTION_REL_TOL * crossed

    def crosses(mid: float) -> bool:
        if turned - margin < mid < crossed + margin:
            return run(mid)[0] == _CROSSED
        return mid >= crossed

    height, steps = _bisect(lo, hi, crosses)
    turned, crossed = bracket()
    if turned > crossed:
        height, steps = _bisect(lo, hi, lambda mid: run(mid)[0] == _CROSSED)

    values = np.empty(n_cells + 1)
    _integrate(height, kappa, m, p, n, h, n_cells, w_eq, record=values)
    calls += 1

    # truncate at the turnaround (or crossing) the certified height still has
    dv = np.diff(values)
    bad = np.nonzero((dv > 0.0) | (values[1:] <= 0.0))[0]
    cut = int(bad[0]) + 1 if bad.size else n_cells + 1
    values[cut:] = 0.0
    if np.any(np.diff(values[:cut]) > 1e-9 * height):
        raise ShootError("profile not monotone after truncation")
    if values[-1] > 1e-8 * height:
        raise ShootError("profile has not decayed at the domain edge; enlarge r_max")

    grid = make_grid(n, r_max=r_max, n_cells=n_cells, scheme="uniform")
    return RadialFunction(grid, values), height, kappa, m, steps, min(cut, n_cells) * h, calls


def default_r_max(dimension: int, p: float) -> float:
    """Domain size from the linear decay rate sqrt(m/kappa).

    Raises ShootError when the rate underflows to zero (kappa overflows
    for N = 2 and p near the float maximum), since then no finite domain
    holds the decay."""
    kappa, m = _coefficients(dimension, p)
    rate = math.sqrt(m / kappa)
    if not rate > 0.0:
        raise ShootError(f"(N, p) = ({int(dimension)}, {p:g}) has no finite domain: "
                         "its decay rate sqrt(m/kappa) underflows to 0")
    return max(20.0, 26.0 / rate)


def shoot(dimension: int, p: float, r_max: float | None = None,
          n_cells: int = 4000, certify: bool = True) -> GroundStateProfile:
    """Locate the extremal and report its norms.

    With certify=True the shoot is repeated on a doubled domain at the
    same step and the mass difference is reported as richardson_gap (a
    truncation certificate, not an assertion).  An r_max that is not
    positive and finite, n_cells below MIN_CELLS, or a grid (the doubled
    certification grid included) above MAX_CELLS is a ValueError.  A
    trajectory that overflows, on a step too coarse for the profile, is
    a ShootError naming (N, p) and the grid.
    """
    if r_max is None:
        r_max = default_r_max(dimension, p)
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if not n_cells >= MIN_CELLS:
        raise ValueError(f"n_cells must be at least {MIN_CELLS}, got {n_cells}")
    if (2 * n_cells if certify else n_cells) > MAX_CELLS:
        raise ValueError(f"n_cells {n_cells} exceeds the cap of {MAX_CELLS} cells"
                         + (" on the doubled certification grid" if certify else ""))

    def core(r: float, cells: int, known: dict):
        # converted here, not in _integrate: an overflow only means that
        # this grid cannot resolve the trajectory
        try:
            return _shoot_core(dimension, p, r, cells, known)
        except OverflowError as exc:
            raise ShootError(
                f"the shooting trajectory overflows for (N, p) = ({int(dimension)}, {p:g}) "
                f"on {cells} cells of r_max = {r:g}: the grid does not resolve "
                "the profile") from exc

    runs = {}
    u, height, kappa, m, steps, r_cut, calls = core(r_max, n_cells, runs)

    n = int(dimension)
    mass = u.mass()
    gap = None
    if certify:
        # h = 2 r_max / (2 n_cells) is the same float, so every run that
        # exited before the end of the first domain exits the same way
        early = {q0: res for q0, res in runs.items() if res[2] < n_cells}
        u2, *_, calls2 = core(2.0 * r_max, 2 * n_cells, early)
        calls += calls2
        gap = abs(u2.mass() - mass)

    crit = None
    if n >= 3:
        ts = two_star(n)
        crit = u.lp_norm(ts) ** ts
    return GroundStateProfile(
        dimension=n, p=p, kappa=kappa, m=m, height=height, profile=u,
        mass=mass, grad_sq=u.grad_norm_sq(), lp=u.lp_norm(p) ** p, crit=crit,
        bisection_steps=steps, integrations=calls, truncation_radius=r_cut,
        richardson_gap=gap,
    )


@lru_cache(maxsize=32)
def _cached_profile(dimension: int, p: float, r_max: float | None,
                    n_cells: int) -> GroundStateProfile:
    return shoot(dimension, p, r_max=r_max, n_cells=n_cells, certify=False)


def ground_state(dimension: int, p: float, r_max: float | None = None,
                 n_cells: int = 4000) -> GroundStateProfile:
    """Cached extremal lookup for threshold assembly and sweeps; rejects
    the domains that shoot rejects."""
    return _cached_profile(int(dimension), float(p), r_max, int(n_cells))


def gn_constant(dimension: int, p: float,
                profile: GroundStateProfile | None = None) -> float:
    """Sharp interpolation constant (p / (2 |Q|_2^{p-2}))^{1/p}.

    p = 2 degenerates to the identity |u|_2 <= |u|_2 with constant 1 and
    needs no profile.
    """
    if p == 2.0:
        return 1.0
    if profile is None:
        profile = ground_state(dimension, p)
    return (p / (2.0 * profile.q_l2 ** (p - 2.0))) ** (1.0 / p)


def gn_quotient(u: RadialFunction, p: float) -> float:
    """|u|_p over the interpolation product; bounded by gn_constant."""
    n = u.grid.dimension
    theta = n * (p - 2.0) / (2.0 * p)
    mass = math.sqrt(u.mass())
    grad = math.sqrt(u.grad_norm_sq())
    return u.lp_norm(p) / (grad**theta * mass ** (1.0 - theta))
