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

# classification outcomes for a single integration
_CROSSED = 1
_TURNED = -1

BISECTION_REL_TOL = 1e-13
MAX_EXPANSIONS = 6


class ShootError(RuntimeError):
    """Raised when the shooting bisection cannot certify a profile."""


@dataclass
class GroundStateProfile:
    """Converged extremal with its norms and convergence diagnostics."""

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
               record: np.ndarray | None = None) -> int:
    """March the radial system; classify the trajectory.

    Early exits: _CROSSED when Q reaches zero, _TURNED when Q turns
    upward while already small or overshoots its start.  With `record`
    given, node values are stored and no early exit is taken on turns
    (the caller truncates).
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
        q += h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        r += h
        if record is not None:
            record[i + 1] = q
            continue
        if q <= 0.0:
            return _CROSSED
        if v > 0.0 and q < 0.5 * w_eq:
            return _TURNED
        if q > 1.05 * q0:
            return _TURNED
    if record is None:
        return _TURNED
    return _CROSSED if np.any(record <= 0.0) else _TURNED


def _shoot_core(dimension: int, p: float, r_max: float, n_cells: int):
    kappa, m = _coefficients(dimension, p)
    n = int(dimension)
    h = r_max / n_cells
    w_eq = m ** (1.0 / (p - 2.0))

    lo, hi = w_eq, 10.0 * w_eq
    for _ in range(MAX_EXPANSIONS):
        if _integrate(hi, kappa, m, p, n, h, n_cells, w_eq) == _CROSSED:
            break
        lo, hi = hi, 10.0 * hi
    else:
        raise ShootError("no crossing height found; bracket expansion exhausted")

    steps = 0
    while (hi - lo) > BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _integrate(mid, kappa, m, p, n, h, n_cells, w_eq) == _CROSSED:
            hi = mid
        else:
            lo = mid
        steps += 1
        if steps > 200:
            raise ShootError("bisection stagnated")

    values = np.empty(n_cells + 1)
    _integrate(lo, kappa, m, p, n, h, n_cells, w_eq, record=values)

    # truncate at the turnaround (or crossing) the certified height still has
    dv = np.diff(values)
    bad = np.nonzero((dv > 0.0) | (values[1:] <= 0.0))[0]
    cut = int(bad[0]) + 1 if bad.size else n_cells + 1
    values[cut:] = 0.0
    if np.any(np.diff(values[:cut]) > 1e-9 * lo):
        raise ShootError("profile not monotone after truncation")
    if values[-1] > 1e-8 * lo:
        raise ShootError("profile has not decayed at the domain edge; enlarge r_max")

    grid = make_grid(n, r_max=r_max, n_cells=n_cells, scheme="uniform")
    return RadialFunction(grid, values), lo, kappa, m, steps, min(cut, n_cells) * h


def default_r_max(dimension: int, p: float) -> float:
    """Domain size from the linear decay rate sqrt(m/kappa)."""
    kappa, m = _coefficients(dimension, p)
    return max(20.0, 26.0 / math.sqrt(m / kappa))


def shoot(dimension: int, p: float, r_max: float | None = None,
          n_cells: int = 4000, certify: bool = True) -> GroundStateProfile:
    """Locate the extremal and report its norms.

    With certify=True the shoot is repeated on a doubled domain at the
    same step and the mass difference is reported as richardson_gap (a
    truncation certificate, not an assertion).  An r_max that is not
    positive and finite, n_cells below MIN_CELLS, or a grid (the doubled
    certification grid included) above MAX_CELLS is a ValueError.
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
    u, height, kappa, m, steps, r_cut = _shoot_core(dimension, p, r_max, n_cells)

    n = int(dimension)
    mass = u.mass()
    gap = None
    if certify:
        u2, *_ = _shoot_core(dimension, p, 2.0 * r_max, 2 * n_cells)
        gap = abs(u2.mass() - mass)

    crit = None
    if n >= 3:
        ts = two_star(n)
        crit = u.lp_norm(ts) ** ts
    return GroundStateProfile(
        dimension=n, p=p, kappa=kappa, m=m, height=height, profile=u,
        mass=mass, grad_sq=u.grad_norm_sq(), lp=u.lp_norm(p) ** p, crit=crit,
        bisection_steps=steps, truncation_radius=r_cut, richardson_gap=gap,
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
