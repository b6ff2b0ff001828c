"""Coercivity infima and explicit existence / non-existence thresholds.

Everything here reduces to the two-term-over-two-term infimum

    omega = inf_{t>0} (k1 t^q1 + k2 t^q2) / (k3 t^q3 + k4 t^q4),

which is positive and attained whenever the active denominator powers sit
strictly between the numerator powers.  It is computed exactly: the
derivative condition is a sum of powers of t with one sign change, so
its one root (scalar_opt.power_sum_roots) is the minimum, with no scan.
In the quadratic-quartic
configuration (q1, q2) = (2, 4) with a single denominator power q in
(2, 4) the infimum has a closed form; combined with the Sobolev constant
of the critical embedding and the mass of the interpolation extremal it
yields the explicit mass thresholds below which no nontrivial normalized
solution can exist.  The Sobolev constant is exact too: the closed form
S_N = pi N (N - 2) (Gamma(N/2) / Gamma(N))^(2/N) of Aubin (J.
Differential Geom. 11 (1976)) and Talenti (Ann. Mat. Pura Appl. 110
(1976)), with no quadrature, so no threshold carries a grid's error.

The extremal mass ``q_mass`` and the interpolation constant are always
injected by the caller (see gn_ground_state); nothing is hard-coded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

from .models import affine_coefficient, two_star
from .radial_grid import (MAX_DIMENSION, RadialFunction, RadialGrid, finite_real,
                          integer_dimension, positive_real)
from .scalar_opt import brentq, power_sum_roots

# relative backoff from the admissibility boundary when maximizing the
# margin parameter delta; keeps the reported constant strictly certified
DELTA_BACKOFF = 1e-6


@dataclass(frozen=True)
class OmegaQuery:
    """Coefficients and exponents of the two-over-two infimum.

    k1, k2 > 0 always; k3, k4 >= 0 with at least one positive; all
    finite.  An exponent whose coefficient vanishes may be None and is
    not read.  Every active denominator exponent must lie strictly
    inside (q1, q2), otherwise the infimum degenerates to zero.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    q1: float = 2.0
    q2: float = 4.0
    q3: float | None = None
    q4: float | None = None

    def __post_init__(self) -> None:
        positive_real("k1", self.k1)
        positive_real("k2", self.k2)
        if (positive_real("k3", self.k3, zero=True)
                == positive_real("k4", self.k4, zero=True) == 0.0):
            raise ValueError("denominator coefficients k3 and k4 are both zero")
        if not -math.inf < self.q1 < self.q2 < math.inf:
            raise ValueError("numerator exponents must be finite and ordered q1 < q2")
        for k, q, name in ((self.k3, self.q3, "q3"), (self.k4, self.q4, "q4")):
            if k > 0.0:
                if q is None or not (self.q1 < q < self.q2):
                    raise ValueError(
                        f"{name} must lie strictly inside ({self.q1:g}, {self.q2:g})")

    def powers(self) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """(exponent, coefficient) pairs of the numerator and of the
        active denominator terms."""
        return ([(self.q1, self.k1), (self.q2, self.k2)],
                [(q, k) for q, k in ((self.q3, self.k3), (self.q4, self.k4)) if k > 0.0])

    def ratio(self, t: float) -> float:
        """The ratio at t > 0.

        Raises ValueError where a term leaves the normal float range:
        there it overflows, or rounds too coarsely to be trusted.
        """
        num, den = self.powers()
        try:
            parts = [k * t**q for q, k in num + den]
        except OverflowError:
            parts = [math.inf]
        if not all(sys.float_info.min <= x < math.inf for x in parts):
            raise ValueError(f"a term of the ratio at t = {t:.6g} leaves "
                             "the normal float range")
        return (parts[0] + parts[1]) / sum(parts[2:])


def omega(query: OmegaQuery) -> tuple[float, float]:
    """Infimum of the two-over-two ratio; returns (value, argmin t*).

    With N and D the numerator and denominator, t (N'D - N D') is the
    power sum of (q_i - q_j) k_i k_j t^(q_i + q_j) over numerator terms
    i and active denominator terms j.  Every denominator exponent lies
    inside (q1, q2), so in exponent order the signs run - - + +: one
    sign change, hence exactly one root, the global minimum, found by
    power_sum_roots.  The bracket comes from the terms: the sum is
    negative where one falling term outweighs m times each rising one
    (m the number of terms) and positive where one rising term
    outweighs m times each falling one.  Coefficients stay as logs
    until the terms are rescaled to the bracket's midpoint, so no power
    overflows on the way.  Raises ValueError when t* or a term of the
    ratio there leaves the normal float range.
    """
    num, den = query.powers()
    # (exponent, log |coefficient|) of the terms of the q1 row, which
    # fall, and of the q2 row, which rise
    falling, rising = ([(qi + qj, math.log(abs(qi - qj)) + math.log(ki) + math.log(kj))
                        for qj, kj in den] for qi, ki in num)
    log_m = math.log(2 * len(den))
    s_lo = max(min((lf - lr - log_m) / (er - ef) for er, lr in rising)
               for ef, lf in falling)
    s_hi = min(max((lf - lr + log_m) / (er - ef) for ef, lf in falling)
               for er, lr in rising)
    mid = 0.5 * (s_lo + s_hi)
    top = max(lk + e * mid for e, lk in falling + rising)
    shifted = sorted([(e, -math.exp(lk + e * mid - top)) for e, lk in falling]
                     + [(e, math.exp(lk + e * mid - top)) for e, lk in rising])
    [(x, _)] = power_sum_roots(shifted, s_lo - mid, s_hi - mid)
    t_star = math.exp(mid + x) if mid + x < math.log(sys.float_info.max) else math.inf
    return query.ratio(t_star), t_star


def omega_closed_form(big_a: float, big_b: float, q: float) -> float:
    """Closed form of the infimum for numerator A t^2 + B t^4 over t^q."""
    if not (big_a > 0.0 and big_b > 0.0):
        raise ValueError("coefficients must be positive")
    if not 2.0 < q < 4.0:
        raise ValueError(f"denominator power must lie in (2, 4), got {q}")
    half = 0.5 * q
    return (2.0 * (q - 2.0) ** (1.0 - half) * (4.0 - q) ** (half - 2.0)
            * big_a ** (2.0 - half) * big_b ** (half - 1.0))


def aubin_talenti_bubble(grid: RadialGrid) -> RadialFunction:
    """The standard decaying extremal (1 + r^2)^{-(N-2)/2} of the critical embedding."""
    n = grid.dimension
    if n < 3:
        raise ValueError("critical embedding requires dimension >= 3")
    return RadialFunction(grid, (1.0 + grid.nodes**2) ** (-(n - 2) / 2.0))


def sobolev_quotient(u: RadialFunction) -> float:
    """Rayleigh quotient |grad u|_2^2 / |u|_{2*}^2 by quadrature."""
    ts = two_star(u.grid.dimension)
    return u.grad_norm_sq() / u.lp_norm(ts) ** 2


def sobolev_constant(dimension: int) -> float:
    """Best constant S_N of the critical embedding, in closed form.

    S_N = pi N (N - 2) (Gamma(N/2) / Gamma(N))^(2/N), the Sobolev
    quotient of the Aubin-Talenti bubble (Aubin, J. Differential Geom.
    11 (1976); Talenti, Ann. Mat. Pura Appl. 110 (1976)).  Dimensions 3
    to radial_grid.MAX_DIMENSION; anything else raises ValueError.
    """
    n = integer_dimension(dimension)
    if not 3 <= n <= MAX_DIMENSION:
        raise ValueError(f"the critical embedding needs dimension 3 to "
                         f"{MAX_DIMENSION}, got {n}")
    return math.pi * n * (n - 2) * (math.gamma(n / 2) / math.gamma(n)) ** (2.0 / n)


def mass_critical(n: int, p: float) -> bool:
    """Whether p is the mass-critical exponent 2 + 4/N (3 at N = 4)."""
    return abs(p - (2.0 + 4.0 / n)) <= 1e-12


def _coercivity_gap(a: float, b: float, n: int) -> float:
    """S^(2*/2) omega(a, b, 2*) - 1 for N >= 5: the two-over-two infimum
    with unit critical weight, less 1.  Positive exactly when the
    quadratic-quartic form a t^2 + b t^4 dominates the critical power."""
    ts = two_star(n)
    return sobolev_constant(n) ** (ts / 2.0) * omega_closed_form(a, b, ts) - 1.0


def existence_condition(a: float, b: float, dimension: int) -> bool:
    """Whether the quadratic-quartic form dominates the critical power.

    For N >= 5 this is a positive coercivity gap (false when a or b is
    0); for N = 4 the quartic terms share the exponent and the condition
    collapses to b > 1/S^2.
    """
    dimension = integer_dimension(dimension)
    if dimension < 4:
        raise ValueError("threshold theory covers dimension >= 4")
    if dimension == 4:
        return b > 1.0 / sobolev_constant(4) ** 2
    return a > 0.0 and b > 0.0 and _coercivity_gap(a, b, dimension) > 0.0


def delta_star(a: float, b: float, dimension: int) -> float:
    """Largest margin delta keeping (a-delta, b-delta) coercive, backed off.

    The coercivity gap at (a - delta, b - delta) falls strictly as delta
    grows, so the supremum is its one root in (0, min(a, b)) when it has
    one, and min(a, b) itself when coercivity holds all the way there
    (large b); the returned value sits a relative DELTA_BACKOFF inside
    it, hence is always admissible.
    """
    if dimension < 5:
        raise ValueError("the margin construction needs dimension >= 5")
    if not existence_condition(a, b, dimension):
        raise ValueError("coercivity fails already at zero margin")

    def gap(d: float) -> float:
        return _coercivity_gap(a - d, b - d, dimension)

    hi = min(a, b) * (1.0 - 1e-12)
    if gap(hi) > 0.0:
        return hi * (1.0 - DELTA_BACKOFF)
    d_max = brentq(gap, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    return d_max * (1.0 - DELTA_BACKOFF)


def nonexistence_c0(a: float, b: float, p: float, dimension: int,
                    q_mass: float) -> float:
    """Mass radius below which no nontrivial normalized solution exists.

    q_mass is the L2 norm of the interpolation extremal for (dimension, p).
    Covered ranges: p in [2 + 4/N, 2*) for N >= 5, and p in [3, 4) for
    N = 4; anything else raises ValueError.  Near 2* or for extreme
    coefficients the value may overflow (OverflowError) or round to 0 or
    inf; threshold_set reports that as a note.
    """
    n = integer_dimension(dimension)
    if q_mass <= 0.0:
        raise ValueError("extremal mass must be positive")
    if n < 4:
        raise ValueError("thresholds are defined for dimension >= 4")
    if not existence_condition(a, b, n):
        raise ValueError("coercivity condition fails; no threshold certified")
    s = sobolev_constant(n)
    ts = two_star(n)
    if mass_critical(n, p):
        if n == 4:
            return a * q_mass
        bracket = a - (4.0 - ts) / (2.0 * s ** (n / (n - 4.0))) \
            * ((ts - 2.0) / (2.0 * b)) ** (2.0 / (n - 4.0))
        if bracket <= 0.0:
            raise ValueError("threshold bracket nonpositive despite coercivity")
        return q_mass * bracket ** (n / 4.0)
    if n == 4:
        if not 3.0 < p < 4.0:
            raise ValueError("dimension 4 threshold covers p in [3, 4)")
        return (a * q_mass ** ((p - 2.0) / (4.0 - p))
                / ((4.0 - p) * (p - 2.0) ** (1.0 / (4.0 - p)))
                * ((b - 1.0 / s**2) / (p - 3.0)) ** ((p - 3.0) / (4.0 - p)))
    p_mc = 2.0 + 4.0 / n
    if not p_mc < p < ts:
        raise ValueError(f"p must lie in [{p_mc:g}, {ts:g}) for dimension {n}")
    d = delta_star(a, b, n)
    q3 = 0.5 * n * (p - 2.0)
    omega_val = omega_closed_form(2.0 * d, 2.0 * d, q3)
    return (2.0 * q_mass ** (p - 2.0) * omega_val
            / (n * (p - 2.0))) ** (2.0 / (2.0 * p - n * (p - 2.0)))


def c_star(a: float, b: float, dimension: int, q_mass: float) -> float:
    """Radius up to which the constrained infimum stays exactly zero (N >= 5)."""
    n = integer_dimension(dimension)
    if n < 5:
        raise ValueError("this display needs dimension >= 5")
    s = sobolev_constant(n)
    ts = two_star(n)
    bracket = a - (4.0 - ts) / (ts ** ((n - 2.0) / (n - 4.0)) * s ** (n / (n - 4.0))) \
        * (2.0 * (ts - 2.0) / b) ** (2.0 / (n - 4.0))
    if bracket <= 0.0:
        raise ValueError("hypothesis violation: threshold bracket nonpositive")
    return q_mass * bracket ** (n / 4.0)


@dataclass(frozen=True)
class ThresholdSet:
    """All explicit constants for one (N, p, a, b) configuration."""

    dimension: int
    p: float
    a: float
    b: float
    sobolev: float | None
    gn_constant: float
    q_mass: float
    existence_ok: bool
    c0: float | None = None
    c_star: float | None = None
    c1_exact: float | None = None
    c1_upper: float | None = None
    delta: float | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def threshold_set(a: float, b: float, p: float, dimension: int, q_mass: float,
                  gn_const: float) -> ThresholdSet:
    """Assemble every threshold that applies to the given configuration.

    Constants whose hypotheses fail are reported as None with a note
    rather than raising, so sweeps can tabulate mixed regimes: each of
    c0, c_star, c1_upper and delta that raises ValueError, overflows, or
    comes out not positive and finite gets one note, "<name>
    unavailable: <reason>".  Below dimension 4 there are no constants,
    only the note "no explicit thresholds below dimension 4", and the
    Sobolev constant is None at N <= 2, which has no critical embedding.
    Only a coefficient that affine_coefficient refuses, a p that is not
    a radial_grid.finite_real, or a dimension that is not an integer in
    [1, radial_grid.MAX_DIMENSION] raises a ValueError.
    """
    coefficient = affine_coefficient(a, b)
    a, b = coefficient.a, coefficient.b
    p = finite_real("p", p)
    n = integer_dimension(dimension)
    s = None if n in (1, 2) else sobolev_constant(n)
    notes: list[str] = []
    exists_ok = n >= 4 and existence_condition(a, b, n)

    def attempt(name, constant):
        try:
            value = constant()
        except ValueError as exc:
            notes.append(f"{name} unavailable: {exc}")
            return None
        except OverflowError:
            value = math.inf
        if 0.0 < value < math.inf:
            return value
        notes.append(f"{name} unavailable: {name} leaves the float range at p = {p:.9g}")
        return None

    c0 = cs = c1e = c1u = delta = None
    if exists_ok:
        c0 = attempt("c0", lambda: nonexistence_c0(a, b, p, n, q_mass))
        if n >= 5:
            cs = attempt("c_star", lambda: c_star(a, b, n, q_mass))
            if mass_critical(n, p):
                # the sign-change radius is only bracketed here: the GN
                # fiber energy at small scale has the sign of
                # a - (c/|Q|_2)^(4/N), which flips at c = a^(N/4) |Q|_2
                c1u = attempt("c1_upper", lambda: a ** (n / 4.0) * q_mass)
            delta = attempt("delta", lambda: delta_star(a, b, n))
        elif mass_critical(n, p):
            # the exact I_c sign-change radius of the N = 4 borderline
            # case is c0 = a |Q|_2 itself
            c1e = c0
    elif n < 4:
        notes.append("no explicit thresholds below dimension 4")
    else:
        notes.append("coercivity condition fails: thresholds undefined")

    return ThresholdSet(
        dimension=n, p=p, a=a, b=b, sobolev=s, gn_constant=gn_const,
        q_mass=q_mass, existence_ok=exists_ok, c0=c0, c_star=cs, c1_exact=c1e,
        c1_upper=c1u, delta=delta, notes=tuple(notes),
    )
