"""Planar truncated-logarithm profiles and the saddle-level ceiling.

The building block on R^2 is

    w_n(r) = (2 pi)^{-1/2} * ( sqrt(log n)           for r in [0, 1/n],
                               log(1/r)/sqrt(log n)  for r in [1/n, 1],
                               0                     for r >= 1 ),

whose Dirichlet energy is exactly 1 and whose squared L2 norm has the
closed form log n/(2 n^2) + (1/log n)(1/4 - 1/(4 n^2) - log n/(2 n^2)
- log^2 n/(2 n^2)).  Rescaling to mass c^2 gives the test profile
omega_n = c w_n / |w_n|_2, and along its dilation fiber

    g_n(t) = (1/2) M_hat(t^2 |grad omega_n|_2^2)
             - t^{-2} int F(t omega_n) dx

the quantity of interest is the strict ceiling

    max_{t > 0} g_n(t) < (1/2) M_hat(4 pi / alpha0)

for the exponential-critical nonlinearity, which saddle levels on the
constraint sphere inherit.  mp_bound_check measures the margin per n
and reports the first n from which it stays positive.

Large t drive e^{alpha0 t^2 omega_n^2} past float64 range, so g_n(t)
cannot be evaluated there.  On that region the value is certified
negative instead: halving the liminf constant beta gives a height
s_floor above which F(s) >= (beta / 4 alpha0) e^{alpha0 s^2} / s^2, so
the plateau alone contributes (pi/n^2) F(t h_n) and the comparison
against the stiffness term runs in logarithms.  Certification failure
raises; the check never clips.

All evaluations are pure, so distinct n may be processed in parallel
by callers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import scalar_opt
from .models import EXP_ARG_CAP, ExpOverflowError, Model, Nonlinearity
from .radial_grid import RadialFunction, RadialGrid, from_nodes, integer, mass_radius

# uniform cells on the plateau [0, 1/n], and the geometric step in log r
# on [1/n, 1]; the relative quadrature error of the logarithmic section
# is near LOG_STEP^2 / 12
PLATEAU_CELLS = 10
LOG_STEP = 1e-3
OVERFLOW_BACKOFF = 1e-9


class CertificationError(ValueError):
    """Raised when the analytic negativity certificate cannot be established
    (a property of the model and mass, so the CLI exits 2)."""


def bar_mass_exact(n: int) -> float:
    """Closed-form squared L2 norm of the unit-energy profile w_n."""
    ln = math.log(n)
    return ln / (2 * n * n) + (0.25 - 0.25 / (n * n) - ln / (2 * n * n)
                               - ln * ln / (2 * n * n)) / ln


def bar_profile_values(n: int, r: np.ndarray) -> np.ndarray:
    """Sample w_n on the given radii; w_n(0) = (log n / 2 pi)^{1/2}."""
    ln = math.log(n)
    out = np.zeros_like(np.asarray(r, dtype=float))
    plateau = r <= 1.0 / n
    out[plateau] = math.sqrt(ln)
    mid = (r > 1.0 / n) & (r < 1.0)
    out[mid] = -np.log(r[mid]) / math.sqrt(ln)
    return out / math.sqrt(2.0 * math.pi)


def make_moser_grid(n: int) -> RadialGrid:
    """Unit-ball grid resolving both kinks of w_n.

    The plateau [0, 1/n] is split into PLATEAU_CELLS uniform cells (the
    node at 1/n is exact); [1/n, 1] is split geometrically with step
    LOG_STEP in log r.
    """
    if integer("n", n) < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    ln = math.log(n)
    inner = np.linspace(0.0, 1.0 / n, PLATEAU_CELLS + 1)
    k = int(math.ceil(ln / LOG_STEP))
    outer = np.exp(np.linspace(-ln, 0.0, k + 1))
    outer[0] = 1.0 / n
    outer[-1] = 1.0
    return from_nodes(2, np.concatenate([inner, outer[1:]]), scheme="custom")


@dataclass
class MoserFunction:
    """A mass-c member of the profile family with its exact-norm record.

    profile holds omega_n scaled so that the quadrature mass equals c^2
    exactly; exact_bar_mass is the closed-form squared L2 norm of w_n
    (its Dirichlet energy is exactly 1), and exact_grad_sq =
    c^2 / exact_bar_mass is the dilation-fiber stiffness argument.
    """

    n: int
    c: float
    profile: RadialFunction
    plateau_height: float
    exact_bar_mass: float
    exact_grad_sq: float
    bar_mass_quadrature: float
    bar_grad_quadrature: float


def moser(n: int, c: float) -> MoserFunction:
    """Build omega_n = c w_n / |w_n|_2 on make_moser_grid(n).

    The grid has PLATEAU_CELLS cells on the plateau and step LOG_STEP in
    log r outside it; the profile is normalized by the quadrature norm
    so that mass(omega_n) = c^2 to rounding.
    """
    c = mass_radius(c)
    grid = make_moser_grid(n)
    bar = RadialFunction(grid, bar_profile_values(n, grid.nodes))
    bar_mass = bar.mass()
    bar_grad = bar.grad_norm_sq()
    scale = c / math.sqrt(bar_mass)
    exact_mass = bar_mass_exact(n)
    return MoserFunction(
        n=n,
        c=c,
        profile=bar.with_values(bar.values * scale),
        plateau_height=float(bar.values[0] * scale),
        exact_bar_mass=exact_mass,
        exact_grad_sq=c * c / exact_mass,
        bar_mass_quadrature=bar_mass,
        bar_grad_quadrature=bar_grad,
    )


def g_fiber(model: Model, mf: MoserFunction, t: float) -> float:
    """Dilation-fiber energy g_n(t); raises ExpOverflowError where unsafe.

    The stiffness argument uses the exact gradient norm; the F term is
    quadrature on the sampled profile.
    """
    if not t > 0:
        raise ValueError(f"fiber parameter t must be positive, got {t}")
    kin = 0.5 * model.coefficient.Mhat(t * t * mf.exact_grad_sq)
    pot = mf.profile.grid.integrate(model.nonlinearity.F(t * mf.profile.values))
    return kin - pot / (t * t)


def _growth_floor(nl: Nonlinearity) -> float:
    """Height above which F(s) >= (beta / 4 alpha0) e^{alpha0 s^2} / s^2.

    Halving the liminf constant of the critical-growth hypothesis turns
    it into the explicit floor above; on the spliced family the defect
    is K s^2 e^{-alpha0 s^2} with the model constant K below, so one
    bracketed root bounds the admissible region.
    """
    if nl.kind != "exp":
        raise ValueError("the growth floor is defined for the exponential family")
    a0, b0, u1 = nl.alpha0, nl.beta, nl.u1
    s = max(u1, math.sqrt(2.0 / a0))
    k = (4.0 * a0 / b0) * (u1**nl.sigma / nl.sigma
                           - (b0 / (2.0 * a0)) * math.exp(a0 * u1 * u1) / (u1 * u1))
    if k < 0:
        def defect(x: float) -> float:
            return abs(k) * x * x * math.exp(-a0 * x * x) - 1.0

        peak = 1.0 / math.sqrt(a0)
        if defect(peak) > 0:
            hi = math.sqrt(0.9 * EXP_ARG_CAP / a0)
            if defect(hi) > 0:
                raise CertificationError("growth floor exceeds the evaluable height range")
            s = max(s, scalar_opt.brentq(defect, peak, hi, xtol=1e-13))
        else:
            s = max(s, peak)
    return s


def _certificate_log_margin(model: Model, mf: MoserFunction, t: float,
                            floor: float) -> float:
    """log of the plateau F lower bound minus log of the stiffness term.

    Positive means g_n(t) < 0 is certified at this t.  Requires the
    plateau height t h_n to clear the growth floor.
    """
    nl, co = model.nonlinearity, model.coefficient
    h = mf.plateau_height
    if t * h < floor:
        raise CertificationError(
            f"plateau height {t * h:g} below the growth floor {floor:g}"
        )
    ln_lower = (math.log(math.pi * nl.beta / (4.0 * nl.alpha0)) - 2.0 * math.log(mf.n)
                + nl.alpha0 * (t * h) ** 2 - 4.0 * math.log(t) - 2.0 * math.log(h))
    return ln_lower - math.log(0.5 * co.Mhat(t * t * mf.exact_grad_sq))


def mp_bound(model: Model) -> float:
    """The ceiling (1/2) M_hat(4 pi / alpha0) of the saddle-level estimate."""
    a0 = model.nonlinearity.alpha0
    if not a0 > 0:
        raise ValueError("the ceiling requires an exponential-critical nonlinearity")
    return 0.5 * model.coefficient.Mhat(4.0 * math.pi / a0)


@dataclass
class MoserBoundRecord:
    n: int
    max_g: float
    argmax_t: float
    bound: float
    margin: float
    t_sq_log_n: float
    flagged_from: float
    certificate_log_margin: float


@dataclass
class MoserBoundReport:
    """Per-n maxima of g_n against the ceiling, plus the empirical onset.

    empirical_n0 is the smallest sampled n from which every later margin
    stays positive (None when the largest sampled margin is still
    nonpositive); the theory guarantees the bound for n large without an
    effective constant, so n0 is a measurement, not a claim.
    """

    c: float
    bound: float
    target_scale: float
    records: list[MoserBoundRecord]
    empirical_n0: int | None

    def rows(self) -> list[dict]:
        return [asdict(rec) for rec in self.records]

    def summary(self) -> str:
        lines = [f"ceiling = {self.bound:.6g}, t^2 log n scale = {self.target_scale:.6g}"]
        for rec in self.records:
            lines.append(
                f"n = {rec.n}: max g = {rec.max_g:.6g} at t = {rec.argmax_t:.6g}, "
                f"margin = {rec.margin:.6g}, t^2 log n = {rec.t_sq_log_n:.6g}"
            )
        lines.append(f"margin positive from n = {self.empirical_n0}"
                     if self.empirical_n0 is not None else "margin not yet positive")
        return "\n".join(lines)


def profile_index(n) -> int:
    """n as an int, checked to be a finite integral real number (1e4 is
    accepted, 10.7 and inf are not)."""
    if not (isinstance(n, numbers.Real) and math.isfinite(n)
            and float(n).is_integer()):
        raise ValueError(f"profile index n must be a finite integer, got {n!r}")
    return int(n)


def mp_bound_check(model: Model, c: float, n_list) -> MoserBoundReport:
    """Maximize g_n over t for each n and compare against the ceiling.

    Each omega_n is moser(n, c), on the grid fixed by PLATEAU_CELLS and
    LOG_STEP.  The search runs over the overflow-safe range [1e-6, t_hi],
    t_hi a relative OVERFLOW_BACKOFF below the exponent cap, through
    scalar_opt.log_grid_max: a scalar_opt.MAX_SCAN-point (200) scan in
    log t, then golden refinement to scalar_opt.MAX_TOL (1e-10) in log t.
    Beyond t_hi the value is certified negative via the analytic plateau
    bound, whose log-margin must be positive and, by the growth
    inequality M(x) x <= (theta + 1) M_hat(x), stays positive for all
    larger t once alpha0 h_n^2 t^2 > theta + 3.  A (c, n) whose search
    finds no interior maximum (it sits on a bracket edge, or g_n overflows
    inside the bracket), or a maximum that is not positive, raises
    ValueError naming n and c; the bracket is not widened.  A certificate
    that fails raises CertificationError, also a ValueError.
    """
    nl, co = model.nonlinearity, model.coefficient
    if nl.kind != "exp":
        raise ValueError("the saddle-level ceiling applies to the exponential family")
    bound = mp_bound(model)
    floor = _growth_floor(nl)
    records = []
    for n in sorted(set(profile_index(m) for m in n_list)):
        mf = moser(n, c)
        h = mf.plateau_height
        t_hi = math.sqrt(EXP_ARG_CAP / nl.alpha0) / h * (1.0 - OVERFLOW_BACKOFF)
        log_margin = _certificate_log_margin(model, mf, t_hi, floor)
        if log_margin <= 0:
            raise CertificationError(
                f"negativity certificate fails at the overflow edge for n = {n}"
            )
        if nl.alpha0 * (h * t_hi) ** 2 <= co.theta + 3.0:
            raise CertificationError(
                f"certificate monotonicity condition fails for n = {n}"
            )
        try:
            t_star, g_max = scalar_opt.log_grid_max(
                lambda t: g_fiber(model, mf, t), 1e-6, t_hi)
        except (scalar_opt.BracketError, ExpOverflowError) as exc:
            raise ValueError(f"no fiber maximum for n = {n}, c = {c:g} on "
                             f"t in [1e-06, {t_hi:.3g}]: {exc}") from None
        if not g_max > 0:
            raise ValueError(f"no positive fiber hump for n = {n}, c = {c:g} "
                             f"(max {g_max:g})")
        records.append(MoserBoundRecord(
            n=n,
            max_g=g_max,
            argmax_t=t_star,
            bound=bound,
            margin=bound - g_max,
            t_sq_log_n=t_star * t_star * math.log(n),
            flagged_from=t_hi,
            certificate_log_margin=log_margin,
        ))
    n0 = None
    for rec in reversed(records):
        if rec.margin > 0:
            n0 = rec.n
        else:
            break
    return MoserBoundReport(
        c=c,
        bound=bound,
        target_scale=math.pi / (nl.alpha0 * c * c),
        records=records,
        empirical_n0=n0,
    )
