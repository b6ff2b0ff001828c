"""Problem data: nonlocal stiffness coefficients and nonlinearities.

A model bundles a Kirchhoff coefficient M (with antiderivative M_hat,
derivative M' and growth exponent theta) and a nonlinearity f (with
primitive F and derivative f').  Two nonlinearity families are provided:

* power, with the Sobolev-critical term whenever N >= 3:
      f(u) = |u|^{p-2} u + |u|^{2^*-2} u,   2^* = 2N/(N-2),
* exponential with Trudinger-Moser-critical growth, built by splicing a
  pure power u^{sigma-1} below a height u_1 onto
      f_1(u) = beta (alpha0 u^2 - 1) e^{alpha0 u^2} / (alpha0 u^3)
  above it, with u_1 chosen so the splice is continuous.  The primitive
  of f_1 is exact, so F needs no quadrature:
      F_1(u) = (beta / 2 alpha0) u^{-2} e^{alpha0 u^2} + const.

Each family has one kernel, Nonlinearity.f_and_F, that gives f and F
together from one evaluation of its powers (and of e^{alpha0 u^2});
f and F are its two parts, and profiles memoize the pair.

Exponential evaluations guard the argument alpha0 u^2 against float64
overflow: they raise instead of clipping, so a caller that needs values
in the overflow range must switch to an analytic bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .radial_grid import integer_dimension, positive_real
from .scalar_opt import brentq

EXP_ARG_CAP = 700.0
# check_hypotheses samples M on [1e-6, CHECK_T_MAX] and f on
# [1e-6, CHECK_U_MAX], CHECK_SAMPLES log-spaced points each
CHECK_T_MAX = 1e3
CHECK_U_MAX = 1e3
CHECK_SAMPLES = 400


class ExpOverflowError(FloatingPointError):
    """Raised when alpha0 u^2 exceeds the float64-safe exponent range."""


@dataclass(frozen=True)
class KirchhoffCoefficient:
    """Nonlocal coefficient M(t) with antiderivative and growth exponent.

    kind 'affine' means M(t) = a + b t with M_hat(t) = a t + b t^2 / 2
    and theta = 1: M(t) t <= 2 M_hat(t), sharp as t -> infinity when
    b > 0, so no smaller theta satisfies the growth inequality.
    kind 'general' wraps user callables; theta must still satisfy the
    growth inequality M_hat(t) >= M(t) t / (theta + 1), which is what
    check_hypotheses verifies by sampling.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    theta: float = 1.0
    m_fn: Callable[[float], float] | None = field(default=None, repr=False)
    mhat_fn: Callable[[float], float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "affine" and self.theta != 1.0:
            raise ValueError(f"an affine coefficient has theta = 1, got {self.theta}")

    def M(self, t: float) -> float:
        if self.kind == "affine":
            return self.a + self.b * t
        return self.m_fn(t)

    def Mhat(self, t: float) -> float:
        if self.kind == "affine":
            return self.a * t + 0.5 * self.b * t * t
        return self.mhat_fn(t)

    def M_prime(self, t: float) -> float:
        """M'(t): exactly b for the affine kind; for the general kind a
        central difference of step 1e-6 (1 + |t|), one-sided where it
        would reach below t = 0."""
        if self.kind == "affine":
            return self.b
        h = 1e-6 * (1.0 + abs(t))
        return (self.M(t + h) - self.M(max(t - h, 0.0))) / (h + min(t, h))


def affine_coefficient(a: float, b: float) -> KirchhoffCoefficient:
    """M(t) = a + b t: a a positive_real, b one that may be 0."""
    return KirchhoffCoefficient("affine", a=positive_real("M(0) = a", a),
                                b=positive_real("slope b", b, zero=True))


def general_coefficient(m_fn, mhat_fn, theta: float) -> KirchhoffCoefficient:
    return KirchhoffCoefficient("general", theta=theta, m_fn=m_fn, mhat_fn=mhat_fn)


def two_star(dimension: int) -> float:
    """Sobolev-critical exponent 2N/(N-2)."""
    if integer_dimension(dimension) <= 2:
        raise ValueError("the Sobolev-critical exponent requires N >= 3")
    return 2.0 * dimension / (dimension - 2.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Vectorized nonlinearity f, primitive F (F' = f, F(0) = 0) and
    derivative f_prime."""

    kind: str
    dimension: int = 0
    p: float = 0.0
    alpha0: float = 0.0
    beta: float = 0.0
    theta: float = 0.0
    u1: float = 0.0

    @property
    def sigma(self) -> float:
        """Exponent of the exponential family's power piece u^{sigma-1},
        2 theta + 4."""
        return 2.0 * self.theta + 4.0

    @property
    def include_critical(self) -> bool:
        """Whether f carries the Sobolev-critical term: every power model
        from N = 3 up, which has a critical embedding."""
        return self.kind == "power" and self.dimension >= 3

    def f(self, u):
        return self.f_and_F(u)[0]

    def F(self, u):
        return self.f_and_F(u)[1]

    def f_and_F(self, u) -> tuple[np.ndarray, np.ndarray]:
        """f(u) and F(u) from one evaluation of the family's kernel.

        f and F return its parts, so direct and joint values are the same
        bits; profiles memoize the pair.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            return self._power_f_and_F(u)
        return self._exp_f_and_F(u)

    def _power_f_and_F(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and F of the power family from one evaluation of |u|^{p-1}
        (and |u|^{2^*-1}): f = sign(u) (...) and F = |u| (.../p + .../2^*)."""
        au = np.abs(u)
        lower = au ** (self.p - 1.0)
        if not self.include_critical:
            return np.copysign(lower, u), au * (lower / self.p)
        q = two_star(self.dimension)
        upper = au ** (q - 1.0)
        return np.copysign(lower + upper, u), au * (lower / self.p + upper / q)

    def f_prime(self, u):
        """f'(u), the diagonal Jacobian of u -> f(u).

        The exponential family is one-sided (f vanishes on u <= 0), so its
        derivative is zero there; the power family is odd, so its
        derivative is even in u.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "power":
            au = np.abs(u)
            out = (self.p - 1.0) * au ** (self.p - 2.0)
            if self.include_critical:
                q = two_star(self.dimension)
                out = out + (q - 1.0) * au ** (q - 2.0)
            return out
        return self._exp_f_prime(u)

    def _guard(self, x: np.ndarray) -> np.ndarray:
        """The exponent alpha0 x^2, checked against EXP_ARG_CAP."""
        arg = self.alpha0 * x * x
        if arg.size and float(arg.max()) > EXP_ARG_CAP:
            raise ExpOverflowError(
                f"alpha0 u^2 = {float(arg.max()):.3g} exceeds the safe exponent "
                f"cap {EXP_ARG_CAP:g}; use the analytic growth bound instead"
            )
        return arg

    def _exp_f_prime(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        low = (u > 0) & (u <= self.u1)
        high = u > self.u1
        out[low] = (self.sigma - 1.0) * u[low] ** (self.sigma - 2.0)
        x = u[high]
        arg = self._guard(x)
        # divide before multiplying: e^arg times the quadratic overflows
        # near the exponent cap although f' itself is finite there
        out[high] = np.exp(arg) / (self.alpha0 * x**4) \
            * (2.0 * arg * arg - 3.0 * arg + 3.0) * self.beta
        return out

    def _exp_f_and_F(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and F of the spliced exponential family; zero on u <= 0 and
        on NaN.

        u is clipped to +0.0 (fmax drops NaN, adding +0.0 turns -0.0 into
        +0.0), so every zero comes back as +0.0.  The power piece
        f = y^{sigma-1}, F = y (f / sigma) is evaluated once over the whole
        clipped array y, and only the nodes above u_1 are overwritten with
        the piece from e^{alpha0 u^2}.  Those nodes pass _guard before any
        power is taken, so an over-cap height raises ExpOverflowError and
        never overflows the power.  The out= arrays keep a 0-d u a 0-d
        array, which the overwrite needs.
        """
        y = np.fmax(u, 0.0, out=np.empty_like(u))
        y += 0.0
        high = y > self.u1
        x = y[high]
        arg = self._guard(x)
        f = np.power(y, self.sigma - 1.0, out=np.empty_like(u))
        F = np.divide(f, self.sigma, out=np.empty_like(u))
        F *= y
        if not x.size:
            return f, F
        a0, b0, u1 = self.alpha0, self.beta, self.u1
        e = np.exp(arg)
        with np.errstate(over="ignore"):
            f_high = b0 * (arg - 1.0) * e / (a0 * x**3)
        # the product overflows near the cap although f is finite there:
        # divide first on those elements only, so every other f keeps the
        # bits of multiplying first
        big = ~np.isfinite(f_high)
        if big.any():
            f_high[big] = e[big] / (a0 * x[big] ** 3) * (arg[big] - 1.0) * b0
        f[high] = f_high
        F[high] = u1**self.sigma / self.sigma + (b0 / (2 * a0)) * (
            e / (x * x) - math.exp(a0 * u1 * u1) / (u1 * u1))
        return f, F


def power_nonlinearity(p: float, dimension: int) -> Nonlinearity:
    """Power nonlinearity |u|^{p-2} u, plus the critical term when N >= 3."""
    dimension = integer_dimension(dimension)
    if dimension >= 3:
        q = two_star(dimension)
        if not 2.0 < p < q:
            raise ValueError(f"p must lie in (2, 2^*) = (2, {q:g}), got {p}")
    elif p <= 2.0:
        raise ValueError(f"p must exceed 2, got {p}")
    return Nonlinearity("power", dimension=dimension, p=p)


def _exp_tail_f(u: float, alpha0: float, beta: float) -> float:
    """f_1(u), multiplied first as in the kernel, divided first where
    that product overflows."""
    e = math.exp(alpha0 * u * u)
    f = beta * (alpha0 * u * u - 1.0) * e / (alpha0 * u**3)
    if math.isfinite(f):
        return f
    return e / (alpha0 * u**3) * (alpha0 * u * u - 1.0) * beta


def make_exp_critical(alpha0: float, beta: float, theta: float) -> Nonlinearity:
    """Build the spliced exponential nonlinearity for the planar problem.

    sigma = 2 theta + 4 must lie in (2, 6]: above 2 so that the power
    piece u^{sigma-1} is o(u) at 0, at most 6 by the growth cap.  The
    splice height u_1 solves f_1(u_1) = u_1^{sigma-1} (bracketed root,
    expanded as needed; the upper end starts at the exponent cap when
    that lies below u = 10).  Raises ValueError for non-finite or
    inadmissible parameters, for any splice it cannot build, and for a
    splice whose f or F is not finite just below the cap height.
    """
    alpha0 = positive_real("alpha0", alpha0)
    beta = positive_real("beta", beta)
    sigma = 2.0 * theta + 4.0
    if not 2.0 < sigma <= 6.0 + 1e-12:
        raise ValueError(f"sigma = 2 theta + 4 = {sigma:g} must lie in (2, 6]")

    def gap(u: float) -> float:
        return _exp_tail_f(u, alpha0, beta) - u ** (sigma - 1.0)

    u_cap = math.sqrt(EXP_ARG_CAP / alpha0)
    lo, hi = 1e-3, min(10.0, u_cap)
    try:
        while gap(lo) >= 0 and lo > 1e-12:
            lo /= 10.0
        while gap(hi) <= 0:
            hi *= 10.0
            if hi > 1e9:
                raise ValueError("failed to bracket the splice height u_1")
    except OverflowError:
        raise ValueError("the splice search overflows: e^(alpha0 u^2) leaves "
                         f"the float range for alpha0 = {alpha0:g}") from None
    u1 = brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16)
    nl = Nonlinearity("exp", dimension=2, alpha0=alpha0, beta=beta, theta=theta, u1=u1)
    mismatch = abs(_exp_tail_f(u1, alpha0, beta) - u1 ** (sigma - 1.0))
    if mismatch > 1e-10 * max(1.0, u1 ** (sigma - 1.0)):
        raise ValueError(f"splice continuity residual {mismatch:.3e} too large")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(nl.f_and_F(np.array([0.999 * u_cap])))):
            raise ValueError(f"f or F overflows below the exponent cap, u = {u_cap:.3g}")
    return nl


@dataclass(frozen=True)
class Model:
    """The pair (M, f) defining the constrained variational problem."""

    coefficient: KirchhoffCoefficient
    nonlinearity: Nonlinearity


@dataclass
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class HypothesisReport:
    """Sampled verification of the structural hypotheses on (M, f).

    Entries are reported, not enforced: a model that fails a hypothesis
    is still usable, it just falls outside the guaranteed theory.
    """

    entries: dict[str, CheckResult]

    def passed(self, *names: str) -> bool:
        return all(self.entries[n].passed for n in names)

    def summary(self) -> str:
        lines = []
        for name, res in self.entries.items():
            state = "ok" if res.passed else "FAIL"
            lines.append(f"{name}: {state} (margin {res.margin:.3e}) {res.detail}")
        return "\n".join(lines)


def check_hypotheses(model: Model) -> HypothesisReport:
    """Sample the coefficient and nonlinearity hypotheses on log-spaced grids.

    For exponential nonlinearities the upper sampling height is reduced
    to the overflow-safe range and the reduction is noted in the report.
    """
    co, nl = model.coefficient, model.nonlinearity
    slack = 1e-12
    entries: dict[str, CheckResult] = {}

    ts = np.geomspace(1e-6, CHECK_T_MAX, CHECK_SAMPLES)
    m_vals = np.array([co.M(t) for t in ts])
    m0 = co.M(0.0)
    mono = float(np.min(np.diff(m_vals)))
    entries["coefficient_positive_nondecreasing"] = CheckResult(
        m0 > 0 and mono >= -slack * max(1.0, float(np.max(np.abs(m_vals)))),
        min(m0, mono),
        f"M(0) = {m0:g}",
    )

    mhat_vals = np.array([co.Mhat(t) for t in ts])
    growth_gap = mhat_vals - m_vals * ts / (co.theta + 1.0)
    scale = max(1.0, float(np.max(np.abs(mhat_vals))))
    grows = growth_gap[-1] > 10.0 * growth_gap[len(ts) // 2] or growth_gap[-1] > 1e3
    entries["coefficient_growth"] = CheckResult(
        float(growth_gap.min()) >= -slack * scale and bool(grows),
        float(growth_gap.min()),
        "M_hat - M t/(theta+1) sampled on [1e-6, %g]" % CHECK_T_MAX,
    )

    note = ""
    u_max = CHECK_U_MAX
    if nl.kind == "exp":
        safe = 0.999 * math.sqrt(EXP_ARG_CAP / nl.alpha0)
        if u_max > safe:
            u_max = safe
            note = f"height range clipped to overflow-safe [1e-6, {safe:.3g}]"
    us = np.geomspace(1e-6, u_max, CHECK_SAMPLES)
    fu, Fu = nl.f_and_F(us)

    probe = min(1.0, u_max)
    ratio_small = nl.f(np.array([1e-4]))[0] / 1e-12
    ratio_big = nl.f(np.array([probe]))[0] / probe**3
    entries["subcubic_origin"] = CheckResult(
        ratio_small < 1e-2 * max(ratio_big, 1e-30),
        ratio_small,
        f"f(u)/u^3 at u = 1e-4 against u = {probe:g}",
    )

    sig = 2.0 * co.theta + 4.0
    ar_gap = fu * us / sig - Fu
    entries["ambrosetti_rabinowitz"] = CheckResult(
        float(ar_gap.min()) >= -slack * max(1.0, float(np.max(np.abs(Fu)))),
        float(ar_gap.min()),
        f"f(u)u/{sig:g} - F(u) over sampled heights",
    )

    if nl.kind == "exp":
        # the liminf is a statement about u -> infinity, so judge the
        # largest safe heights only and demand a nondecreasing approach
        top = us[us > 2.0 * nl.u1]
        if top.size < 8:
            top = us[-8:]
        f_top, F_top = nl.f_and_F(top)
        ratio = f_top * top * np.exp(-nl.alpha0 * top**2)
        approaches = bool(np.all(np.diff(ratio) >= -1e-9 * nl.beta))
        entries["critical_exponential_growth"] = CheckResult(
            approaches and float(ratio[-1]) >= nl.beta * (1.0 - 1e-2),
            float(ratio[-1]) - nl.beta,
            f"f(u) u e^(-alpha0 u^2) -> {float(ratio[-1]):.6g} vs beta = {nl.beta:g}",
        )
        fr = F_top / f_top
        entries["primitive_subordinate"] = CheckResult(
            bool(fr[-1] <= fr[0]) and bool(np.isfinite(fr[-1])),
            float(fr[0] - fr[-1]),
            f"F/f over top heights: {fr[0]:.3g} -> {fr[-1]:.3g}" + ("; " + note if note else ""),
        )
    else:
        entries["critical_exponential_growth"] = CheckResult(
            False, -nl.beta if nl.beta else -1.0, "power nonlinearity has subexponential growth"
        )
        entries["primitive_subordinate"] = CheckResult(
            True, 0.0, "F/f = u/p decays relative to f for power models"
        )

    return HypothesisReport(entries)
