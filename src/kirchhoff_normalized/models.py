"""Problem data: nonlocal stiffness coefficients and nonlinearities.

A model bundles a Kirchhoff coefficient M (with antiderivative M_hat,
derivative M' and growth exponent theta) and a nonlinearity f (with
primitive F and derivative f').  Two nonlinearity families are provided:

* power, optionally augmented by the Sobolev-critical term:
      f(u) = |u|^{p-2} u + |u|^{2^*-2} u,   2^* = 2N/(N-2),
  whose f and F come together from one pair of powers |u|^{p-1},
  |u|^{2^*-1} (Nonlinearity.f_and_F, which profiles memoize),
* exponential with Trudinger-Moser-critical growth, built by splicing a
  pure power u^{sigma-1} below a height u_1 onto
      f_1(u) = beta (alpha0 u^2 - 1) e^{alpha0 u^2} / (alpha0 u^3)
  above it, with u_1 chosen so the splice is continuous.  The primitive
  of f_1 is exact, so F needs no quadrature:
      F_1(u) = (beta / 2 alpha0) u^{-2} e^{alpha0 u^2} + const.

Exponential evaluations guard the argument alpha0 u^2 against float64
overflow: they raise instead of clipping, so a caller that needs values
in the overflow range must switch to an analytic bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

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

    kind 'affine' means M(t) = a + b t with M_hat(t) = a t + b t^2 / 2.
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


def affine_coefficient(a: float, b: float, theta: float = 1.0) -> KirchhoffCoefficient:
    if not 0 < a < math.inf:
        raise ValueError(f"M(0) = a must be positive and finite, got {a}")
    if not 0 <= b < math.inf:
        raise ValueError(f"slope b must be nonnegative and finite, got {b}")
    return KirchhoffCoefficient("affine", a=a, b=b, theta=theta)


def general_coefficient(m_fn, mhat_fn, theta: float) -> KirchhoffCoefficient:
    return KirchhoffCoefficient("general", theta=theta, m_fn=m_fn, mhat_fn=mhat_fn)


def two_star(dimension: int) -> float:
    """Sobolev-critical exponent 2N/(N-2)."""
    if dimension <= 2:
        raise ValueError("the Sobolev-critical exponent requires N >= 3")
    return 2.0 * dimension / (dimension - 2.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Vectorized nonlinearity f, primitive F (F' = f, F(0) = 0) and
    derivative f_prime."""

    kind: str
    dimension: int = 0
    p: float = 0.0
    include_critical: bool = False
    alpha0: float = 0.0
    beta: float = 0.0
    theta: float = 0.0
    sigma: float = 0.0
    u1: float = 0.0

    def f(self, u):
        if self.kind == "power":
            return self._power_f_and_F(u)[0]
        return self._exp_f(np.asarray(u, dtype=float))

    def F(self, u):
        if self.kind == "power":
            return self._power_f_and_F(u)[1]
        return self._exp_F(np.asarray(u, dtype=float))

    @property
    def f_and_F(self):
        """The joint kernel u -> (f(u), F(u)) of a family that has one,
        else None.

        The power family has one (f and F return its parts, so direct and
        joint values are the same bits); the exponential family has none,
        so its f and F stay separate and reading F never computes f.
        """
        return self._power_f_and_F if self.kind == "power" else None

    def _power_f_and_F(self, u) -> tuple[np.ndarray, np.ndarray]:
        """f and F of the power family from one evaluation of |u|^{p-1}
        (and |u|^{2^*-1}): f = sign(u) (...) and F = |u| (.../p + .../2^*)."""
        u = np.asarray(u, dtype=float)
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

    def _guard(self, x: np.ndarray) -> None:
        arg = self.alpha0 * x * x
        if arg.size and float(arg.max()) > EXP_ARG_CAP:
            raise ExpOverflowError(
                f"alpha0 u^2 = {float(arg.max()):.3g} exceeds the safe exponent "
                f"cap {EXP_ARG_CAP:g}; use the analytic growth bound instead"
            )

    def _exp_f(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        low = (u > 0) & (u <= self.u1)
        high = u > self.u1
        out[low] = u[low] ** (self.sigma - 1)
        x = u[high]
        self._guard(x)
        a0 = self.alpha0
        out[high] = self.beta * (a0 * x * x - 1.0) * np.exp(a0 * x * x) / (a0 * x**3)
        return out

    def _exp_f_prime(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        low = (u > 0) & (u <= self.u1)
        high = u > self.u1
        out[low] = (self.sigma - 1.0) * u[low] ** (self.sigma - 2.0)
        x = u[high]
        self._guard(x)
        arg = self.alpha0 * x * x
        # divide before multiplying: e^arg times the quadratic overflows
        # near the exponent cap although f' itself is finite there
        out[high] = np.exp(arg) / (self.alpha0 * x**4) \
            * (2.0 * arg * arg - 3.0 * arg + 3.0) * self.beta
        return out

    def _exp_F(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        low = (u > 0) & (u <= self.u1)
        high = u > self.u1
        out[low] = u[low] ** self.sigma / self.sigma
        x = u[high]
        self._guard(x)
        a0, b0, u1 = self.alpha0, self.beta, self.u1
        base = u1**self.sigma / self.sigma
        tail = (b0 / (2 * a0)) * (
            np.exp(a0 * x * x) / (x * x) - math.exp(a0 * u1 * u1) / (u1 * u1)
        )
        out[high] = base + tail
        return out


def power_nonlinearity(p: float, dimension: int, include_critical: bool = True) -> Nonlinearity:
    """Power nonlinearity |u|^{p-2} u, plus the critical term when N >= 3."""
    if dimension >= 3:
        q = two_star(dimension)
        if not 2.0 < p < q:
            raise ValueError(f"p must lie in (2, 2^*) = (2, {q:g}), got {p}")
    else:
        if p <= 2.0:
            raise ValueError(f"p must exceed 2, got {p}")
        include_critical = False
    return Nonlinearity("power", dimension=dimension, p=p, include_critical=include_critical)


def _exp_tail_f(u: float, alpha0: float, beta: float) -> float:
    return beta * (alpha0 * u * u - 1.0) * math.exp(alpha0 * u * u) / (alpha0 * u**3)


def make_exp_critical(alpha0: float, beta: float, theta: float) -> Nonlinearity:
    """Build the spliced exponential nonlinearity for the planar problem.

    sigma = 2 theta + 4 must lie in (2, 6]: above 2 so that the power
    piece u^{sigma-1} is o(u) at 0, at most 6 by the growth cap.  The
    splice height u_1 solves f_1(u_1) = u_1^{sigma-1} (bracketed root,
    expanded as needed).  Raises ValueError for non-finite or
    inadmissible parameters and for any splice it cannot build.
    """
    if not (0 < alpha0 < math.inf and 0 < beta < math.inf and math.isfinite(theta)):
        raise ValueError("alpha0 and beta must be positive and finite, theta finite")
    sigma = 2.0 * theta + 4.0
    if not 2.0 < sigma <= 6.0 + 1e-12:
        raise ValueError(f"sigma = 2 theta + 4 = {sigma:g} must lie in (2, 6]")

    def gap(u: float) -> float:
        return _exp_tail_f(u, alpha0, beta) - u ** (sigma - 1.0)

    lo, hi = 1e-3, 10.0
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
    nl = Nonlinearity(
        "exp", dimension=2, alpha0=alpha0, beta=beta, theta=theta, sigma=sigma, u1=u1
    )
    mismatch = abs(_exp_tail_f(u1, alpha0, beta) - u1 ** (sigma - 1.0))
    if mismatch > 1e-10 * max(1.0, u1 ** (sigma - 1.0)):
        raise ValueError(f"splice continuity residual {mismatch:.3e} too large")
    return nl


@dataclass(frozen=True)
class Model:
    """The pair (M, f) defining the constrained variational problem."""

    coefficient: KirchhoffCoefficient
    nonlinearity: Nonlinearity

    def to_config(self) -> dict:
        co, nl = self.coefficient, self.nonlinearity
        if co.kind != "affine":
            raise ValueError("only affine coefficients serialize to config")
        cfg = {"coefficient": {"kind": "affine", "a": co.a, "b": co.b, "theta": co.theta}}
        if nl.kind == "power":
            cfg["nonlinearity"] = {
                "kind": "power",
                "p": nl.p,
                "dimension": nl.dimension,
                "include_critical": nl.include_critical,
            }
        else:
            cfg["nonlinearity"] = {
                "kind": "exp",
                "alpha0": nl.alpha0,
                "beta": nl.beta,
                "theta": nl.theta,
            }
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "Model":
        co = cfg["coefficient"]
        if co.get("kind", "affine") != "affine":
            raise ValueError("only affine coefficients load from config")
        coefficient = affine_coefficient(co["a"], co["b"], co.get("theta", 1.0))
        nl = cfg["nonlinearity"]
        if nl["kind"] == "power":
            nonlinearity = power_nonlinearity(
                nl["p"], nl["dimension"], nl.get("include_critical", True)
            )
        elif nl["kind"] == "exp":
            nonlinearity = make_exp_critical(nl["alpha0"], nl["beta"], nl["theta"])
        else:
            raise ValueError(f"unknown nonlinearity kind {nl['kind']!r}")
        return Model(coefficient, nonlinearity)

    def dumps(self) -> str:
        return json.dumps(self.to_config(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Model":
        return Model.from_config(json.loads(text))


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
    fu = nl.f(us)
    Fu = nl.F(us)

    ratio_small = nl.f(np.array([1e-4]))[0] / 1e-12
    ratio_big = nl.f(np.array([1.0]))[0]
    entries["subcubic_origin"] = CheckResult(
        ratio_small < 1e-2 * max(ratio_big, 1e-30),
        ratio_small,
        "f(u)/u^3 at u = 1e-4 against u = 1",
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
        ratio = nl.f(top) * top * np.exp(-nl.alpha0 * top**2)
        approaches = bool(np.all(np.diff(ratio) >= -1e-9 * nl.beta))
        entries["critical_exponential_growth"] = CheckResult(
            approaches and float(ratio[-1]) >= nl.beta * (1.0 - 1e-2),
            float(ratio[-1]) - nl.beta,
            f"f(u) u e^(-alpha0 u^2) -> {float(ratio[-1]):.6g} vs beta = {nl.beta:g}",
        )
        fr = nl.F(top) / nl.f(top)
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
