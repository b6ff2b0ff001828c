"""Constrained energy, Pohozaev balance, and multiplier estimates.

For a model (M, f) and a radial profile u the energy is

    I(u) = M_hat(|grad u|_2^2) / 2 - int F(u),

and the dilation balance (the Pohozaev functional) is

    G(u) = M(|grad u|_2^2) |grad u|_2^2 + N int F(u) - (N/2) int f(u) u.

G is the s-derivative at s = 0 of the energy along the mass-preserving
fiber T(u, s)(x) = e^{Ns/2} u(e^s x); both fiber quantities below are
evaluated by scaling the sampled values, which uses the change of
variables exactly and never resamples the grid.

The L2 gradient is the exact gradient of the *discrete* energy (stiffness
form for the kinetic part), so finite differences of the energy match
inner products against it to machine accuracy; this is what makes
directional-derivative checks decay at second order all the way down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model
from .radial_grid import RadialFunction


@dataclass
class EnergyBreakdown:
    """Energy split I = kinetic - potential with the norms that produced it."""

    kinetic: float
    potential: float
    total: float
    grad_l2_sq: float
    mass_l2: float


@dataclass
class CriticalPointCandidate:
    """A converged profile with its multiplier and residual diagnostics."""

    u: RadialFunction
    lam: float
    energy: float
    pohozaev_residual: float
    pde_residual: float

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "energy": self.energy,
            "pohozaev_residual": self.pohozaev_residual,
            "pde_residual": self.pde_residual,
            "grad_l2_sq": self.u.grad_norm_sq(),
            "mass_l2": self.u.mass(),
        }


@dataclass
class MultiplierEstimate:
    """Lagrange multiplier from the gradient, with the Pohozaev cross-check.

    lam_pohozaev is only available for pure power nonlinearities, where
    the dilation identity pins lambda to the L^p norm.
    """

    lam: float
    lam_pohozaev: float | None
    gap: float | None


def energy(model: Model, u: RadialFunction) -> EnergyBreakdown:
    g = u.grad_norm_sq()
    kinetic = 0.5 * model.coefficient.Mhat(g)
    potential = u.grid.integrate(u.F_values(model.nonlinearity))
    return EnergyBreakdown(kinetic, potential, kinetic - potential, g, u.mass())


def pohozaev(model: Model, u: RadialFunction) -> float:
    n = u.grid.dimension
    g = u.grad_norm_sq()
    f_int = u.grid.integrate(u.f_values(model.nonlinearity) * u.values)
    big_f = u.grid.integrate(u.F_values(model.nonlinearity))
    return model.coefficient.M(g) * g + n * big_f - 0.5 * n * f_int


def fiber_energy(model: Model, u: RadialFunction, s: float) -> float:
    """Energy along the fiber, I(T(u, s)), via exact value scaling."""
    n = u.grid.dimension
    g = u.grad_norm_sq()
    scaled = math.exp(0.5 * n * s) * u.values
    big_f = u.grid.integrate(model.nonlinearity.F(scaled))
    return 0.5 * model.coefficient.Mhat(math.exp(2.0 * s) * g) - math.exp(-n * s) * big_f


def fiber_pohozaev(model: Model, u: RadialFunction, s: float) -> float:
    """Pohozaev balance along the fiber, G(T(u, s)) = d/ds I(T(u, s))."""
    n = u.grid.dimension
    g = math.exp(2.0 * s) * u.grad_norm_sq()
    # a profile of the scaled values, so f and F come as one pair when
    # the nonlinearity has a joint kernel
    scaled = u.with_values(math.exp(0.5 * n * s) * u.values)
    big_f = u.grid.integrate(scaled.F_values(model.nonlinearity))
    f_int = u.grid.integrate(scaled.f_values(model.nonlinearity) * scaled.values)
    return model.coefficient.M(g) * g + math.exp(-n * s) * (n * big_f - 0.5 * n * f_int)


def l2_gradient(model: Model, u: RadialFunction, lam: float = 0.0) -> RadialFunction:
    """Gradient of I - (lam/2) |u|_2^2 in the weighted L2 inner product.

    Componentwise this is the discrete form of -M(|grad u|^2) Lap u
    - lam u - f(u); at the origin the stiffness stencil supplies the
    regularized Laplacian limit automatically.
    """
    return u.with_values(_l2_gradient_values(model, u, lam))


def _l2_gradient_values(model: Model, u: RadialFunction, lam: float) -> np.ndarray:
    """The nodal values of l2_gradient, in a fresh array."""
    g = u.grad_norm_sq()
    stiff = u.grid.stiffness_apply(u.values)
    return (model.coefficient.M(g) * stiff) / u.grid.weights \
        - u.f_values(model.nonlinearity) - lam * u.values


def lagrange_multiplier(model: Model, u: RadialFunction, c: float) -> float:
    """lambda = <I'(u), u> / c^2, the multiplier alone (no cross-check)."""
    g = u.grad_norm_sq()
    f_int = u.grid.integrate(u.f_values(model.nonlinearity) * u.values)
    return (model.coefficient.M(g) * g - f_int) / c**2


def multiplier_estimate(model: Model, u: RadialFunction, c: float) -> MultiplierEstimate:
    """Estimate lambda = <I'(u), u> / c^2, with the power-case cross-check."""
    lam = lagrange_multiplier(model, u, c)
    nl = model.nonlinearity
    if nl.kind == "power":
        n = u.grid.dimension
        lp = u.grid.integrate(abs(u.values) ** nl.p)
        lam_poh = (0.5 * n - n / nl.p - 1.0) * lp / c**2
        gap = abs(lam - lam_poh) / max(abs(lam), 1e-300)
        return MultiplierEstimate(lam, lam_poh, gap)
    return MultiplierEstimate(lam, None, None)


def pde_residual_norm(model: Model, u: RadialFunction, lam: float) -> float:
    """Weighted L2 norm of -M Lap u - lam u - f(u).

    The outermost node is left out: the solvers hold it at zero as the
    Dirichlet tail, and it carries the constraint force.  Where the sum
    of squares overflows, the residual is scaled by its largest entry
    first; elsewhere the plain sum stands, to the last bit.
    """
    vals = _l2_gradient_values(model, u, lam)
    vals[-1] = 0.0
    with np.errstate(over="ignore"):
        sq = float(u.grid.weights @ vals**2)
    if math.isinf(sq):
        top = float(np.max(np.abs(vals)))
        if top < math.inf:
            return top * math.sqrt(float(u.grid.weights @ (vals / top) ** 2))
    return math.sqrt(sq)
