"""Constrained descent, saddle search, and phase classification on the sphere.

Minimizers of I on the mass sphere |u|_2^2 = c^2 are found in two
stages.  A semi-implicit gradient flow with discrete renormalization
drives the iterate into a basin: each step solves the SPD banded system

    (diag(w)/tau + M A) v = w (u/tau + f(u)),

with the scalar M lagged, i.e. frozen at M(|grad u|^2) of the current
iterate, so each trial step is one tridiagonal solve (solveh_banded, a
single LAPACK ptsv call); it then renormalizes v to the sphere and
backtracks on tau until the energy decreases.  The
bead string and the saddle refinement below take the same step with M
relaxed to self-consistency by an inner fixed point instead: their
levels are read off a relaxation that is not run to convergence, so
they depend on the step map, whereas the minimizer's answers are
Newton-polished fixed points, where both steps coincide.

The descent starts at a large step (DESCENT_STEP), as the
semi-implicit normalized flow of Bao & Du (SIAM J. Sci. Comput. 25
(2004)) allows; the energy test halves it where it must.  Once the flow
slows or its residual is small, a bordered Newton iteration on the full
first-order system (gradient plus mass constraint) polishes the pair
(u, lambda) to the residual tolerance; the Kirchhoff rank-one term is
folded in by a Woodbury correction, so every Newton step costs three
banded solves.  Newton does not care about the Morse index, which is
what lets the same polish certify saddle points.  For the same reason
a flow keeps a polish only if it ends no higher than the flow and at
the flow's own Morse index on the sphere: 0 for a descent, whose early
polish often converges to a saddle instead, and 1 for the saddle
refinement, whose polish must not slide into a well (_kept_polish).
The polish returns its profile only when the residual is within the
tolerance, and None otherwise, so _kept_polish judges only converged
polishes.  A kept polish is the only way a flow converges; one that
ends without it is rejected whatever its residual, so every reported
candidate has passed its solver's index check (one driver,
_solve_from, runs the flows of both solvers and picks the report).
The index (_tangent_index) is a Sturm count of the tridiagonal Hessian
part plus the inertia of a 2x2 Schur complement, O(n), from the same
assembled Hessian (_hessian) that Newton solves with.

A descent whose in-loop polish fails or is refused also jumps
along the iterate's own dilation fiber.  The gradient flow creeps along
a nearly flat fiber, rescaling its profile a fraction of a percent per
step.  For a power model with M(t) = a + b t the fiber energy of any
profile is, like the GN fiber energy below, a sum of at most four
powers of the scale, with the profile's |grad u|^2, int |u|^p and
int |u|^(2*) in its coefficients.  So the deepest well of that fiber is exact, the iterate
is dilated there by one fiber_scale resample, and the result is kept
only if its energy is lower.  Jumps ride on the polish attempts, so
they are as rare; the saddle refinement and the string never jump.

A converged run must pass four filters before it is reported:
the PDE residual relative to the H^1 norm, the dilation balance
|G(u)| relative to M(g) g, nontriviality of the gradient norm, and the
multiplier cross-check lambda vs. lambda_pohozaev in the power case.
The dilation balance is the load-bearing one on a truncated ball:
boundary-confined artifact states satisfy the PDE there but carry a
boundary flux in the dilation identity, so they fail the G filter and
are reported as the zero-energy diagnostic rather than as solutions.

Scale matters more than radius: for power models the closed-form fiber
energy of the scaled GN extremal (gn_fiber_energy) predicts where the
negative well sits, and recommended_grid sizes the domain to hold a
profile of that width.  Minimizers near the existence thresholds are
very spread out, and solving them on a unit-scale grid silently turns
an existence question into a truncation artifact.  That fiber energy
is a sum of at most four powers of the scale t, so its wells and
barriers are exact: the roots of t J'(t) in log t, each alone on a
monotone piece found by Rolle recursion (scalar_opt.power_sum_roots)
and solved by brentq, with no scan.  The minimizer's GN restart starts in
the well, so where a positive well behind a barrier competes with the
mountain-pass saddle the descent reaches the local minimizer.

Saddle points are located by relaxing a string of beads along the
dilation fiber (bead-wise descent plus arc-length reparametrization),
then refining the barrier bead: descent steps alternate with a
recentering onto the nearest fiber maximum (a root of the dilation
balance where its scan values fall from positive to negative), and
the Newton polish takes over once the refinement is close, kept only
at index 1 and no higher than the flow.  At a fiber
maximum the gradient has no fiber component, so the recentered step is
a genuine descent on the maximum branch.  A domain too small to hold
the path's spread endpoint raises ValueError naming its radius.

Nothing here proves anything: classify reports theory branches as
"corroborated" or "inconclusive", never as established, and a missing
minimizer is evidence only at the stated restart count and tolerances.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.linalg import LinAlgError

from .functional import (CriticalPointCandidate, energy, fiber_energy,
                         fiber_pohozaev, lagrange_multiplier,
                         multiplier_estimate, pde_residual_norm, pohozaev)
from .gn_ground_state import gn_constant, ground_state
from .models import EXP_ARG_CAP, ExpOverflowError, Model, two_star
from .moser_sequence import mp_bound
from .omega_thresholds import ThresholdSet, mass_critical, threshold_set
from .radial_grid import (RadialFunction, RadialGrid, TruncationLossError, cell_count,
                          fiber_scale, integer, make_grid, mass_radius, normalize_mass,
                          positive_real)
from .scalar_opt import BracketError, brentq, power_sum_roots, sign_change_brackets


def _load_flapack():
    """SciPy's Fortran LAPACK extension, loaded from its file under its own
    name without importing scipy.linalg, whose __init__ costs about 0.25 s
    (numpy.f2py, numpy.testing, array_api_compat) and is otherwise unused.

    find_spec("scipy") locates the package without running its __init__;
    the dotted name would import the parents.  A module that an earlier
    import of scipy.linalg already loaded is reused, so the routines are
    SciPy's own objects in either import order.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("SciPy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"SciPy's LAPACK extension _flapack is missing from {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgtsv, dptsv, dpttrf = _flapack.dgtsv, _flapack.dptsv, _flapack.dpttrf

STATUS_MINIMIZER = "converged_minimizer"
STATUS_MOUNTAIN_PASS = "converged_mountain_pass"
STATUS_NONE_FOUND = "no_nontrivial_solution_found"
STATUS_DIVERGED = "diverged"

BRANCH_NO_SOLUTION = "no_solution"
BRANCH_ZERO_INF = "zero_infimum_unattained"
BRANCH_GROUND_STATE = "ground_state"
BRANCH_TRANSITION = "transition_window"
BRANCH_MOUNTAIN_PASS = "mountain_pass_regime"
BRANCH_UNCLASSIFIED = "unclassified"

# below this the profile counts as trivial; spread-out minimizing
# sequences land here on the truncated domain
TRIVIAL_GRAD_SQ = 1e-6
STEP_FLOOR = 1e-12
STEP_CAP = 1e4
DIVERGENCE_ENERGY = 1e12
DIVERGENCE_GRAD_SQ = 1e14
ZERO_LEVEL_TOL = 1e-6
# flow-progress window: attempt the Newton polish when the residual has
# not halved over this many iterations; it is also the first wait between
# attempts, which doubles after each one (see _flow).  A flow that no
# longer halves its residual in 3 steps is in its slow linear tail, which
# one polish usually finishes; an attempt this early can land on a
# saddle, which a descent refuses (_kept_polish)
STALL_WINDOW = 3
# the graded grid's cost is independent of the radius, so the cap only
# guards against absurd scale requests near degenerate thresholds
MAX_R_MAX = 20000.0
# window of GN fiber scales t for wells, barriers and the fiber minimum
GN_T_LO = 1e-4
GN_T_HI = 1e2
# M relaxations per relaxed implicit step (string and saddle only; the
# minimizer's descent lags M and solves once)
INNER_SOLVES = 4
# Newton polish: iteration cap, and the target as a fraction of the
# acceptance tolerance
POLISH_MAX_ITER = 16
POLISH_DEEPEN = 1e-3
# the bead sweeps' flow step.  The string's level is read off an
# unconverged relaxation, so it depends on this step, which stays fixed
BEAD_STEP = 0.1
# initial step of the minimizer's descent.  The lagged step is the
# semi-implicit normalized flow of Bao & Du (2004), which tolerates large
# steps; while a small first step ramps up, the residual decays so slowly
# that the stall test fires Newton far from any minimizer, where it lands
# on saddles that the descent refuses.  The energy test still halves it
DESCENT_STEP = 8.0
# either flow also tries the Newton polish once res <= POLISH_AT |u|_H1
POLISH_AT = 1e-2
# the saddle refinement's flow (_flow with index=1): initial step,
# step growth, energy slack per step, and the dilation window its
# recentering scans.  They stay fixed: the planar refinement never
# converges, so they set the level it ends at, which the benchmark
# reference freezes
REFINE_STEP = 0.125
REFINE_GROW = 1.2
REFINE_SLACK = 1e-11
RECENTER_WINDOW = 0.8
# acceptance filters: |G(u)| relative to M(g) g, and the relative gap
# between lambda and its Pohozaev value in the power case
FIBER_TOL = 1e-5
MULTIPLIER_GAP_TOL = 1e-2
# fixed Gaussian start widths for the minimizer's restarts
GAUSSIAN_WIDTHS = (0.5, 1.0, 2.0, 4.0)
# mountain-pass string: bead count and sweep cap
BEADS = 32
SWEEPS = 80


class FiberMonotoneError(RuntimeError):
    """Raised when the dilation balance has no root of the requested kind."""


@dataclass(frozen=True)
class SolveParams:
    """Discretization and stopping policy shared by both solvers.

    residual_tol is relative to the H^1 norm of the iterate.  restarts
    counts initial profiles for the minimizer: the scaled GN extremal
    (power models), then the GAUSSIAN_WIDTHS Gaussians, then the
    spread Gaussian, then seeded random bumps.  seed has no effect
    unless restarts exceeds those deterministic starts, 6 for a power
    model and 5 for an exponential one, so at the default restarts a
    sweep's per-row seeds change nothing; numpy.random is imported
    only by a solve that draws a bump.  r_max is a floor: the
    solvers widen the domain per (model, c) to hold the predicted
    profile width (recommended_grid).  The spread Gaussian's width is the
    radius of that widened grid over 6, not r_max/6, doubled until it
    differs from every GAUSSIAN_WIDTHS width: w=12.3195 at N=5, p=2.9,
    a=1, b=0.001, c=46 and w=80.5627 at p=2.5, c=2, where the grid
    reaches 73.9 and 483.4.  The graded grid has n_cells cells.
    Construction rejects values that no solve can use, with ValueError
    naming the field, by the rules of radial_grid: a residual_tol or
    r_max that is not a positive_real, an n_cells that is not a
    cell_count, a max_iter, restarts or seed that is not an integer, and
    a max_iter, restarts or seed out of its range.
    """

    max_iter: int = 2000
    residual_tol: float = 1e-6
    restarts: int = 6
    r_max: float = 24.0
    n_cells: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iter", "restarts", "seed"):
            integer(name, getattr(self, name))
        for name in ("residual_tol", "r_max"):
            positive_real(name, getattr(self, name))
        cell_count(self.n_cells)
        if not 1 <= self.max_iter <= 10**6:
            raise ValueError(f"max_iter must lie in [1, 1e6], got {self.max_iter}")
        if not 1 <= self.restarts <= 256:
            raise ValueError(f"restarts must lie in [1, 256], got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SolveReport:
    """Outcome of one solve: status, candidate, and the run diagnostics.

    infimum_estimate is the lowest final energy over all finite restarts
    (it is meaningful even when no candidate passes the filters, which
    is how the zero-infimum regimes are recognized); path_level is the
    saddle-search barrier estimate and None for plain minimization.
    """

    status: str
    candidate: CriticalPointCandidate | None
    infimum_estimate: float
    path_level: float | None
    iterations: int
    restarts_used: int
    residual_history: list[float] = field(repr=False, default_factory=list)
    energy_history: list[float] = field(repr=False, default_factory=list)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "candidate": None if self.candidate is None else self.candidate.to_dict(),
            "infimum_estimate": self.infimum_estimate,
            "path_level": self.path_level,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "final_residual": self.residual_history[-1] if self.residual_history else None,
            "notes": list(self.notes),
        }


def _gn_extremal(model: Model):
    """The GN extremal of a power model's (N, p); the fiber family needs
    one, and its closed form needs the affine coefficient."""
    nl = model.nonlinearity
    if nl.kind != "power" or model.coefficient.kind != "affine":
        raise ValueError("the GN fiber family needs a power nonlinearity "
                         "and the affine coefficient M(t) = a + b t")
    return ground_state(nl.dimension, nl.p)


def _fiber_terms(model: Model, g: float, lp: float,
                 crit: float | None) -> list[tuple[float, float]]:
    """The fiber energy J(t) = I(T(u, log t)) of a profile u as
    (exponent, coefficient) terms, for a power model with M(t) = a + b t.

    With g = |grad u|_2^2, lp = int |u|^p and crit = int |u|^(2*),

        J(t) = a g t^2/2 + b g^2 t^4/4 - lp t^(N(p-2)/2)/p - crit t^(2*)/2*,

    the last term only when crit is not None.  Terms come sorted by
    exponent, and exponents within 1e-12 of each other merge
    (mass-critical p, and 2* = 4 at N = 4).  Raises OverflowError when a
    coefficient is not finite.
    """
    co = model.coefficient
    n, p = model.nonlinearity.dimension, model.nonlinearity.p
    raw = [(2.0, 0.5 * co.a * g), (4.0, 0.25 * co.b * g * g),
           (0.5 * n * (p - 2.0), -lp / p)]
    if crit is not None:
        qs = two_star(n)
        raw.append((qs, -crit / qs))
    if not all(math.isfinite(k) for _, k in raw):
        raise OverflowError
    merged: dict[float, float] = {}
    for e, k in raw:
        key = next((e_in for e_in in merged if abs(e_in - e) <= 1e-12), e)
        merged[key] = merged.get(key, 0.0) + k
    return sorted(merged.items())


def _gn_fiber_terms(model: Model, c: float) -> list[tuple[float, float]]:
    """The GN fiber energy J(t) as (exponent, coefficient) terms: the
    fiber terms of the GN extremal Q scaled to mass c^2, whose norms are
    those of Q times powers of c / |Q|_2."""
    q = _gn_extremal(model)
    try:
        crit = None
        if q.crit is not None:
            crit = (c / q.q_l2) ** two_star(q.dimension) * q.crit
        return _fiber_terms(model, c * c * q.grad_sq / q.mass,
                            (c / q.q_l2) ** q.p * q.lp, crit)
    except OverflowError:
        raise ValueError(f"mass radius c = {c:g} is too large: the GN fiber "
                         "energy's coefficients overflow") from None


def _fiber_value(terms: list[tuple[float, float]], t: float) -> float:
    return sum(k * t**e for e, k in terms)


def gn_fiber_energy(model: Model, c: float, t: float) -> float:
    """Energy of the c-normalized GN extremal dilated to scale t, in
    closed form from the extremal's norms (power models with the affine
    coefficient only)."""
    return _fiber_value(_gn_fiber_terms(model, c), t)


def _fiber_extrema(terms: list[tuple[float, float]], t_hi: float,
                   minima: bool) -> list[tuple[float, float]]:
    """Interior local minima (or maxima) (t, J(t)) of the fiber energy
    with these terms on (GN_T_LO, t_hi): the roots of t J'(t) in log t
    where it rises (or falls)."""
    roots = power_sum_roots([(e, e * k) for e, k in terms],
                            math.log(GN_T_LO), math.log(t_hi))
    return [(math.exp(s), _fiber_value(terms, math.exp(s)))
            for s, rising in roots if rising == minima]


def _deepest_well(terms: list[tuple[float, float]]) -> tuple[float, float] | None:
    """Deepest interior local minimum (t, J(t)) of the fiber energy with
    these terms on (GN_T_LO, GN_T_HI), or None."""
    return min(_fiber_extrema(terms, GN_T_HI, True), key=lambda tj: tj[1],
               default=None)


def gn_fiber_min(model: Model, c: float) -> tuple[float, float]:
    """Scale t minimizing gn_fiber_energy on [GN_T_LO, GN_T_HI] and the
    value there.

    The minimum is the lowest of the interior wells and the two window
    edges; GN_T_LO signals the spread-to-zero regime where no negative
    well exists, GN_T_HI a fiber that plunges.
    """
    terms = _gn_fiber_terms(model, c)
    ends = [(t, _fiber_value(terms, t)) for t in (GN_T_LO, GN_T_HI)]
    return min(ends + _fiber_extrema(terms, GN_T_HI, True), key=lambda tj: tj[1])


def gn_fiber_well(model: Model, c: float) -> tuple[float, float] | None:
    """Deepest interior local minimum of the GN fiber energy on
    (GN_T_LO, GN_T_HI), or None.

    Distinct from gn_fiber_min when the global minimum sits at the
    spread boundary: just below the attainment threshold the fiber
    still has a positive-depth well behind a barrier, which is what
    the saddle search and the grid-width heuristic need to see.
    """
    return _deepest_well(_gn_fiber_terms(model, c))


def gn_fiber_barrier(model: Model, c: float,
                     t_hi: float) -> tuple[float, float] | None:
    """Highest interior local maximum of the GN fiber energy on
    (GN_T_LO, t_hi), or None when the fiber has no barrier there."""
    bars = _fiber_extrema(_gn_fiber_terms(model, c), t_hi, False) \
        if t_hi > GN_T_LO else []
    return max(bars, key=lambda tj: tj[1], default=None)


def _fiber_grid(model: Model, params: SolveParams, t: float | None,
                reach: float) -> RadialGrid:
    """Solver grid wide enough for the GN extremal dilated to scale t:
    reach times its truncation radius over t (capped at MAX_R_MAX), and
    never below params.r_max; t = None keeps params.r_max."""
    r_max = params.r_max
    if t is not None:
        q = _gn_extremal(model)
        r_max = max(r_max, min(MAX_R_MAX, reach * q.truncation_radius / t))
    return make_grid(model.nonlinearity.dimension, r_max, params.n_cells, "graded")


def recommended_grid(model: Model, c: float, params: SolveParams) -> RadialGrid:
    """Solver grid sized to the predicted minimizer width.

    For a power model whose GN fiber has an interior well at scale t*,
    the domain radius grows to hold the extremal spread by 1/t* (capped
    at MAX_R_MAX); otherwise params.r_max is kept.  The well is used
    whatever its depth sign, since the saddle search needs the barrier
    resolved even when the well floor is positive.  Exponential models
    keep params.r_max, their profiles concentrate rather than spread.
    """
    well = gn_fiber_well(model, c) if model.nonlinearity.kind == "power" else None
    return _fiber_grid(model, params, None if well is None else well[0], 1.3)


def _onto_grid(u: RadialFunction, grid: RadialGrid) -> RadialFunction:
    if u.grid is grid:
        return u
    vals = np.interp(grid.nodes, u.grid.nodes, u.values, right=0.0)
    return RadialFunction(grid, vals)


def _on_sphere(u: RadialFunction, c: float) -> RadialFunction:
    """u with its Dirichlet tail pinned to zero, rescaled to mass c^2."""
    vals = u.values.copy()
    vals[-1] = 0.0
    return normalize_mass(u.with_values(vals), c)


def solveh_banded(diag: np.ndarray, sup: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD tridiagonal system with this diagonal and super- (=
    sub-) diagonal by one LAPACK dptsv call from SciPy's _flapack
    extension (_load_flapack), the call scipy.linalg.solveh_banded makes
    for a two-row band, without its validation and band copy and without
    importing scipy.linalg.

    diag and sup are overwritten, so pass fresh arrays; rhs is not (the
    relaxed step reuses it).  Raises LinAlgError, as SciPy does, when a
    leading minor is not positive definite.
    """
    _, _, x, info = dptsv(diag, sup, rhs, overwrite_d=1, overwrite_e=1)
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    return x


def solve_banded(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the general tridiagonal system held in band, in the (1, 1)
    storage of scipy.linalg.solve_banded (row 0 the superdiagonal from
    column 1, row 1 the diagonal, row 2 the subdiagonal up to the last
    column), by one LAPACK dgtsv call with partial pivoting: the call
    scipy.linalg.solve_banded((1, 1), band, rhs, check_finite=False)
    makes, so the bits are SciPy's, without its validation.

    Neither band nor rhs is overwritten; rhs may hold several columns.
    Raises LinAlgError for a singular matrix and ValueError for an
    argument LAPACK rejects, as SciPy does.
    """
    _, _, _, x, info = dgtsv(band[2, :-1], band[1], band[0, 1:], rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _implicit_step(model: Model, u: RadialFunction, tau: float,
                   lagged: bool) -> RadialFunction:
    """One semi-implicit flow step.

    lagged (the minimizer's descent) freezes M at its value on u and
    makes one tridiagonal solve.  Otherwise (the string and the saddle
    refinement, whose levels depend on the step map, see the module
    docstring) M is relaxed to self-consistency by up to INNER_SOLVES
    solves; the last solve's profile is returned without evaluating M
    on it.  The right-hand side w (u/tau + f(u)) of the interior nodes
    is built once, in place, and every solve reads it (solveh_banded does
    not overwrite it).  The diagonals M diag(A) + w/tau and M sup(A),
    which solveh_banded does overwrite, are refilled before each solve
    into two buffers allocated once per step.  The outermost node is
    left out of the solve and set to 0 (the Dirichlet tail).
    """
    grid = u.grid
    w = grid.weights[:-1]
    rhs = u.values[:-1] / tau
    rhs += u.f_values(model.nonlinearity)[:-1]
    rhs *= w
    w_tau = w / tau
    sup, diag = grid.stiffness_band[0, 1:-1], grid.stiffness_band[1, :-1]
    d, e = np.empty_like(diag), np.empty_like(sup)
    m = model.coefficient.M(u.grad_norm_sq())
    for k in range(INNER_SOLVES):
        np.multiply(diag, m, out=d)
        d += w_tau
        np.multiply(sup, m, out=e)
        vals = np.empty_like(u.values)
        vals[:-1] = solveh_banded(d, e, rhs)
        vals[-1] = 0.0
        v = u.with_values(vals)
        if lagged or k == INNER_SOLVES - 1:
            break
        m_new = model.coefficient.M(v.grad_norm_sq())
        if abs(m_new - m) <= 1e-12 * (1.0 + m):
            break
        m = 0.5 * (m + m_new)
    return v


def _hessian(model: Model, u: RadialFunction,
             lam: float) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The Hessian of I - lam/2 |u|_2^2 at u on the interior nodes, as
    (M(g), beta, A u, band).

    The Hessian is T + beta q q^T with T = M(g) A - diag(w (f' + lam)),
    beta = 2 M'(g) and q = A u.  band holds W^-1 T, T with row i divided
    by w_i, in solve_banded's (1, 1) storage: row 0 the superdiagonal
    from column 1, row 1 the diagonal, row 2 the subdiagonal.  A u is
    returned on every node.  Raises ExpOverflowError when f' overflows.
    """
    grid = u.grid
    w = grid.weights
    sup, diag = grid.stiffness_band
    vals = u.values
    g = u.grad_norm_sq()
    mcoef = model.coefficient.M(g)
    fp = model.nonlinearity.f_prime(vals)
    k = len(vals) - 1
    band = np.zeros((3, k))
    band[0, 1:] = mcoef * sup[1:k] / w[: k - 1]
    band[1, :] = mcoef * diag[:k] / w[:k] - fp[:k] - lam
    band[2, :-1] = mcoef * sup[1:k] / w[1:k]
    return mcoef, 2.0 * model.coefficient.M_prime(g), grid.stiffness_apply(vals), band


def _newton_polish(model: Model, u: RadialFunction, lam: float, res: float,
                   c: float, tol_norm: float) -> RadialFunction | None:
    """Bordered Newton on (gradient, mass constraint) from (u, lam), whose
    residual res the caller has just computed; returns the polished
    profile if its residual is at most tol_norm, and None otherwise.

    The Jacobian is the Hessian (_hessian) bordered by the constraint:
    its tridiagonal part, the Kirchhoff rank-one M'(g) correction
    (folded in by Woodbury), and the border (eliminated by a scalar
    solve), so each iteration is three banded LU solves.  Steps
    are halved until the residual norm decreases.  The polish stops at
    the target POLISH_DEEPEN * tol_norm, after POLISH_MAX_ITER steps, or
    at a step that cannot decrease the residual, overflows or meets a
    singular system, and then returns the profile or None as above.  The
    target lies well below the acceptance tolerance: the leftover
    gradient at tol_norm would otherwise dominate the dilation-balance
    defect of the converged profile, which is checked against a much
    smaller scale than the H^1 norm when the profile is spread out.
    """
    w = u.grid.weights
    k = len(u.values) - 1
    for _ in range(POLISH_MAX_ITER):
        if res <= POLISH_DEEPEN * tol_norm:
            break
        vals = u.values
        try:
            mcoef, beta, stiff, band = _hessian(model, u, lam)
            rho = (mcoef * stiff) / w - u.f_values(model.nonlinearity) - lam * vals
            sols = solve_banded(band, np.column_stack(
                [rho[:k], beta * stiff[:k] / w[:k], vals[:k]]))
        except (ExpOverflowError, LinAlgError, ValueError):
            break
        x_rho, x_p, x_u = sols[:, 0], sols[:, 1], sols[:, 2]
        qvec = stiff[:k]
        denom = 1.0 + float(qvec @ x_p)
        if abs(denom) < 1e-300:
            break
        b_rho = x_rho - x_p * (float(qvec @ x_rho) / denom)
        b_u = x_u - x_p * (float(qvec @ x_u) / denom)
        wu = w[:k] * vals[:k]
        slope = float(wu @ b_u)
        if abs(slope) < 1e-300:
            break
        h = 0.5 * (float(w @ vals**2) - c * c)
        dlam = (-h + float(wu @ b_rho)) / slope
        du = -b_rho + dlam * b_u
        scale = 1.0
        for _ in range(7):
            new_vals = vals.copy()
            new_vals[:k] = vals[:k] + scale * du
            try:
                cand = u.with_values(new_vals)
                new_lam = lam + scale * dlam
                new_res = pde_residual_norm(model, cand, new_lam)
            except ExpOverflowError:
                scale *= 0.5
                continue
            if math.isfinite(new_res) and new_res < res:
                u, lam, res = cand, new_lam, new_res
                break
            scale *= 0.5
        else:
            break
    return u if res <= tol_norm else None


def _negative_pivots(d: np.ndarray, off: np.ndarray) -> int:
    """Number of negative eigenvalues of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal off: by Sylvester's law of inertia,
    the negative pivots of its LDL^T factorization.

    LAPACK pttrf factors up to the first pivot that is not positive; the
    factorization resumes after it, a zero pivot taken as +0, so there is
    one call per negative pivot."""
    d = d.copy()
    k = len(d)
    count = start = 0
    while start < k - 1:
        piv, _, info = dpttrf(d[start:], off[start:])
        if info == 0:
            return count
        i = start + info - 1
        count += int(piv[info - 1] < 0.0)
        if i == k - 1:
            return count
        d[i + 1] -= off[i] ** 2 / (piv[info - 1] or 1e-300)
        start = i + 1
    return count + int(d[-1] < 0.0)


def _tangent_index(model: Model, u: RadialFunction, lam: float) -> int:
    """Morse index of (u, lam) on the sphere: the number of negative
    eigenvalues of the Hessian of I - lam/2 |u|_2^2 on the tangent space
    {v : <u, v> = 0}, on the interior nodes as in _newton_polish.

    The Hessian is T + beta q q^T (_hessian); the tangent space is
    bordered by a = w u.  Eliminating the rank-one term through an extra
    unknown with pivot -1/beta, and then T, gives by the additivity of
    inertia (Haynsworth) index = n_-(T) + n_-(S) - 2, where S is the 2x2
    Schur complement -1/beta e_1 e_1^T - [q a]^T T^{-1} [q a].  With
    beta = 0 the rank-one term drops out and index = n_-(T) +
    n_-(-a^T T^{-1} a) - 1.  T is the row-scaled band times w, and
    T^{-1} [q a] = (W^-1 T)^{-1} [q/w u], one solve with the band itself.
    Cost: one banded LU solve and the negative pivots of T.  A singular T
    raises LinAlgError.
    """
    w = u.grid.weights
    _, beta, stiff, band = _hessian(model, u, lam)
    k = band.shape[1]
    vals = u.values[:k]
    neg_t = _negative_pivots(w[:k] * band[1], w[1:k] * band[2, :-1])
    x = solve_banded(band, np.column_stack([stiff[:k] / w[:k], vals]))
    schur = -np.column_stack([stiff[:k], w[:k] * vals]).T @ x
    if beta > 0.0:
        schur[0, 0] -= 1.0 / beta
        neg_s = int(np.sum(np.linalg.eigvalsh(0.5 * (schur + schur.T)) < 0.0))
        return neg_t + neg_s - 2
    return neg_t + int(schur[1, 1] < 0.0) - 1


def _fiber_jump(model: Model, u: RadialFunction, e: float,
                c: float) -> tuple[RadialFunction, float]:
    """u at energy e dilated to the deepest well of its own fiber energy
    and put back on the sphere, with its energy.

    The wells are exact, from the fiber terms of u's norms on scales
    (GN_T_LO, GN_T_HI) relative to u; the one resample is fiber_scale,
    made only when the well lies below J(1).  (u, e) comes back unchanged
    unless the model is a power model with the affine coefficient and
    the dilated profile is lower than e, so a jump never raises I.
    """
    nl = model.nonlinearity
    if nl.kind != "power" or model.coefficient.kind != "affine":
        return u, e
    au = np.abs(u.values)
    crit = u.grid.integrate(au ** two_star(nl.dimension)) \
        if nl.include_critical else None
    terms = _fiber_terms(model, u.grad_norm_sq(), u.grid.integrate(au ** nl.p), crit)
    well = _deepest_well(terms)
    if well is None or not well[1] < _fiber_value(terms, 1.0):
        return u, e
    try:
        v = _on_sphere(fiber_scale(u, math.log(well[0])), c)
    except TruncationLossError:
        return u, e
    ev = energy(model, v).total
    return (v, ev) if ev < e else (u, e)


def _kept_polish(model: Model, pu: RadialFunction, c: float, e: float, slack: float,
                 index: int) -> tuple[RadialFunction, float, float] | None:
    """The polished pu back on the sphere, with its multiplier and
    energy, if a flow at energy e that seeks a critical point of Morse
    index `index` may keep it; otherwise None.

    The polished profile must not climb above e by more than slack (1 +
    |e|), the test _trial applies to every step, and its Morse index must
    be `index`: 0 for a descent, 1 for the saddle refinement.  Newton
    converges to the nearest critical point, which can be a saddle above
    or below the flow, or for the refinement a well; an index that
    cannot be evaluated refuses.
    """
    pu = normalize_mass(pu, c)
    pe = energy(model, pu).total
    if not pe <= e + slack * (1.0 + abs(e)):
        return None
    lam = lagrange_multiplier(model, pu, c)
    try:
        kept = _tangent_index(model, pu, lam) == index
    except (ExpOverflowError, LinAlgError):
        kept = False
    return (pu, lam, pe) if kept else None


@dataclass
class _Run:
    u: RadialFunction
    lam: float
    energy: float
    iterations: int
    flag: str
    res_history: list[float]
    energy_history: list[float]
    note: str = ""


def _trial(model: Model, u: RadialFunction, e: float, tau: float,
           c: float, slack: float = 1e-12,
           recenter: bool = False, lagged: bool = False
           ) -> tuple[RadialFunction, float] | None:
    """One trial flow step from u at energy e: the implicit step (lagged
    or relaxed, see _implicit_step), back onto the sphere, with recenter
    onto the nearest fiber maximum (_recenter_on_fiber_max), and the
    energy there.

    Returns (v, I(v)) when I(v) is finite and exceeds e by at most
    slack (1 + |e|); None when it does not or when the step fails,
    including a step whose mass is not finite and positive.
    """
    try:
        v = _implicit_step(model, u, tau, lagged)
        if not 0.0 < v.mass() < math.inf:
            return None
        v = normalize_mass(v, c)
        if recenter:
            v = _recenter_on_fiber_max(model, v, c)
        ev = energy(model, v).total
    except (ExpOverflowError, LinAlgError, TruncationLossError,
            FiberMonotoneError):
        return None
    if math.isfinite(ev) and ev <= e + slack * (1.0 + abs(e)):
        return v, ev
    return None


def _flow(model: Model, u: RadialFunction, c: float, params: SolveParams,
          index: int = 0) -> _Run:
    """Normalized gradient flow on the sphere from u, with Newton polishes,
    toward a critical point of Morse index `index`: 0 for the minimizer's
    descent, 1 for the saddle refinement.

    Each iteration tries the bordered Newton polish when the residual has
    not halved over STALL_WINDOW iterations or is at most POLISH_AT
    |u|_H1, and otherwise takes one trial step, halving tau until the
    energy rises by at most slack and growing it after a step.  The
    descent starts at DESCENT_STEP, grows it by 1.3 and allows a slack of
    1e-12; the refinement uses the REFINE_ constants instead and recenters
    the start and every step onto the nearest fiber maximum
    (_recenter_on_fiber_max).  A polish starts from the iteration's
    residual and returns None unless it ends within residual_tol
    |u|_H1.  The flow converges only by keeping a polish: the polished
    profile back on the sphere must pass
    _kept_polish, no higher than the flow's energy and at Morse index
    `index`, so the refinement's saddle must not slide into a well (index
    0) or onto a higher saddle.  Otherwise the flow ends "stalled" when no
    step is accepted, at "max_iter", or, for a descent, "diverged" when
    the energy runs off to -infinity; a descent tries _fiber_jump after
    each polish that fails or is refused.  The residual history ends with
    the residual of the returned profile.

    Polish attempts back off geometrically, for both kinds of trigger:
    after an attempt the next one waits polish_gap iterations, and
    polish_gap doubles, starting from STALL_WINDOW, so attempts come at
    least 3, 6, 12, ... iterations apart (at about 4, 7, 13, 25, ... when
    only stalls trigger them) up to max_iter.  A flow that is not yet in
    the Newton basin keeps being retried, with no cap, while its
    polishes grow only like log(max_iter).
    """
    tau, grow, slack = (REFINE_STEP, REFINE_GROW, REFINE_SLACK) if index \
        else (DESCENT_STEP, 1.3, 1e-12)
    if index:
        try:
            u = _recenter_on_fiber_max(model, u, c)
        except (FiberMonotoneError, TruncationLossError):
            pass
    try:
        e = energy(model, u).total
    except ExpOverflowError:
        return _Run(u, math.nan, -math.inf, 0, "diverged", [], [],
                    "initial profile overflows the exponential")
    res_hist: list[float] = []
    e_hist = [e]
    flag = "max_iter"
    it = 0
    next_polish, polish_gap = 0, STALL_WINDOW
    for it in range(1, params.max_iter + 1):
        lam = lagrange_multiplier(model, u, c)
        res = pde_residual_norm(model, u, lam)
        res_hist.append(res)
        stalled_now = len(res_hist) > STALL_WINDOW \
            and res > 0.5 * res_hist[-STALL_WINDOW - 1]
        if (stalled_now or res <= POLISH_AT * u.h1_norm()) and it >= next_polish:
            next_polish, polish_gap = it + polish_gap, 2 * polish_gap
            pu = _newton_polish(model, u, lam, res, c, params.residual_tol * u.h1_norm())
            kept = None if pu is None else _kept_polish(model, pu, c, e, slack, index)
            if kept is not None:
                u, _, e = kept
                e_hist.append(e)
                flag = "converged"
                break
            if not index:
                u, e = _fiber_jump(model, u, e, c)
        step = None
        while step is None and tau >= STEP_FLOOR:
            step = _trial(model, u, e, tau, c, slack, recenter=bool(index),
                          lagged=not index)
            tau = 0.5 * tau if step is None else min(tau * grow, STEP_CAP)
        if step is not None:
            u, e = step
        e_hist.append(e)
        if step is None:
            flag = "stalled"
            break
        if not index and (e < -DIVERGENCE_ENERGY
                          or u.grad_norm_sq() > DIVERGENCE_GRAD_SQ):
            return _Run(u, math.nan, e, it, "diverged", res_hist, e_hist,
                        f"energy {e:.3e}, |grad u|^2 {u.grad_norm_sq():.3e}")
    lam = lagrange_multiplier(model, u, c)
    res_hist.append(pde_residual_norm(model, u, lam))
    return _Run(u, lam, e, it, flag, res_hist, e_hist)


def _filter_failures(model: Model, u: RadialFunction, c: float, res: float,
                     params: SolveParams) -> list[str]:
    fails = []
    g = u.grad_norm_sq()
    if g <= TRIVIAL_GRAD_SQ:
        fails.append(f"trivial profile: |grad u|^2 = {g:.3e}")
    if abs(u.mass() - c * c) > 1e-8 * c * c:
        fails.append("mass drifted off the sphere")
    if res > params.residual_tol * u.h1_norm():
        fails.append(f"pde residual {res:.3e} above tolerance")
    scale = model.coefficient.M(g) * g
    balance = abs(pohozaev(model, u))
    if balance > FIBER_TOL * scale:
        fails.append(f"dilation balance {balance:.3e} vs scale {scale:.3e}")
    est = multiplier_estimate(model, u, c)
    if est.gap is not None and abs(est.lam) > 1e-12 \
            and est.gap > MULTIPLIER_GAP_TOL:
        fails.append(f"multiplier gap {est.gap:.3e}")
    return fails


def _q_scaled_values(model: Model, c: float, grid: RadialGrid,
                     t: float) -> np.ndarray:
    """Values of the c-normalized GN extremal dilated to scale t."""
    q = _gn_extremal(model)
    return t ** (q.dimension / 2.0) * (c / q.q_l2) * np.interp(
        t * grid.nodes, q.profile.grid.nodes, q.profile.values, right=0.0)


def _initial_profiles(model: Model, c: float, grid: RadialGrid,
                      params: SolveParams) -> list[tuple[str, RadialFunction]]:
    r = grid.nodes
    shapes: list[tuple[str, np.ndarray]] = []
    if model.nonlinearity.kind == "power":
        t_star, _ = gn_fiber_well(model, c) or gn_fiber_min(model, c)
        shapes.append((f"gn extremal t={t_star:.4g}",
                       _q_scaled_values(model, c, grid, t_star)))
    # width fractions of the domain cover the spread regimes, the fixed
    # widths cover the concentrated ones; a fraction that repeats a fixed
    # width is doubled until it does not, so no restart repeats another
    w_spread = grid.r_max / 6.0
    while w_spread in GAUSSIAN_WIDTHS:
        w_spread *= 2.0
    for w in (*GAUSSIAN_WIDTHS, w_spread):
        shapes.append((f"gaussian w={w:g}", np.exp(-0.5 * (r / w) ** 2)))
    # only a drawn bump builds the generator: importing numpy.random (and
    # through it OpenSSL's _hashlib) costs a process about 5 MB
    if len(shapes) < params.restarts:
        rng = np.random.default_rng(params.seed)
        while len(shapes) < params.restarts:
            w = float(rng.uniform(0.4, grid.r_max / 4.0))
            k = int(rng.integers(0, 3))
            shapes.append((f"random {len(shapes)}",
                           (1.0 + r) ** k * np.exp(-0.5 * (r / w) ** 2)))
    return [(label, _on_sphere(RadialFunction(grid, vals), c))
            for label, vals in shapes[: params.restarts]]


def _report(model: Model, status: str, run: _Run | None, infimum: float,
            notes: list[str], restarts: int = 1,
            path_level: float | None = None) -> SolveReport:
    """SolveReport of a run; a converged status carries its candidate."""
    cand = None
    if status in (STATUS_MINIMIZER, STATUS_MOUNTAIN_PASS):
        cand = CriticalPointCandidate(
            u=run.u, lam=run.lam, energy=run.energy,
            pohozaev_residual=pohozaev(model, run.u), pde_residual=run.res_history[-1])
    if run is None:
        return SolveReport(status, cand, infimum, path_level, 0, restarts,
                           [], [], tuple(notes))
    return SolveReport(status, cand, infimum, path_level, run.iterations,
                       restarts, run.res_history, run.energy_history,
                       tuple(notes))


def _solve_from(model: Model, c: float, params: SolveParams,
                labeled: list[tuple[str, RadialFunction]], index: int,
                notes: list[str], path_level: float | None = None) -> SolveReport:
    """Run _flow at Morse index `index` from each labelled start on the
    sphere and report the outcome, with a note per start.

    A run is a candidate only if its flow converged, which it does only
    at a polish that _kept_polish accepted, and its profile passes
    _filter_failures.  The reported run (the lowest candidate, else the
    lowest run) is replaced by a later one only when that one is lower
    by more than residual_tol^2 (1 + |I|): the energy error at residual r
    is O(r^2), so runs that reach one critical point tie, and the first
    of them is reported whatever their last bits say.  The infimum
    estimate is the lowest energy of the runs that did not diverge, and
    a note names the first run that reached it and how its flow ended.
    """
    def beats(run: _Run, incumbent: _Run | None) -> bool:
        return incumbent is None or incumbent.energy - run.energy \
            > params.residual_tol**2 * (1.0 + abs(run.energy))
    best: _Run | None = None
    best_pass: _Run | None = None
    infimum = math.inf
    lowest = ""
    diverged = False
    for label, u0 in labeled:
        run = _flow(model, u0, c, params, index)
        if run.flag == "diverged":
            diverged = True
            notes.append(f"{label}: diverged ({run.note})")
            continue
        if run.energy < infimum:
            infimum = run.energy
            lowest = f"{label}, whose flow ended {run.flag}"
        fails = _filter_failures(model, run.u, c, run.res_history[-1], params)
        if run.flag != "converged":
            fails.append(f"flow ended {run.flag} without a kept polish")
        if fails:
            notes.append(f"{label}: rejected ({'; '.join(fails)})")
        else:
            notes.append(f"{label}: candidate with I = {run.energy:.9g}, "
                         f"lambda = {run.lam:.9g}")
            if beats(run, best_pass):
                best_pass = run
        if beats(run, best):
            best = run
    restarts = len(labeled)
    if best_pass is None and diverged:
        notes.append("unbounded descent direction found and no restart "
                     "produced a candidate")
        return _report(model, STATUS_DIVERGED, best, -math.inf, notes,
                       restarts, path_level)
    if lowest:
        notes.append(f"infimum_estimate {infimum:.9g} is the final energy of {lowest}")
    if best_pass is not None:
        if diverged:
            notes.append("warning: some restarts diverged; the minimizer may be local")
        return _report(model, STATUS_MOUNTAIN_PASS if index else STATUS_MINIMIZER,
                       best_pass, infimum, notes, restarts, path_level)
    if abs(infimum) <= ZERO_LEVEL_TOL:
        notes.append("zero-energy diagnostic: infimum consistent with 0, "
                     "no profile passed the filters")
    return _report(model, STATUS_NONE_FOUND, best, infimum, notes, restarts,
                   path_level)


def minimize_on_sphere(model: Model, c: float, params: SolveParams | None = None,
                       starts: list[RadialFunction] | None = None) -> SolveReport:
    """Minimize I over the mass sphere |u|_2^2 = c^2 with restarts.

    The grid is recommended_grid(model, c, params), which widens the
    domain when the predicted minimizer is spread out.  starts, when
    given, replaces the built-in initial profiles: each is resampled
    onto the solver grid and renormalized.

    Each restart is a descent (_flow at index 0), and _solve_from picks
    the report: converged_minimizer only for a restart whose descent kept
    a polish at Morse index 0 and whose profile passes the filters, with
    the first of restarts that tie to residual_tol^2 (1 + |I|).
    """
    c = mass_radius(c)
    params = params or SolveParams()
    grid = recommended_grid(model, c, params)
    if starts is None:
        labeled = _initial_profiles(model, c, grid, params)
    else:
        labeled = [(f"supplied {i}", _on_sphere(_onto_grid(s, grid), c))
                   for i, s in enumerate(starts)]
    if not labeled:
        raise ValueError("no initial profiles: starts is empty")
    return _solve_from(model, c, params, labeled, 0, [])


def _exp_safe_scale(model: Model, u: RadialFunction) -> float:
    """Largest fiber parameter s keeping alpha0 |T(u,s)|_inf^2 under the cap."""
    nl = model.nonlinearity
    if nl.kind != "exp":
        return math.inf
    peak = float(np.max(np.abs(u.values)))
    n = u.grid.dimension
    return math.log(0.98 * EXP_ARG_CAP / (nl.alpha0 * peak * peak)) / n


def _balance_roots(model: Model, u: RadialFunction, lo: float, hi: float,
                   n_scan: int) -> list[tuple[float, bool]]:
    """Roots of s -> G(T(u, s)) in [lo, hi], each with whether G rises
    through it (a fiber minimum) or falls (a fiber maximum)."""
    def g_of(s: float) -> float:
        try:
            return fiber_pohozaev(model, u, s)
        except ExpOverflowError:
            return math.nan
    return [(a if a == b else brentq(g_of, a, b, xtol=1e-13), rising)
            for a, b, rising in sign_change_brackets(g_of, np.linspace(lo, hi, n_scan))]


def pohozaev_project(model: Model, u: RadialFunction, c: float,
                     s_range: tuple[float, float] = (-6.0, 4.0)
                     ) -> tuple[float, RadialFunction]:
    """Project u onto the dilation-balance manifold along its fiber.

    Scans G(T(u, s)) for sign changes and polishes each root.  When
    I(u) < 0 the root minimizing the fiber energy is returned (the
    well); otherwise the fiber-maximum root with the largest energy (the
    barrier).  Raises FiberMonotoneError when G has no root in the
    scanned range, and ValueError when c is not a positive finite number
    or u is off the sphere.  The projected profile is resampled, so its
    own |G| is grid-limited even though the fiber root is polished to
    1e-13.
    """
    c = mass_radius(c)
    if abs(u.mass() - c * c) > 1e-6 * c * c:
        raise ValueError("profile must lie on the mass sphere before projecting")
    lo, hi = s_range
    hi = min(hi, _exp_safe_scale(model, u))
    if not hi > lo:
        raise ValueError("empty dilation range after the overflow guard")
    roots = _balance_roots(model, u, lo, hi, 241)
    if not roots:
        raise FiberMonotoneError(
            f"dilation balance keeps one sign on [{lo:g}, {hi:g}]")
    if energy(model, u).total < 0.0:
        s_star = min((s for s, _ in roots),
                     key=lambda s: fiber_energy(model, u, s))
    else:
        maxima = [s for s, rising in roots if not rising]
        pool = maxima if maxima else [s for s, _ in roots]
        s_star = max(pool, key=lambda s: fiber_energy(model, u, s))
    return s_star, _on_sphere(fiber_scale(u, s_star), c)


def _spread_limit(base: RadialFunction, s_lo: float, s_hi: float,
                  step: float) -> float:
    """Most negative s in [s_lo, s_hi), walked up by step, that the grid
    window can spread base to.  Raises ValueError, naming the domain
    radius, when there is none: the domain is too small for the path."""
    s = s_lo
    while s < s_hi:
        try:
            fiber_scale(base, s)
            return s
        except TruncationLossError:
            s += step
    raise ValueError(f"domain radius r_max = {base.grid.r_max:g} is too small for the "
                     "mountain-pass path: its spread endpoint does not fit")


def _right_endpoint(model: Model, base: RadialFunction, s_left: float) -> float:
    """Concentrated path endpoint: beyond the fiber barrier.

    The Gaussian fiber serves the plunging geometry (planar exponential,
    N=4 competition): the endpoint is the first scale, in steps of 0.05
    up to the overflow-safe range, where the fiber energy falls well
    below min(0, J(s_left)).  A well behind the barrier (N >= 5) is not
    looked for here: mountain_pass strings it along the GN fiber.
    """
    e_left = fiber_energy(model, base, s_left)
    target = min(0.0, e_left) - 0.1 * (1.0 + abs(e_left))
    for s in np.arange(0.05, min(6.0, _exp_safe_scale(model, base)), 0.05):
        try:
            if fiber_energy(model, base, s) < target:
                return float(s)
        except ExpOverflowError:
            break
    raise BracketError("no fiber descent beyond a barrier within the safe "
                       "dilation range")


def _reparametrize(beads: list[RadialFunction], c: float) -> list[RadialFunction]:
    """Redistribute beads to uniform weighted-L2 arc length.

    Each interior bead is the linear interpolant, in arc length, between
    the two old beads whose arc-length interval holds its target, put
    back on the sphere.  The operations are those of scipy's linear
    interp1d, in the same order, so the beads match it bit for bit (the
    tests keep interp1d as the reference).  The endpoints are returned
    as the same objects, so their evaluations carry over.  A string that
    has collapsed onto one profile keeps a tiny artificial arc length,
    so its interior beads come back as copies of that profile; the bead
    sweeps never reach it, because they keep the endpoints apart.
    """
    grid = beads[0].grid
    gaps = np.sqrt(np.maximum(0.0, np.array(
        [grid.weights @ (b.values - a.values) ** 2
         for a, b in zip(beads, beads[1:])])))
    cum = np.concatenate([[0.0], np.cumsum(gaps)])
    cum += np.arange(len(beads)) * (1e-14 * (1.0 + cum[-1]))
    targets = np.linspace(cum[0], cum[-1], len(beads))[1:-1]
    his = np.searchsorted(cum, targets).clip(1, len(cum) - 1)
    fresh = []
    for x, hi in zip(targets, his):
        lo = beads[hi - 1].values
        slope = (beads[hi].values - lo) / (cum[hi] - cum[hi - 1])
        fresh.append(normalize_mass(
            RadialFunction(grid, slope * (x - cum[hi - 1]) + lo), c))
    return [beads[0], *fresh, beads[-1]]


def _bead_sweeps(model: Model, base: RadialFunction, s_left: float,
                 s_right: float, c: float
                 ) -> tuple[RadialFunction, list[float], int, float]:
    """String BEADS beads along the fiber of base from s_left to s_right,
    then relax the interior beads and reparametrize, sweep after sweep.

    Returns the top bead, the string level after each sweep, the index
    of the top bead and the higher endpoint energy.  The endpoints never
    move, so the string keeps at least their distance as arc length.
    Each bead is a RadialFunction kept from the level of one sweep to
    the start of the next, so its energy is evaluated once.  The string
    is built here and only its top bead is returned, so no caller holds
    a bead that a sweep has replaced: the string keeps one profile, with
    its f(u) and F(u), per bead.
    """
    tau = BEAD_STEP
    levels: list[float] = []
    beads = [_on_sphere(fiber_scale(base, s), c)
             for s in np.linspace(s_left, s_right, BEADS)]
    for _ in range(SWEEPS):
        for j in range(1, len(beads) - 1):
            u = beads[j]
            e = energy(model, u).total
            t = tau
            for _ in range(4):
                step = _trial(model, u, e, t, c)
                if step is not None:
                    beads[j] = step[0]
                    break
                t *= 0.25
        beads = _reparametrize(beads, c)
        bead_energies = [energy(model, u).total for u in beads]
        levels.append(max(bead_energies))
        if len(levels) >= 6 and abs(levels[-1] - levels[-6]) \
                <= 1e-10 * (1.0 + abs(levels[-1])):
            break
    top = int(np.argmax(bead_energies))
    return beads[top], levels, top, max(bead_energies[0], bead_energies[-1])


def _recenter_on_fiber_max(model: Model, u: RadialFunction,
                           c: float) -> RadialFunction:
    hi = min(RECENTER_WINDOW, _exp_safe_scale(model, u))
    roots = _balance_roots(model, u, -RECENTER_WINDOW, hi, 25)
    maxima = [s for s, rising in roots if not rising]
    if not maxima:
        raise FiberMonotoneError("no fiber maximum near the current profile")
    s_star = min(maxima, key=abs)
    return _on_sphere(fiber_scale(u, s_star), c)


def mountain_pass(model: Model, c: float,
                  params: SolveParams | None = None) -> SolveReport:
    """Estimate the mountain-pass level and refine the barrier bead.

    For a power model whose GN fiber shows a well behind a barrier (the
    saddle regime just below the attainment threshold), the path runs
    along the fiber of the scaled GN extremal from a spread endpoint
    below the barrier down into the well, on a grid sized to the
    barrier scale; this is the one path for a well behind a barrier.
    Otherwise the path follows the dilation fiber of the unit-width
    Gaussian, which serves the plunging geometry: from a spread
    small-gradient endpoint to the first scale where the fiber energy
    falls well below zero (_right_endpoint).  A Gaussian fiber that
    never plunges, and a relaxed string whose level does not rise above
    both endpoint energies, are reported as having no saddle geometry:
    there is no barrier between the endpoints.  The string is built and
    relaxed once, between endpoint scales at least 0.05 apart.  The top
    bead is the one start that _solve_from refines at Morse index 1: the
    report is converged_mountain_pass only when the refinement keeps a
    polish at index 1 that passes the filters, and otherwise
    no_nontrivial_solution_found with the refinement's energy as the
    infimum estimate.

    path_level is the highest bead energy of the relaxed string, an
    estimate of the min-max level but no bound on it: the path can rise
    higher between beads, and at N=4, p=3.5, b=0.019, c=177.037 the
    level 2.8100942 sits below the refined saddle 2.8106486.  The report
    carries it even when the saddle refinement keeps no polish, which is
    the expected outcome for the planar exponential models where the
    level is compared with the dilation ceiling 0.5 Mhat(4 pi / alpha0)
    rather than asserted convergent.
    """
    c = mass_radius(c)
    params = params or SolveParams()
    nl = model.nonlinearity
    notes: list[str] = []
    well = gn_fiber_well(model, c) if nl.kind == "power" else None
    bar = None if well is None else gn_fiber_barrier(model, c, well[0])
    grid = _fiber_grid(model, params, None if bar is None else bar[0], 2.2)
    if bar is not None:
        (t_well, j_well), (t_bar, j_bar) = well, bar
        base = _on_sphere(RadialFunction(
            grid, _q_scaled_values(model, c, grid, t_well)), c)
        notes.append(f"fiber well at scale {t_well:.4g} (J = {j_well:.4g}), "
                     f"barrier at {t_bar:.4g} (J = {j_bar:.4g})")
        s_bar = math.log(t_bar / t_well)
        s_left = _spread_limit(base, s_bar - 0.6, s_bar - 0.05, 0.1)
        s_right = 0.0
    else:
        base = _on_sphere(RadialFunction(grid, np.exp(-0.5 * grid.nodes**2)), c)
        s_left = _spread_limit(base, -2.5, -1e-3, 0.25)
        try:
            s_right = _right_endpoint(model, base, s_left)
        except BracketError as exc:
            # fiber never descends: there is no two-endpoint geometry to
            # string between, so report absence instead of failing
            notes.append(f"no saddle geometry: {exc}")
            return _report(model, STATUS_NONE_FOUND, None, math.nan, notes)
    bead, levels, top, ends = _bead_sweeps(model, base, s_left, s_right, c)
    path_level = levels[-1]
    if not path_level > ends + 1e-9 * (1.0 + abs(path_level)):
        notes.append(f"no saddle geometry: the relaxed string level "
                     f"{path_level:.9g} does not rise above its endpoint "
                     f"energy {ends:.9g}")
        return _report(model, STATUS_NONE_FOUND, None, math.nan, notes)
    notes.append(f"string: {len(levels)} sweeps, barrier bead {top} "
                 f"of {BEADS}, level {path_level:.9g}")
    if nl.kind == "exp":
        ceiling = mp_bound(model)
        side = "below" if path_level < ceiling else "not below"
        notes.append(f"level estimate {path_level:.6g} is {side} the "
                     f"dilation ceiling {ceiling:.6g}; the estimate is the "
                     "highest bead, not a bound, so it never certifies the "
                     "strict inequality")
    return _solve_from(model, c, params, [(f"barrier bead {top}", bead)],
                       1, notes, path_level)


@dataclass
class ClassificationRecord:
    """Theory branch vs. numeric outcome for one (model, c) point."""

    dimension: int
    p: float | None
    a: float
    b: float
    c: float
    predicted: str
    observed_status: str
    infimum_estimate: float
    infimum_sign: str
    multiplier: float | None
    agreement: str
    thresholds: ThresholdSet | None = field(repr=False, default=None)
    report: SolveReport | None = field(repr=False, default=None)
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Every field but report, in field order."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "report"}
        d["thresholds"] = None if self.thresholds is None else self.thresholds.to_dict()
        d["notes"] = list(self.notes)
        return d


def _predicted_branch(thr: ThresholdSet, c: float) -> str:
    if not thr.existence_ok:
        return BRANCH_UNCLASSIFIED
    n, p = thr.dimension, thr.p
    if mass_critical(n, p):
        if thr.c1_exact is not None:
            return BRANCH_ZERO_INF if c <= thr.c1_exact else BRANCH_GROUND_STATE
        if thr.c_star is not None and c <= thr.c_star:
            return BRANCH_ZERO_INF
        if thr.c1_upper is not None and c > thr.c1_upper:
            return BRANCH_GROUND_STATE
        return BRANCH_TRANSITION
    if p < 2.0 + 4.0 / n:
        return BRANCH_GROUND_STATE
    if thr.c0 is not None and c < thr.c0:
        return BRANCH_NO_SOLUTION
    return BRANCH_TRANSITION


def _agreement(predicted: str, report: SolveReport) -> str:
    cand = report.candidate
    inf = report.infimum_estimate
    if predicted == BRANCH_NO_SOLUTION:
        if report.status == STATUS_NONE_FOUND and inf >= -ZERO_LEVEL_TOL:
            return "corroborated"
        if report.status == STATUS_MINIMIZER:
            return "contradicted"
        return "inconclusive"
    if predicted == BRANCH_GROUND_STATE:
        if report.status == STATUS_MINIMIZER and cand.energy < 0.0 \
                and cand.lam < 0.0:
            return "corroborated"
        return "inconclusive"
    if predicted == BRANCH_ZERO_INF:
        # the computable shadow of "zero infimum, unattained" is the
        # absence of any negative-energy candidate: a truncated domain
        # pins spreading profiles at positive energy, so the infimum
        # estimate itself stays above zero
        if report.status == STATUS_NONE_FOUND and inf >= -ZERO_LEVEL_TOL:
            return "corroborated"
        if report.status == STATUS_MINIMIZER and cand.energy < -ZERO_LEVEL_TOL:
            return "contradicted"
        return "inconclusive"
    return "inconclusive"


def _sign_label(value: float) -> str:
    if not math.isfinite(value):
        return "unbounded" if value < 0 else "undetermined"
    if value < -ZERO_LEVEL_TOL:
        return "negative"
    if value > ZERO_LEVEL_TOL:
        return "positive"
    return "zero"


def classify(model: Model, c: float,
             params: SolveParams | None = None) -> ClassificationRecord:
    """Compare the predicted theory branch with the solver outcome at c.

    Power models need the affine coefficient (the explicit thresholds
    are stated for M(t) = a + b t).  Planar exponential models are
    reported as the mountain-pass regime with observed status "not_run":
    classify runs no solver for them (call mountain_pass to probe one).
    Agreement is three-valued and a corroboration is exactly that,
    evidence at the stated restart count and tolerances.
    """
    c = mass_radius(c)
    nl = model.nonlinearity
    coef = model.coefficient
    if nl.kind == "exp":
        return ClassificationRecord(
            2, None, coef.a, coef.b, c, BRANCH_MOUNTAIN_PASS, "not_run",
            math.nan, "undetermined", None, "inconclusive", None, None,
            ("solver not run; call mountain_pass to probe",))
    if coef.kind != "affine":
        raise ValueError("explicit thresholds need the affine coefficient "
                         "M(t) = a + b t")
    n, p = nl.dimension, nl.p
    q = ground_state(n, p)
    thr = threshold_set(coef.a, coef.b, p, n, q.q_l2, gn_constant(n, p))
    predicted = _predicted_branch(thr, c)
    report = minimize_on_sphere(model, c, params)
    agreement = _agreement(predicted, report)
    lam = report.candidate.lam if report.candidate else None
    return ClassificationRecord(
        n, p, coef.a, coef.b, c, predicted, report.status,
        report.infimum_estimate, _sign_label(report.infimum_estimate), lam,
        agreement, thr, report, thr.notes)
