"""Radially symmetric discretization of R^N.

A function u(|x|) on R^N is stored by its samples on a radial mesh
0 = r_0 < r_1 < ... < r_K = r_max together with quadrature weights that
absorb the surface measure of the unit (N-1)-sphere, so that

    integral_{R^N} phi(|x|) dx  ~=  sum_j  w_j phi(r_j).

The weights are moment-fitted per cell: on [r_i, r_{i+1}] the rule
integrates p(r) r^{N-1} exactly for every linear p, using closed-form
moments of r^{N-1}.  Constants are therefore integrated exactly (the
ball volume comes out to machine precision), every weight is strictly
positive, and the coordinate origin needs no special treatment.

Dirichlet energies use the compact two-point stencil on each cell
(midpoint-centered difference quotients).  Kinks that sit exactly on a
node, such as a Moser plateau edge or a spliced nonlinearity, then
never straddle a stencil, which keeps the energy second-order accurate.

A RadialFunction is an immutable value: its samples are read-only, and
each derived quantity (|u|_2^2, |grad u|_2^2, and f(u), F(u) per
nonlinearity) is computed at most once per profile.  The solvers
evaluate one iterate many times over (multiplier, residual, step
right-hand side, energy, filters); all of those read the stored
numbers, so the cost is one evaluation per iterate and the answers are
those of evaluating afresh each time.  f(u) and F(u) come together from
one call of the nonlinearity's joint kernel (f_and_F), whichever is
read first.

fiber_scale resamples through a monotone cubic (PCHIP) interpolant of
its own, which mirrors scipy.interpolate.PchipInterpolator with
extrapolate=False (the tests pin it to SciPy bit for bit), so the
package does not import scipy.interpolate.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SCHEMES = ("uniform", "graded", "custom")

MIN_CELLS = 16
# largest cell count of a built grid (make_grid) and of a solve or shoot:
# a 10^6-cell grid already holds about 50 MB of arrays, and a larger
# request would hang in the shooting or the solve instead of failing
MAX_CELLS = 1_000_000
MAX_DIMENSION = 10
# largest relative mass fiber_scale may push off the grid
MASS_LOSS_TOL = 1e-6


class TruncationLossError(RuntimeError):
    """Raised when a rescaling would push non-negligible mass off the grid."""


def sphere_area(dimension: int) -> float:
    """Surface area of the unit (N-1)-sphere in R^N."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def ball_volume(dimension: int, radius: float) -> float:
    """Volume of the ball of given radius in R^N."""
    return math.pi ** (dimension / 2.0) * radius**dimension / math.gamma(dimension / 2.0 + 1.0)


@dataclass
class RadialGrid:
    """Radial mesh with quadrature weights for integrals over R^N, built
    by from_nodes, which checks the nodes.

    Attributes
    ----------
    dimension : spatial dimension N of the ambient space.
    nodes : array of K+1 radii, strictly increasing from 0 to r_max.
    weights : node quadrature weights, angular measure included.
    cell_volumes : per-cell integrals of the measure, omega_{N-1} * int r^{N-1} dr.
    scheme : the node-placement rule used to build the grid.
    stiffness_band : upper-form (2, K+1) band of the stiffness operator A,
        built once per grid and read-only.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray = field(repr=False)
    cell_volumes: np.ndarray = field(repr=False)
    scheme: str = "custom"

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def cell_widths(self) -> np.ndarray:
        """Cell widths, computed once per grid and read-only."""
        widths = np.diff(self.nodes)
        widths.flags.writeable = False
        return widths

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a node-sampled radial integrand over R^N."""
        return float(self.weights @ np.asarray(values))

    def ball_volume(self) -> float:
        return ball_volume(self.dimension, self.r_max)

    @cached_property
    def _widths_sq(self) -> np.ndarray:
        return self.cell_widths**2

    def stiffness_apply(self, values: np.ndarray) -> np.ndarray:
        """Apply the Dirichlet stiffness operator A with a(u,v) = v.A u.

        a(u, v) = sum_i cell_volumes_i * D_i(u) * D_i(v) where D_i is the
        difference quotient on cell i, so a(u, u) equals grad_norm_sq.
        """
        flux = self.cell_volumes * np.diff(np.asarray(values, dtype=float)) \
            / self._widths_sq
        # node j gets flux_{j-1} - flux_j, with flux_{-1} = flux_K = 0
        out = np.concatenate(([0.0], flux))
        out[:-1] -= flux
        return out

    @cached_property
    def stiffness_band(self) -> np.ndarray:
        """Upper-form (2, K+1) band of A, computed once per grid and
        read-only: row 0 holds the superdiagonal from column 1, row 1 the
        diagonal."""
        k = self.cell_volumes / self._widths_sq
        n = len(self.nodes)
        ab = np.zeros((2, n))
        ab[1, :-1] += k
        ab[1, 1:] += k
        ab[0, 1:] = -k
        ab.flags.writeable = False
        return ab

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.cell_volumes = np.asarray(self.cell_volumes, dtype=float)
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")


def _weights_from_nodes(dimension: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment-fitted per-cell weights, exact for piecewise-linear integrands."""
    area = sphere_area(dimension)
    rl, rr = nodes[:-1], nodes[1:]
    h = rr - rl
    n = dimension
    m0 = area * (rr**n - rl**n) / n
    m1 = area * (rr ** (n + 1) - rl ** (n + 1)) / (n + 1)
    w_left = (rr * m0 - m1) / h
    w_right = (m1 - rl * m0) / h
    weights = np.zeros(len(nodes))
    weights[:-1] += w_left
    weights[1:] += w_right
    return weights, m0


def from_nodes(dimension: int, nodes: np.ndarray, scheme: str = "custom") -> RadialGrid:
    """Build a grid from an explicit node array: one-dimensional with at
    least two nodes, finite, starting at 0 and strictly increasing, else
    ValueError."""
    nodes = np.asarray(nodes, dtype=float)
    _validate_dimension(dimension)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError(f"radial nodes must be a row of at least 2, got shape {nodes.shape}")
    if not np.all(np.isfinite(nodes)):
        raise ValueError("radial nodes must be finite")
    if nodes[0] != 0.0:
        raise ValueError("radial grid must start at r = 0")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("radial nodes must be strictly increasing")
    weights, cell_volumes = _weights_from_nodes(dimension, nodes)
    return RadialGrid(dimension, nodes, weights, cell_volumes, scheme)


def make_grid(dimension: int, r_max: float, n_cells: int, scheme: str = "uniform") -> RadialGrid:
    """Build a radial grid on [0, r_max] with n_cells cells.

    scheme 'uniform' spaces nodes evenly; 'graded' uses the quadratic
    grading r_i = r_max (i/K)^2, clustering resolution near the origin.
    r_max must be a positive_real and n_cells a cell_count.
    """
    _validate_dimension(dimension)
    r_max = positive_real("r_max", r_max)
    n_cells = cell_count(n_cells)
    if scheme == "uniform":
        nodes = np.linspace(0.0, r_max, n_cells + 1)
    elif scheme == "graded":
        frac = np.arange(n_cells + 1) / n_cells
        nodes = r_max * frac**2
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES[:2]}")
    return from_nodes(dimension, nodes, scheme)


def integer(name: str, v) -> int:
    """v as an int: ints and numpy integers pass; bool and anything else
    (4.5, 5.0, "5") raise ValueError naming the input.  The one integer
    rule of every entry point that takes a count, an index or a
    dimension."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def positive_real(name: str, v, zero: bool = False) -> float:
    """v as a float, checked to be a finite real number above 0 (or at
    least 0 with zero=True); numpy floats pass, bool, NaN, inf and
    strings raise ValueError naming the input.  The one rule of every
    entry point that takes a radius, a tolerance or a coefficient."""
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)
                                   and (v > 0 or zero and v == 0)):
        raise ValueError(f"{name} must be {'nonnegative' if zero else 'positive'} "
                         f"and finite, got {v!r}")
    return float(v)


def cell_count(n) -> int:
    """n as an int, checked to be an integer cell count in
    [MIN_CELLS, MAX_CELLS]: the one rule of every grid, solve and shoot."""
    n = integer("n_cells", n)
    if not MIN_CELLS <= n <= MAX_CELLS:
        raise ValueError(f"n_cells must lie in [{MIN_CELLS}, {MAX_CELLS}], got {n}")
    return n


def integer_dimension(dimension) -> int:
    """The dimension by the integer rule, before any range check."""
    return integer("dimension", dimension)


def _validate_dimension(dimension: int) -> None:
    if not 1 <= integer_dimension(dimension) <= MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in [1, {MAX_DIMENSION}], got {dimension}")


@dataclass(frozen=True)
class RadialFunction:
    """Samples of a radial function on a RadialGrid, as an immutable value.

    values is a read-only view of the array it was built from (no copy),
    so the profile cannot be changed through it, and whoever built it
    must not write to that array while the profile is in use; a changed
    profile is a new RadialFunction (with_values).  Derived quantities, |u|_2^2,
    |grad u|_2^2, and f(u), F(u) per nonlinearity, are computed on first
    use and kept on the object; cached arrays are read-only.  A
    computation that raises (ExpOverflowError) stores nothing, so it
    raises again on every call.
    """

    grid: RadialGrid
    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")

    def _derived(self, key, compute):
        """compute(values), evaluated on first use under key and kept; the
        arrays it returns, alone or in a tuple, become read-only."""
        out = self._memo.get(key)
        if out is None:
            out = compute(self.values)
            for part in out if isinstance(out, tuple) else (out,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self._memo[key] = out
        return out

    def with_values(self, values: np.ndarray) -> "RadialFunction":
        return RadialFunction(self.grid, values)

    def mass(self) -> float:
        """Squared L2 norm over R^N."""
        return self._derived("mass", lambda v: self.grid.integrate(v**2))

    def grad_norm_sq(self) -> float:
        """Squared L2 norm of the gradient, by cell-midpoint difference quotients."""
        return self._derived("grad_norm_sq", self._grad_norm_sq)

    def _grad_norm_sq(self, values: np.ndarray) -> float:
        """cell_volumes @ ((v[1:] - v[:-1]) / cell_widths)**2 on one scratch
        array: the difference is divided and squared in place (d * d has
        the bits of d**2), and values is not written."""
        d = values[1:] - values[:-1]
        d /= self.grid.cell_widths
        d *= d
        return float(self.grid.cell_volumes @ d)

    def f_values(self, nonlinearity) -> np.ndarray:
        """f(u) at the nodes for the given nonlinearity, read-only."""
        return self._nonlinear(nonlinearity, 0)

    def F_values(self, nonlinearity) -> np.ndarray:
        """F(u) at the nodes for the given nonlinearity, read-only."""
        return self._nonlinear(nonlinearity, 1)

    def _nonlinear(self, nonlinearity, part: int) -> np.ndarray:
        """f(u) (part 0) or F(u) (part 1), both from one call of the
        nonlinearity's joint kernel f_and_F on first read."""
        return self._derived(nonlinearity, nonlinearity.f_and_F)[part]

    def lp_norm(self, p: float) -> float:
        if p < 1:
            raise ValueError(f"lp_norm requires p >= 1, got {p}")
        return self.grid.integrate(np.abs(self.values) ** p) ** (1.0 / p)

    def h1_norm(self) -> float:
        return math.sqrt(self.grad_norm_sq() + self.mass())


def mass_radius(c) -> float:
    """c by the positive_real rule."""
    return positive_real("mass radius c", c)


def normalize_mass(u: RadialFunction, c: float) -> RadialFunction:
    """Rescale u so that its L2 norm equals c."""
    m = u.mass()
    if m <= 0 or not np.isfinite(m):
        raise ValueError("cannot normalize a function with vanishing or invalid mass")
    return u.with_values(u.values * (c / math.sqrt(m)))


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node derivatives of the PCHIP interpolant with cell widths h and
    secant slopes m (Fritsch & Carlson, SIAM J. Numer. Anal. 17 (1980);
    Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5 (1984)), by SciPy's
    formulas: zero at a node whose two slopes differ in sign or vanish,
    else their weighted harmonic mean; at each end the one-sided
    three-point estimate, clipped to keep the shape (Moler, Numerical
    Computing with MATLAB, 3.6)."""
    d = np.zeros(len(m) + 1)
    if len(m) == 1:
        d[:] = m[0]
        return d
    m0, m1 = m[:-1], m[1:]
    # only same-signed nonzero pairs are divided, so none by zero; a
    # subnormal slope (a decaying tail near 1e-308) overflows w / m to
    # inf, and the mean's reciprocal is then 0, as in SciPy
    mean = (np.sign(m0) == np.sign(m1)) & (m0 != 0.0) & (m1 != 0.0)
    w1 = (2 * h[1:] + h[:-1])[mean]
    w2 = (h[1:] + 2 * h[:-1])[mean]
    with np.errstate(over="ignore"):
        d[1:-1][mean] = 1.0 / ((w1 / m0[mean] + w2 / m1[mean]) / (w1 + w2))
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """End derivative from the end cell (h0, m0) and its neighbour."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def fiber_scale(u: RadialFunction, s: float) -> RadialFunction:
    """Mass-preserving dilation T(u, s)(r) = e^{Ns/2} u(e^s r), resampled.

    The profile is resampled on the original grid through the PCHIP
    (monotone cubic) interpolant and extended by zero beyond r_max.  The
    cubic on [r_k, r_{k+1}] is evaluated as SciPy's PPoly does: k by
    side="right" search with the last node closed, then Horner-free
    powers of z = x - r_k in the order 0 + c3 + c2 z + c1 z^2 + c0 z^2 z.
    A NaN sample becomes zero, as outside the grid.  For s < 0 the
    visible window shrinks to [0, e^s r_max]; if more than MASS_LOSS_TOL
    of the relative mass lives outside that window the truncation is
    refused rather than silently clipped.
    """
    n = u.grid.dimension
    r = u.grid.nodes
    if s < 0:
        cutoff = math.exp(s) * u.grid.r_max
        outside = r >= cutoff
        lost = float(u.grid.weights[outside] @ u.values[outside] ** 2)
        total = u.mass()
        if total > 0 and lost > MASS_LOSS_TOL * total:
            raise TruncationLossError(
                f"rescaling by s={s:g} would drop {lost / total:.3e} of the mass "
                f"(tolerance {MASS_LOSS_TOL:g})"
            )
    y = u.values
    h = u.grid.cell_widths
    slope = (y[1:] - y[:-1]) / h
    d = _pchip_slopes(h, slope)
    t = (d[:-1] + d[1:] - 2 * slope) / h
    x = np.exp(s) * r
    # x rises with r, so the queries inside [0, r_max] are a prefix
    inside = x[:np.searchsorted(x, r[-1], side="right")]
    k = np.minimum(np.searchsorted(r, inside, side="right") - 1, len(r) - 2)
    z = inside - r[k]
    zz = z * z
    cubic = (0.0 + y[k] + d[k] * z + ((slope[k] - d[k]) / h[k] - t[k]) * zz
             + (t[k] / h[k]) * (zz * z))
    sampled = np.zeros(len(r))
    sampled[:len(inside)] = np.where(np.isnan(cubic), 0.0, cubic)
    return u.with_values(math.exp(n * s / 2.0) * sampled)


def write_profile_csv(u: RadialFunction, path: str) -> None:
    """Serialize a radial profile: JSON grid header then (r, value) rows."""
    meta = {
        "dimension": int(u.grid.dimension),
        "scheme": u.grid.scheme,
        "n_cells": int(u.grid.n_cells),
        "r_max": u.grid.r_max,
    }
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("r,value\n")
        for r, v in zip(u.grid.nodes, u.values):
            fh.write(f"{r:.17g},{v:.17g}\n")


def read_profile_csv(path: str) -> RadialFunction:
    """Load a profile written by write_profile_csv."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing grid metadata header")
        meta = json.loads(header[1:].strip())
        column_line = fh.readline().strip()
        if column_line != "r,value":
            raise ValueError(f"{path}: unexpected column header {column_line!r}")
        data = np.loadtxt(fh, delimiter=",")
    grid = from_nodes(int(meta["dimension"]), data[:, 0], meta.get("scheme", "custom"))
    return RadialFunction(grid, data[:, 1])
