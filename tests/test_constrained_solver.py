"""Constrained minimization, saddle search, projection, classification.

Closed-form oracles: the fiber energy of the scaled GN extremal is a
sum of at most four powers of the scale in the extremal's norms, so
gn_fiber_energy is checked against the discrete energy of the
actually-scaled profile and against frozen values recomputed from the
norms in-test, and its exact wells and barriers against a dense log
scan of the same sum written here.  The same power terms built from a
profile's own norms, which the descent's fiber jump reads, are checked
against fiber_energy's value scaling.  Projection roots are checked
against a plain midpoint bisection written here.
Solver candidates must pass the report filters and reproduce frozen
energies from independent earlier runs of the same discretization.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import interp1d
from scipy.linalg import LinAlgError, solveh_banded

from kirchhoff_normalized import (
    Model,
    RadialFunction,
    SolveParams,
    affine_coefficient,
    classify,
    energy,
    fiber_energy,
    general_coefficient,
    gn_fiber_barrier,
    gn_fiber_energy,
    gn_fiber_min,
    gn_fiber_well,
    ground_state,
    make_exp_critical,
    make_grid,
    minimize_on_sphere,
    mountain_pass,
    multiplier_estimate,
    normalize_mass,
    pohozaev_project,
    power_nonlinearity,
    recommended_grid,
)
from kirchhoff_normalized import constrained_solver as cs
from kirchhoff_normalized.functional import CriticalPointCandidate, fiber_pohozaev
from kirchhoff_normalized.models import Nonlinearity
from kirchhoff_normalized.omega_thresholds import ThresholdSet
from kirchhoff_normalized.radial_grid import MAX_CELLS, MIN_CELLS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def affine_power(n, p, a=1.0, b=1.0):
    return Model(affine_coefficient(a, b), power_nonlinearity(p, n))


def bisect_threshold(model, lo, hi):
    """Mass radius where the fiber well depth crosses zero."""
    def depth(c):
        w = gn_fiber_well(model, c)
        return w[1] if w is not None else 1.0
    assert depth(lo) > 0 > depth(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if depth(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def shallow_kirchhoff():
    """N=5, p=2.9, weak quartic term: thresholds at desk scale."""
    model = affine_power(5, 2.9, b=0.001)
    c1 = bisect_threshold(model, 10.0, 500.0)
    return model, c1


@pytest.fixture(scope="module")
def n4_threshold_model():
    model = affine_power(4, 3.0)
    q = ground_state(4, 3.0)
    return model, q.q_l2


@pytest.fixture(scope="module")
def wide_minimizer_report(n4_threshold_model):
    model, c1 = n4_threshold_model
    return minimize_on_sphere(model, 1.05 * c1)


@pytest.fixture(scope="module")
def saddle_report(shallow_kirchhoff):
    model, c1 = shallow_kirchhoff
    return mountain_pass(model, 0.97 * c1)


def oracle_terms(n, p, a, b, c):
    """The fiber energy's four power terms (exponent, coefficient),
    unmerged, written out from the extremal's norms."""
    q = ground_state(n, p)
    big_a = c * c * q.grad_sq / q.mass
    ratio = c / q.q_l2
    terms = [(2.0, a * big_a / 2), (4.0, b * big_a**2 / 4),
             (n * (p - 2) / 2, -ratio**p * q.lp / p)]
    if q.crit is not None:
        qs = 2 * n / (n - 2)
        terms.append((qs, -ratio**qs * q.crit / qs))
    return terms


def oracle_energy(terms, t):
    return sum(k * np.asarray(t) ** e for e, k in terms)


def scan_extrema(terms, t_lo, t_hi):
    """Interior local minima and maxima in t of the fiber energy: a
    20 001-point scan in log t, each strict local extremum zoomed in on
    twice with 2 001 points between its scan neighbours."""
    def zoom(s, sign):
        for _ in range(2):
            k = int(np.argmin(sign * oracle_energy(terms, np.exp(s))))
            s = np.linspace(s[max(k - 1, 0)], s[min(k + 1, len(s) - 1)], 2001)
        return float(np.exp(s[1000]))
    s = np.linspace(math.log(t_lo), math.log(t_hi), 20001)
    v = oracle_energy(terms, np.exp(s))
    mid, left, right = v[1:-1], v[:-2], v[2:]
    found = []
    for sign in (1.0, -1.0):
        ks = 1 + np.flatnonzero((sign * mid < sign * left) & (sign * mid < sign * right))
        found.append([zoom(s[k - 1:k + 2], sign) for k in ks])
    return found


# (N, p, b, c, interior minima, interior maxima) on [GN_T_LO, GN_T_HI] at
# a = 1: the deep well, the well and barrier at 0.97 c1 (c1 = 50.7224),
# the positive well behind a barrier at c=45, mass-critical rows with no
# well, and the N=4 plunge
EXACT_GEOMETRY_CASES = [
    (5, 2.5, 1.0, 160.0, 1, 0),
    (5, 2.9, 0.001, 0.97 * 50.7224, 1, 1),
    (5, 3.0, 0.001, 45.0, 1, 1),
    (5, 2.8, 0.001, 3.0, 0, 0),
    (5, 2.8, 0.1, 4.0, 0, 0),
    (4, 3.0, 0.001, 22.0, 0, 0),
]


class TestFiberClosedForm:
    def test_matches_discrete_energy_of_scaled_extremal(self):
        model = affine_power(5, 2.5)
        c = 160.0
        t_star, j_star = gn_fiber_min(model, c)
        grid = recommended_grid(model, c, SolveParams())
        vals = cs._q_scaled_values(model, c, grid, t_star)
        u = RadialFunction(grid, vals)
        discrete = energy(model, u).total
        assert discrete == pytest.approx(j_star, rel=2e-3)

    def test_frozen_deep_well(self):
        model = affine_power(5, 2.5)
        t_star, j_star = gn_fiber_min(model, 160.0)
        assert t_star == pytest.approx(0.02449, rel=1e-3)
        assert j_star == pytest.approx(-133.8075, rel=1e-4)

    def test_well_and_barrier_bracket_the_threshold(self, shallow_kirchhoff):
        model, c1 = shallow_kirchhoff
        assert c1 == pytest.approx(50.7224, rel=1e-4)
        below = gn_fiber_well(model, 0.97 * c1)
        above = gn_fiber_well(model, 1.05 * c1)
        assert below is not None and below[1] > 0
        assert above is not None and above[1] < 0
        bar = gn_fiber_barrier(model, 0.97 * c1, below[0])
        assert bar is not None
        assert bar[1] > below[1]
        assert bar[0] < below[0]

    def test_no_interior_well_below_mass_critical_threshold(
            self, n4_threshold_model):
        model, c1 = n4_threshold_model
        assert gn_fiber_well(model, 0.95 * c1) is None
        well = gn_fiber_well(model, 1.05 * c1)
        assert well is not None and well[1] < 0

    def test_rejects_exponential_family(self):
        model = Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1))
        with pytest.raises(ValueError):
            gn_fiber_energy(model, 1.0, 1.0)

    def test_power_model_needs_affine_coefficient(self):
        model = Model(general_coefficient(lambda t: 1.0 + t,
                                          lambda t: t + t * t / 2, 1.0),
                      power_nonlinearity(3.0, 5))
        for call in (lambda: gn_fiber_energy(model, 45.0, 1.0),
                     lambda: minimize_on_sphere(model, 45.0),
                     lambda: mountain_pass(model, 45.0)):
            with pytest.raises(ValueError, match="affine"):
                call()

    @pytest.mark.parametrize("n, p, b, c, n_min, n_max", EXACT_GEOMETRY_CASES)
    def test_critical_points_match_a_dense_scan(self, n, p, b, c, n_min, n_max):
        terms = oracle_terms(n, p, 1.0, b, c)
        mins, maxs = scan_extrema(terms, cs.GN_T_LO, cs.GN_T_HI)
        assert (len(mins), len(maxs)) == (n_min, n_max)
        exact = cs._gn_fiber_terms(affine_power(n, p, b=b), c)
        for minima, scanned in ((True, mins), (False, maxs)):
            found = cs._fiber_extrema(exact, cs.GN_T_HI, minima)
            assert len(found) == len(scanned)
            for (t, j), t_scan in zip(found, scanned):
                assert t == pytest.approx(t_scan, rel=1e-6)
                assert j == pytest.approx(oracle_energy(terms, t), rel=1e-12)

    @pytest.mark.parametrize("n, p, b, c, n_min, n_max", EXACT_GEOMETRY_CASES)
    def test_returned_points_are_critical_to_rounding(self, n, p, b, c,
                                                      n_min, n_max):
        model = affine_power(n, p, b=b)
        terms = oracle_terms(n, p, 1.0, b, c)
        well = gn_fiber_well(model, c)
        bar = None if well is None else gn_fiber_barrier(model, c, well[0])
        points = [pt for pt in (well, bar) if pt is not None]
        assert len(points) == min(n_min, 1) + min(n_max, 1)
        for t, _ in points:
            slope = [e * k * t**e for e, k in terms]
            assert abs(sum(slope)) <= 1e-12 * sum(map(abs, slope))

    @pytest.mark.parametrize("n, p", [(5, 2.5), (5, 2.8), (4, 2.5), (4, 3.0)])
    def test_equal_exponents_merge(self, n, p):
        # mass-critical p puts N(p-2)/2 on 2, and N=4 puts 2* on 4
        raw = oracle_terms(n, p, 1.0, 0.001, 3.0)
        terms = cs._gn_fiber_terms(affine_power(n, p, b=0.001), 3.0)
        exponents = [e for e, _ in terms]
        assert exponents == sorted(exponents)
        assert len(terms) == 4 - (n == 4) - (p == 2 + 4 / n)
        for e, k in terms:
            assert k == pytest.approx(sum(k_raw for e_raw, k_raw in raw
                                          if abs(e_raw - e) <= 1e-12), rel=1e-12)

    def test_window_edges(self):
        # mass-critical rows spread to the lower edge, the N=4 plunge
        # runs to the upper one
        for b in (0.001, 0.1):
            for c in (1.0, 2.0, 3.0, 4.0):
                assert gn_fiber_min(affine_power(5, 2.8, b=b), c)[0] == cs.GN_T_LO
        t, j = gn_fiber_min(affine_power(4, 3.0, b=0.001), 22.0)
        assert t == cs.GN_T_HI
        assert j == pytest.approx(oracle_energy(
            oracle_terms(4, 3.0, 1.0, 0.001, 22.0), cs.GN_T_HI), rel=1e-12)


class TestGridSizing:
    def test_widens_for_spread_minimizer(self, n4_threshold_model):
        model, c1 = n4_threshold_model
        grid = recommended_grid(model, 1.05 * c1, SolveParams())
        assert grid.r_max > 1000.0

    def test_keeps_default_when_fiber_monotone(self, n4_threshold_model):
        model, c1 = n4_threshold_model
        params = SolveParams()
        grid = recommended_grid(model, 0.95 * c1, params)
        assert grid.r_max == pytest.approx(params.r_max)

    def test_exponential_keeps_default(self):
        model = Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1))
        params = SolveParams()
        grid = recommended_grid(model, 1.0, params)
        assert grid.r_max == pytest.approx(params.r_max)
        assert grid.dimension == 2


class TestProjection:
    # mass-subcritical p: the balance changes sign exactly once, and the
    # root of a unit-mass Gaussian is a spread profile, so the grid must
    # hold the spread image
    def setup_method(self):
        self.model = affine_power(5, 2.5)
        self.grid = make_grid(5, 2000.0, 4000, "graded")
        vals = np.exp(-0.5 * (self.grid.nodes / 8.0) ** 2)
        self.c = 1.0
        self.u = normalize_mass(RadialFunction(self.grid, vals), self.c)

    def test_root_matches_plain_bisection(self):
        s_star, v = pohozaev_project(self.model, self.u, self.c)

        def g(s):
            return fiber_pohozaev(self.model, self.u, s)

        lo, hi = s_star - 0.05, s_star + 0.05
        glo, ghi = g(lo), g(hi)
        assert glo * ghi < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) * glo > 0:
                lo = mid
            else:
                hi = mid
        assert s_star == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        assert abs(g(s_star)) < 1e-8

    def test_balance_split_at_the_root(self):
        s_star, _ = pohozaev_project(self.model, self.u, self.c)
        n, p = 5, 2.5
        qs = 2.0 * n / (n - 2)
        scale = math.exp(s_star)
        g = self.u.grad_norm_sq() * scale**2
        lp = self.u.lp_norm(p) ** p * scale ** (n * (p - 2) / 2)
        lc = self.u.lp_norm(qs) ** qs * scale ** (n * (qs - 2) / 2)
        lhs = self.model.coefficient.M(g) * g
        rhs = n * (p - 2) / (2 * p) * lp + lc
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_projected_profile_is_on_the_sphere(self):
        s_star, v = pohozaev_project(self.model, self.u, self.c)
        assert v.mass() == pytest.approx(self.c**2, rel=1e-9)

    def test_near_critical_point_projects_to_small_shift(
            self, wide_minimizer_report):
        cand = wide_minimizer_report.candidate
        model = affine_power(4, 3.0)
        c = math.sqrt(cand.u.mass())
        s_star, _ = pohozaev_project(model, cand.u, c, s_range=(-0.5, 0.5))
        assert abs(s_star) < 1e-4

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            pohozaev_project(self.model, self.u, 2.0 * self.c)

    def test_rootless_range_raises(self):
        with pytest.raises(cs.FiberMonotoneError):
            pohozaev_project(self.model, self.u, self.c, s_range=(3.0, 4.0))

    def test_rejects_bad_mass(self):
        # c = -1 has c^2 on the sphere, and used to flip the profile's sign
        for bad in (-1.0, math.nan, True):
            with pytest.raises(ValueError):
                pohozaev_project(self.model, self.u, bad)

    def test_balance_roots_carry_the_slope_sign(self, shallow_kirchhoff):
        # the GN extremal at the well scale of the saddle regime: its fiber
        # rises from the spread side to a barrier, then falls into the well
        model, c1 = shallow_kirchhoff
        c = 0.97 * c1
        t_well, _ = gn_fiber_well(model, c)
        t_bar, _ = gn_fiber_barrier(model, c, t_well)
        grid = recommended_grid(model, c, SolveParams())
        u = normalize_mass(RadialFunction(
            grid, cs._q_scaled_values(model, c, grid, t_well)), c)
        roots = cs._balance_roots(model, u, math.log(t_bar / t_well) - 1.0, 0.5, 241)
        assert [rising for _, rising in roots] == [False, True]

        def g(s):
            return fiber_pohozaev(model, u, s)
        for s, rising in roots:
            assert (g(s + 1e-6) - g(s - 1e-6) > 0.0) == rising


class TestMinimize:
    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError, match="starts is empty"):
            minimize_on_sphere(affine_power(4, 2.5), 1.0, starts=[])

    def test_subcritical_always_attained(self):
        rep = minimize_on_sphere(affine_power(4, 2.5), 1.0)
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy < 0
        assert rep.candidate.lam < 0

    def test_frozen_subcritical_n5(self):
        rep = minimize_on_sphere(affine_power(5, 2.2), 1.0)
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy == pytest.approx(-0.0756571535, rel=1e-6)
        assert rep.candidate.lam == pytest.approx(-0.17021958, rel=1e-5)

    def test_wide_minimizer_above_threshold(self, wide_minimizer_report):
        rep = wide_minimizer_report
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy == pytest.approx(-0.00063039607, rel=1e-4)
        assert rep.candidate.lam == pytest.approx(-5.8719e-05, rel=1e-3)
        assert rep.candidate.lam < 0

    def test_nothing_passes_below_threshold(self, n4_threshold_model):
        model, c1 = n4_threshold_model
        rep = minimize_on_sphere(model, 0.5 * c1)
        assert rep.status == "no_nontrivial_solution_found"
        assert rep.candidate is None
        assert rep.infimum_estimate >= -1e-6

    def test_minimizer_not_the_saddle_behind_a_barrier(self):
        # the fiber has a positive well (J = 51.58) behind a barrier; the
        # GN restart starts in the well and converges to the local
        # minimizer, below the mountain-pass level I = 52.166; the infimum
        # estimate is a lower restart that the filters reject, and an
        # early polish that climbed to a critical point would raise it
        rep = minimize_on_sphere(affine_power(5, 3.0, b=0.001), 45.0)
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy == pytest.approx(43.8123, rel=1e-5)
        assert rep.candidate.lam == pytest.approx(-0.13283, rel=1e-3)
        assert rep.infimum_estimate == pytest.approx(4.0124, rel=1e-4)
        # the w=0.5 restart's early polish descends from I = 62.1 onto the
        # saddle; only its Morse index (1) refuses it
        assert not any("52.166" in note for note in rep.notes)

    def test_truncated_flow_does_not_end_on_the_saddle(self):
        # after 8 iterations from this Gaussian the end-of-flow polish
        # would converge to the mountain-pass saddle (I = 52.166); the
        # descent refuses it, so the unconverged restart is rejected
        model = affine_power(5, 3.0, b=0.001)
        params = SolveParams(restarts=1, max_iter=8)
        grid = recommended_grid(model, 45.0, params)
        start = RadialFunction(grid, np.exp(-0.5 * (grid.nodes / 2.0) ** 2))
        rep = minimize_on_sphere(model, 45.0, params, starts=[start])
        assert rep.status == "no_nontrivial_solution_found"
        assert rep.candidate is None
        assert not any("52.166" in note for note in rep.notes)

    def test_gaussian_starts_do_not_polish_up_to_the_saddle(self):
        # from these Gaussians a Newton polish converges to the
        # mountain-pass saddle (I = 52.166), above the flow's energy; the
        # descent refuses that climb and that index, so no restart reports
        # the saddle
        model = affine_power(5, 3.0, b=0.001)
        params = SolveParams()
        grid = recommended_grid(model, 45.0, params)
        starts = [RadialFunction(grid, np.exp(-0.5 * (grid.nodes / w) ** 2))
                  for w in (1.0, 2.0, 4.0)]
        rep = minimize_on_sphere(model, 45.0, params, starts=starts)
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy == pytest.approx(43.8123, rel=1e-5)
        assert not any("52.166" in note for note in rep.notes)

    def test_deep_well_above_shallow_threshold(self, shallow_kirchhoff):
        model, c1 = shallow_kirchhoff
        rep = minimize_on_sphere(model, 1.5 * c1)
        assert rep.status == "converged_minimizer"
        assert rep.candidate.energy < 0
        assert rep.candidate.lam < 0

    def test_tied_restarts_report_the_first(self):
        # the GN start and the w=0.5 Gaussian reach one minimizer in 3 and
        # 42 iterations, with energies a few ulps apart; ordered so the
        # later start is the lower one, the pair must still report what
        # the earlier start reports alone
        model = affine_power(5, 2.5, b=0.001)
        params = SolveParams()
        grid = recommended_grid(model, 1.0, params)
        labeled = cs._initial_profiles(model, 1.0, grid, params,
                                       np.random.default_rng(0))
        runs = [(minimize_on_sphere(model, 1.0, params, starts=[u]), u)
                for _, u in labeled[:2]]
        (first, u_first), (second, u_second) = sorted(
            runs, key=lambda ru: ru[0].candidate.energy, reverse=True)
        gap = first.candidate.energy - second.candidate.energy
        assert 0.0 <= gap <= params.residual_tol**2
        assert first.iterations != second.iterations
        both = minimize_on_sphere(model, 1.0, params, starts=[u_first, u_second])
        assert both.status == first.status == cs.STATUS_MINIMIZER
        assert both.iterations == first.iterations
        assert both.candidate.energy == first.candidate.energy
        assert both.candidate.lam == first.candidate.lam
        assert both.candidate.u.values.tobytes() == first.candidate.u.values.tobytes()
        assert both.residual_history == first.residual_history
        assert both.energy_history == first.energy_history

    def test_candidate_invariants(self, wide_minimizer_report):
        cand = wide_minimizer_report.candidate
        c_sq = cand.u.mass()
        model = affine_power(4, 3.0)
        assert abs(c_sq - (1.05 * ground_state(4, 3.0).q_l2) ** 2) \
            <= 1e-8 * c_sq
        assert cand.pde_residual <= 1e-5 * cand.u.h1_norm()
        g = cand.u.grad_norm_sq()
        scale = model.coefficient.M(g) * g
        assert abs(cand.pohozaev_residual) <= 1e-5 * scale
        est = multiplier_estimate(model, cand.u, math.sqrt(c_sq))
        assert est.gap is not None and est.gap <= 1e-2

    def test_unbounded_descent_is_diverged(self):
        # b = 0.001 below 1/S^2 = 0.0095 at N=4, p=3: the quartic term
        # cannot hold the mass-critical power, the energy is unbounded below.
        # At c = 5 an early polish of the Gaussian restarts would climb
        # from I = 9.72 to a critical point at I = 18.27; a descent must
        # not accept it as a minimizer
        model = affine_power(4, 3.0, b=0.001)
        for c, params, restarts in ((22.0, SolveParams(restarts=2, n_cells=400), 2),
                                    (5.0, SolveParams(), 6)):
            rep = minimize_on_sphere(model, c, params)
            assert rep.status == "diverged"
            assert rep.infimum_estimate == -math.inf
            assert rep.candidate is None
            assert rep.restarts_used == restarts
            assert sum("diverged (energy" in note for note in rep.notes) == 2

    def test_energy_history_non_increasing(self, wide_minimizer_report):
        hist = np.array(wide_minimizer_report.energy_history)
        slack = 1e-10 * (1.0 + np.abs(hist[:-1]))
        assert np.all(np.diff(hist) <= slack)

    def test_deterministic_reruns(self):
        model = affine_power(4, 2.5)
        params = SolveParams(restarts=2)
        rep1 = minimize_on_sphere(model, 1.0, params)
        rep2 = minimize_on_sphere(model, 1.0, params)
        assert rep1.candidate.energy == rep2.candidate.energy
        assert rep1.candidate.lam == rep2.candidate.lam

    def test_rejects_bad_mass(self):
        for bad in (-1.0, 0.0, np.float32(-1.0), np.float64(np.inf),
                    np.float32(np.nan), "1.0"):
            with pytest.raises(ValueError):
                minimize_on_sphere(affine_power(4, 2.5), bad)

    def test_accepts_numpy_scalar_mass(self):
        params = SolveParams(restarts=2)
        model = affine_power(4, 2.5)
        plain = minimize_on_sphere(model, 1.0, params)
        for c in (np.float32(1.0), np.float64(1.0), np.int64(1)):
            rep = minimize_on_sphere(model, c, params)
            assert rep.status == plain.status == "converged_minimizer"
            assert rep.candidate.energy == plain.candidate.energy
            assert rep.candidate.lam == plain.candidate.lam

    def test_resolve_from_supplied_start(self, n4_threshold_model,
                                         wide_minimizer_report):
        model, c1 = n4_threshold_model
        params = SolveParams()
        cand = wide_minimizer_report.candidate
        rep = minimize_on_sphere(model, 1.05 * c1, params, starts=[cand.u])
        assert rep.status == "converged_minimizer"
        assert rep.restarts_used == 1
        assert abs(rep.candidate.energy - cand.energy) \
            <= 2 * params.residual_tol * (1 + abs(cand.energy))

    @pytest.mark.parametrize("r_max", [3.0, 12.0, 24.0, 30.0])
    def test_restart_starts_are_distinct(self, r_max):
        # r_max/6 is 0.5, 2 and 4 at the first three radii, which
        # GAUSSIAN_WIDTHS already holds
        params = SolveParams(restarts=6, n_cells=200)
        grid = make_grid(5, r_max, params.n_cells, "graded")
        labeled = cs._initial_profiles(affine_power(5, 2.5, b=0.1), 1.0, grid,
                                       params, np.random.default_rng(0))
        labels = [label for label, _ in labeled]
        assert len(set(labels)) == len(labels) == params.restarts
        if r_max == 24.0:
            assert "gaussian w=8" in labels

    def test_report_dict_shape(self, wide_minimizer_report):
        d = wide_minimizer_report.to_dict()
        assert d["status"] == "converged_minimizer"
        assert d["candidate"]["lambda"] < 0
        assert d["final_residual"] is not None
        assert isinstance(d["notes"], list)


class TestFlowStep:
    """The descent lags M (one banded solve per trial); the string and
    the saddle refinement relax it."""

    @pytest.fixture
    def start(self):
        model = affine_power(4, 3.0, b=0.019)
        grid = make_grid(4, 24.0, 2000, "graded")
        c = 22.0
        gauss = np.exp(-0.5 * (grid.nodes / 2.0) ** 2)
        u = normalize_mass(RadialFunction(grid, gauss), c)
        return model, u, c

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        solve = cs.solveh_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        monkeypatch.setattr(cs, "solveh_banded", counted)
        return calls

    def test_lagged_trial_makes_one_solve(self, start, monkeypatch):
        model, u, c = start
        calls = self.count_solves(monkeypatch)
        step = cs._trial(model, u, energy(model, u).total, cs.STEP, c,
                         lagged=True)
        assert step is not None
        assert len(calls) == 1

    def test_relaxed_trial_makes_several_solves(self, start, monkeypatch):
        model, u, c = start
        calls = self.count_solves(monkeypatch)
        step = cs._trial(model, u, energy(model, u).total, 0.2 * cs.STEP, c)
        assert step is not None
        assert len(calls) > 1

    def test_minimizer_flow_solves_once_per_trial(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        trials = []
        trial = cs._trial

        def counted_trial(*args, **kwargs):
            trials.append(1)
            return trial(*args, **kwargs)
        monkeypatch.setattr(cs, "_trial", counted_trial)
        minimize_on_sphere(affine_power(4, 3.0, b=0.019), 22.0,
                           SolveParams(restarts=1, max_iter=30))
        assert trials and len(calls) == len(trials)

    def test_minimizer_flow_evaluates_f_once_per_iterate(self, monkeypatch):
        # every f(u) and F(u) of the flow, tau retries and the final polish
        # included, comes from the profile's cache, one joint evaluation
        # of the power pair per profile
        seen = []
        joint = Nonlinearity._power_f_and_F

        def counted(nl, u):
            seen.append(np.asarray(u, dtype=float).tobytes())
            return joint(nl, u)
        # the r_max/2 Gaussian on the widened grid needs 200 iterations
        # to converge, so the flow runs all 30, with three polish attempts
        # that do not end it (at iterations 11, 14 and 20: the first
        # converges but climbs, the others fail) and their fiber jumps
        model = affine_power(4, 3.0, b=0.019)
        params = SolveParams(restarts=1, max_iter=30)
        grid = recommended_grid(model, 22.0, params)
        start = RadialFunction(
            grid, np.exp(-0.5 * (grid.nodes / (grid.r_max / 2.0)) ** 2))
        monkeypatch.setattr(Nonlinearity, "_power_f_and_F", counted)
        report = minimize_on_sphere(model, 22.0, params, starts=[start])
        assert report.iterations == 30
        assert len(seen) > 30 and len(set(seen)) == len(seen)

    @staticmethod
    def record_polishes(monkeypatch, succeed_after):
        """Flow iteration of every polish attempt; the polish fails for the
        first succeed_after attempts and then runs for real.

        The flow evaluates the multiplier once per iteration before it
        tries a polish, and once more after its loop, so the count of
        those evaluations at a polish call is the iteration it came in.
        """
        evaluations = []
        attempts = []
        lam_of = cs.lagrange_multiplier
        polish = cs._newton_polish

        def counted(*args):
            evaluations.append(1)
            return lam_of(*args)

        def recorded(model, u, lam, c, tol_norm):
            attempts.append(len(evaluations))
            if len(attempts) <= succeed_after:
                return u, math.inf, False
            return polish(model, u, lam, c, tol_norm)
        monkeypatch.setattr(cs, "lagrange_multiplier", counted)
        monkeypatch.setattr(cs, "_newton_polish", recorded)
        return attempts

    def test_polish_attempts_back_off_geometrically(self, monkeypatch):
        attempts = self.record_polishes(monkeypatch, succeed_after=math.inf)
        max_iter = 1000
        report = minimize_on_sphere(affine_power(4, 3.0, b=0.019), 22.0,
                                    SolveParams(restarts=1, max_iter=max_iter))
        assert report.iterations == max_iter
        # the last call is the final polish after the loop
        assert attempts[-1] == max_iter + 1
        gaps = np.diff(attempts[:-1])
        assert gaps[0] >= cs.STALL_WINDOW
        assert all(later >= 2 * earlier for earlier, later in zip(gaps, gaps[1:]))
        assert len(attempts) - 1 <= math.log2(max_iter / cs.STALL_WINDOW) + 2

    def test_polish_retried_past_four_failures(self, monkeypatch):
        # a flow that reaches the Newton basin only after five failed
        # polishes still converges before max_iter
        attempts = self.record_polishes(monkeypatch, succeed_after=5)
        report = minimize_on_sphere(affine_power(4, 3.0, b=0.019), 22.0,
                                    SolveParams(restarts=1, max_iter=1000))
        assert report.status == cs.STATUS_MINIMIZER
        assert len(attempts) >= 6
        assert report.iterations == attempts[5] < 1000

    def test_non_finite_step_is_a_rejected_trial(self, start, monkeypatch):
        model, u, c = start
        monkeypatch.setattr(
            cs, "_implicit_step",
            lambda model, u, *args: u.with_values(np.full_like(u.values, np.nan)))
        assert cs._trial(model, u, energy(model, u).total, cs.STEP, c,
                         lagged=True) is None


def gn_terms_before_fiber_terms(model, c):
    """_gn_fiber_terms as written before it became a call of _fiber_terms:
    the reference its bits must keep."""
    q = ground_state(model.nonlinearity.dimension, model.nonlinearity.p)
    co = model.coefficient
    n, p = q.dimension, q.p
    big_a = c * c * q.grad_sq / q.mass
    raw = [(2.0, 0.5 * co.a * big_a), (4.0, 0.25 * co.b * big_a * big_a),
           (0.5 * n * (p - 2.0), -(c / q.q_l2) ** p * q.lp / p)]
    if model.nonlinearity.include_critical and q.crit is not None:
        qs = 2.0 * n / (n - 2.0)
        raw.append((qs, -(c / q.q_l2) ** qs * q.crit / qs))
    merged = {}
    for e, k in raw:
        key = next((e_in for e_in in merged if abs(e_in - e) <= 1e-12), e)
        merged[key] = merged.get(key, 0.0) + k
    return sorted(merged.items())


class TestFiberJump:
    """A stalled descent dilates its iterate to the deepest well of the
    iterate's own fiber, whose power terms come from the iterate's norms."""

    # (N, p, b, c), each c with a negative GN fiber well
    MODELS = [(4, 3.0, 0.019, 22.0), (5, 2.9, 0.001, 60.0), (3, 3.5, 1.0, 30.0),
              (2, 3.0, 0.5, 3.0)]

    @staticmethod
    def profile_terms(model, u):
        nl = model.nonlinearity
        crit = None
        if nl.include_critical:
            crit = u.grid.integrate(np.abs(u.values) ** (2 * nl.dimension / (nl.dimension - 2)))
        return cs._fiber_terms(model, u.grad_norm_sq(),
                               u.grid.integrate(np.abs(u.values) ** nl.p), crit)

    @staticmethod
    def gaussians(n, c):
        grid = make_grid(n, 300.0, 1500, "graded")
        return [normalize_mass(RadialFunction(grid, np.exp(-0.5 * (grid.nodes / w) ** 2)
                                              * (1.0 + k * grid.nodes)), c)
                for w, k in ((0.7, 0.0), (3.0, 1.0), (9.0, 0.0))]

    @pytest.mark.parametrize("n, p, b, c", MODELS)
    def test_terms_match_value_scaled_fiber_energy(self, n, p, b, c):
        # oracle: functional.fiber_energy, which scales the sampled values
        # and evaluates M_hat and F on them
        model = affine_power(n, p, b=b)
        for u in self.gaussians(n, c):
            terms = self.profile_terms(model, u)
            for s in (-2.0, -0.5, 0.0, 0.3, 1.5):
                t = math.exp(s)
                scale = sum(abs(k) * t**e for e, k in terms)
                assert abs(cs._fiber_value(terms, t) - fiber_energy(model, u, s)) \
                    <= 1e-12 * scale

    @pytest.mark.parametrize("n, p, b", [(4, 3.0, 0.019), (5, 2.9, 0.001), (3, 3.5, 1.0),
                                         (2, 3.0, 0.5), (5, 2.8, 0.1), (4, 2.5, 0.001)])
    @pytest.mark.parametrize("c", [0.5, 3.0, 22.0, 0.97 * 50.7224])
    def test_gn_terms_keep_their_bits(self, n, p, b, c):
        model = affine_power(n, p, b=b)
        assert cs._gn_fiber_terms(model, c) == gn_terms_before_fiber_terms(model, c)

    @pytest.mark.parametrize("n, p, b, c", MODELS)
    def test_jump_never_raises_the_energy(self, n, p, b, c):
        model = affine_power(n, p, b=b)
        jumped = 0
        for u in self.gaussians(n, c):
            e = energy(model, u).total
            v, ev = cs._fiber_jump(model, u, e, c)
            assert ev <= e
            assert ev == energy(model, v).total
            assert abs(v.mass() - c * c) <= 1e-12 * c * c
            jumped += v is not u
            # a dilated profile not below the current energy is dropped
            floor = ev - 1e-3 * (1.0 + abs(ev))
            assert cs._fiber_jump(model, u, floor, c) == (u, floor)
        assert jumped

    def test_other_models_never_jump(self):
        power = power_nonlinearity(3.0, 4)
        grid = make_grid(4, 24.0, 400, "graded")
        u = normalize_mass(RadialFunction(grid, np.exp(-0.5 * (grid.nodes / 6.0) ** 2)), 3.0)
        for model in (Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1)),
                      Model(general_coefficient(lambda t: 1.0 + t,
                                                lambda t: t + t * t / 2, 1.0), power)):
            v, ev = cs._fiber_jump(model, u, 0.25, 3.0)
            assert v is u and ev == 0.25

    def test_spread_restart_reaches_the_well_quickly(self):
        # without the jump the r_max/6 Gaussian at the quick-start point
        # crept along its nearly flat fiber for 1 281 iterations
        model, c = affine_power(4, 3.0, b=0.019), 22.0
        params = SolveParams()
        grid = recommended_grid(model, c, params)
        labeled = cs._initial_profiles(model, c, grid, params,
                                       np.random.default_rng(0))
        (gn_label, gn_start), (spread_label, spread_start) = labeled[0], labeled[5]
        assert gn_label.startswith("gn extremal")
        assert spread_label == f"gaussian w={grid.r_max / 6.0:g}"
        gn = cs._flow(model, gn_start, c, params)
        spread = cs._flow(model, spread_start, c, params)
        assert gn.flag == spread.flag == "converged"
        assert spread.iterations <= 40
        assert spread.energy == pytest.approx(gn.energy, rel=1e-9)

    def test_restart_evidence_kept(self):
        # a jump shortens restarts, it never drops one: the quick-start
        # and zero-infimum rows keep 6, the nonexistence row 12
        quick = Model(affine_coefficient(1.0, 0.019), power_nonlinearity(3.0, 4))
        for c, status in ((22.0, cs.STATUS_MINIMIZER), (10.0, cs.STATUS_NONE_FOUND)):
            rec = classify(quick, c)
            assert (rec.observed_status, rec.report.restarts_used) == (status, 6)
            assert rec.agreement == "corroborated"
        model = affine_power(4, 3.5)
        rec = classify(model, 0.5 * rec_c0(model), SolveParams(restarts=12))
        assert (rec.observed_status, rec.report.restarts_used) == (cs.STATUS_NONE_FOUND, 12)
        assert rec.agreement == "corroborated"


class TestMorseIndex:
    """_tangent_index: Sturm count plus a 2x2 Schur complement, checked
    against the dense Hessian projected on the sphere's tangent space."""

    def test_negative_pivots_count_negative_eigenvalues(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            k = int(rng.integers(1, 30))
            d = rng.normal(size=k) + rng.uniform(-1.0, 3.0)
            off = rng.normal(size=k - 1) * rng.uniform(0.0, 2.0)
            dense = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
            assert cs._negative_pivots(d, off) \
                == int(np.sum(np.linalg.eigvalsh(dense) < 0.0))

    @pytest.mark.parametrize("b", [0.0, 0.05, 1.0])
    def test_matches_the_dense_tangent_hessian(self, b):
        # a 120-cell uniform grid, and a graded grid of the kind the
        # solvers use, whose weights near the origin are down to 1e-18
        for n, grid in ((4, make_grid(4, 12.0, 120)), (5, make_grid(5, 24.0, 300, "graded"))):
            model = affine_power(n, 3.0, b=b)
            w = grid.weights
            sup, diag = grid.stiffness_band
            k = len(grid.nodes) - 1
            stiff = np.diag(diag[:k]) + np.diag(sup[1:k], 1) + np.diag(sup[1:k], -1)
            # W^-1/2 hess W^-1/2 is congruent to hess, so it has the same
            # inertia on the tangent space, whose normal becomes W^1/2 u;
            # unscaled, the graded grid's small eigenvalues sink below
            # rounding
            root = np.sqrt(w[:k])
            seen = set()
            for width in (0.7, 1.5, 3.0):
                u = normalize_mass(RadialFunction(
                    grid, 4.0 * np.exp(-0.5 * (grid.nodes / width) ** 2)), 3.0)
                g = u.grad_norm_sq()
                q = grid.stiffness_apply(u.values)[:k]
                fp = model.nonlinearity.f_prime(u.values)[:k]
                basis = np.linalg.svd((root * u.values[:k])[None, :])[2][1:].T
                for lam in (-3.0, -0.8, -0.1, 0.4, 2.0):
                    hess = model.coefficient.M(g) * stiff - np.diag(w[:k] * (fp + lam)) \
                        + 2.0 * model.coefficient.M_prime(g) * np.outer(q, q)
                    eig = np.linalg.eigvalsh(basis.T @ (hess / np.outer(root, root)) @ basis)
                    # every eigenvalue sign well above rounding (eps |eig|_max)
                    assert np.min(np.abs(eig)) > 1e-12 * np.max(np.abs(eig))
                    index = int(np.sum(eig < 0.0))
                    assert cs._tangent_index(model, u, lam) == index
                    seen.add(index)
            assert 0 in seen and len(seen) > 1

    def test_minimizer_has_index_zero(self, wide_minimizer_report,
                                      n4_threshold_model):
        model, _ = n4_threshold_model
        cand = wide_minimizer_report.candidate
        assert cs._tangent_index(model, cand.u, cand.lam) == 0

    def test_mountain_pass_saddle_has_index_one(self, saddle_report,
                                                shallow_kirchhoff):
        model, _ = shallow_kirchhoff
        cand = saddle_report.candidate
        assert cs._tangent_index(model, cand.u, cand.lam) == 1


class TestTridiagonalSolve:
    """solveh_banded is one LAPACK ptsv call with SciPy's bits."""

    @pytest.fixture
    def band(self):
        grid = make_grid(5, 30.0, 800, "graded")
        return grid, grid.stiffness_band

    @pytest.mark.parametrize("m, tau", [(1.0, 0.5), (3.7, 1e-3), (0.02, 40.0)])
    def test_matches_scipy_bit_for_bit(self, band, m, tau):
        grid, ab = band
        rhs = np.random.default_rng(0).standard_normal(grid.n_cells)
        keep = rhs.copy()
        ref_band = ab[:, :-1] * m
        ref_band[1] += grid.weights[:-1] / tau
        ref = solveh_banded(ref_band, rhs, lower=False, check_finite=False)
        x = cs.solveh_banded(m * ab[1, :-1] + grid.weights[:-1] / tau,
                             m * ab[0, 1:-1], rhs)
        assert np.array_equal(x, ref)
        assert np.array_equal(rhs, keep)

    @staticmethod
    def scipy_relaxed_step(model, u, tau):
        """The relaxed step written with scipy.linalg.solveh_banded on the
        full two-row band."""
        w = u.grid.weights
        rhs = w * (u.values / tau + model.nonlinearity.f(u.values))
        m = model.coefficient.M(u.grad_norm_sq())
        for k in range(cs.INNER_SOLVES):
            ab = u.grid.stiffness_band * m
            ab[1] += w / tau
            vals = np.zeros_like(u.values)
            vals[:-1] = solveh_banded(ab[:, :-1], rhs[:-1], check_finite=False)
            v = RadialFunction(u.grid, vals)
            if k == cs.INNER_SOLVES - 1:
                break
            m_new = model.coefficient.M(v.grad_norm_sq())
            if abs(m_new - m) <= 1e-12 * (1.0 + m):
                break
            m = 0.5 * (m + m_new)
        return vals, k + 1

    def test_relaxed_step_matches_a_scipy_loop(self):
        # several solves share one right-hand side, so a solve that wrote
        # into it would move every one after the first
        model = affine_power(5, 2.8, b=0.1)
        grid = make_grid(5, 24.0, 1000, "graded")
        u = normalize_mass(RadialFunction(grid, np.exp(-0.5 * grid.nodes**2)), 3.0)
        ref, solves = self.scipy_relaxed_step(model, u, 0.1)
        assert solves > 1
        assert np.array_equal(cs._implicit_step(model, u, 0.1, lagged=False).values, ref)

    def test_indefinite_band_raises_and_the_trial_fails(self):
        with pytest.raises(LinAlgError):
            cs.solveh_banded(np.array([1.0, -4.0, 4.0]), np.array([1.0, 1.0]),
                             np.ones(3))
        model = affine_power(4, 3.0, b=0.019)
        grid = make_grid(4, 24.0, 400, "graded")
        u = normalize_mass(RadialFunction(grid, np.exp(-0.5 * grid.nodes**2)), 22.0)
        # a negative step makes the diagonal w/tau + M diag(A) negative
        with pytest.raises(LinAlgError):
            cs._implicit_step(model, u, -1e-3, lagged=True)
        assert cs._trial(model, u, energy(model, u).total, -1e-3, 22.0,
                         lagged=True) is None


class TestGeneralTridiagonalSolve:
    """solve_banded is one LAPACK gtsv call with SciPy's bits, and the
    LAPACK routines are the ones scipy.linalg.lapack exposes."""

    @staticmethod
    def scipy_solve(band, rhs):
        return scipy.linalg.solve_banded((1, 1), band, rhs, check_finite=False)

    @pytest.mark.parametrize("shift", [0.0, 0.5, -3.0])
    def test_hessian_bands_match_scipy_bit_for_bit(self, saddle_report,
                                                   shallow_kirchhoff, shift):
        # the polish's three columns, the index's two and one alone; the
        # shifted bands are indefinite, so the elimination pivots
        model, _ = shallow_kirchhoff
        cand = saddle_report.candidate
        _, _, stiff, band = cs._hessian(model, cand.u, cand.lam + shift)
        k = band.shape[1]
        w, vals = cand.u.grid.weights[:k], cand.u.values[:k]
        keep = band.copy()
        for rhs in (np.column_stack([vals, stiff[:k] / w, w * vals]),
                    np.column_stack([stiff[:k] / w, vals]), vals.copy()):
            x = cs.solve_banded(band, rhs)
            ref = self.scipy_solve(band, rhs)
            assert x.shape == ref.shape
            assert x.tobytes() == ref.tobytes()
        assert np.array_equal(band, keep)

    @pytest.mark.parametrize("cols", [None, 1, 2, 3])
    def test_random_bands_match_scipy_bit_for_bit(self, cols):
        rng = np.random.default_rng(cols or 0)
        for n in (2, 3, 17, 400):
            band = rng.standard_normal((3, n))
            shape = (n,) if cols is None else (n, cols)
            rhs = rng.standard_normal(shape)
            keep = rhs.copy()
            x = cs.solve_banded(band, rhs)
            assert x.shape == shape
            assert x.tobytes() == self.scipy_solve(band, rhs).tobytes()
            assert np.array_equal(rhs, keep)

    def test_singular_band_raises(self):
        # rows (1, 1, 0), (1, 1, 0), (0, 1, 2): the first two are equal,
        # so elimination leaves an exact zero pivot
        band = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(LinAlgError, match="singular"):
            self.scipy_solve(band, np.ones(3))
        with pytest.raises(LinAlgError, match="singular"):
            cs.solve_banded(band, np.ones(3))
        assert cs.LinAlgError is LinAlgError is np.linalg.LinAlgError

    @staticmethod
    def fresh_python(*lines):
        """Run lines in a new interpreter, so that imports start empty."""
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", "\n".join(lines)],
                              capture_output=True, text=True, env=env, timeout=120)

    @pytest.mark.parametrize("first", ["package", "scipy"])
    def test_routines_are_scipys_in_either_import_order(self, first):
        package = "from kirchhoff_normalized import constrained_solver as cs"
        scipy_first = [
            "import scipy.linalg.lapack as lapack",
            # with no suffix to try, only reuse of the loaded module works
            "importlib.machinery.EXTENSION_SUFFIXES[:] = []",
            package,
        ]
        done = self.fresh_python(
            "import importlib.machinery, sys",
            *(scipy_first if first == "scipy"
              else [package, "import scipy.linalg.lapack as lapack"]),
            "mod = sys.modules['scipy.linalg._flapack']",
            "assert cs._flapack is mod and lapack._flapack is mod",
            "assert cs.dptsv is lapack.dptsv",
            "assert cs.dpttrf is lapack.dpttrf",
            "assert cs.dgtsv is lapack.dgtsv",
        )
        assert done.returncode == 0, done.stderr

    def test_missing_extension_names_its_folder(self):
        done = self.fresh_python(
            "import importlib.machinery",
            "importlib.machinery.EXTENSION_SUFFIXES[:] = []",
            "import kirchhoff_normalized",
        )
        assert done.returncode != 0
        assert "ImportError: SciPy's LAPACK extension _flapack is missing from" in done.stderr
        assert os.path.join("scipy", "linalg") in done.stderr


class TestMountainPass:
    def test_saddle_just_below_threshold(self, saddle_report):
        rep = saddle_report
        assert rep.status == "converged_mountain_pass"
        assert rep.candidate.lam < 0
        assert rep.candidate.energy == pytest.approx(19.9653, rel=1e-3)

    def test_saddle_sits_on_the_balance_manifold(self, saddle_report,
                                                 shallow_kirchhoff):
        model, _ = shallow_kirchhoff
        cand = saddle_report.candidate
        g = cand.u.grad_norm_sq()
        scale = model.coefficient.M(g) * g
        assert abs(cand.pohozaev_residual) <= 1e-5 * scale

    def test_level_ordering(self, saddle_report, shallow_kirchhoff):
        model, c1 = shallow_kirchhoff
        assert saddle_report.path_level > 0
        # the barrier estimate upper-bounds the refined saddle level
        assert saddle_report.path_level >= saddle_report.candidate.energy \
            - 1e-6 * (1 + abs(saddle_report.path_level))
        low = minimize_on_sphere(model, 0.97 * c1,
                                 SolveParams(restarts=2))
        assert saddle_report.path_level > min(low.infimum_estimate, 0.0)

    def test_refinement_keeps_a_polish_only_at_index_one(self, saddle_report,
                                                         shallow_kirchhoff, monkeypatch):
        # the refinement's first polish converges at Morse index 1 and the
        # refinement stops there; read as a well (index 0), the same
        # polish is refused and the flow runs on to max_iter
        assert saddle_report.iterations == 1
        model, c1 = shallow_kirchhoff
        polishes = []
        polish = cs._newton_polish

        def counted(*args):
            polishes.append(args)
            return polish(*args)
        monkeypatch.setattr(cs, "_newton_polish", counted)
        monkeypatch.setattr(cs, "_tangent_index", lambda model, u, lam: 0)
        rep = mountain_pass(model, 0.97 * c1, SolveParams(max_iter=4))
        assert len(polishes) >= 1
        assert rep.iterations == 4
        assert rep.status == cs.STATUS_NONE_FOUND

    @pytest.mark.parametrize("model, c, r_max", [
        (affine_power(4, 3.0), 5.0, 4.0),
        (affine_power(5, 2.9, b=0.001), 5.0, 4.0),
        (Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1)), 1.0, 3.0),
    ])
    def test_domain_too_small_for_the_path_is_a_value_error(self, model, c, r_max):
        # the path's spread endpoint does not fit in the domain: a limit
        # of the input, not a verdict on the saddle
        with pytest.raises(ValueError, match=rf"domain radius r_max = {r_max:g} "):
            mountain_pass(model, c, SolveParams(r_max=r_max))

    def test_string_below_its_endpoints_has_no_saddle_geometry(self, monkeypatch):
        # N=4 with a weak quartic term at large c: the Gaussian fiber
        # plunges, but the relaxed string never rises above its spread
        # left endpoint, so there is no barrier to refine
        sweeps = []
        bead_sweeps = cs._bead_sweeps

        def counted(*args):
            sweeps.append(args)
            return bead_sweeps(*args)
        monkeypatch.setattr(cs, "_bead_sweeps", counted)
        rep = mountain_pass(affine_power(4, 2.5, b=0.001), 30.0)
        assert rep.status == cs.STATUS_NONE_FOUND
        assert len(sweeps) == 1
        assert any(note.startswith("no saddle geometry: the relaxed string")
                   for note in rep.notes)
        assert rep.candidate is None and rep.path_level is None

    def test_exponential_reports_level_without_asserting_convergence(self):
        model = Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1))
        rep = mountain_pass(model, 1.0)
        assert rep.status in ("no_nontrivial_solution_found",
                              "converged_mountain_pass")
        assert rep.path_level > 0
        assert any("dilation ceiling" in note for note in rep.notes)


class TestReparametrize:
    @pytest.fixture
    def string(self):
        grid = make_grid(4, 10.0, 300, scheme="graded")
        rng = np.random.default_rng(11)
        return [RadialFunction(grid, rng.standard_normal(len(grid.nodes)))
                for _ in range(cs.BEADS)]

    def test_matches_interp1d_bit_for_bit(self, string):
        c = 3.0
        w = string[0].grid.weights
        rows = np.array([u.values for u in string])
        gaps = np.sqrt(np.maximum(0.0, np.array(
            [w @ (rows[j + 1] - rows[j]) ** 2 for j in range(len(rows) - 1)])))
        cum = np.concatenate([[0.0], np.cumsum(gaps)])
        cum += np.arange(len(rows)) * (1e-14 * (1.0 + cum[-1]))
        oracle = interp1d(cum, rows, axis=0, assume_sorted=True)(
            np.linspace(cum[0], cum[-1], len(rows)))
        fresh = cs._reparametrize(string, c)
        assert len(fresh) == len(string)
        assert fresh[0] is string[0] and fresh[-1] is string[-1]
        for bead, row in zip(fresh[1:-1], oracle[1:-1]):
            expected = normalize_mass(RadialFunction(bead.grid, row), c)
            assert np.array_equal(bead.values, expected.values)

    def test_collapsed_string_is_none(self, string):
        assert cs._reparametrize([string[0]] * cs.BEADS, 3.0) is None
        copies = [RadialFunction(string[0].grid, string[0].values.copy())
                  for _ in range(cs.BEADS)]
        assert cs._reparametrize(copies, 3.0) is None


class TestClassify:
    def test_attained_branch_corroborated(self, n4_threshold_model):
        model, c1 = n4_threshold_model
        rec = classify(model, 1.2 * c1)
        assert rec.predicted == "ground_state"
        assert rec.observed_status == "converged_minimizer"
        assert rec.infimum_sign == "negative"
        assert rec.multiplier < 0
        assert rec.agreement == "corroborated"

    def test_nonexistence_corroborated(self):
        model = affine_power(4, 3.5)
        rec = classify(model, 0.5 * rec_c0(model),
                       SolveParams(restarts=12))
        assert rec.predicted == "no_solution"
        assert rec.observed_status == "no_nontrivial_solution_found"
        # the evidence is the restart count: every one of them must run
        assert rec.report.restarts_used == 12
        assert rec.agreement == "corroborated"

    def test_zero_infimum_corroborated_mass_critical(self):
        model = affine_power(5, 2.8)
        rec = classify(model, 1.0)
        assert rec.predicted == "zero_infimum_unattained"
        assert rec.observed_status == "no_nontrivial_solution_found"
        assert rec.infimum_estimate >= -1e-6
        assert rec.agreement == "corroborated"

    def test_exponential_defaults_to_report_only(self):
        model = Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1))
        rec = classify(model, 1.0)
        assert rec.predicted == "mountain_pass_regime"
        assert rec.observed_status == "not_run"
        assert rec.agreement == "inconclusive"
        assert rec.report is None and math.isnan(rec.infimum_estimate)
        with pytest.raises(TypeError):
            classify(model, 1.0, run_mountain_pass=True)

    def test_rejects_bad_mass(self):
        model = Model(affine_coefficient(1, 1), make_exp_critical(1, 1, 1))
        for bad in (-1.0, math.nan, "x", True):
            with pytest.raises(ValueError):
                classify(model, bad)

    def test_power_needs_affine_coefficient(self):
        model = Model(general_coefficient(lambda t: 1.0 + t,
                                          lambda t: t + t * t / 2, 1.0),
                      power_nonlinearity(2.5, 4))
        with pytest.raises(ValueError):
            classify(model, 1.0)

    def test_record_dict_shape(self, n4_threshold_model):
        model, c1 = n4_threshold_model
        rec = classify(model, 1.2 * c1)
        d = rec.to_dict()
        assert d["predicted"] == "ground_state"
        assert d["thresholds"]["c1_exact"] == pytest.approx(c1, rel=1e-12)
        assert d["agreement"] == "corroborated"


def _thresholds(n, p, existence_ok=True, **constants):
    """A ThresholdSet with placeholder norms and the given thresholds."""
    return ThresholdSet(n, p, 1.0, 1.0, 1.0, 1.0, 1.0, existence_ok, **constants)


def _outcome(status, infimum, energy=None, lam=None):
    """A SolveReport with a candidate of the given energy and multiplier."""
    cand = None if energy is None else CriticalPointCandidate(None, lam, energy, 0.0, 0.0)
    return cs.SolveReport(status, cand, infimum, None, 0, 1)


class TestClassificationTable:
    """Every return of the branch table, of the agreement verdicts and of
    the sign labels, on hand-built thresholds and reports; no solve runs."""

    @pytest.mark.parametrize("thr,c,branch", [
        (_thresholds(4, 3.0, existence_ok=False, c1_exact=2.0), 3.0,
         cs.BRANCH_UNCLASSIFIED),
        (_thresholds(4, 3.0, c1_exact=2.0), 2.0, cs.BRANCH_ZERO_INF),
        (_thresholds(4, 3.0, c1_exact=2.0), 2.5, cs.BRANCH_GROUND_STATE),
        (_thresholds(5, 2.8, c_star=2.0, c1_upper=3.0), 2.0, cs.BRANCH_ZERO_INF),
        (_thresholds(5, 2.8, c_star=2.0, c1_upper=3.0), 3.5,
         cs.BRANCH_GROUND_STATE),
        (_thresholds(5, 2.8, c_star=2.0, c1_upper=3.0), 2.5, cs.BRANCH_TRANSITION),
        (_thresholds(5, 2.8), 2.5, cs.BRANCH_TRANSITION),
        (_thresholds(5, 2.5), 1.0, cs.BRANCH_GROUND_STATE),
        (_thresholds(5, 3.0, c0=2.0), 1.0, cs.BRANCH_NO_SOLUTION),
        (_thresholds(5, 3.0, c0=2.0), 2.0, cs.BRANCH_TRANSITION),
        (_thresholds(5, 3.0), 1.0, cs.BRANCH_TRANSITION),
    ])
    def test_predicted_branch(self, thr, c, branch):
        assert cs._predicted_branch(thr, c) == branch

    @pytest.mark.parametrize("predicted,report,verdict", [
        (cs.BRANCH_NO_SOLUTION, _outcome(cs.STATUS_NONE_FOUND, 0.5), "corroborated"),
        (cs.BRANCH_NO_SOLUTION, _outcome(cs.STATUS_MINIMIZER, -1.0, -1.0, -0.5),
         "contradicted"),
        (cs.BRANCH_NO_SOLUTION, _outcome(cs.STATUS_NONE_FOUND, -1.0), "inconclusive"),
        (cs.BRANCH_NO_SOLUTION, _outcome(cs.STATUS_DIVERGED, -math.inf),
         "inconclusive"),
        (cs.BRANCH_GROUND_STATE, _outcome(cs.STATUS_MINIMIZER, -1.0, -1.0, -0.5),
         "corroborated"),
        (cs.BRANCH_GROUND_STATE, _outcome(cs.STATUS_MINIMIZER, 1.0, 1.0, -0.5),
         "inconclusive"),
        (cs.BRANCH_GROUND_STATE, _outcome(cs.STATUS_NONE_FOUND, 0.5), "inconclusive"),
        (cs.BRANCH_ZERO_INF, _outcome(cs.STATUS_NONE_FOUND, 0.0), "corroborated"),
        (cs.BRANCH_ZERO_INF, _outcome(cs.STATUS_MINIMIZER, -1.0, -1.0, -0.5),
         "contradicted"),
        (cs.BRANCH_ZERO_INF, _outcome(cs.STATUS_MINIMIZER, 0.0, 0.0, -0.5),
         "inconclusive"),
        (cs.BRANCH_TRANSITION, _outcome(cs.STATUS_MINIMIZER, -1.0, -1.0, -0.5),
         "inconclusive"),
        (cs.BRANCH_UNCLASSIFIED, _outcome(cs.STATUS_NONE_FOUND, 0.5), "inconclusive"),
    ])
    def test_agreement(self, predicted, report, verdict):
        assert cs._agreement(predicted, report) == verdict

    @pytest.mark.parametrize("value,label", [
        (-math.inf, "unbounded"),
        (math.inf, "undetermined"),
        (math.nan, "undetermined"),
        (-1e-3, "negative"),
        (1e-3, "positive"),
        (0.0, "zero"),
        (-0.5 * cs.ZERO_LEVEL_TOL, "zero"),
    ])
    def test_sign_label(self, value, label):
        assert cs._sign_label(value) == label


def rec_c0(model):
    from kirchhoff_normalized import gn_constant, threshold_set
    nl = model.nonlinearity
    q = ground_state(nl.dimension, nl.p)
    thr = threshold_set(model.coefficient.a, model.coefficient.b, nl.p,
                        nl.dimension, q.q_l2, gn_constant(nl.dimension, nl.p))
    assert thr.c0 is not None
    return thr.c0


class TestParamsValidation:
    @pytest.mark.parametrize("kw", [
        {"residual_tol": -1.0},
        {"max_iter": 0},
        {"restarts": 0},
        {"r_max": 0.0},
        {"r_max": math.inf},
        {"residual_tol": math.inf},
        {"residual_tol": math.nan},
        {"n_cells": -5},
        {"n_cells": MIN_CELLS - 1},
        {"max_iter": 2.5},
        {"restarts": 2.5},
        {"n_cells": 100.5},
        {"n_cells": 100.0},
        {"seed": 1.5},
        {"restarts": True},
        {"max_iter": np.True_},
        {"seed": False},
        {"seed": "3"},
        {"seed": -1},
        {"n_cells": MAX_CELLS + 1},
    ])
    def test_bad_params_rejected(self, kw):
        with pytest.raises(ValueError):
            SolveParams(**kw)

    def test_numpy_integers_accepted(self):
        params = SolveParams(max_iter=np.int64(50), restarts=np.int32(2),
                             n_cells=np.int64(400), seed=np.uint8(7))
        assert params.restarts == 2 and params.seed == 7
