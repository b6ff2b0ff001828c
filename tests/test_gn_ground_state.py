"""Shooting solver and interpolation constant.

Frozen oracle values:
  * (N, p) = (2, 4): the classical cubic ground state has
    Q(0) = 2.2062009... and |Q|_2^2 = 11.700877... (computed here and
    widely tabulated; quadrature limits agreement to ~1e-5).
  * (N, p) = (4, 3): height 4.335967150 from an independent adaptive
    integrator (scipy RK45, rtol 1e-10, events on the zero crossing,
    50-step bisection) run during development.
  * FROZEN_4000 and FROZEN_MIN_CELLS: repr(height), bisection_steps and
    repr(truncation_radius) of the shooting as it was before the
    bisection was replayed from a Brent bracket, when every midpoint
    was integrated.
"""

import math

import numpy as np
import pytest

from kirchhoff_normalized import RadialFunction, make_grid
from kirchhoff_normalized import gn_ground_state as gn
from kirchhoff_normalized.radial_grid import MAX_CELLS, MIN_CELLS

TOWNES_MASS = 11.700877


def _no_shoot(*args):
    raise AssertionError("a rejected domain must not start the shooting")

TOWNES_HEIGHT = 2.2062009
ORACLE_HEIGHT_4_3 = 4.335967150005


def closure_integrate(q0, kappa, m, p, n, h, n_steps, w_eq, record=None):
    """The shooting step with the stage derivative as a closure, the
    form the inlined _integrate must reproduce bit for bit; returns the
    class and the exit step."""
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

    def acc(rr, qq, vv):
        src = m * qq - math.copysign(abs(qq) ** pm1, qq)
        return src * inv_k - nm1 * vv / rr

    for i in range(1, n_steps):
        k1q = v
        k1v = acc(r, q, v)
        half = 0.5 * h
        k2q = v + half * k1v
        k2v = acc(r + half, q + half * k1q, v + half * k1v)
        k3q = v + half * k2v
        k3v = acc(r + half, q + half * k2q, v + half * k2v)
        k4q = v + h * k3v
        k4v = acc(r + h, q + h * k3q, v + h * k3v)
        q += h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        v += h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0
        r += h
        if record is not None:
            record[i + 1] = q
            continue
        if q <= 0.0:
            return gn._CROSSED, i
        if v > 0.0 and q < 0.5 * w_eq:
            return gn._TURNED, i
        if q > 1.05 * q0:
            return gn._TURNED, i
    if record is None:
        return gn._TURNED, n_steps
    return (gn._CROSSED if np.any(record <= 0.0) else gn._TURNED), n_steps


# (N, p, repr(height), bisection_steps, repr(truncation_radius))
FROZEN_4000 = [
    (2, 3.0, "2.3919564125110924", 46, "12.99"),
    (2, 4.0, "2.2062009210362277", 46, "17.250999999999998"),
    (2, 6.0, "2.0002909534974833", 46, "23.92778636857158"),
    (3, 2.5, "3.274227237739553", 45, "13.025"),
    (3, 3.0, "3.143762221540854", 45, "17.939999999999998"),
    (3, 4.0, "3.066996489691596", 45, "30.19484172834824"),
    (3, 5.5, "3.7319969885691453", 44, "72.1434891656898"),
    (4, 2.5, "4.304826348189934", 44, "16.118050755803775"),
    (4, 3.0, "4.335967168985292", 44, "24.920564289357497"),
    (4, 3.3, "4.496627650133242", 47, "33.78562497889132"),
    (4, 3.5, "4.714203259449405", 47, "40.807274369896355"),
    (4, 3.9, "6.147126624796358", 45, "96.0847210642774"),
    (5, 2.5, "5.7703890369273925", 46, "20.2735"),
    (5, 2.8, "6.085735290231122", 46, "28.499236842852465"),
    (5, 2.9, "6.286898585638939", 46, "34.32103123450692"),
    (5, 3.0, "6.57321552565115", 45, "37.60060107564772"),
    (5, 3.2, "7.710014094041151", 44, "61.45069026260003"),
    (6, 2.3, "7.558057732483579", 46, "18.245791354740245"),
    (6, 2.5, "7.9331866377305715", 45, "25.47469332494505"),
    (6, 2.9, "10.789669837257353", 46, "59.01371925556799"),
]
# every pair above at which the 16-cell shoot returned a profile, except
# (2, 4), whose class is not monotone in the height at 16 cells (see
# TestReplay.test_class_islands_on_a_16_cell_grid); the other eight
# raised OverflowError in the integrator
FROZEN_MIN_CELLS = [
    (3, 2.5, "2.1788489251011978", 45, "17.5"),
    (3, 3.0, "1.514682391372066", 46, "22.75"),
    (4, 2.5, "2.744268885064381", 45, "19.902104160113325"),
    (4, 3.0, "1.3332517975844524", 45, "6.894291116568838"),
    (4, 3.3, "0.9553693019547227", 46, "9.395335088679456"),
    (4, 3.5, "0.767829417583185", 46, "11.941262496067994"),
    (5, 2.5, "3.522525487728312", 44, "4.875"),
    (5, 2.8, "1.2850046081090245", 45, "7.708051796660422"),
    (5, 2.9, "0.9874023054502831", 45, "9.070039966835866"),
    (6, 2.3, "11.673157776538975", 45, "20.84637686916909"),
    (6, 2.5, "2.4561267564351397", 44, "5.970631248033997"),
]


def plain_bisection(n, p, r_max, n_cells, mids=None):
    """The shooting search with every midpoint integrated: the oracle
    the replayed bisection must match bit for bit.  Midpoints are
    appended to `mids` when it is given."""
    kappa, m = gn._coefficients(n, p)
    h = r_max / n_cells
    w_eq = m ** (1.0 / (p - 2.0))

    def crossed(q0):
        return gn._integrate(q0, kappa, m, p, n, h, n_cells, w_eq)[0] == gn._CROSSED

    lo, hi = w_eq, 10.0 * w_eq
    while not crossed(hi):
        lo, hi = hi, 10.0 * hi
    steps = 0
    while (hi - lo) > gn.BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mids is not None:
            mids.append(mid)
        if crossed(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
    return lo, steps


def spy_shoots(monkeypatch):
    """Record (r_max, n_cells, height, steps) per _shoot_core call."""
    real, calls = gn._shoot_core, []

    def spy(n, p, r_max, n_cells):
        out = real(n, p, r_max, n_cells)
        calls.append((r_max, n_cells, out[1], out[4]))
        return out
    monkeypatch.setattr(gn, "_shoot_core", spy)
    return calls


class TestReplay:
    @pytest.mark.parametrize("n,p,height,steps,r_cut,cells",
                             [(*row, 4000) for row in FROZEN_4000]
                             + [(*row, MIN_CELLS) for row in FROZEN_MIN_CELLS])
    def test_frozen_census(self, n, p, height, steps, r_cut, cells):
        if cells == gn.DEFAULT_CELLS:
            prof = gn.shoot(n, p, n_cells=cells)
            got = (prof.height, prof.bisection_steps, prof.truncation_radius)
        else:
            # shoot refuses the 16-cell grids (test_unresolved_grid_is_a_
            # shoot_error), so the replayed bisection is called directly
            _, got_height, _, _, got_steps, got_cut, _ = gn._shoot_core(
                n, p, gn.default_r_max(n, p), cells)
            got = (got_height, got_steps, got_cut)
        assert (repr(got[0]), got[1], repr(got[2])) == (height, steps, r_cut)

    @pytest.mark.parametrize("n,p", [(2, 4.0), (4, 3.0), (5, 2.9), (6, 2.5)])
    def test_the_shoot_matches_the_plain_bisection(self, n, p, monkeypatch):
        calls = spy_shoots(monkeypatch)
        prof = gn.shoot(n, p)
        r_max = gn.default_r_max(n, p)
        assert calls == [(r_max, 4000, *plain_bisection(n, p, r_max, 4000))]
        assert (prof.height, prof.bisection_steps) == calls[0][2:]

    def test_inconsistent_bracket_falls_back_to_integrating_every_midpoint(
            self, monkeypatch):
        n, p = 4, 3.0
        r_max = gn.default_r_max(n, p)
        height, steps = plain_bisection(n, p, r_max, 4000)
        lie, below_root = 0.99 * height, 0.999 * height
        real = gn._integrate

        def lying(q0, *args, **kw):
            # a turning height reported as crossing, below a true turning one
            return (gn._CROSSED, 1.0, 1) if q0 == lie else real(q0, *args, **kw)

        def inconsistent_bracket(fn, a, b, **kw):
            fn(lie)
            fn(below_root)
        monkeypatch.setattr(gn, "_integrate", lying)
        monkeypatch.setattr(gn, "brentq", inconsistent_bracket)
        prof = gn.shoot(n, p)
        assert (prof.height, prof.bisection_steps) == (height, steps)
        # every bisection midpoint was integrated
        assert prof.integrations >= steps

    def test_class_islands_on_a_16_cell_grid(self):
        # at 16 cells the (2, 4) class is not monotone in the height: a
        # crossing height lies between two turning ones, so no bracket
        # tells the class of an unintegrated midpoint, and the replay ends
        # at another class boundary than the plain bisection
        n, p, cells = 2, 4.0, MIN_CELLS
        kappa, m = gn._coefficients(n, p)
        h = gn.default_r_max(n, p) / cells
        classes = [gn._integrate(q0, kappa, m, p, n, h, cells, 1.0)[0] for q0 in (1.2, 1.234, 1.25)]
        assert classes == [gn._TURNED, gn._CROSSED, gn._TURNED]
        r_max = gn.default_r_max(n, p)
        assert plain_bisection(n, p, r_max, cells) == (1.2809715753617752, 46)
        _, height, _, _, steps, _, _ = gn._shoot_core(n, p, r_max, cells)
        assert (height, steps) == (1.3046870689465777, 46)
        # neither is the extremal's 2.206: shoot refuses the grid
        with pytest.raises(gn.ShootError, match="does not resolve"):
            gn.shoot(n, p, n_cells=cells)

    @pytest.mark.parametrize("n,p,cells", [(4, 3.739, 600), (3, 5.803, 4000)])
    def test_unresolved_heights_above_the_extremal(self, n, p, cells):
        # far above the extremal these grids do not resolve the first
        # steps, and the class has islands there: (4, 3.739) has a second
        # class boundary near 19.45 on 600 cells, and (3, 5.803) overflows
        # above about 10; the bracket stays within the factor of two the
        # bisection has pinned, so neither is visited
        height, steps = plain_bisection(n, p, gn.default_r_max(n, p), cells)
        prof = gn.shoot(n, p, n_cells=cells)
        assert (prof.height, prof.bisection_steps) == (height, steps)

    def test_midpoints_near_the_bracket_are_integrated(self, monkeypatch):
        n, p = 4, 3.0
        mids = []
        height, _ = plain_bisection(n, p, gn.default_r_max(n, p), 4000, mids)
        top = min(mid for mid in mids if mid > height)
        integrated = []
        real = gn._integrate

        def spy(q0, *args, **kw):
            integrated.append(q0)
            return real(q0, *args, **kw)

        def tightest_bracket(fn, a, b, **kw):
            fn(height)
            fn(top)
        monkeypatch.setattr(gn, "_integrate", spy)
        monkeypatch.setattr(gn, "brentq", tightest_bracket)
        assert gn.shoot(n, p).height == height
        margin = gn.BISECTION_REL_TOL * top
        near = {mid for mid in mids if height - margin < mid < top + margin} - {height, top}
        assert near and near <= set(integrated)

    def test_rounding_decides_the_class_well_inside_the_margin(self):
        # within a few hundred ulps of the height the class flips with the
        # rounding of the trajectory, so the replay integrates every
        # midpoint within BISECTION_REL_TOL (685 ulps here) of its bracket
        n, p = 5, 2.8
        kappa, m = gn._coefficients(n, p)
        h = gn.default_r_max(n, p) / 4000
        height = gn.ground_state(n, p).height
        ulp = math.ulp(height)
        classes = [gn._integrate(height + k * ulp, kappa, m, p, n, h, 4000,
                                 m ** (1.0 / (p - 2.0)))[0] for k in (228, 229, 232, 234)]
        assert classes == [gn._TURNED, gn._CROSSED, gn._TURNED, gn._CROSSED]
        assert 234 * ulp < gn.BISECTION_REL_TOL * height

    @pytest.mark.parametrize("n,p", [(2, 4.0), (3, 5.5), (4, 3.9), (5, 2.5), (6, 2.5)])
    def test_miss_has_no_kink_at_the_extremal(self, n, p):
        # the signed miss changes sign with the class and has the same
        # slope on both sides (Brent would be held to a linear rate by a
        # kink); exp(-2 mu r_exit) puts the sides 37% apart at (5, 2.9)
        kappa, m = gn._coefficients(n, p)
        h = gn.default_r_max(n, p) / 4000
        height = gn.ground_state(n, p).height
        for d in (1e-6, 1e-9):
            above = gn._integrate(height * (1 + d), kappa, m, p, n, h, 4000,
                                  m ** (1.0 / (p - 2.0)))
            below = gn._integrate(height * (1 - d), kappa, m, p, n, h, 4000,
                                  m ** (1.0 / (p - 2.0)))
            assert above[0] == gn._CROSSED and below[0] == gn._TURNED
            assert above[1] > 0.0 > below[1]
            assert above[1] / -below[1] == pytest.approx(1.0, abs=0.05)

    def test_phase_sweep_heights_within_the_integration_budget(self):
        # the three heights of the phase_sweep benchmark took 146
        # integrations when every midpoint was integrated
        assert sum(gn.ground_state(5, p).integrations for p in (2.5, 2.8, 3.0)) <= 90


class TestShoot:
    @pytest.mark.parametrize("n,p", [(5, 2.5), (5, 2.9), (4, 3.0), (4, 3.5), (2, 4.0)])
    def test_integrate_matches_the_closure_form(self, n, p):
        kappa, m = gn._coefficients(n, p)
        n_cells = 600
        h = gn.default_r_max(n, p) / n_cells
        w_eq = m ** (1.0 / (p - 2.0))
        height = gn.ground_state(n, p, n_cells=n_cells).height
        classes = set()
        for q0 in (w_eq, 0.5 * height, height, height * (1 + 1e-9), 1.3 * height, 10 * height):
            args = (q0, kappa, m, p, n, h, n_cells, w_eq)
            cls, _, step = gn._integrate(*args)
            assert (cls, step) == closure_integrate(*args)
            classes.add(cls)
            ours, ref = np.empty(n_cells + 1), np.empty(n_cells + 1)
            cls, _, step = gn._integrate(*args, record=ours)
            assert (cls, step) == closure_integrate(*args, record=ref)
            assert ours.tobytes() == ref.tobytes()
        # both outcomes occur, and a crossing trajectory with record runs
        # the negative-stage branch
        assert classes == {gn._CROSSED, gn._TURNED}
        assert np.min(ref) < 0.0

    def test_classical_cubic_case(self):
        prof = gn.shoot(2, 4.0)
        assert prof.height == pytest.approx(TOWNES_HEIGHT, rel=1e-6)
        assert prof.mass == pytest.approx(TOWNES_MASS, rel=2e-4)
        assert prof.kappa == 1.0 and prof.m == 1.0

    def test_height_against_independent_integrator(self):
        prof = gn.shoot(4, 3.0)
        assert prof.height == pytest.approx(ORACLE_HEIGHT_4_3, rel=1e-7)
        assert prof.kappa == 1.0 and prof.m == 0.5

    @pytest.mark.parametrize("n,p", [(2, 4.0), (4, 3.0), (5, 2.8), (3, 2.5)])
    def test_identity_chain(self, n, p):
        prof = gn.shoot(n, p)
        assert prof.identity_residual() < 1e-3
        assert prof.mass == pytest.approx(prof.grad_sq, rel=1e-3)
        assert prof.mass == pytest.approx(2.0 * prof.lp / p, rel=1e-3)

    def test_profile_shape(self):
        prof = gn.shoot(4, 3.0)
        vals = prof.profile.values
        assert vals[0] == prof.height
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-9 * prof.height)
        assert vals[-1] < 1e-8 * prof.height
        assert prof.truncation_radius <= prof.profile.grid.r_max

    def test_truncation_certificate(self):
        # the default domain is wide enough: twice the domain at the same
        # step leaves the mass in place
        prof = gn.shoot(2, 4.0)
        wide = gn.shoot(2, 4.0, r_max=2.0 * gn.default_r_max(2, 4.0), n_cells=8000)
        assert wide.mass == pytest.approx(prof.mass, rel=1e-6)

    def test_refinement_is_second_order(self):
        r_max = gn.default_r_max(2, 4.0)
        ref = gn.shoot(2, 4.0, r_max=r_max, n_cells=8000).mass
        e1 = abs(gn.shoot(2, 4.0, r_max=r_max, n_cells=1000).mass - ref)
        e2 = abs(gn.shoot(2, 4.0, r_max=r_max, n_cells=2000).mass - ref)
        assert 2.5 < e1 / e2 < 8.0

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            gn.shoot(4, 2.0)
        with pytest.raises(ValueError):
            gn.shoot(4, 4.0)  # p = 2^*
        with pytest.raises(ValueError):
            gn.shoot(1, 3.0)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError):
                gn.shoot(2, p)

    @pytest.mark.parametrize("kw", [{"r_max": 0.0}, {"r_max": -1.0},
                                    {"r_max": math.inf}, {"r_max": math.nan},
                                    {"n_cells": 0}, {"n_cells": 15},
                                    {"n_cells": MAX_CELLS + 1}])
    def test_rejects_bad_domain(self, kw, monkeypatch):
        monkeypatch.setattr(gn, "_shoot_core", _no_shoot)
        with pytest.raises(ValueError):
            gn.shoot(4, 3.0, **kw)
        with pytest.raises(ValueError):
            gn.ground_state(4, 3.0, **kw)

    @pytest.mark.parametrize("n, p, cells", [(2, 12.0, 4000), (2, 3.0, 16)])
    def test_overflowing_trajectory_is_a_shoot_error(self, n, p, cells):
        # the coarse step lets a trajectory blow up, where q**(p-1)
        # overflows; the shoot names the pair and the grid
        with pytest.raises(gn.ShootError, match=rf"\({n}, {p:g}\) on {cells} cells"):
            gn.shoot(n, p, n_cells=cells)
        with pytest.raises(gn.ShootError):
            gn.ground_state(n, p, n_cells=cells)

    @pytest.mark.parametrize("n,p,cells", [(2, 4.0, MIN_CELLS), (3, 5.5, 1000),
                                            (4, 3.739, 400)]
                             + [(*row[:2], MIN_CELLS) for row in FROZEN_MIN_CELLS])
    def test_unresolved_grid_is_a_shoot_error(self, n, p, cells):
        # the first step lowers these profiles by 0.25 to 0.56 of their
        # height; at (2, 4) on 16 cells the replay reads 1.305 against 2.206
        # with the norm chain off by 0.72, and it raised nothing
        with pytest.raises(gn.ShootError, match=rf"\({n}, {p:.9g}\) on {cells} cells"
                           ".* the first step lowers"):
            gn.shoot(n, p, n_cells=cells)
        with pytest.raises(gn.ShootError, match="does not resolve"):
            gn.ground_state(n, p, n_cells=cells)

    @pytest.mark.parametrize("n,p", [(3, 5.803), (4, 3.995), (4, 3.999999)])
    def test_default_grid_is_not_refused(self, n, p):
        # near 2* the default grid's first step drops more than
        # MAX_FIRST_DROP (default_r_max), but the solvers only start from
        # this extremal and size their grids by it, so it is returned as
        # before; one cell fewer on the same domain is refused
        prof = gn.shoot(n, p)
        assert 1.0 - prof.profile.values[1] / prof.height > gn.MAX_FIRST_DROP
        assert gn.ground_state(n, p).height == prof.height
        with pytest.raises(gn.ShootError, match="the first step lowers"):
            gn.shoot(n, p, r_max=gn.default_r_max(n, p), n_cells=gn.DEFAULT_CELLS - 1)

    @pytest.mark.parametrize("n,p,cells", [(4, 3.739, 600), (2, 4.0, 200)])
    def test_coarse_resolved_grid_passes_the_first_step_check(self, n, p, cells):
        # these grids drop 0.032 and 0.016 of the height in the first step,
        # with heights within 0.8% and 0.2% of the default grid's
        prof = gn.shoot(n, p, n_cells=cells)
        drop = 1.0 - prof.profile.values[1] / prof.height
        assert 0.01 < drop <= gn.MAX_FIRST_DROP
        assert prof.identity_residual() < drop
        assert prof.height == pytest.approx(gn.ground_state(n, p).height, rel=1e-2)

    def test_no_finite_default_domain_is_a_shoot_error(self):
        # kappa = N (p - 2) / 4 overflows, so the decay rate is 0
        with pytest.raises(gn.ShootError, match="no finite domain"):
            gn.default_r_max(2, 1e308)
        with pytest.raises(gn.ShootError):
            gn.shoot(2, 1e308)


class TestGnConstant:
    def test_identity_case(self):
        assert gn.gn_constant(4, 2.0) == 1.0
        assert gn.gn_constant(2, 2.0) == 1.0

    def test_matches_definition(self):
        prof = gn.shoot(2, 4.0)
        c = gn.gn_constant(2, 4.0, profile=prof)
        assert c == pytest.approx((4.0 / (2.0 * prof.mass)) ** 0.25, rel=1e-12)

    def test_extremal_attains_constant(self):
        prof = gn.shoot(2, 4.0)
        c = gn.gn_constant(2, 4.0, profile=prof)
        attained = gn.gn_quotient(prof.profile, 4.0)
        assert attained == pytest.approx(c, rel=1e-3)
        # a perturbed profile must do strictly worse
        bump = prof.profile.grid.nodes * np.exp(-prof.profile.grid.nodes)
        worse = gn.gn_quotient(
            prof.profile.with_values(prof.profile.values + 0.1 * prof.height * bump),
            4.0,
        )
        assert worse < attained

    @pytest.mark.parametrize("n,p", [(2, 4.0), (4, 3.0), (5, 2.8)])
    def test_inequality_on_random_profiles(self, n, p):
        c = gn.gn_constant(n, p)
        grid = make_grid(n, r_max=12.0, n_cells=2000, scheme="graded")
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.uniform(0.4, 3.0)
            amp = rng.uniform(0.2, 5.0)
            k = rng.integers(0, 3)
            vals = amp * grid.nodes**k * np.exp(-0.5 * (grid.nodes / w) ** 2)
            q = gn.gn_quotient(RadialFunction(grid, vals), p)
            assert q <= c * (1.0 + 1e-4)

    def test_cached_lookup_reuses_profile(self):
        p1 = gn.ground_state(2, 4.0)
        p2 = gn.ground_state(2, 4.0)
        assert p1 is p2
