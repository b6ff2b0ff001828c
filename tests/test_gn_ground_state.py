"""Shooting solver and interpolation constant.

Frozen oracle values:
  * (N, p) = (2, 4): the classical cubic ground state has
    Q(0) = 2.2062009... and |Q|_2^2 = 11.700877... (computed here and
    widely tabulated; quadrature limits agreement to ~1e-5).
  * (N, p) = (4, 3): height 4.335967150 from an independent adaptive
    integrator (scipy RK45, rtol 1e-10, events on the zero crossing,
    50-step bisection) run during development.
"""

import math

import numpy as np
import pytest

from kirchhoff_normalized import RadialFunction, make_grid
from kirchhoff_normalized import gn_ground_state as gn

TOWNES_MASS = 11.700877


def _no_shoot(*args):
    raise AssertionError("a rejected domain must not start the shooting")

TOWNES_HEIGHT = 2.2062009
ORACLE_HEIGHT_4_3 = 4.335967150005


class TestShoot:
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
        prof = gn.shoot(n, p, certify=False)
        assert prof.identity_residual() < 1e-3
        assert prof.mass == pytest.approx(prof.grad_sq, rel=1e-3)
        assert prof.mass == pytest.approx(2.0 * prof.lp / p, rel=1e-3)

    def test_profile_shape(self):
        prof = gn.shoot(4, 3.0, certify=False)
        vals = prof.profile.values
        assert vals[0] == prof.height
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-9 * prof.height)
        assert vals[-1] < 1e-8 * prof.height
        assert prof.truncation_radius <= prof.profile.grid.r_max

    def test_truncation_certificate(self):
        prof = gn.shoot(2, 4.0, certify=True)
        assert prof.richardson_gap is not None
        assert prof.richardson_gap < 1e-6 * prof.mass

    def test_refinement_is_second_order(self):
        r_max = gn.default_r_max(2, 4.0)
        ref = gn.shoot(2, 4.0, r_max=r_max, n_cells=8000, certify=False).mass
        e1 = abs(gn.shoot(2, 4.0, r_max=r_max, n_cells=1000, certify=False).mass - ref)
        e2 = abs(gn.shoot(2, 4.0, r_max=r_max, n_cells=2000, certify=False).mass - ref)
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
                                    {"n_cells": gn.MAX_CELLS + 1}])
    def test_rejects_bad_domain(self, kw, monkeypatch):
        monkeypatch.setattr(gn, "_shoot_core", _no_shoot)
        with pytest.raises(ValueError):
            gn.shoot(4, 3.0, **kw)
        with pytest.raises(ValueError):
            gn.ground_state(4, 3.0, **kw)

    def test_certification_grid_counts_against_the_cap(self, monkeypatch):
        # the certified shoot doubles the grid, so half the cap plus one
        # is too large for it but not for an uncertified shoot; the
        # shooting itself is replaced, so neither call runs it
        class Started(Exception):
            pass

        def started(*args):
            raise Started
        monkeypatch.setattr(gn, "_shoot_core", started)
        n_cells = gn.MAX_CELLS // 2 + 1
        with pytest.raises(ValueError, match="certification"):
            gn.shoot(4, 3.0, n_cells=n_cells)
        with pytest.raises(Started):
            gn.shoot(4, 3.0, n_cells=n_cells, certify=False)


class TestGnConstant:
    def test_identity_case(self):
        assert gn.gn_constant(4, 2.0) == 1.0
        assert gn.gn_constant(2, 2.0) == 1.0

    def test_matches_definition(self):
        prof = gn.shoot(2, 4.0, certify=False)
        c = gn.gn_constant(2, 4.0, profile=prof)
        assert c == pytest.approx((4.0 / (2.0 * prof.mass)) ** 0.25, rel=1e-12)

    def test_extremal_attains_constant(self):
        prof = gn.shoot(2, 4.0, certify=False)
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
