"""Grid, quadrature, and fiber-map tests.

Expected values for the derived cases are produced by independent 1D
quadrature oracles (scipy.integrate.quad on the radial line) or by
closed-form integrals worked by hand; exact values are frozen inline.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kirchhoff_normalized import radial_grid as rg
from kirchhoff_normalized.models import (ExpOverflowError, make_exp_critical,
                                         power_nonlinearity)


def gauss(grid, width=1.0):
    return rg.RadialFunction(grid, np.exp(-grid.nodes**2 / (2.0 * width**2)))


class TestMakeGrid:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            rg.make_grid(0, 1.0, 100)
        with pytest.raises(ValueError):
            rg.make_grid(11, 1.0, 100)
        with pytest.raises(ValueError):
            rg.make_grid(2, -1.0, 100)
        with pytest.raises(ValueError):
            rg.make_grid(2, 1.0, 8)
        with pytest.raises(ValueError):
            rg.make_grid(2, 1.0, 100, scheme="chebyshev")
        with pytest.raises(ValueError, match=str(rg.MAX_CELLS)):
            rg.make_grid(2, 1.0, rg.MAX_CELLS + 1)

    @pytest.mark.parametrize("dim,r_max,vol", [
        (2, 1.0, math.pi),
        (4, 20.0, math.pi**2 / 2.0 * 20.0**4),
        (5, 3.0, 8.0 * math.pi**2 / 15.0 * 3.0**5),
    ])
    @pytest.mark.parametrize("scheme", ["uniform", "graded"])
    def test_ball_volume_exact(self, dim, r_max, vol, scheme):
        grid = rg.make_grid(dim, r_max, 1000, scheme=scheme)
        ones = np.ones_like(grid.nodes)
        assert grid.integrate(ones) == pytest.approx(vol, rel=1e-10)
        assert grid.ball_volume() == pytest.approx(vol, rel=1e-12)

    def test_nodes_increasing_weights_positive(self):
        for scheme in ("uniform", "graded"):
            grid = rg.make_grid(6, 12.0, 321, scheme=scheme)
            assert np.all(np.diff(grid.nodes) > 0)
            assert np.all(grid.weights > 0)
            assert grid.nodes[0] == 0.0

    def test_quadrature_linear_in_integrand(self):
        grid = rg.make_grid(3, 5.0, 200)
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=grid.nodes.size), rng.normal(size=grid.nodes.size)
        lhs = grid.integrate(2.5 * f - 1.25 * g)
        rhs = 2.5 * grid.integrate(f) - 1.25 * grid.integrate(g)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)


class TestQuadratureAccuracy:
    def test_gaussian_mass_n2(self):
        # int e^{-r^2} 2 pi r dr = pi, exact
        grid = rg.make_grid(2, 8.0, 8000)
        u = gauss(grid)
        assert u.mass() == pytest.approx(math.pi, abs=1e-6)

    def test_gaussian_mass_oracle_n5(self):
        grid = rg.make_grid(5, 14.0, 6000, scheme="graded")
        u = gauss(grid)
        area = rg.sphere_area(5)
        oracle, err = quad(lambda r: math.exp(-r * r) * r**4, 0, 14.0)
        assert err < 1e-9
        assert u.mass() == pytest.approx(area * oracle, rel=1e-5)

    def test_refinement_is_second_order(self):
        exact = math.pi
        errs = []
        for k in (400, 800):
            u = gauss(rg.make_grid(2, 12.0, k))
            errs.append(abs(u.mass() - exact))
        ratio = errs[0] / errs[1]
        assert 2.5 < ratio < 30.0


class TestGradNorm:
    def test_gaussian_gradient_n2_exact(self):
        # |u'| = r e^{-r^2/2}: int r^2 e^{-r^2} 2 pi r dr = pi, exact
        grid = rg.make_grid(2, 8.0, 8000)
        u = gauss(grid)
        assert u.grad_norm_sq() == pytest.approx(math.pi, abs=1e-6)

    def test_gaussian_gradient_oracle_n4(self):
        grid = rg.make_grid(4, 14.0, 8000, scheme="graded")
        u = gauss(grid)
        area = rg.sphere_area(4)
        oracle, err = quad(lambda r: (r * math.exp(-r * r / 2)) ** 2 * r**3, 0, 14.0)
        assert err < 1e-9
        assert u.grad_norm_sq() == pytest.approx(area * oracle, rel=2e-6)

    def test_constant_has_zero_gradient(self):
        grid = rg.make_grid(3, 2.0, 50)
        u = rg.RadialFunction(grid, np.full_like(grid.nodes, 1.7))
        assert u.grad_norm_sq() == 0.0

    def test_matches_np_diff_formula_bit_for_bit(self):
        grid = rg.make_grid(5, 12.0, 400, scheme="graded")
        rng = np.random.default_rng(7)
        for _ in range(4):
            v = rng.standard_normal(len(grid.nodes))
            u = rg.RadialFunction(grid, v)
            assert u.grad_norm_sq() == float(
                grid.cell_volumes @ (np.diff(v) / np.diff(grid.nodes)) ** 2)


class TestLpNorm:
    def test_gaussian_l4_n2(self):
        # (int e^{-2 r^2} 2 pi r dr)^{1/4} = (pi/2)^{1/4}
        grid = rg.make_grid(2, 8.0, 8000)
        u = gauss(grid)
        assert u.lp_norm(4) == pytest.approx((math.pi / 2.0) ** 0.25, rel=5e-7)

    def test_rejects_p_below_one(self):
        grid = rg.make_grid(2, 1.0, 20)
        with pytest.raises(ValueError):
            gauss(grid).lp_norm(0.5)


class TestCellWidths:
    def test_computed_once_and_read_only(self):
        grid = rg.make_grid(3, 4.0, 200, scheme="graded")
        widths = grid.cell_widths
        assert widths is grid.cell_widths
        assert np.array_equal(widths, np.diff(grid.nodes))
        with pytest.raises(ValueError):
            widths[0] = 1.0

    def test_stiffness_band_computed_once_read_only_and_applies_a(self):
        grid = rg.make_grid(3, 4.0, 200, scheme="graded")
        band = grid.stiffness_band
        assert band is grid.stiffness_band
        with pytest.raises(ValueError):
            band[1, 0] = 1.0
        # the symmetric tridiagonal matrix of the band applies A
        u = np.random.default_rng(0).standard_normal(len(grid.nodes))
        applied = band[1] * u
        applied[:-1] += band[0, 1:] * u[1:]
        applied[1:] += band[0, 1:] * u[:-1]
        assert np.allclose(applied, grid.stiffness_apply(u), rtol=1e-12, atol=1e-9)


class CountingNonlinearity:
    """Hashable stand-in that counts its f and F evaluations."""

    def __init__(self, p):
        self.p = p
        self.calls = {"f": 0, "F": 0}

    def f(self, u):
        self.calls["f"] += 1
        return np.abs(u) ** (self.p - 2.0) * u

    def F(self, u):
        self.calls["F"] += 1
        return np.abs(u) ** self.p / self.p


class TestProfileMemo:
    """A profile is immutable and computes each derived quantity once."""

    def test_values_are_read_only_and_not_copied(self):
        grid = rg.make_grid(3, 6.0, 100)
        vals = np.exp(-grid.nodes**2)
        u = rg.RadialFunction(grid, vals)
        assert np.shares_memory(u.values, vals)
        with pytest.raises(ValueError):
            u.values[0] = 1.0
        with pytest.raises(AttributeError):
            u.values = vals

    def test_norms_and_nonlinear_terms_computed_once(self):
        u = gauss(rg.make_grid(4, 8.0, 200))
        nl = CountingNonlinearity(3.0)
        assert u.mass() is u.mass()
        assert u.grad_norm_sq() is u.grad_norm_sq()
        fu = u.f_values(nl)
        assert u.f_values(nl) is fu and u.F_values(nl) is u.F_values(nl)
        assert nl.calls == {"f": 1, "F": 1}
        assert np.array_equal(fu, nl.f(u.values))
        with pytest.raises(ValueError):
            fu[0] = 0.0
        with pytest.raises(ValueError):
            u.F_values(nl)[0] = 0.0

    def test_new_profiles_start_with_an_empty_cache(self):
        u = gauss(rg.make_grid(4, 8.0, 200))
        nl = CountingNonlinearity(3.0)
        u.f_values(nl)
        m, g = u.mass(), u.grad_norm_sq()
        v = u.with_values(2.0 * u.values)
        w = rg.normalize_mass(u, 3.0)
        for new in (v, w):
            assert new._memo == {}
            new.f_values(nl)
        assert nl.calls["f"] == 3
        assert v.mass() == pytest.approx(4.0 * m, rel=1e-14)
        assert v.grad_norm_sq() == pytest.approx(4.0 * g, rel=1e-14)
        assert w.mass() == pytest.approx(9.0, rel=1e-14)

    def test_each_nonlinearity_gets_its_own_terms(self):
        grid = rg.make_grid(5, 8.0, 200)
        u = rg.RadialFunction(grid, 1.3 * np.exp(-grid.nodes**2))
        for p in (2.5, 3.0, 2.5):
            nl = power_nonlinearity(p, 5)
            assert np.array_equal(u.f_values(nl), nl.f(u.values))
            assert np.array_equal(u.F_values(nl), nl.F(u.values))
        assert not np.array_equal(u.f_values(power_nonlinearity(2.5, 5)),
                                  u.f_values(power_nonlinearity(3.0, 5)))

    def test_exponential_overflow_raises_on_every_call(self):
        nl = make_exp_critical(1.0, 1.0, 1.0)
        grid = rg.make_grid(2, 8.0, 200)
        u = rg.RadialFunction(grid, 30.0 * np.exp(-grid.nodes**2))
        for _ in range(2):
            with pytest.raises(ExpOverflowError):
                u.f_values(nl)
            with pytest.raises(ExpOverflowError):
                u.F_values(nl)
        assert u._memo == {}


class TestNormalizeMass:
    def test_hits_target_exactly(self):
        grid = rg.make_grid(4, 10.0, 500)
        u = rg.normalize_mass(gauss(grid, 1.3), 2.5)
        assert u.mass() == pytest.approx(6.25, rel=1e-12)

    def test_rejects_zero_function(self):
        grid = rg.make_grid(4, 10.0, 500)
        z = rg.RadialFunction(grid, np.zeros_like(grid.nodes))
        with pytest.raises(ValueError):
            rg.normalize_mass(z, 1.0)


class TestFiberScale:
    def test_identity_at_s_zero(self):
        grid = rg.make_grid(4, 16.0, 800)
        u = gauss(grid)
        v = rg.fiber_scale(u, 0.0)
        assert np.max(np.abs(v.values - u.values)) < 1e-10

    def test_mass_preserved_n4(self):
        grid = rg.make_grid(4, 16.0, 80000, scheme="graded")
        u = gauss(grid)
        m0 = u.mass()
        v = rg.fiber_scale(u, -1.0)
        assert v.mass() == pytest.approx(m0, abs=1e-8 * m0)

    def test_gradient_scaling_law(self):
        # |grad T(u,s)|^2 = e^{2s} |grad u|^2
        grid = rg.make_grid(3, 24.0, 6000, scheme="graded")
        u = gauss(grid, 1.2)
        for s in (-0.8, 0.5):
            v = rg.fiber_scale(u, s)
            assert v.grad_norm_sq() == pytest.approx(
                math.exp(2 * s) * u.grad_norm_sq(), rel=2e-6)

    def test_group_law(self):
        grid = rg.make_grid(2, 24.0, 4000, scheme="graded")
        u = gauss(grid)
        one_hop = rg.fiber_scale(u, -0.7)
        two_hop = rg.fiber_scale(rg.fiber_scale(u, -0.4), -0.3)
        gap = math.sqrt(grid.integrate((one_hop.values - two_hop.values) ** 2))
        # budget: twice the single-resampling interpolation error scale
        assert gap < 2e-6 * math.sqrt(one_hop.mass())

    def test_truncation_loss_raises(self):
        grid = rg.make_grid(2, 6.0, 600)
        u = gauss(grid, 2.0)  # heavy tail relative to r_max after shrinking
        with pytest.raises(rg.TruncationLossError):
            rg.fiber_scale(u, -2.5)


class TestSerialization:
    def test_profile_roundtrip(self, tmp_path):
        grid = rg.make_grid(5, 8.0, 120, scheme="graded")
        u = gauss(grid, 0.9)
        path = tmp_path / "profile.csv"
        rg.write_profile_csv(u, str(path))
        v = rg.read_profile_csv(str(path))
        assert v.grid.dimension == 5
        assert np.allclose(v.grid.nodes, grid.nodes, rtol=0, atol=0)
        assert np.allclose(v.values, u.values, rtol=0, atol=0)
        assert v.mass() == pytest.approx(u.mass(), rel=1e-14)
