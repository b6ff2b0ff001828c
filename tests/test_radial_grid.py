"""Grid, quadrature, and fiber-map tests.

Expected values for the derived cases are produced by independent 1D
quadrature oracles (scipy.integrate.quad on the radial line) or by
closed-form integrals worked by hand; exact values are frozen inline.
"""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from kirchhoff_normalized import radial_grid as rg
from kirchhoff_normalized.cli import SweepSpec
from kirchhoff_normalized.constrained_solver import SolveParams
from kirchhoff_normalized.gn_ground_state import default_r_max, ground_state, shoot
from kirchhoff_normalized.models import (ExpOverflowError, Nonlinearity, affine_coefficient,
                                         make_exp_critical, power_nonlinearity, two_star)
from kirchhoff_normalized.moser_sequence import make_moser_grid, moser
from kirchhoff_normalized.omega_thresholds import (OmegaQuery, c_star, existence_condition,
                                                   nonexistence_c0, sobolev_constant,
                                                   threshold_set)


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


# every public entry point that takes a dimension, called at N = 5
DIMENSION_ENTRY_POINTS = {
    "make_grid": lambda n: rg.make_grid(n, 10.0, 100).dimension,
    "from_nodes": lambda n: rg.from_nodes(n, np.linspace(0.0, 10.0, 101)).dimension,
    "two_star": two_star,
    "power_nonlinearity": lambda n: power_nonlinearity(2.9, n),
    "sobolev_constant": sobolev_constant,
    "existence_condition": lambda n: existence_condition(1.0, 0.1, n),
    "nonexistence_c0": lambda n: nonexistence_c0(1.0, 0.1, 2.9, n, 1.0),
    "c_star": lambda n: c_star(1.0, 0.1, n, 1.0),
    "threshold_set": lambda n: threshold_set(1.0, 0.1, 2.9, n, 1.0, 1.0),
    "default_r_max": lambda n: default_r_max(n, 2.9),
    "shoot": lambda n: shoot(n, 2.9).height,
    "ground_state": lambda n: ground_state(n, 2.9).height,
    "SweepSpec": lambda n: SweepSpec(n, (2.9,), (1.0,), (0.1,), (1.0,)).dimension,
}


class TestDimensionRule:
    @pytest.mark.parametrize("entry", sorted(DIMENSION_ENTRY_POINTS))
    def test_one_rule_before_any_range_check(self, entry):
        # a numpy integer is the int; a bool or a float is refused, since
        # int() would run 5.9 at N = 5 and True at N = 1
        call = DIMENSION_ENTRY_POINTS[entry]
        assert call(np.int64(5)) == call(5)
        for bad in (True, False, 4.5, 5.0, 5.9, np.float64(5.0), "5"):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                call(bad)


# every entry point that takes a count, a radius, a tolerance, a
# coefficient, an exponent or a sweep axis value: (call with the value,
# name in the error, rule, a good value)
COUNT, POSITIVE, NONNEGATIVE, FINITE = "count", "positive", "nonnegative", "finite"
RULE_ENTRY_POINTS = {
    "make_grid r_max": (lambda v: rg.make_grid(4, v, 16), "r_max", POSITIVE, 10.0),
    "make_grid n_cells": (lambda v: rg.make_grid(4, 10.0, v), "n_cells", COUNT, 16),
    "shoot r_max": (lambda v: shoot(4, 3.0, r_max=v, n_cells=400), "r_max", POSITIVE,
                    default_r_max(4, 3.0)),
    "shoot n_cells": (lambda v: shoot(4, 3.0, n_cells=v), "n_cells", COUNT, 4000),
    "ground_state r_max": (lambda v: ground_state(4, 3.0, r_max=v), "r_max", POSITIVE,
                           default_r_max(4, 3.0)),
    "ground_state n_cells": (lambda v: ground_state(4, 3.0, n_cells=v), "n_cells", COUNT,
                             4000),
    **{f"SolveParams {name}": (lambda v, name=name: SolveParams(**{name: v}), name, rule,
                               getattr(SolveParams(), name))
       for name, rule in (("max_iter", COUNT), ("restarts", COUNT), ("seed", COUNT),
                          ("n_cells", COUNT), ("residual_tol", POSITIVE),
                          ("r_max", POSITIVE))},
    "affine_coefficient a": (lambda v: affine_coefficient(v, 0.0), "a", POSITIVE, 1.0),
    "affine_coefficient b": (lambda v: affine_coefficient(1.0, v), "b", NONNEGATIVE, 0.0),
    "threshold_set a": (lambda v: threshold_set(v, 1.0, 3.0, 4, 1.0, 1.0), "a", POSITIVE,
                        1.0),
    "threshold_set b": (lambda v: threshold_set(1.0, v, 3.0, 4, 1.0, 1.0), "b",
                        NONNEGATIVE, 1.0),
    "make_exp_critical alpha0": (lambda v: make_exp_critical(v, 1.0, 1.0), "alpha0",
                                 POSITIVE, 1.0),
    "make_exp_critical beta": (lambda v: make_exp_critical(1.0, v, 1.0), "beta", POSITIVE,
                               1.0),
    "SweepSpec jobs": (lambda v: SweepSpec(4, (3.0,), (1.0,), (1.0,), (1.0,), jobs=v),
                       "jobs", COUNT, 2),
    **{f"SweepSpec {name}": (lambda v, i=i: SweepSpec(4, *[(v if j == i else 1.0,)
                                                          for j in range(4)]),
                             name, POSITIVE if name == "c" else FINITE, 1.0)
       for i, name in enumerate("pabc")},
    "power_nonlinearity p": (lambda v: power_nonlinearity(v, 2), "p", FINITE, 3.0),
    "shoot p": (lambda v: shoot(4, v), "p", FINITE, 3.0),
    "shoot p with r_max": (lambda v: shoot(4, v, r_max=20.0), "p", FINITE, 3.0),
    "ground_state p": (lambda v: ground_state(4, v), "p", FINITE, 3.0),
    "threshold_set p": (lambda v: threshold_set(1.0, 1.0, v, 5, 1.0, 1.0), "p", FINITE, 3.0),
    "make_exp_critical theta": (lambda v: make_exp_critical(1.0, 1.0, v), "theta", FINITE,
                                1.0),
    "make_moser_grid n": (make_moser_grid, "n", COUNT, 10),
    "moser c": (lambda v: moser(10, v), "mass radius c", POSITIVE, 1.0),
    **{f"OmegaQuery {name}": (lambda v, i=i: OmegaQuery(*[v if j == i else 1.0
                                                          for j in range(4)], q3=3.0, q4=3.0),
                              name, POSITIVE if i < 2 else NONNEGATIVE, 1.0)
       for i, name in enumerate(("k1", "k2", "k3", "k4"))},
}
BAD_VALUES = {
    # int() would run 4000.5 on 4 000 cells
    COUNT: (True, False, 4000.5, np.float64(4000.0), math.nan, math.inf, "3"),
    POSITIVE: (True, False, math.nan, math.inf, -math.inf, "3", 0.0, -1.0),
    NONNEGATIVE: (True, False, math.nan, math.inf, "3", -1.0),
    FINITE: (True, False, math.nan, math.inf, -math.inf, "3"),
}


class TestInputRules:
    @pytest.mark.parametrize("entry", sorted(RULE_ENTRY_POINTS))
    def test_one_rule_per_kind_of_input(self, entry):
        # each bad value is a ValueError naming the input, never a
        # TypeError, a RuntimeWarning or a silently truncated count
        call, name, rule, good = RULE_ENTRY_POINTS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            call(good)
            for bad in BAD_VALUES[rule]:
                with pytest.raises(ValueError, match=rf"(^|\W){re.escape(name)} must"):
                    call(bad)

    def test_the_rules_convert_what_they_pass(self):
        assert rg.integer("n", np.int64(7)) == 7 and type(rg.integer("n", np.int64(7))) is int
        assert rg.positive_real("r", np.float32(0.5)) == 0.5
        assert rg.positive_real("b", 0, zero=True) == 0.0
        assert rg.finite_real("p", np.float32(-0.5)) == -0.5 and rg.finite_real("p", 3) == 3.0
        assert rg.cell_count(np.int32(rg.MAX_CELLS)) == rg.MAX_CELLS

    @pytest.mark.parametrize("nodes,message", [
        ([], "at least 2"),
        ([0.0], "at least 2"),
        ([[0.0, 1.0]], "at least 2"),
        ([0.0, 1.0, math.inf], "finite"),
        ([0.0, math.nan, 2.0], "finite"),
        ([0.5, 1.0, 2.0], "start at r = 0"),
        ([0.0, 2.0, 1.0], "strictly increasing"),
        ([0.0, 1.0, 1.0], "strictly increasing"),
    ])
    def test_from_nodes_checks_the_nodes_before_the_weights(self, nodes, message):
        # [0, 1, inf] used to come back with NaN weights and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                rg.from_nodes(4, nodes)


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

    @pytest.mark.parametrize("dim, r_max, n, scheme", [
        (2, 10.0, 4000, "uniform"), (5, 24.0, 1000, "graded"),
        (4, 3.0, 17, "uniform"), (3, 30.0, 333, "graded")])
    def test_in_place_kernel_matches_the_formula_and_keeps_values(
            self, dim, r_max, n, scheme):
        # the kernel divides and squares one scratch array in place; it
        # must give the bits of the formula with its temporaries and must
        # not write to the values it is handed, even a writable array
        grid = rg.make_grid(dim, r_max, n, scheme=scheme)
        rng = np.random.default_rng(n)
        for v in (rng.standard_normal(n + 1),
                  np.exp(-grid.nodes**2) * 1e3, np.linspace(-1.0, 1.0, n + 1)):
            keep = v.copy()
            ref = float(grid.cell_volumes @ ((v[1:] - v[:-1]) / grid.cell_widths) ** 2)
            u = rg.RadialFunction(grid, v.copy())
            assert u._grad_norm_sq(v) == ref
            assert np.array_equal(v, keep)
            assert u.grad_norm_sq() == ref


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

    def test_stiffness_apply_is_the_flux_scatter_bit_for_bit(self):
        grid = rg.make_grid(4, 6.0, 300, scheme="graded")
        u = np.random.default_rng(1).standard_normal(len(grid.nodes))
        flux = grid.cell_volumes * np.diff(u) / grid.cell_widths**2
        scattered = np.zeros_like(u)
        scattered[:-1] -= flux
        scattered[1:] += flux
        assert np.array_equal(grid.stiffness_apply(u), scattered)


class CountingNonlinearity:
    """Hashable stand-in that counts its joint f and F evaluations."""

    def __init__(self, p):
        self.p = p
        self.calls = 0

    def f_and_F(self, u):
        self.calls += 1
        return np.abs(u) ** (self.p - 2.0) * u, np.abs(u) ** self.p / self.p


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
        assert nl.calls == 1
        assert np.array_equal(fu, nl.f_and_F(u.values)[0])
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
        assert nl.calls == 3
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

    @staticmethod
    def one_joint_evaluation(monkeypatch, nl, kernel):
        """Read F, then f, twice each: one call of the family's kernel and
        none of f or F."""
        grid = rg.make_grid(nl.dimension, 8.0, 200)
        u = rg.RadialFunction(grid, 3.0 * np.exp(-grid.nodes**2))
        calls = []
        joint = getattr(Nonlinearity, kernel)
        monkeypatch.setattr(Nonlinearity, kernel,
                            lambda self, v: calls.append(kernel) or joint(self, v))
        for name in ("f", "F"):
            monkeypatch.setattr(Nonlinearity, name,
                                lambda self, v, n=name: calls.append(n))
        Fu = u.F_values(nl)
        fu = u.f_values(nl)
        assert u.F_values(nl) is Fu and u.f_values(nl) is fu
        assert calls == [kernel]
        monkeypatch.undo()
        assert np.array_equal(fu, nl.f(u.values)) and np.array_equal(Fu, nl.F(u.values))
        return u

    def test_power_profile_makes_one_joint_evaluation(self, monkeypatch):
        self.one_joint_evaluation(monkeypatch, power_nonlinearity(2.8, 5), "_power_f_and_F")

    def test_exponential_profile_makes_one_joint_evaluation(self, monkeypatch):
        nl = make_exp_critical(1.0, 1.0, 1.0)
        u = self.one_joint_evaluation(monkeypatch, nl, "_exp_f_and_F")
        # heights on both sides of the splice u_1
        assert u.values.max() > nl.u1

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

    @staticmethod
    def scipy_fiber_scale(u, s):
        """The resampling written with SciPy's PchipInterpolator."""
        r = u.grid.nodes
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            interp = PchipInterpolator(r, u.values, extrapolate=False)
        sampled = interp(np.exp(s) * r)
        sampled = np.where(np.isnan(sampled), 0.0, sampled)
        return math.exp(u.grid.dimension * s / 2.0) * sampled

    def test_matches_scipy_pchip_bit_for_bit(self):
        # on the dyadic grid 2 r and r / 2 land exactly on nodes, and 2 r
        # on r_max; at s = 0 every query is a node
        dyadic = rg.from_nodes(3, np.arange(257) * 0.125)
        grids = [rg.make_grid(4, 30.0, 600), rg.make_grid(2, 24.0, 500, "graded"), dyadic]
        # one cell: the interpolant is the chord
        one_cell = rg.RadialFunction(rg.from_nodes(2, [0.0, 2.0]), np.array([1.0, 0.25]))
        for s in (0.0, 0.5):
            assert (rg.fiber_scale(one_cell, s).values.tobytes()
                    == self.scipy_fiber_scale(one_cell, s).tobytes())
        for grid in grids:
            r = grid.nodes
            edge = 0.4 * grid.r_max
            profiles = [np.exp(-(30.0 * r / grid.r_max) ** 2),
                        np.where(r < edge, (1.0 - r / edge) ** 2, 0.0),
                        np.cos(2.0 * r) * np.exp(-r)]
            # the Gaussian's tail passes through the subnormal range, where
            # PCHIP's harmonic mean overflows
            assert np.any((profiles[0] > 0) & (profiles[0] < np.finfo(float).tiny))
            for y in profiles:
                u = rg.RadialFunction(grid, y)
                for s in (-0.3, math.log(0.5), 0.0, 0.2, math.log(2.0), 1.5):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        ours = rg.fiber_scale(u, s).values
                    assert ours.tobytes() == self.scipy_fiber_scale(u, s).tobytes()


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
