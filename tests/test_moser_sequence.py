"""Truncated-logarithm profiles, fiber maxima, and the saddle ceiling.

The closed-form norms are recomputed inline as oracles.  The fiber
maximum for n = 100 is cross-checked against an independent adaptive
quadrature of the exact piecewise profile (no grid involvement), and
the ceiling-margin expectations below are frozen from that oracle:
max g_n = 79.436 / 59.826 / 53.378 for n = 1e2/1e3/1e4 against the
ceiling 45.7616, turning positive only around n = 1e14.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from kirchhoff_normalized import (
    RadialFunction,
    affine_coefficient,
    fiber_energy,
    make_exp_critical,
    make_grid,
    power_nonlinearity,
)
from kirchhoff_normalized import moser_sequence as msq
from kirchhoff_normalized.models import ExpOverflowError, Model


def exp_model(a: float = 1.0, b: float = 1.0, alpha0: float = 1.0,
              beta: float = 1.0, theta: float = 1.0) -> Model:
    return Model(affine_coefficient(a, b), make_exp_critical(alpha0, beta, theta))


def mass_closed_form(n: int) -> float:
    ln = math.log(n)
    return ln / (2 * n**2) + (1 / ln) * (0.25 - 1 / (4 * n**2) - ln / (2 * n**2)
                                         - ln**2 / (2 * n**2))


class TestProfileNorms:
    def test_closed_form_value_n10(self):
        assert msq.bar_mass_exact(10) == pytest.approx(mass_closed_form(10), rel=1e-14)
        assert msq.bar_mass_exact(10) == pytest.approx(0.102487, abs=1e-6)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_quadrature_matches_exact_norms(self, n):
        mf = msq.moser(n, 1.0)
        assert mf.bar_mass_quadrature == pytest.approx(mass_closed_form(n), rel=1e-6)
        assert mf.bar_grad_quadrature == pytest.approx(1.0, abs=1e-5)

    def test_center_value(self):
        for n in (10, 1000):
            got = msq.bar_profile_values(n, np.array([0.0]))[0]
            assert got == pytest.approx(math.sqrt(math.log(n) / (2 * math.pi)), rel=1e-14)

    def test_mass_normalization_is_exact(self):
        mf = msq.moser(37, 2.5)
        assert mf.profile.mass() == pytest.approx(6.25, rel=1e-12)
        assert mf.plateau_height == pytest.approx(mf.profile.values[0], rel=1e-14)
        assert mf.exact_grad_sq == pytest.approx(6.25 / msq.bar_mass_exact(37), rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            msq.moser(1, 1.0)
        with pytest.raises(ValueError):
            msq.moser(2.5, 1.0)
        with pytest.raises(ValueError):
            msq.moser(10, 0.0)
        for c in (float("inf"), float("nan"), -1.0, "1"):
            with pytest.raises(ValueError):
                msq.moser(10, c)
        with pytest.raises(ValueError):
            msq.moser(float("inf"), 1.0)


class TestGrids:
    def test_kink_nodes_are_exact(self):
        grid = msq.make_moser_grid(10)
        assert np.any(grid.nodes == 0.1)
        assert grid.nodes[-1] == 1.0
        assert np.count_nonzero(grid.nodes <= 0.1) >= msq.PLATEAU_CELLS


class TestTmIntegral:
    def test_zero_function(self):
        grid = make_grid(2, 1.0, 64)
        u = RadialFunction(grid, np.zeros(65))
        assert msq.tm_integral(u, 4 * math.pi) == 0.0

    def test_finite_on_profile_at_threshold(self):
        mf = msq.moser(10, 1.0)
        bar = RadialFunction(mf.profile.grid, msq.bar_profile_values(10, mf.profile.grid.nodes))
        val = msq.tm_integral(bar, 4 * math.pi)
        assert np.isfinite(val) and val > 0

    def test_monotone_in_alpha(self):
        mf = msq.moser(10, 1.0)
        assert msq.tm_integral(mf.profile, 2.0) < msq.tm_integral(mf.profile, 4.0)

    def test_requires_positive_alpha(self):
        mf = msq.moser(10, 1.0)
        with pytest.raises(ValueError):
            msq.tm_integral(mf.profile, 0.0)

    def test_overflow_is_flagged(self):
        mf = msq.moser(10, 1.0)
        tall = mf.profile.with_values(mf.profile.values * 40.0)
        with pytest.raises(ExpOverflowError):
            msq.tm_integral(tall, 1.0)


class TestFiberMap:
    def test_vanishes_at_origin_and_positive_small_t(self):
        model = exp_model()
        mf = msq.moser(10, 1.0)
        tiny = msq.g_fiber(model, mf, 1e-6)
        assert 0 < tiny < 1e-9
        assert msq.g_fiber(model, mf, 1e-2) > 0

    def test_negative_for_large_t(self):
        model = exp_model()
        mf = msq.moser(10, 1.0)
        assert msq.g_fiber(model, mf, 13.0) < 0

    def test_requires_positive_t(self):
        model = exp_model()
        mf = msq.moser(10, 1.0)
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
                msq.g_fiber(model, mf, t)

    def test_overflow_propagates(self):
        model = exp_model()
        mf = msq.moser(10, 1.0)
        with pytest.raises(ExpOverflowError):
            msq.g_fiber(model, mf, 20.0)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0])
    def test_agrees_with_dilation_energy(self, t):
        # same functional, evaluated through the resampling fiber map
        model = exp_model()
        mf = msq.moser(10, 1.0)
        g = msq.g_fiber(model, mf, t)
        j = fiber_energy(model, mf.profile, math.log(t))
        assert abs(g - j) <= 2e-4 * (1.0 + abs(g))

    def test_works_for_power_models(self):
        model = Model(affine_coefficient(1.0, 1.0),
                      power_nonlinearity(4.0, dimension=2))
        mf = msq.moser(10, 1.0)
        assert np.isfinite(msq.g_fiber(model, mf, 0.7))


class TestGrowthFloor:
    def test_floor_is_splice_height_when_defect_positive(self):
        nl = make_exp_critical(1.0, 1.0, 1.0)
        assert msq._growth_floor(nl) == pytest.approx(nl.u1, rel=1e-12)
        assert nl.u1 > math.sqrt(2.0)

    def test_floor_solves_defect_equation_when_negative(self):
        nl = make_exp_critical(1.0, 5.0, 1.0)
        s = msq._growth_floor(nl)
        assert s > max(nl.u1, math.sqrt(2.0))
        k = (4.0 / 5.0) * (nl.u1**6 / 6 - 2.5 * math.exp(nl.u1**2) / nl.u1**2)
        assert k < 0
        assert abs(k) * s * s * math.exp(-s * s) == pytest.approx(1.0, rel=1e-9)

    def test_floor_certifies_primitive_bound(self):
        # F(s) >= (beta / 4 alpha0) e^{alpha0 s^2} / s^2 above the floor
        for beta in (1.0, 5.0):
            nl = make_exp_critical(1.0, beta, 1.0)
            s = np.linspace(msq._growth_floor(nl), 26.0, 200)
            lhs = nl.F(s) * s * s * np.exp(-s * s)
            assert np.all(lhs >= beta / 4.0 * (1.0 - 1e-12))

    def test_rejects_power_models(self):
        with pytest.raises(ValueError):
            msq._growth_floor(power_nonlinearity(3.0, dimension=2))


class TestBoundCheck:
    def test_ceiling_arithmetic(self):
        model = exp_model(a=1.0, b=1.0, alpha0=1.0)
        expected = 0.5 * (4 * math.pi + 0.5 * (4 * math.pi) ** 2)
        assert msq.mp_bound(model) == pytest.approx(expected, rel=1e-14)

    def test_max_matches_independent_quadrature(self):
        # adaptive quadrature of the exact piecewise profile, no grid
        model = exp_model()
        nl = model.nonlinearity
        n, c = 100, 1.0
        rep = msq.mp_bound_check(model, c, [n])
        rec = rep.records[0]
        bm = msq.bar_mass_exact(n)
        norm = math.sqrt(bm * 2 * math.pi * math.log(n))
        height = c * math.log(n) / norm

        def omega(r: float) -> float:
            if r <= 1.0 / n:
                return height
            return c * (-math.log(r)) / norm if r < 1.0 else 0.0

        t = rec.argmax_t
        pot, _ = quad(lambda r: 2 * math.pi * r * float(nl.F([t * omega(r)])[0]),
                      0.0, 1.0, points=[1.0 / n], limit=400)
        oracle = 0.5 * model.coefficient.Mhat(t * t * c * c / bm) - pot / t**2
        assert rec.max_g == pytest.approx(oracle, rel=1e-4)

    def test_margins_below_the_empirical_onset(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [100, 1000, 10**4])
        margins = [r.margin for r in rep.records]
        assert margins[0] == pytest.approx(-33.675, rel=1e-3)
        assert margins[1] == pytest.approx(-14.065, rel=1e-3)
        assert margins[2] == pytest.approx(-7.617, rel=1e-3)
        assert rep.empirical_n0 is None
        assert margins == sorted(margins)

    def test_margin_turns_positive_at_large_n(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [10**13, 10**14, 10**15])
        assert rep.empirical_n0 == 10**14
        assert rep.records[0].margin < 0 < rep.records[1].margin < rep.records[2].margin

    def test_maximizer_scale_approaches_target(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [10**2, 10**4, 10**8, 10**12])
        target = math.pi
        assert rep.target_scale == pytest.approx(target, rel=1e-14)
        dist = [abs(r.t_sq_log_n - target) for r in rep.records]
        assert all(a > b for a, b in zip(dist, dist[1:]))
        assert all(r.t_sq_log_n > target for r in rep.records)

    def test_overflow_region_is_certified(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [1000])
        rec = rep.records[0]
        assert rec.certificate_log_margin > 100.0
        assert rec.flagged_from > rec.argmax_t

    def test_rejects_power_models(self):
        model = Model(affine_coefficient(1.0, 1.0),
                      power_nonlinearity(4.0, dimension=2))
        with pytest.raises(ValueError):
            msq.mp_bound_check(model, 1.0, [100])

    @pytest.mark.parametrize("alpha0", [4 * math.pi, 100.0])
    def test_positive_margin_where_u_10_overflows(self, alpha0):
        # e^(alpha0 10^2) overflows; the splice lies below the exponent cap
        rec = msq.mp_bound_check(exp_model(alpha0=alpha0), 1.0, [10]).records[0]
        assert rec.margin > 0
        if alpha0 == 4 * math.pi:
            assert rec.margin == pytest.approx(0.625, abs=1e-3)

    @pytest.mark.parametrize("c", [3000.0, 1e-300, 1e8])
    def test_search_failure_names_n_and_c(self, c):
        # the fiber maximum sits on an edge of the fixed bracket
        # [1e-6, t_hi] (3000, 1e-300), or g_n overflows inside it (1e8)
        with pytest.raises(ValueError, match=re.escape(f"for n = 2, c = {c:g} on t in")):
            msq.mp_bound_check(exp_model(), c, [10, 2])

    @pytest.mark.parametrize("bad", [10.7, math.inf, math.nan, "100"])
    def test_rejects_non_integral_n(self, bad):
        with pytest.raises(ValueError, match="finite integer"):
            msq.mp_bound_check(exp_model(), 1.0, [bad])

    def test_accepts_integral_float_n(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [1e4])
        assert [rec.n for rec in rep.records] == [10**4]
        assert type(rep.records[0].n) is int
        assert rep.records[0].max_g == \
            msq.mp_bound_check(exp_model(), 1.0, [10**4]).records[0].max_g

    def test_summary_and_rows(self):
        rep = msq.mp_bound_check(exp_model(), 1.0, [100, 1000])
        rows = rep.rows()
        assert [row["n"] for row in rows] == [100, 1000]
        assert set(rows[0]) >= {"n", "max_g", "argmax_t", "bound", "margin"}
        text = rep.summary()
        assert "ceiling" in text and "n = 100" in text
