"""Coefficient and nonlinearity tests.

The splice height for the exponential family is cross-checked against
an independently formulated root problem; primitives are checked
against central finite differences of F.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from kirchhoff_normalized import models


class TestAffineCoefficient:
    def test_values(self):
        co = models.affine_coefficient(2.0, 3.0)
        assert co.M(0.0) == 2.0
        assert co.M(2.0) == 8.0
        assert co.Mhat(2.0) == 2.0 * 2.0 + 0.5 * 3.0 * 4.0
        assert co.theta == 1.0

    def test_rejects_bad_slope_or_offset(self):
        with pytest.raises(ValueError):
            models.affine_coefficient(0.0, 1.0)
        with pytest.raises(ValueError):
            models.affine_coefficient(1.0, -1.0)
        for a, b in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                     (1.0, math.nan)):
            with pytest.raises(ValueError):
                models.affine_coefficient(a, b)

    def test_general_passthrough(self):
        co = models.general_coefficient(lambda t: 1.0 + t**2, lambda t: t + t**3 / 3.0, 2.0)
        assert co.M(3.0) == 10.0
        assert co.Mhat(3.0) == 12.0

    def test_derivative(self):
        for theta in (1.0, 2.0):
            co = models.affine_coefficient(1.5, 0.25, theta=theta)
            for t in (0.0, 0.7, 40.0):
                assert co.M_prime(t) == 0.25
        co = models.general_coefficient(lambda t: 1.0 + t, lambda t: t + t * t / 2, 1.0)
        for t in (0.0, 1e-9, 0.7, 40.0):
            assert co.M_prime(t) == pytest.approx(1.0, rel=1e-6)


class TestPowerNonlinearity:
    def test_f_and_F_values(self):
        nl = models.power_nonlinearity(3.0, 4, include_critical=True)
        u = np.array([2.0])
        # 2^* = 4: f = u^2 + u^3, F = u^3/3 + u^4/4
        assert nl.f(u)[0] == pytest.approx(4.0 + 8.0)
        assert nl.F(u)[0] == pytest.approx(8.0 / 3.0 + 4.0)

    def test_vanishes_for_negative_u_after_odd_extension(self):
        nl = models.power_nonlinearity(2.5, 5)
        u = np.array([-1.5])
        assert nl.f(u)[0] == -nl.f(np.array([1.5]))[0]

    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 4, 5)
                                      for p in (2.5, 2.0 + 4.0 / n, 3.0)])
    @pytest.mark.parametrize("critical", [True, False])
    def test_pair_matches_the_separate_powers(self, n, p, critical):
        # f and F from one pair of powers against the textbook formulas,
        # each power taken on its own (p = 2 + 4/N is mass-critical)
        nl = models.power_nonlinearity(p, n, include_critical=critical)
        u = np.concatenate([np.geomspace(1e-8, 30.0, 400), -np.geomspace(1e-3, 5.0, 50)])
        f_old = np.sign(u) * np.abs(u) ** (p - 1)
        F_old = np.abs(u) ** p / p
        if nl.include_critical:
            q = models.two_star(n)
            f_old = f_old + np.sign(u) * np.abs(u) ** (q - 1)
            F_old = F_old + np.abs(u) ** q / q
        np.testing.assert_allclose(nl.f(u), f_old, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(nl.F(u), F_old, rtol=1e-14, atol=0.0)
        f, F = nl.f_and_F(u)
        assert np.array_equal(f, nl.f(u)) and np.array_equal(F, nl.F(u))

    @pytest.mark.parametrize("n, p", [(2, 2.5), (4, 3.0), (5, 2.8)])
    def test_pair_is_exactly_odd_and_even_and_zero_at_zero(self, n, p):
        nl = models.power_nonlinearity(p, n)
        u = np.geomspace(1e-6, 20.0, 300)
        f, F = nl.f_and_F(np.concatenate([[0.0], u, -u]))
        assert f[0] == 0.0 and F[0] == 0.0
        pos, neg = slice(1, 301), slice(301, None)
        assert np.array_equal(f[neg], -f[pos])
        assert np.array_equal(F[neg], F[pos])

    def test_only_the_power_family_has_a_pair(self):
        assert models.power_nonlinearity(2.5, 4).f_and_F is not None
        assert models.make_exp_critical(1.0, 1.0, 1.0).f_and_F is None

    def test_range_validation(self):
        with pytest.raises(ValueError):
            models.power_nonlinearity(2.0, 4)
        with pytest.raises(ValueError):
            models.power_nonlinearity(4.0, 4)  # p = 2^* excluded
        with pytest.raises(ValueError):
            models.power_nonlinearity(1.5, 2)


class TestExpCritical:
    def test_splice_height_oracle(self):
        # independent formulation: (u^2 - 1) e^{u^2} = u^8 for alpha0 = beta = 1,
        # sigma = 6
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        oracle = brentq(lambda u: (u * u - 1.0) * math.exp(u * u) - u**8, 1.1, 5.0,
                        xtol=1e-14)
        assert nl.u1 == pytest.approx(oracle, rel=1e-10)
        assert nl.sigma == 6.0

    def test_splice_continuity(self):
        nl = models.make_exp_critical(2.0, 0.5, 0.5)
        eps = 1e-9 * nl.u1
        below = nl.f(np.array([nl.u1 - eps]))[0]
        above = nl.f(np.array([nl.u1 + eps]))[0]
        assert above == pytest.approx(below, rel=1e-6)

    def test_primitive_matches_f_by_finite_differences(self):
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        for u0 in (0.3, nl.u1 * 0.9, nl.u1 * 1.5, 4.0):
            h = 1e-6 * max(1.0, u0)
            fd = (nl.F(np.array([u0 + h]))[0] - nl.F(np.array([u0 - h]))[0]) / (2 * h)
            assert fd == pytest.approx(nl.f(np.array([u0]))[0], rel=1e-6)

    def test_zero_below_origin(self):
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        u = np.array([-2.0, 0.0])
        assert np.all(nl.f(u) == 0.0)
        assert np.all(nl.F(u) == 0.0)

    def test_sigma_cap(self):
        with pytest.raises(ValueError):
            models.make_exp_critical(1.0, 1.0, 1.5)  # sigma = 7 > 6
        # sigma = 2 theta + 4 <= 2: u^(sigma-1) is not o(u) at 0
        for theta in (-1.0, -1.5, -2.0, -5.0):
            with pytest.raises(ValueError, match="must lie in"):
                models.make_exp_critical(1.0, 1.0, theta)

    @pytest.mark.parametrize("alpha0, beta, theta", [
        (math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, -math.inf),
        (1e8, 1.0, 1.0), (1e-300, 1.0, 1.0), (1.0, 1e8, 1.0)])
    def test_unbuildable_splice_is_a_value_error(self, alpha0, beta, theta):
        with pytest.raises(ValueError):
            models.make_exp_critical(alpha0, beta, theta)

    def test_overflow_flagged_not_clipped(self):
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        with pytest.raises(models.ExpOverflowError):
            nl.f(np.array([40.0]))
        with pytest.raises(models.ExpOverflowError):
            nl.F(np.array([40.0]))

    def test_power_primitive_matches_f(self):
        nl = models.power_nonlinearity(3.2, 5)
        for u0 in (0.4, 1.0, 2.7):
            h = 1e-6
            fd = (nl.F(np.array([u0 + h]))[0] - nl.F(np.array([u0 - h]))[0]) / (2 * h)
            assert fd == pytest.approx(nl.f(np.array([u0]))[0], rel=1e-6)


class TestNonlinearityJacobian:
    def fd(self, nl, u, h=1e-6):
        return (nl.f(u + h) - nl.f(u - h)) / (2 * h)

    def test_power_family(self):
        nl = models.power_nonlinearity(2.7, 5)
        u = np.array([0.3, 0.9, 1.7, 4.2])
        assert nl.f_prime(u) == pytest.approx(self.fd(nl, u), rel=1e-6)

    def test_exponential_family_both_branches(self):
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        # straddle the splice height and include the dead negative side
        u = np.array([-0.5, 0.2, 0.9 * nl.u1, 1.1 * nl.u1, 2.5])
        got = nl.f_prime(u)
        want = self.fd(nl, u)
        assert got[0] == 0.0
        assert got[1:] == pytest.approx(want[1:], rel=1e-5)

    def test_exponential_family_carries_beta(self):
        nl = models.make_exp_critical(2.0, 5.0, 0.5)
        u = np.array([1.2 * nl.u1, 2.0 * nl.u1])
        assert nl.f_prime(u) == pytest.approx(self.fd(nl, u, h=1e-7), rel=1e-6)

    def test_exponential_family_finite_below_the_cap(self):
        # alpha0 u^2 = 696.96 < 700: f is about 1.8e301, so f' is finite
        nl = models.make_exp_critical(1.0, 1.0, 1.0)
        u = np.array([26.4])
        got = nl.f_prime(u)
        assert np.isfinite(got[0])
        assert got == pytest.approx(self.fd(nl, u), rel=1e-6)


class TestConfigRoundtrip:
    def test_power_model(self):
        m = models.Model(
            models.affine_coefficient(1.5, 0.25, theta=1.0),
            models.power_nonlinearity(2.8, 5),
        )
        m2 = models.Model.loads(m.dumps())
        assert m2.coefficient.a == 1.5
        assert m2.coefficient.b == 0.25
        assert m2.nonlinearity.p == 2.8
        assert m2.nonlinearity.include_critical

    def test_exp_model(self):
        m = models.Model(
            models.affine_coefficient(1.0, 1.0),
            models.make_exp_critical(2.0, 0.5, 1.0),
        )
        m2 = models.Model.loads(m.dumps())
        assert m2.nonlinearity.u1 == pytest.approx(m.nonlinearity.u1, rel=1e-14)


class TestCheckHypotheses:
    def test_affine_passes_structural_checks(self):
        m = models.Model(
            models.affine_coefficient(1.0, 1.0, theta=1.0),
            models.make_exp_critical(1.0, 1.0, 1.0),
        )
        rep = models.check_hypotheses(m)
        assert rep.passed("coefficient_positive_nondecreasing", "coefficient_growth")
        assert rep.passed("subcubic_origin", "ambrosetti_rabinowitz")
        assert rep.passed("critical_exponential_growth")

    def test_linear_f_fails_subcubic_origin(self):
        # f(u) = u is not o(u^3) at the origin
        linear = models.Nonlinearity("power", dimension=2, p=2.0, include_critical=False)
        m = models.Model(models.affine_coefficient(1.0, 1.0), linear)
        rep = models.check_hypotheses(m)
        assert not rep.entries["subcubic_origin"].passed

    def test_power_fails_exponential_growth(self):
        m = models.Model(
            models.affine_coefficient(1.0, 1.0),
            models.power_nonlinearity(3.0, 4),
        )
        rep = models.check_hypotheses(m)
        assert not rep.entries["critical_exponential_growth"].passed

    def test_decreasing_coefficient_fails(self):
        co = models.general_coefficient(
            lambda t: 2.0 - t / (1.0 + t), lambda t: 2.0 * t - t + math.log1p(t), 1.0
        )
        m = models.Model(co, models.make_exp_critical(1.0, 1.0, 1.0))
        rep = models.check_hypotheses(m)
        assert not rep.entries["coefficient_positive_nondecreasing"].passed

    def test_summary_renders(self):
        m = models.Model(
            models.affine_coefficient(1.0, 0.5),
            models.power_nonlinearity(3.0, 5),
        )
        text = models.check_hypotheses(m).summary()
        assert "coefficient_growth" in text
