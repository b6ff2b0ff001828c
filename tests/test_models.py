"""Coefficient and nonlinearity tests.

The splice height for the exponential family is cross-checked against
an independently formulated root problem; primitives are checked
against central finite differences of F.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from kirchhoff_normalized import models


def masked_exp_f_and_F(nl, u):
    """A frozen copy of the exponential kernel as it was before it clipped
    u and took the power over the whole array: zero-filled outputs, the
    power gathered on 0 < u <= u_1, the exponential piece on u > u_1."""
    f, F = np.zeros_like(u), np.zeros_like(u)
    low = (u > 0) & (u <= nl.u1)
    high = u > nl.u1
    y = u[low]
    lower = y ** (nl.sigma - 1.0)
    f[low] = lower
    F[low] = y * (lower / nl.sigma)
    x = u[high]
    nl._guard(x)
    a0, b0, u1 = nl.alpha0, nl.beta, nl.u1
    arg = a0 * x * x
    e = np.exp(arg)
    with np.errstate(over="ignore"):
        f_high = b0 * (arg - 1.0) * e / (a0 * x**3)
    big = ~np.isfinite(f_high)
    if big.any():
        f_high[big] = e[big] / (a0 * x[big] ** 3) * (arg[big] - 1.0) * b0
    f[high] = f_high
    F[high] = u1**nl.sigma / nl.sigma + (b0 / (2 * a0)) * (
        e / (x * x) - math.exp(a0 * u1 * u1) / (u1 * u1))
    return f, F


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
        co = models.affine_coefficient(1.5, 0.25)
        for t in (0.0, 0.7, 40.0):
            assert co.M_prime(t) == 0.25
        co = models.general_coefficient(lambda t: 1.0 + t, lambda t: t + t * t / 2, 1.0)
        for t in (0.0, 1e-9, 0.7, 40.0):
            assert co.M_prime(t) == pytest.approx(1.0, rel=1e-6)


class TestPowerNonlinearity:
    def test_f_and_F_values(self):
        nl = models.power_nonlinearity(3.0, 4)
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
    def test_pair_matches_the_separate_powers(self, n, p):
        # f and F from one pair of powers against the textbook formulas,
        # each power taken on its own (p = 2 + 4/N is mass-critical; N = 2
        # has no critical term)
        nl = models.power_nonlinearity(p, n)
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

    @pytest.mark.parametrize("alpha0, beta, theta", [
        (1.0, 1.0, 1.0), (2.0, 0.5, 0.5), (4 * math.pi, 1.0, 1.0), (100.0, 2.0, 0.0)])
    def test_pair_matches_the_separate_pieces(self, alpha0, beta, theta):
        # oracle: the separate f and F expressions the joint kernel replaced
        nl = models.make_exp_critical(alpha0, beta, theta)
        a0, b0, u1, sig = alpha0, beta, nl.u1, nl.sigma
        cap = math.sqrt(models.EXP_ARG_CAP / a0)
        low = np.linspace(0.0, u1, 300)[1:]
        x = np.linspace(u1, cap, 300)[1:-1]
        f_low, F_low = low ** (sig - 1), low ** sig / sig
        f_high = b0 * (a0 * x * x - 1.0) * np.exp(a0 * x * x) / (a0 * x**3)
        F_high = u1**sig / sig + (b0 / (2 * a0)) * (
            np.exp(a0 * x * x) / (x * x) - math.exp(a0 * u1 * u1) / (u1 * u1))
        f, F = nl.f_and_F(np.concatenate([[0.0], low, x]))
        assert f[0] == 0.0 and F[0] == 0.0
        assert np.array_equal(f[1:], np.concatenate([f_low, f_high]))
        # F's low piece is u (u^(sigma-1) / sigma), the power family's
        # form: one rounding more than u^sigma / sigma, within two ulps
        F_old = np.concatenate([F_low, F_high])
        assert np.all(np.abs(F[1:] - F_old) <= 2 * np.spacing(F_old))
        assert np.array_equal(F[300:], F_high)
        assert np.array_equal(nl.f(low), f_low) and np.array_equal(nl.F(x), F[300:])
        with pytest.raises(models.ExpOverflowError):
            nl.f_and_F(np.array([0.5 * u1, 1.01 * cap]))

    # the four sets of test_pair_matches_the_separate_pieces, and beta =
    # 150, whose product overflows near the cap so that f divides first
    @pytest.mark.parametrize("alpha0, beta, theta", [
        (1.0, 1.0, 1.0), (2.0, 0.5, 0.5), (4 * math.pi, 1.0, 1.0), (100.0, 2.0, 0.0),
        (1.0, 150.0, 1.0)])
    def test_kernel_matches_the_masked_kernel_bit_for_bit(self, alpha0, beta, theta):
        nl = models.make_exp_critical(alpha0, beta, theta)
        u1, cap = nl.u1, math.sqrt(models.EXP_ARG_CAP / alpha0)
        near_cap = cap * (1.0 - np.array([1e-12, 1e-9, 1e-6]))
        u = np.concatenate([
            [-3.0, -1e-300, -2.0 * cap, -math.inf, -0.0, 0.0, math.nan],
            [5e-324, 1e-200, 1e-60], np.linspace(0.0, u1, 40)[1:],
            [u1, np.nextafter(u1, math.inf)], np.linspace(u1, cap, 40)[1:-1],
            near_cap])
        arg = alpha0 * near_cap**2
        with np.errstate(over="ignore"):
            multiplied = beta * (arg - 1.0) * np.exp(arg) / (alpha0 * near_cap**3)
        # the divide-first branch is reached only at beta = 150
        assert np.isfinite(multiplied).all() == (beta < 100.0)
        for order in (u, u[::-1], np.random.default_rng(3).permutation(u)):
            f, F = nl.f_and_F(order)
            f_ref, F_ref = masked_exp_f_and_F(nl, order)
            assert same_bits(f, f_ref) and same_bits(F, F_ref)
            assert np.isfinite(f).all() and np.isfinite(F).all()
            zero = order <= 0.0
            zero |= np.isnan(order)
            # zeros come back as +0.0, never -0.0
            assert np.all(f[zero] == 0.0) and not np.signbit(f[zero]).any()
            assert np.all(F[zero] == 0.0) and not np.signbit(F[zero]).any()
        for x in (-0.0, math.nan, 0.5 * u1, u1, 0.5 * (u1 + cap)):
            f, F = nl.f_and_F(x)
            f_ref, F_ref = masked_exp_f_and_F(nl, np.asarray(x))
            assert same_bits(f, f_ref) and same_bits(F, F_ref)

    @pytest.mark.parametrize("alpha0, beta, theta", [
        (1.0, 1.0, 1.0), (2.0, 0.5, 0.5), (4 * math.pi, 1.0, 1.0), (100.0, 2.0, 0.0)])
    def test_over_cap_height_raises_before_any_power(self, alpha0, beta, theta):
        # u^(sigma-1) overflows at these heights, so a kernel that took the
        # power before the guard would raise an overflow warning instead
        nl = models.make_exp_critical(alpha0, beta, theta)
        for big in (1e80, 1e150):
            with np.errstate(all="warn"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(models.ExpOverflowError):
                    nl.f_and_F(np.array([-1.0, 0.5 * nl.u1, big]))

    @pytest.mark.parametrize("alpha0", [4 * math.pi, 100.0, 1e5])
    def test_builds_where_u_10_overflows(self, alpha0):
        # e^(alpha0 10^2) leaves the float range, but the splice lies
        # below the exponent cap and is built there; at alpha0 = 1e5 the
        # hypotheses' u = 1 probe lies past the cap and is clipped
        nl = models.make_exp_critical(alpha0, 1.0, 1.0)
        assert nl.u1 < math.sqrt(models.EXP_ARG_CAP / alpha0)
        if alpha0 == 4 * math.pi:
            assert nl.u1 == pytest.approx(0.282121, abs=5e-7)
        # f_1 vanishes at alpha0 u^2 = 1, just below u_1 at alpha0 = 4 pi,
        # so it is steep there: compare one ulp either side
        below, above = nl.f(np.nextafter(nl.u1, [0.0, math.inf]))
        assert above == pytest.approx(below, rel=1e-9)
        report = models.check_hypotheses(
            models.Model(models.affine_coefficient(1.0, 1.0), nl))
        assert report.passed(*report.entries), report.summary()

    @pytest.mark.parametrize("beta", [103.0, 150.0])
    def test_large_beta_builds(self, beta):
        # beta (alpha0 u^2 - 1) e^(alpha0 u^2) overflows near the cap
        # although f is about 1.4e304 there: f divides first on those
        # elements only, every other f keeps its multiply-first bits
        nl = models.make_exp_critical(1.0, beta, 1.0)
        below, above = nl.f(np.nextafter(nl.u1, [0.0, math.inf]))
        assert above == pytest.approx(below, rel=1e-9)
        cap = math.sqrt(models.EXP_ARG_CAP)
        x = np.linspace(nl.u1, cap, 2000)[1:]
        f = nl.f(x)
        assert np.all(np.isfinite(f)) and np.all(np.diff(f) > 0)
        with np.errstate(over="ignore"):
            multiplied = beta * (x * x - 1.0) * np.exp(x * x) / x**3
        finite = np.isfinite(multiplied)
        assert not finite.all()
        assert np.array_equal(f[finite], multiplied[finite])
        assert f[-1] == pytest.approx((cap * cap - 1.0) * math.exp(cap * cap)
                                      / cap**3 * beta, rel=1e-12)

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


class TestTheModelIsItsEquation:
    def test_critical_term_and_affine_theta_follow_from_the_model(self):
        for n, p in ((2, 3.0), (3, 3.0), (4, 3.0), (5, 2.8), (10, 2.2)):
            assert models.power_nonlinearity(p, n).include_critical == (n >= 3)
        assert models.affine_coefficient(1.0, 0.019).theta == 1.0
        # neither can be set: M(t) t <= 2 M_hat(t) is sharp for b > 0, and
        # every power model from N = 3 up is the critical one
        with pytest.raises(TypeError):
            models.power_nonlinearity(3.0, 4, include_critical=False)
        with pytest.raises(TypeError):
            models.Nonlinearity("power", dimension=4, p=3.0, include_critical=False)
        with pytest.raises(TypeError):
            models.affine_coefficient(1.0, 1.0, theta=0.5)
        with pytest.raises(ValueError):
            models.KirchhoffCoefficient("affine", a=1.0, b=1.0, theta=0.5)

    def test_sigma_follows_from_theta(self):
        # the power piece's exponent is 2 theta + 4, so it cannot be set
        for theta in (-0.5, 0.0, 0.7, 1.0):
            nl = models.make_exp_critical(1.0, 1.0, theta)
            assert nl.sigma == 2.0 * theta + 4.0
        with pytest.raises(TypeError):
            models.Nonlinearity("exp", dimension=2, theta=1.0, sigma=6.0)
        with pytest.raises(AttributeError):
            nl.sigma = 5.0


class TestCheckHypotheses:
    def test_affine_passes_structural_checks(self):
        m = models.Model(
            models.affine_coefficient(1.0, 1.0),
            models.make_exp_critical(1.0, 1.0, 1.0),
        )
        rep = models.check_hypotheses(m)
        assert rep.passed("coefficient_positive_nondecreasing", "coefficient_growth")
        assert rep.passed("subcubic_origin", "ambrosetti_rabinowitz")
        assert rep.passed("critical_exponential_growth")

    def test_linear_f_fails_subcubic_origin(self):
        # f(u) = u is not o(u^3) at the origin
        linear = models.Nonlinearity("power", dimension=2, p=2.0)
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
