"""Infimum machinery and threshold constants.

The numeric infimum is checked against the closed form, the Sobolev
constant against its Gamma-function expression, and each threshold
against the inequality it was derived from (evaluated with the numeric
infimum, not the closed form, so the two routes stay independent).
"""

import math
import warnings

import numpy as np
import pytest

from kirchhoff_normalized import (
    Model, affine_coefficient, gn_constant, gn_fiber_energy, ground_state,
    make_grid, power_nonlinearity,
)
from kirchhoff_normalized.models import two_star
from kirchhoff_normalized import omega_thresholds as ot


def sobolev_gamma(n: int) -> float:
    return math.pi * n * (n - 2) * (math.gamma(n / 2) / math.gamma(n)) ** (2.0 / n)


class TestOmegaQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            ot.OmegaQuery(0.0, 1.0, 0.0, 1.0, q4=3.0)
        with pytest.raises(ValueError):
            ot.OmegaQuery(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ot.OmegaQuery(1.0, 1.0, 0.0, 1.0, q4=4.5)  # outside (2, 4)
        with pytest.raises(ValueError):
            ot.OmegaQuery(1.0, 1.0, 1.0, 0.0, q3=None)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                ot.OmegaQuery(bad, 1.0, 0.0, 1.0, q4=3.0)
            with pytest.raises(ValueError):
                ot.OmegaQuery(1.0, 1.0, bad, 1.0, q3=2.5, q4=3.0)
            with pytest.raises(ValueError):
                ot.OmegaQuery(1.0, 1.0, 0.0, 1.0, q2=bad, q4=3.0)
        ot.OmegaQuery(1.0, 1.0, 0.0, 1.0, q4=3.0)  # fine

    def test_simple_values(self):
        # min over t of (t^2 + t^4)/t^3 = t + 1/t is 2 at t = 1
        val, t_star = ot.omega(ot.OmegaQuery(1.0, 1.0, 0.0, 1.0, q4=3.0))
        assert val == pytest.approx(2.0, rel=1e-15)
        assert t_star == pytest.approx(1.0, rel=1e-14)

        val, t_star = ot.omega(ot.OmegaQuery(2.0, 8.0, 0.0, 1.0, q4=3.0))
        assert val == pytest.approx(8.0, rel=1e-15)
        assert t_star == pytest.approx(0.5, rel=1e-14)

    def test_extreme_queries_land_on_the_derivative_root(self):
        # coefficients over 1e-8..1e8, denominator powers within 1e-4 of
        # the numerator's, one or two denominator terms; no warning may
        # be raised on the way
        rng = np.random.default_rng(9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(300):
                k1, k2, k3, k4 = (float(k) for k in 10.0 ** rng.uniform(-8, 8, 4))
                q3, q4 = (float(q) for q in rng.uniform(2.0 + 1e-4, 4.0 - 1e-4, 2))
                q3, q4 = (2.0 + 1e-4, 4.0 - 1e-4) if i % 5 == 0 else (q3, q4)
                query = ot.OmegaQuery(k1, k2, 0.0 if i % 3 == 0 else k3, k4,
                                      q3=q3, q4=q4)
                val, t = ot.omega(query)
                num, den = query.powers()
                slope = [(qi - qj) * ki * kj * t ** (qi + qj)
                         for qi, ki in num for qj, kj in den]
                assert abs(sum(slope)) <= 1e-13 * sum(map(abs, slope))
                for f in (1.0 - 1e-6, 1.0 + 1e-6):
                    assert query.ratio(f * t) >= val * (1.0 - 1e-15)

    def test_minimum_beyond_the_float_range_raises(self):
        # the infimum is 2, at t* = 1e300, where k1 t^2 overflows; the
        # answer is an error, never a number read off the overflow edge
        query = ot.OmegaQuery(1e300, 1e-300, 0.0, 1.0, q4=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                ot.omega(query)

    def test_closed_form_values(self):
        assert ot.omega_closed_form(1.0, 1.0, 3.0) == pytest.approx(2.0)
        assert ot.omega_closed_form(2.0, 8.0, 3.0) == pytest.approx(8.0)
        expected = 2.0 * 0.5 ** (-0.25) * 1.5 ** (-0.75) * 1.0 * 1.0
        assert ot.omega_closed_form(1.0, 1.0, 2.5) == pytest.approx(expected)
        with pytest.raises(ValueError):
            ot.omega_closed_form(1.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            ot.omega_closed_form(-1.0, 1.0, 3.0)

    def test_numeric_matches_closed_form_randomly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            big_a, big_b = rng.uniform(0.1, 10.0, size=2)
            q = rng.uniform(2.05, 3.95)
            closed = ot.omega_closed_form(big_a, big_b, q)
            val, _ = ot.omega(ot.OmegaQuery(big_a, big_b, 0.0, 1.0, q4=q))
            assert val == pytest.approx(closed, rel=1e-13)

    def test_single_denominator_on_q3_slot(self):
        # same closed form applies when the lone denominator power sits
        # in the third slot
        val, _ = ot.omega(ot.OmegaQuery(1.0, 1.0, 1.0, 0.0, q3=2.8))
        assert val == pytest.approx(ot.omega_closed_form(1.0, 1.0, 2.8), rel=1e-13)

    def test_monotonicity(self):
        base = ot.OmegaQuery(1.0, 1.0, 1.0, 1.0, q3=2.5, q4=3.5)
        v0, _ = ot.omega(base)
        up1, _ = ot.omega(ot.OmegaQuery(2.0, 1.0, 1.0, 1.0, q3=2.5, q4=3.5))
        up2, _ = ot.omega(ot.OmegaQuery(1.0, 2.0, 1.0, 1.0, q3=2.5, q4=3.5))
        dn3, _ = ot.omega(ot.OmegaQuery(1.0, 1.0, 2.0, 1.0, q3=2.5, q4=3.5))
        dn4, _ = ot.omega(ot.OmegaQuery(1.0, 1.0, 1.0, 2.0, q3=2.5, q4=3.5))
        assert up1 > v0 and up2 > v0
        assert dn3 < v0 and dn4 < v0
        huge, _ = ot.omega(ot.OmegaQuery(1.0, 1.0, 1.0, 1e8, q3=2.5, q4=3.5))
        assert huge < 1e-6 * v0

    def test_denominator_scaling_identity(self):
        for k4 in (0.25, 3.0, 17.0):
            scaled, _ = ot.omega(ot.OmegaQuery(1.3, 0.7, 0.0, k4, q4=3.1))
            unit, _ = ot.omega(ot.OmegaQuery(1.3, 0.7, 0.0, 1.0, q4=3.1))
            assert scaled == pytest.approx(unit / k4, rel=1e-10)


class TestSobolevConstant:
    def test_matches_gamma_expression(self):
        assert ot.sobolev_constant(4) == pytest.approx(sobolev_gamma(4), rel=1e-6)
        assert ot.sobolev_constant(5) == pytest.approx(sobolev_gamma(5), rel=1e-6)
        assert ot.sobolev_constant(3) == pytest.approx(sobolev_gamma(3), rel=1e-5)

    def test_quotient_of_arbitrary_function_dominates(self):
        for n in (4, 5):
            s = ot.sobolev_constant(n)
            grid = make_grid(n, r_max=10.0, n_cells=4000, scheme="graded")
            bump = grid.nodes**2 * np.exp(-grid.nodes)
            from kirchhoff_normalized import RadialFunction

            q = ot.sobolev_quotient(RadialFunction(grid, bump))
            assert q >= s * (1.0 - 1e-6)
            gauss = ot.sobolev_quotient(RadialFunction(grid, np.exp(-grid.nodes**2)))
            assert gauss >= s * (1.0 - 1e-6)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            ot.sobolev_constant(2)

    def test_weight_factor_between_configurations(self):
        # halving/quartering the numerator while shrinking the critical
        # weight multiplies the infimum by exactly 2^* 2^{-2^*/2}, which
        # exceeds 1 whenever 2^* > 2; derived from the closed form
        # ((a/2)^{2-q/2} (b/4)^{q/2-1} * 2^* collapses to 2^* 2^{-q/2})
        n, a, b = 5, 1.2, 0.8
        ts = two_star(n)
        s = ot.sobolev_constant(n)
        lhs, _ = ot.omega(ot.OmegaQuery(a / 2, b / 4, 0.0, 1.0 / (ts * s ** (ts / 2)),
                                        q4=ts))
        rhs, _ = ot.omega(ot.OmegaQuery(a, b, 0.0, s ** (-ts / 2), q4=ts))
        factor = ts * 2.0 ** (-ts / 2.0)
        assert factor > 1.0
        assert lhs == pytest.approx(factor * rhs, rel=1e-9)
        assert lhs > rhs


class TestExistenceCondition:
    def test_two_routes_agree_n5(self):
        s = ot.sobolev_constant(5)
        ts = two_star(5)
        for a, b in ((1.0, 1.0), (0.02, 0.001), (0.001, 0.001), (5.0, 1e-4)):
            closed = ot.existence_condition(a, b, 5)
            val, _ = ot.omega(ot.OmegaQuery(a, b, 0.0, s ** (-ts / 2), q4=ts))
            assert closed == (val > 1.0)

    def test_n4_rule(self):
        s = ot.sobolev_constant(4)
        assert ot.existence_condition(1.0, 2.0 / s**2, 4)
        assert not ot.existence_condition(1.0, 0.5 / s**2, 4)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            ot.existence_condition(1.0, 1.0, 3)


class TestDeltaStar:
    def test_admissible_and_maximal(self):
        a = b = 1.0
        s = ot.sobolev_constant(5)
        ts = two_star(5)
        d = ot.delta_star(a, b, 5)
        assert 0.0 < d < min(a, b)
        weight = s ** (ts / 2.0)
        assert weight * ot.omega_closed_form(a - d, b - d, ts) > 1.0
        boundary = d / (1.0 - ot.DELTA_BACKOFF)
        assert weight * ot.omega_closed_form(a - 1.001 * boundary, b - 1.001 * boundary,
                                             ts) < 1.0

    def test_fails_without_coercivity(self):
        with pytest.raises(ValueError):
            ot.delta_star(0.001, 0.001, 5)

    def test_coercive_up_to_the_smaller_coefficient(self):
        # with b = 1e10 the gap stays positive up to delta = a, where the
        # quadratic coefficient vanishes: the supremum is a itself, not a
        # root, and the margin backs off from it
        d = ot.delta_star(1.0, 1e10, 5)
        assert d == pytest.approx(1.0 - ot.DELTA_BACKOFF, rel=1e-11)
        ts = ot.threshold_set(1.0, 1e10, 3.0, 5, q_mass=2.3, gn_const=0.7)
        assert ts.delta == d
        assert ts.c0 is not None and ts.c0 > 0.0
        assert ts.notes == ()


class TestNonexistenceRadius:
    Q_MASS = 2.3  # stand-in extremal mass; formula tests only need positivity

    def test_n4_p3_exact(self):
        for a in (1.0, 2.0):
            s = ot.sobolev_constant(4)
            c0 = ot.nonexistence_c0(a, 2.0 / s**2, 3.0, 4, self.Q_MASS)
            assert c0 == pytest.approx(a * self.Q_MASS)
            assert ot.threshold_set(a, 2.0 / s**2, 3.0, 4, self.Q_MASS, 0.7).c1_exact == c0

    def test_n4_window_matches_infimum_route(self):
        # c0 is where the coercivity infimum with mass-dependent weight
        # crosses 1; check both sides with the numeric infimum
        a, p = 1.0, 3.5
        s = ot.sobolev_constant(4)
        b = 2.0 / s**2
        c0 = ot.nonexistence_c0(a, b, p, 4, self.Q_MASS)
        assert c0 > 0.0

        def infimum_at(c):
            k4 = (p - 2.0) * c ** (4.0 - p) / self.Q_MASS ** (p - 2.0)
            val, _ = ot.omega(ot.OmegaQuery(a, b - 1.0 / s**2, 0.0, k4,
                                            q4=2.0 * (p - 2.0)))
            return val

        assert infimum_at(0.999 * c0) > 1.0
        assert infimum_at(1.001 * c0) < 1.0

    def test_n5_mass_critical_display(self):
        c0 = ot.nonexistence_c0(1.0, 1.0, 2.8, 5, self.Q_MASS)
        assert c0 > 0.0
        # more quartic weight loosens the constraint: c0 increases in b
        assert ot.nonexistence_c0(1.0, 2.0, 2.8, 5, self.Q_MASS) > c0

    def test_n5_supercritical_matches_infimum_route(self):
        a = b = 1.0
        p = 3.0
        c0 = ot.nonexistence_c0(a, b, p, 5, self.Q_MASS)
        assert c0 > 0.0
        d = ot.delta_star(a, b, 5)
        q3 = 2.5 * (p - 2.0)
        val, _ = ot.omega(ot.OmegaQuery(2 * d, 2 * d, 1.0, 0.0, q3=q3))

        def lhs(c):
            return 5.0 * (p - 2.0) * c ** (p - q3) / (2.0 * self.Q_MASS ** (p - 2.0))

        assert lhs(0.999 * c0) < val
        assert lhs(1.001 * c0) > val

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ot.nonexistence_c0(1.0, 1.0, 2.5, 5, self.Q_MASS)  # below 2 + 4/N
        s4 = ot.sobolev_constant(4)
        with pytest.raises(ValueError):
            ot.nonexistence_c0(1.0, 2.0 / s4**2, 2.5, 4, self.Q_MASS)
        with pytest.raises(ValueError):
            ot.nonexistence_c0(1.0, 0.1 / s4**2, 3.0, 4, self.Q_MASS)


class TestCStar:
    Q_MASS = 2.3

    def test_positive_and_monotone_in_a(self):
        v1 = ot.c_star(1.0, 1.0, 5, self.Q_MASS)
        v2 = ot.c_star(2.0, 1.0, 5, self.Q_MASS)
        assert 0.0 < v1 < v2

    def test_bracket_violation_raises(self):
        with pytest.raises(ValueError):
            ot.c_star(1e-9, 1e-3, 5, self.Q_MASS)

    def test_ordering_chain_mass_critical(self):
        # with small b the subtracted terms are magnified; the chain
        # c0 <= c_star <= a^{n/4} q_mass must hold strictly
        a, b, n = 1.0, 0.01, 5
        p_mc = 2.0 + 4.0 / n
        c0 = ot.nonexistence_c0(a, b, p_mc, n, self.Q_MASS)
        cs = ot.c_star(a, b, n, self.Q_MASS)
        assert c0 < cs < a ** (n / 4.0) * self.Q_MASS


class TestThresholdSet:
    def test_mass_critical_assembly(self):
        ts = ot.threshold_set(1.0, 0.01, 2.8, 5, q_mass=2.3, gn_const=0.7)
        assert ts.existence_ok
        assert ts.c0 is not None and ts.c_star is not None
        assert ts.c1_upper == pytest.approx(2.3)
        assert ts.c0 < ts.c_star <= ts.c1_upper
        assert ts.delta is not None
        d = ts.to_dict()
        assert d["existence_ok"] and d["c0"] == ts.c0
        assert "c1_upper_variant" not in d

    def test_c1_upper_is_where_the_fiber_energy_changes_sign(self):
        # at p = 2 + 4/N the GN fiber energy at small scale has the sign
        # of a - (c/|Q|_2)^(4/N): it flips across a^(N/4) |Q|_2, and not
        # across the exponent-swapped a^(4/N) |Q|_2
        n, p, b, t = 5, 2.8, 0.001, 1e-3
        q = ground_state(n, p)
        for a in (0.5, 2.0):
            model = Model(affine_coefficient(a, b), power_nonlinearity(p, n))
            ts = ot.threshold_set(a, b, p, n, q.q_l2, gn_constant(n, p))
            assert ts.c1_upper == pytest.approx(a ** (n / 4.0) * q.q_l2, rel=1e-14)
            below = gn_fiber_energy(model, 0.99 * ts.c1_upper, t)
            above = gn_fiber_energy(model, 1.01 * ts.c1_upper, t)
            assert below > 0.0 > above
            swapped = a ** (4.0 / n) * q.q_l2
            signs = {math.copysign(1.0, gn_fiber_energy(model, f * swapped, t))
                     for f in (0.99, 1.01)}
            assert len(signs) == 1

    def test_failed_coercivity_reported_not_raised(self):
        ts = ot.threshold_set(0.001, 0.001, 2.8, 5, q_mass=2.3, gn_const=0.7)
        assert not ts.existence_ok
        assert ts.c0 is None and ts.c_star is None
        assert any("coercivity" in note for note in ts.notes)

    def test_coefficient_outside_the_affine_rule_raises(self):
        for a, b in ((math.inf, 0.01), (1.0, math.nan), (-1.0, 0.01),
                     (0.0, 0.01), (1.0, -0.01)):
            with pytest.raises(ValueError):
                ot.threshold_set(a, b, 2.8, 5, q_mass=2.3, gn_const=0.7)

    @pytest.mark.parametrize("a,b,p,q_mass,name", [
        (1.0, 0.1, 3.333, 118.7, "c0"),  # overflows near 2*
        (0.001, 0.1, 3.3323333333333336, 68.56, "c0"),  # underflows to 0.0
        (1e300, 0.001, 2.4, 2.3, "c_star"),
        (1e300, 0.001, 2.8, 2.3, "c1_upper"),
    ])
    def test_a_constant_past_the_float_range_is_a_note(self, a, b, p, q_mass, name):
        ts = ot.threshold_set(a, b, p, 5, q_mass=q_mass, gn_const=0.7)
        assert ts.existence_ok
        assert getattr(ts, name) is None
        assert f"{name} unavailable: {name} leaves the float range at p = {p:.9g}" \
            in ts.notes

    def test_mass_critical(self):
        assert ot.mass_critical(4, 3.0) and ot.mass_critical(5, 2.8)
        assert ot.mass_critical(5, 2.8 + 5e-13)
        assert not ot.mass_critical(5, 2.8 + 1e-11)
        assert not ot.mass_critical(4, 3.5)

    def test_n4_borderline(self):
        s = ot.sobolev_constant(4)
        ts = ot.threshold_set(1.5, 2.0 / s**2, 3.0, 4, q_mass=2.3, gn_const=0.7)
        assert ts.c1_exact == pytest.approx(1.5 * 2.3)
        assert ts.c0 == pytest.approx(1.5 * 2.3)
