"""Exact roots of power sums and the sign-change scan under them.

The oracles are polynomials with known factors, written in s = log t,
and Descartes' rule of signs for sums of real powers: no sum has more
positive roots than its coefficients, in exponent order, change sign.
"""

import math

import numpy as np
import pytest

from kirchhoff_normalized.scalar_opt import power_sum_roots, sign_change_brackets


def value(terms, s):
    return sum(k * math.exp(e * s) for e, k in terms)


class TestSignChangeBrackets:
    def test_brackets_carry_their_direction(self):
        xs = np.linspace(-3.0, 3.0, 7) + 0.5
        out = sign_change_brackets(lambda x: (x - 1.0) * (x + 1.0), xs)
        assert [(a, b) for a, b, _ in out] == [(-1.5, -0.5), (0.5, 1.5)]
        assert [rising for _, _, rising in out] == [False, True]

    def test_exact_zero_is_a_degenerate_pair(self):
        out = sign_change_brackets(lambda x: x, [-1.0, 0.0, 1.0])
        assert out == [(0.0, 0.0, True)]
        out = sign_change_brackets(lambda x: -x, [-1.0, 0.0, 1.0])
        assert out == [(0.0, 0.0, False)]


class TestPowerSumRoots:
    def test_roots_of_a_cubic_with_known_factors(self):
        # (t - 1)(t - 2)(t - 3) = t^3 - 6 t^2 + 11 t - 6
        terms = [(0.0, -6.0), (1.0, 11.0), (2.0, -6.0), (3.0, 1.0)]
        roots = power_sum_roots(terms, -5.0, 5.0)
        assert [rising for _, rising in roots] == [True, False, True]
        for (s, _), t in zip(roots, (1.0, 2.0, 3.0)):
            assert math.exp(s) == pytest.approx(t, rel=1e-14)

    def test_window_keeps_only_the_roots_inside(self):
        terms = [(0.0, -6.0), (1.0, 11.0), (2.0, -6.0), (3.0, 1.0)]
        roots = power_sum_roots(terms, 0.5, 5.0)
        assert len(roots) == 2
        assert math.exp(roots[0][0]) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("lo, hi", [(-5.0, 5.0), (-1.0, 1.0), (0.0, 3.0)])
    def test_touch_root_is_not_returned(self, lo, hi):
        # (t - 2)^2 touches zero at t = 2 without crossing; the derivative
        # root there is a knot where h rounds to zero or above
        assert power_sum_roots([(0.0, 4.0), (1.0, -4.0), (2.0, 1.0)], lo, hi) == []
        # (t - 2)^2 (t - 3): only the crossing at t = 3 is a root
        roots = power_sum_roots([(0.0, -12.0), (1.0, 16.0), (2.0, -7.0), (3.0, 1.0)],
                                lo, max(hi, 2.0))
        assert len(roots) == 1 and roots[0][1]
        assert math.exp(roots[0][0]) == pytest.approx(3.0, rel=1e-14)

    def test_one_term_has_no_root(self):
        assert power_sum_roots([(2.0, 3.0)], -5.0, 5.0) == []

    def test_count_never_exceeds_the_sign_changes(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            exps = np.sort(rng.uniform(-3.0, 3.0, m))
            coefs = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3, 3, m)
            terms = list(zip(exps.tolist(), coefs.tolist()))
            changes = int(np.sum(np.sign(coefs[1:]) != np.sign(coefs[:-1])))
            roots = power_sum_roots(terms, -10.0, 10.0)
            assert len(roots) <= changes
            scale_at = [sum(abs(k) * math.exp(e * s) for e, k in terms)
                        for s, _ in roots]
            for (s, rising), scale in zip(roots, scale_at):
                assert abs(value(terms, s)) <= 1e-12 * scale
            # roots alternate in direction, so no crossing is counted twice
            flags = [rising for _, rising in roots]
            assert all(a != b for a, b in zip(flags, flags[1:]))
