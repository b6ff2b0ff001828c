"""Brent's root finder, exact roots of power sums and the sign-change
scan under them.

brentq's oracle is scipy.optimize.brentq: the same points evaluated and
the same root, bit for bit, and the same exception on each error path.
The power-sum oracles are polynomials with known factors, written in
s = log t, and Descartes' rule of signs for sums of real powers: no sum
has more positive roots than its coefficients, in exponent order,
change sign.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from kirchhoff_normalized.scalar_opt import brentq, power_sum_roots, sign_change_brackets

# the (xtol, rtol) pairs the package passes; None keeps the default rtol
BRENT_TOLS = [(1e-13, None), (1e-15, None), (1e-15, 8.9e-16)]


def value(terms, s):
    return sum(k * math.exp(e * s) for e, k in terms)


def brent_cases():
    """A few hundred bracketed roots: smooth, exp-sum and sinh-type."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(80):
        root, k = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 2.0)
        cases.append((lambda x, root=root, k=k: x**3 + k * (x - root) - root**3,
                      root - rng.uniform(0.1, 3.0), root + rng.uniform(0.1, 3.0)))
    for _ in range(80):
        e1, e2 = rng.uniform(-2.0, -0.1), rng.uniform(0.5, 3.0)
        k1, k2, s0 = rng.uniform(0.1, 5.0), rng.uniform(0.01, 5.0), rng.uniform(-3.0, 3.0)
        # a falling sum k1 e^{e1 s} - k2 e^{e2 s} + k0 with a root at s0
        k0 = k2 * math.exp(e2 * s0) - k1 * math.exp(e1 * s0)
        cases.append((lambda s, e1=e1, e2=e2, k1=k1, k2=k2, k0=k0:
                      k1 * math.exp(e1 * s) - k2 * math.exp(e2 * s) + k0,
                      s0 - rng.uniform(0.05, 4.0), s0 + rng.uniform(0.05, 4.0)))
    for _ in range(80):
        a, x0, tilt = rng.uniform(0.5, 8.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1e-3)
        # flat near the root when tilt is small: the extrapolating step runs
        cases.append((lambda x, a=a, x0=x0, tilt=tilt:
                      math.sinh(a * (x - x0)) ** 3 + tilt * (x - x0),
                      x0 - rng.uniform(0.01, 2.0), x0 + rng.uniform(0.01, 2.0)))
    return cases


def recording(fn):
    calls = []

    def f(x):
        calls.append(x)
        return fn(x)
    return f, calls


class TestBrentq:
    @pytest.mark.parametrize("xtol, rtol", BRENT_TOLS)
    def test_matches_scipy_bit_for_bit(self, xtol, rtol):
        kw = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
        for fn, a, b in brent_cases():
            ours, our_calls = recording(fn)
            theirs, their_calls = recording(fn)
            x = brentq(ours, a, b, **kw)
            ref = scipy.optimize.brentq(theirs, a, b, **kw)
            assert type(x) is float
            assert repr(x) == repr(ref)
            assert our_calls == their_calls

    def test_exact_zero_endpoint_is_returned(self):
        for a, b in ((1.0, 3.0), (-1.0, 1.0)):
            assert brentq(lambda x: x - 1.0, a, b) == scipy.optimize.brentq(
                lambda x: x - 1.0, a, b) == 1.0

    def assert_same_error(self, fn, a, b, **kw):
        with pytest.raises(Exception) as ref:
            scipy.optimize.brentq(fn, a, b, **kw)
        with pytest.raises(type(ref.value)):
            brentq(fn, a, b, **kw)
        return type(ref.value)

    def test_same_sign_ends(self):
        assert self.assert_same_error(lambda x: x * x + 1.0, -1.0, 2.0) is ValueError

    def test_nan_value(self):
        # at an end, and at the first bisection point x = 5
        assert self.assert_same_error(lambda x: math.nan if x > 2.0 else x - 1.0,
                                      0.0, 3.0) is ValueError
        assert self.assert_same_error(lambda x: math.nan if 4.0 < x < 6.0 else x - 5.0,
                                      0.0, 10.0) is ValueError

    def test_non_convergence(self):
        assert self.assert_same_error(lambda x: math.exp(x) - 2.0, -5.0, 30.0,
                                      maxiter=3) is RuntimeError

    def test_bad_tolerances(self):
        assert self.assert_same_error(lambda x: x, -1.0, 2.0, rtol=1e-16) is ValueError
        assert self.assert_same_error(lambda x: x, -1.0, 2.0, xtol=0.0) is ValueError


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
        # (t - 1)^2: on (-5, 5) h rounds below zero at the knot s ~ 0, so a
        # falling and a rising crossing 2e-15 apart straddle it
        assert power_sum_roots([(0.0, 1.0), (1.0, -2.0), (2.0, 1.0)], lo, hi) == []
        # (t - 2)^2 (t - 3): only the crossing at t = 3 is a root
        roots = power_sum_roots([(0.0, -12.0), (1.0, 16.0), (2.0, -7.0), (3.0, 1.0)],
                                lo, max(hi, 2.0))
        assert len(roots) == 1 and roots[0][1]
        assert math.exp(roots[0][0]) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.5, 2.0, 3.0, 5.0])
    def test_double_root_beside_a_crossing(self, a):
        # (t - a)^2 (t - b): one rising crossing at t = b; for most of these
        # (a, b) h rounds below zero at the touch a, up to 4e-8 wide in s
        for b in (0.5, 1.0, 2.0, 4.0, 7.0):
            if b == a:
                continue
            coefs = np.poly([a, a, b])[::-1].tolist()
            roots = power_sum_roots([(float(e), k) for e, k in enumerate(coefs)],
                                    -5.0, 5.0)
            assert len(roots) == 1 and roots[0][1]
            assert math.exp(roots[0][0]) == pytest.approx(b, rel=1e-13)

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
