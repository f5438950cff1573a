"""Scalar polynomial ring over (beta, D, C)."""

from fractions import Fraction

from celalg.scalar import (
    BETA,
    s_format,
    s_iadd,
    s_monomial,
    s_mul,
    s_rational,
    s_scale,
)


def test_zero_and_constants():
    # the zero polynomial is the empty dict
    assert s_rational(0) == {}
    assert s_rational(3) == {(0, 0, 0): 3}
    assert s_monomial((1, 0, 0), 0) == {}


def test_add_cancellation():
    x = s_monomial((2, 0, 0), Fraction(1, 2))
    s_iadd(x, s_rational(1))
    assert x == {(2, 0, 0): Fraction(1, 2), (0, 0, 0): 1}
    s_iadd(x, s_monomial((2, 0, 0), Fraction(-1, 2)))
    s_iadd(x, s_rational(-1))
    assert x == {}


def test_mul_exponent_addition():
    b = s_monomial(BETA)
    assert b == {(1, 0, 0): 1}
    assert s_mul(b, b) == {(2, 0, 0): 1}
    d = s_monomial((0, 1, 0), 3)
    assert s_mul(b, d) == {(1, 1, 0): 3}
    assert s_mul(b, {}) == {}


def test_neg_scale_equal():
    x = {(1, 0, 0): 1, (0, 0, 0): 2}
    assert s_scale(x, -1) == {(1, 0, 0): -1, (0, 0, 0): -2}
    assert s_scale(x, 0) == {}
    assert x == dict(x) and x != s_monomial(BETA)


def test_format_stable():
    x = {(2, 0, 0): Fraction(-1, 8), (0, 0, 1): Fraction(3, 16), (0, 1, 0): 1}
    assert s_format(x) == "3/16*C + D - 1/8*beta^2"
    assert s_format({}) == "0"
    assert s_format(s_monomial(BETA)) == "beta"
    assert s_format(s_monomial((1, 0, 0), -1)) == "-beta"


def test_integral_coefficients_are_held_as_ints():
    # an integral Fraction entering a scalar, or made by scaling, adding or
    # multiplying, is held as its int
    two = s_rational(Fraction(4, 2))
    assert two == {(0, 0, 0): 2} and type(two[(0, 0, 0)]) is int
    assert type(s_monomial(BETA, Fraction(3, 3))[BETA]) is int
    half = s_monomial(BETA, Fraction(1, 2))
    assert type(s_scale(half, 2)[BETA]) is int
    assert type(s_scale({BETA: 3}, Fraction(1, 1))[BETA]) is int
    s_iadd(half, {BETA: Fraction(1, 2)})
    assert half == {BETA: 1} and type(half[BETA]) is int
    assert type(s_mul({BETA: Fraction(2, 3)}, {BETA: Fraction(3, 2)})[(2, 0, 0)]) is int
