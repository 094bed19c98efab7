import random
from fractions import Fraction

import pytest

from gwcalc.exact import (as_integer, binomial, factorial, is_integer,
                          multinomial)


def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    # the coefficient C(3d-4, 3d_A-1) at d=3, d_A=1
    assert binomial(3 * 3 - 4, 3 * 1 - 1) == 10


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_identity_exhaustive():
    for n in range(1, 65):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_pascal_identity_randomized():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 300)
        k = rng.randrange(-2, n + 3)
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(3) == 6
    assert factorial(5) == 120
    with pytest.raises(ValueError):
        factorial(-1)


def test_multinomial():
    assert multinomial([2, 4]) == 15
    assert multinomial([5, 0]) == 1
    assert multinomial([2, 3]) == 10
    assert multinomial([1, 1, 1]) == 6


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        1 / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_canonical_form_closure_randomized():
    rng = random.Random(11)

    def rand_rational():
        num = rng.randrange(-40, 41)
        den = rng.randrange(1, 40)
        return Fraction(num, den) * rng.choice([1, -1])

    import math
    for _ in range(500):
        a, b, c = rand_rational(), rand_rational(), rand_rational()
        for value in (a + b, a * b, -a, a - c, a * b + c):
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1
        # ring axioms hold exactly
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if b != 0:
            assert 1 / b * b == 1


def test_as_integer():
    assert as_integer(Fraction(620)) == 620
    assert as_integer(7) == 7
    assert is_integer(Fraction(4, 2))
    assert not is_integer(Fraction(1, 2))
    with pytest.raises(ValueError):
        as_integer(Fraction(1, 2))
