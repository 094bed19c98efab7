"""Exact scalar arithmetic: arbitrary-precision integers, rationals, binomials.

Python integers are already arbitrary precision and ``fractions.Fraction``
keeps rationals in canonical reduced form (positive denominator, gcd one),
so this module is a thin layer pinning down the conventions the rest of the
library relies on: binomials outside the Pascal triangle are zero, and
``as_integer`` hands a caller the int inside an invariant returned as a
``Fraction``, failing loudly on a non-trivial denominator.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    Returning zero outside [0, n] lets sums whose index ranges step past
    the ends drop those terms without special-casing at the call sites.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial requires n >= 0, got n={n}")
    return math.factorial(n)


def multinomial(parts: tuple[int, ...] | list[int]) -> int:
    """Multinomial coefficient (sum parts)! / prod(part!)."""
    total = 0
    result = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be >= 0, got {p}")
        total += p
        result *= math.comb(total, p)
    return result


def is_integer(value: Fraction | int) -> bool:
    """True when the value is an integer (denominator one)."""
    if isinstance(value, int):
        return True
    return value.denominator == 1


def as_integer(value: Fraction | int) -> int:
    """Extract an integer from a rational, failing loudly otherwise.

    Invariants are integers on theoretical grounds, and the public
    invariant functions return them as ``Fraction``; this accessor is for
    their callers.  The library computes them as ints and never calls it.
    """
    if isinstance(value, int):
        return value
    if value.denominator != 1:
        raise ValueError(f"expected an integer value, got {value}")
    return value.numerator
