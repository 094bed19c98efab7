"""Multivariate formal power series truncated by total degree.

A series stores only terms of total degree <= order, with exact rational
coefficients, and remembers that order as the range over which its
coefficients are trustworthy.  Arithmetic tightens the order accordingly:
sums and products carry the minimum of the operand orders, and a partial
derivative lowers the order by one.  Terms with zero coefficient or degree
beyond the order are never stored.

Storage is integer: one positive denominator per series and one nonzero
int numerator per stored monomial.  The form is canonical, so equal series
store equal data: the gcd of the denominator and every numerator is 1, and
the empty series has denominator 1.  All arithmetic runs on these ints.  A
sum rescales both operands to the lcm of their denominators, a product
convolves the stored numerators in order of rising degree over the product
of the denominators, and each result is reduced once by the gcd of its
denominator and numerators.  The constructor checks outside input;
``_trusted`` is the private constructor for numerators that are already
checked.

Each monomial x^a is stored under one graded int key, with radix
R = order + 1 and n = nvars:

    key(a) = |a| * R^n + a_0 + a_1 * R + ... + a_(n-1) * R^(n-1).

Every digit is at most the order, so the key is unique, and the keys of a
series sort in rising total degree.  When |a| + |b| <= order no digit
carries, so key(a) + key(b) = key(a + b); and |a| + |b| > order exactly
when key(a) + key(b) >= R^(n+1).  A product therefore adds keys and stops
its inner loop at one bound.  Keys are rebuilt only where the order
changes, through the exponent tuple: ``partial_derivative``, ``truncate``,
and sums or products of operands of different orders.  Elsewhere exponent
tuples appear only at the boundary: the constructor and ``coefficient``
(both check them by ``_degree``, as ``rings`` checks its parameter
monomials), ``terms``, ``leading_term``, ``render``.

``Fraction`` appears only at the boundary too: the constructor and the
scalar operands take ints and Fractions, and ``terms`` (a read-only view
built on each access), ``coefficient``, ``leading_term`` and ``render``
give canonical Fractions.

A series is a ``targets._Record``: assigning or deleting any field
raises ``AttributeError``, ``==`` compares (nvars, order, denominator,
numerators), and all operations return new series, so a series that a
memo hands out, such as a structure constant, is safe to share between
callers and threads.

The canonical text form writes terms in lexicographic order of their
exponent tuples, coefficients as ``num/den``, monomials with an explicit
caret power, e.g. ``1/2*x0^2*x1`` rendered with a middle dot separator.
``_term`` writes one term, here and in ``rings``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .targets import _Record, _at_least

_DOT = "·"

Exponents = tuple[int, ...]


class TruncatedSeries(_Record):
    """A formal power series in ``nvars`` variables, exact up to ``order``."""

    __slots__ = ("nvars", "order", "_den", "_nums")
    __match_args__ = __slots__

    def __init__(self, nvars: int, order: int,
                 terms: Mapping[Exponents, Fraction] | None = None):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        _at_least(order, 0, "truncation order")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if _degree(exps, nvars) > order:
                    continue
                value = Fraction(coeff)
                if value:
                    clean[exps] = value
        # Over the lcm of reduced denominators the numerators share no
        # factor with it, so this form is already canonical.
        den = lcm(*(c.denominator for c in clean.values()))
        radix = order + 1
        _fill(self, nvars, order, den,
              {_pack(e, radix): c.numerator * (den // c.denominator)
               for e, c in clean.items()})

    @classmethod
    def _trusted(cls, nvars: int, order: int, den: int,
                 nums: dict[int, int]) -> "TruncatedSeries":
        """A series ``nums / den`` from a positive denominator and nonzero
        int numerators on the packed keys (radix order + 1) of monomials in
        nvars variables of degree <= order, reduced here to the canonical
        form."""
        if den > 1 and (common := gcd(den, *nums.values())) > 1:
            den //= common
            nums = {k: n // common for k, n in nums.items()}
        series = object.__new__(cls)
        _fill(series, nvars, order, den, nums)
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncatedSeries":
        return cls(nvars, order, {})

    @classmethod
    def constant(cls, nvars: int, order: int, value) -> "TruncatedSeries":
        return cls(nvars, order, {(0,) * nvars: Fraction(value)})

    @classmethod
    def monomial(cls, nvars: int, order: int, exps: Exponents,
                 coeff=1) -> "TruncatedSeries":
        return cls(nvars, order, {tuple(exps): Fraction(coeff)})

    @classmethod
    def variable(cls, nvars: int, order: int, index: int) -> "TruncatedSeries":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, order, {exps: Fraction(1)})

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The stored terms as a read-only map to canonical Fractions."""
        den = self._den
        return MappingProxyType({exps: Fraction(num, den)
                                 for exps, num in self._unpacked()})

    def coefficient(self, exps: Exponents) -> Fraction:
        """Coefficient of the monomial x^exps (zero if absent)."""
        degree = _degree(exps, self.nvars)
        if degree > self.order:
            raise ValueError(
                f"degree {degree} exceeds the trusted order {self.order}")
        return Fraction(self._nums.get(_pack(exps, self.order + 1), 0),
                        self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def leading_term(self) -> tuple[Exponents, Fraction] | None:
        """The term with lexicographically smallest exponents, or None."""
        if not self._nums:
            return None
        exps, num = min(self._unpacked())
        return exps, Fraction(num, self._den)

    def _values(self) -> tuple:
        return (self.nvars, self.order, self._den, self._nums)

    def __hash__(self):
        return hash((self.nvars, self.order, self._den,
                     frozenset(self._nums.items())))

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def _keyed_at(self, order: int) -> dict[int, int]:
        """The numerators of degree <= order, keyed with radix order + 1;
        the stored dict itself when that is the series' own order."""
        if order == self.order:
            return self._nums
        radix, nvars = self.order + 1, self.nvars
        limit = (order + 1) * radix ** nvars  # keys of degree <= order
        return {_pack(_unpack(k, nvars, radix), order + 1): n
                for k, n in self._nums.items() if k < limit}

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            other = TruncatedSeries._trusted(
                self.nvars, self.order, other.denominator,
                {0: num} if num else {})
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        if not other._nums and order == self.order:
            return self
        if not self._nums and order == other.order:
            return other
        den = lcm(self._den, other._den)
        nums = _rescaled(self._keyed_at(order), den // self._den)
        scale = den // other._den
        for key, num in other._keyed_at(order).items():
            if value := nums.get(key, 0) + num * scale:
                nums[key] = value
            else:
                del nums[key]
        return TruncatedSeries._trusted(self.nvars, order, den, nums)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(
            self.nvars, self.order, self._den,
            {k: -n for k, n in self._nums.items()})

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, (int, Fraction, TruncatedSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return TruncatedSeries._trusted(
                self.nvars, self.order, self._den * den,
                _rescaled(self._nums, num) if num else {})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        # key(a) + key(b) < R^(n+1) exactly when |a| + |b| <= order.
        bound = (order + 1) ** (self.nvars + 1)
        rows_b = sorted(other._keyed_at(order).items())
        acc: dict[int, int] = {}
        get = acc.get
        for ka, na in sorted(self._keyed_at(order).items()):
            limit = bound - ka
            for kb, nb in rows_b:
                if kb >= limit:
                    break
                key = ka + kb
                acc[key] = get(key, 0) + na * nb
        return TruncatedSeries._trusted(
            self.nvars, order, self._den * other._den,
            {k: n for k, n in acc.items() if n})

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict to a lower order (raising the order would overclaim)."""
        _at_least(order, 0, "truncation order")
        if order > self.order:
            raise ValueError(
                f"cannot extend trusted order {self.order} to {order}")
        return TruncatedSeries._trusted(self.nvars, order, self._den,
                                        self._keyed_at(order))

    def partial_derivative(self, var: int) -> "TruncatedSeries":
        """Formal d/dx_var; the trusted order drops by one, so a series of
        order 0 has no trusted derivative."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        if not self.order:
            raise ValueError("a series of trusted order 0 has no trusted "
                             "derivative")
        radix = self.order
        nums: dict[int, int] = {}
        for exps, num in self._unpacked():
            k = exps[var]
            if k:
                nums[_pack(exps[:var] + (k - 1,) + exps[var + 1:],
                           radix)] = num * k
        return TruncatedSeries._trusted(self.nvars, self.order - 1,
                                        self._den, nums)

    def substitute_zero(self, var: int) -> "TruncatedSeries":
        """Set x_var = 0, keeping the variable slot (order unchanged)."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        radix = self.order + 1
        place = radix ** var
        return TruncatedSeries._trusted(
            self.nvars, self.order, self._den,
            {k: n for k, n in self._nums.items() if not k // place % radix})

    # -- rendering -----------------------------------------------------

    def render(self, names: Iterable[str] | None = None) -> str:
        """Canonical text form, lexicographic in the exponent tuples."""
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        else:
            names = list(names)
            if len(names) != self.nvars:
                raise ValueError(f"{len(names)} variable names for a series "
                                 f"in {self.nvars} variables")
        if not self._nums:
            return "0"
        den = self._den
        return " + ".join(_term(Fraction(num, den), names, exps)
                          for exps, num in sorted(self._unpacked()))

    def _unpacked(self) -> list[tuple[Exponents, int]]:
        """(exponent tuple, numerator) for every stored term."""
        nvars, radix = self.nvars, self.order + 1
        return [(_unpack(k, nvars, radix), n) for k, n in self._nums.items()]

    def __repr__(self) -> str:
        return (f"TruncatedSeries(nvars={self.nvars}, order={self.order}, "
                f"{self.render()})")


def _degree(exps: Exponents, nvars: int) -> int:
    """The total degree of x^exps, once the exponents are checked: one per
    variable, none negative."""
    if len(exps) != nvars:
        raise ValueError(
            f"exponent tuple {exps} does not have {nvars} entries")
    if any(k < 0 for k in exps):
        raise ValueError(f"negative exponent in {exps}")
    return sum(exps)


def _term(coeff: Fraction, names: Iterable[str], exps: Exponents,
          *tail: str) -> str:
    """The text ``coeff·name^k·…·tail`` of one term: a power 1 is written
    bare and a power 0 left out, and the coefficient is left out when it
    is 1 and some factor follows."""
    factors = [name if k == 1 else f"{name}^{k}"
               for name, k in zip(names, exps) if k]
    factors += tail
    if coeff != 1 or not factors:
        factors.insert(0, str(coeff))
    return _DOT.join(factors)


def _pack(exps: Exponents, radix: int) -> int:
    """The graded key of x^exps: |exps| * R^n + sum exps[i] * R^i."""
    key = sum(exps)
    for a in reversed(exps):
        key = key * radix + a
    return key


def _unpack(key: int, nvars: int, radix: int) -> Exponents:
    """The exponent tuple of a packed key."""
    exps = []
    for _ in range(nvars):
        key, a = divmod(key, radix)
        exps.append(a)
    return tuple(exps)


def _variable_keys(nvars: int, order: int) -> list[int]:
    """key(x_i) for each variable at this order; the key of x^a is
    sum a_i * key(x_i) whenever |a| <= order."""
    radix = order + 1
    top = radix ** nvars
    return [top + radix ** i for i in range(nvars)]


def _fill(series: TruncatedSeries, nvars: int, order: int, den: int,
          nums: dict[int, int]) -> None:
    """Set the slots of a new series."""
    set_slot = object.__setattr__
    set_slot(series, "nvars", nvars)
    set_slot(series, "order", order)
    set_slot(series, "_den", den)
    set_slot(series, "_nums", nums)


def _rescaled(nums: dict[int, int], factor: int) -> dict[int, int]:
    """A copy of the numerators, each multiplied by ``factor``."""
    if factor == 1:
        return dict(nums)
    return {k: n * factor for k, n in nums.items()}


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_series(text: str, nvars: int, order: int) -> TruncatedSeries:
    """Parse the canonical text form back into a series.

    Inverse of ``render`` with default variable names; used to check that
    reported values round-trip losslessly.
    """
    text = text.strip()
    if text == "0":
        return TruncatedSeries.zero(nvars, order)
    terms: dict[Exponents, Fraction] = {}
    for part in text.split(" + "):
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in part.split(_DOT):
            factor = factor.strip()
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx >= nvars:
                    raise ValueError(f"variable x{idx} out of range")
                exps[idx] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(
                        f"zero denominator in {factor!r}") from None
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return TruncatedSeries(nvars, order, terms)
