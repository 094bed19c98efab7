"""Multivariate formal power series truncated by total degree.

A series stores only terms of total degree <= order, with exact rational
coefficients, and remembers that order as the range over which its
coefficients are trustworthy.  Arithmetic tightens the order accordingly:
sums and products carry the minimum of the operand orders, and a partial
derivative lowers the order by one.  Terms with zero coefficient or degree
beyond the order are never stored.

At the boundary (``terms``, ``coefficient``) every coefficient is a
canonical ``Fraction``.  A product of two series runs on integers: each
operand is scaled once to integer numerators over the lcm of its
denominators, the numerators are convolved as plain ints in order of
rising degree, and each result term is made one ``Fraction`` over the
product of the two denominators.  The constructor checks outside input;
results of the arithmetic are canonical by construction and skip it.

Instances are immutable after construction; all operations return new
series, so sharing between threads is safe.

The canonical text form writes terms in lexicographic order of their
exponent tuples, coefficients as ``num/den``, monomials with an explicit
caret power, e.g. ``1/2*x0^2*x1`` rendered with a middle dot separator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Mapping

_DOT = "·"

Exponents = tuple[int, ...]


class TruncatedSeries:
    """A formal power series in ``nvars`` variables, exact up to ``order``."""

    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars: int, order: int,
                 terms: Mapping[Exponents, Fraction] | None = None):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} does not have {nvars} entries")
                if any(k < 0 for k in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sum(exps) > order:
                    continue
                value = Fraction(coeff)
                if value:
                    clean[exps] = value
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def _trusted(cls, nvars: int, order: int,
                 terms: dict[Exponents, Fraction]) -> "TruncatedSeries":
        """A series from terms that are already canonical: exponent tuples
        of length nvars and degree <= order, nonzero Fraction coefficients."""
        series = object.__new__(cls)
        object.__setattr__(series, "nvars", nvars)
        object.__setattr__(series, "order", order)
        object.__setattr__(series, "terms", terms)
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
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, order, {exps: Fraction(1)})

    # -- queries -------------------------------------------------------

    def coefficient(self, exps: Exponents) -> Fraction:
        """Coefficient of the monomial x^exps (zero if absent)."""
        key = tuple(exps)
        if len(key) != self.nvars:
            raise ValueError(f"exponent tuple {exps} does not have "
                             f"{self.nvars} entries")
        if any(k < 0 for k in key):
            raise ValueError(f"negative exponent in {exps}")
        if sum(key) > self.order:
            raise ValueError(
                f"degree {sum(key)} exceeds the trusted order {self.order}")
        return self.terms.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def leading_term(self) -> tuple[Exponents, Fraction] | None:
        """The term with lexicographically smallest exponents, or None."""
        if not self.terms:
            return None
        exps = min(self.terms)
        return exps, self.terms[exps]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.order, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.nvars, self.order, other)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps not in terms:
                terms[exps] = coeff
            elif value := terms[exps] + coeff:
                terms[exps] = value
            else:
                del terms[exps]
        if self.order != other.order:
            terms = {e: c for e, c in terms.items() if sum(e) <= order}
        return TruncatedSeries._trusted(self.nvars, order, terms)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._trusted(
            self.nvars, self.order, {e: -c for e, c in self.terms.items()})

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
            return TruncatedSeries._trusted(
                self.nvars, self.order,
                {e: c * other for e, c in self.terms.items()} if other else {})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = min(self.order, other.order)
        den_a, rows_a = _scaled(self.terms)
        den_b, rows_b = _scaled(other.terms)
        acc: dict[Exponents, int] = {}
        for da, ea, na in rows_a:
            limit = order - da
            for db, eb, nb in rows_b:
                if db > limit:
                    break
                key = tuple(map(add, ea, eb))
                acc[key] = acc.get(key, 0) + na * nb
        den = den_a * den_b
        return TruncatedSeries._trusted(
            self.nvars, order,
            {e: Fraction(num, den) for e, num in acc.items() if num})

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict to a lower order (raising the order would overclaim)."""
        if order > self.order:
            raise ValueError(
                f"cannot extend trusted order {self.order} to {order}")
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
        return TruncatedSeries._trusted(
            self.nvars, order,
            {e: c for e, c in self.terms.items() if sum(e) <= order})

    def partial_derivative(self, var: int) -> "TruncatedSeries":
        """Formal d/dx_var; the trusted order drops by one, so a series of
        order 0 has no trusted derivative."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        if not self.order:
            raise ValueError("a series of trusted order 0 has no trusted "
                             "derivative")
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            key = exps[:var] + (k - 1,) + exps[var + 1:]
            terms[key] = coeff * k
        return TruncatedSeries._trusted(self.nvars, self.order - 1, terms)

    def substitute_zero(self, var: int) -> "TruncatedSeries":
        """Set x_var = 0, keeping the variable slot (order unchanged)."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        terms = {e: c for e, c in self.terms.items() if e[var] == 0}
        return TruncatedSeries._trusted(self.nvars, self.order, terms)

    # -- rendering -----------------------------------------------------

    def render(self, names: Iterable[str] | None = None) -> str:
        """Canonical text form, lexicographic in the exponent tuples."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        else:
            names = list(names)
        parts = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            factors = []
            for name, k in zip(names, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(_DOT.join(factors))
            else:
                parts.append(_DOT.join([str(coeff)] + factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return (f"TruncatedSeries(nvars={self.nvars}, order={self.order}, "
                f"{self.render()})")


def _scaled(terms: Mapping[Exponents, Fraction]
            ) -> tuple[int, list[tuple[int, Exponents, int]]]:
    """The terms over one common denominator: that denominator (the lcm of
    theirs) and rows (degree, exponents, numerator) sorted by degree."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, sorted(((sum(e), e, c.numerator * (den // c.denominator))
                        for e, c in terms.items()), key=itemgetter(0))


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
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return TruncatedSeries(nvars, order, terms)
