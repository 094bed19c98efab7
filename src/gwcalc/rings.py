"""Classical, small quantum and big quantum cohomology products.

Small quantum products follow one rule from the presentation each target
carries (``targets``): the words of two basis classes add, and a generator
power that reaches the index n carries into its parameter, g^n = q_g.  On
P^r that is h^i * h^j = h^(i+j) if i + j <= r and q h^(i+j-r-1) otherwise;
on P1xP1, T_1 T_1 = q_v, T_1 T_2 = T_3, T_1 T_3 = q_v T_2 and
T_3 T_3 = q_v q_h.  The products of the basis classes are tabled once per
target.  A small quantum power is taken by repeated squaring, about
2 log2 e products instead of e - 1; since the small product is associative
(the WDVV equation) and commutative and its coefficients are exact, that
bracketing gives the left fold's value exactly.

A ring element keeps, per basis class, a sparse polynomial in the
deformation parameters (q, or q_v and q_h) with rational coefficients.
The parameters stay honest polynomial generators; the substitution
q = exp(x) belongs to the potential layer and never happens here.

The big quantum product works over truncated power series in the full set
of dual variables: h^i * h^j = sum_{e+f=r} Phi_ije h^f with structure
constants taken from the potential module at the requested order.

Both element types are ``targets._Record``s, as the series are: assigning
or deleting a field raises ``AttributeError``, and a ring element's
``coeffs`` and each of its polynomials are read-only maps, so a value
cannot change after it is built.  The constructor checks outside input;
sums, scalings and small products, made from checked elements, are built
by the private ``RingElement._trusted``, which only drops zero
coefficients.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Mapping

from .potentials import phi_ijk
from .series import _DOT, TruncatedSeries, _degree, _term
from .targets import P1xP1, ProjectiveSpace, TargetSpace, _Record, _at_least

Monomial = tuple[int, ...]  # exponents of the deformation parameters


class RingElement(_Record):
    """Element of a (small quantum) cohomology ring.

    ``coeffs`` maps a basis index to a sparse polynomial, itself a map
    from a deformation-parameter exponent tuple to a rational coefficient;
    both maps are read-only.  Zero coefficients are never stored.
    """

    __slots__ = ("target", "coeffs")
    __match_args__ = __slots__

    def __init__(self, target: TargetSpace,
                 coeffs: Mapping[int, Mapping[Monomial, Fraction]] | None = None):
        nparams = len(target.params)
        clean: dict[int, Mapping[Monomial, Fraction]] = {}
        if coeffs:
            for basis, poly in coeffs.items():
                target.codim(basis)  # range check
                entry: dict[Monomial, Fraction] = {}
                for mono, coeff in poly.items():
                    try:  # the exponent-vector rule of series terms
                        _degree(mono, nparams)
                    except ValueError:
                        raise ValueError(
                            f"bad parameter monomial {mono}") from None
                    value = Fraction(coeff)
                    if value:
                        entry[tuple(mono)] = value
                if entry:
                    clean[basis] = MappingProxyType(entry)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, target: TargetSpace,
                 coeffs: dict[int, dict[Monomial, Fraction]]) -> "RingElement":
        """An element from polynomials whose basis indices, monomials and
        Fraction coefficients are already checked, as those of a value
        derived from checked elements are; only the zero coefficients and
        the polynomials they empty are dropped here."""
        clean = {}
        for basis, poly in coeffs.items():
            entry = {mono: c for mono, c in poly.items() if c}
            if entry:
                clean[basis] = MappingProxyType(entry)
        element = object.__new__(cls)
        object.__setattr__(element, "target", target)
        object.__setattr__(element, "coeffs", MappingProxyType(clean))
        return element

    def _values(self) -> tuple:
        return (self.target, self.coeffs)

    @classmethod
    def zero(cls, target: TargetSpace) -> "RingElement":
        return cls(target)

    @classmethod
    def basis(cls, target: TargetSpace, index: int, coeff=1,
              mono: Monomial | None = None) -> "RingElement":
        mono = mono if mono is not None else (0,) * len(target.params)
        return cls(target, {index: {mono: Fraction(coeff)}})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __hash__(self):
        return hash((self.target,
                     frozenset((b, frozenset(p.items()))
                               for b, p in self.coeffs.items())))

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.target != other.target:
            raise ValueError("target mismatch")
        coeffs: dict[int, dict[Monomial, Fraction]] = {
            b: dict(p) for b, p in self.coeffs.items()}
        for basis, poly in other.coeffs.items():
            entry = coeffs.setdefault(basis, {})
            for mono, coeff in poly.items():
                entry[mono] = entry.get(mono, 0) + coeff
        return RingElement._trusted(self.target, coeffs)

    def __neg__(self) -> "RingElement":
        return self.scale(-1)

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, factor) -> "RingElement":
        factor = Fraction(factor)
        return RingElement._trusted(
            self.target, {b: {m: c * factor for m, c in p.items()}
                          for b, p in self.coeffs.items()})

    def __mul__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return small_qmul(self, other)

    def render(self) -> str:
        """Canonical text, e.g. ``q·h0`` or ``T3 + 2·q_v·T2``."""
        if not self.coeffs:
            return "0"
        names, basis_name = self.target.params, self.target.basis_name
        return " + ".join(
            _term(poly[mono], names, mono, basis_name(basis))
            for basis, poly in sorted(self.coeffs.items())
            for mono in sorted(poly))

    def __repr__(self) -> str:
        return f"RingElement({self.target}, {self.render()})"


def cup_pr(i: int, j: int, r: int) -> RingElement:
    """Cup product h^i u h^j in H*(P^r) = Q[h]/(h^(r+1))."""
    return _cup(ProjectiveSpace(r), i, j)


def cup_p1x1(i: int, j: int) -> RingElement:
    """Cup product T_i u T_j in H*(P1xP1) = Q[h, v]/(h^2, v^2)."""
    return _cup(P1xP1(), i, j)


def _cup(target: TargetSpace, i: int, j: int) -> RingElement:
    """The q-free part of the small quantum product of two basis classes."""
    target.codim(i)
    target.codim(j)
    basis, mono = _products(target)[i, j]
    if any(mono):
        return RingElement.zero(target)
    return RingElement.basis(target, basis)


class _Products(dict):
    """The small products of one target's basis classes: a basis pair maps
    to (basis index, parameter monomial).  The words add, and each
    generator power carries into its parameter by divmod with the index.
    A pair is filled when first asked for; P^r has (r+1)^2 of them."""

    def __init__(self, target: TargetSpace):
        super().__init__()
        self.words, self.index = target.words, target.index
        self.basis = {word: i for i, word in enumerate(target.words)}

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, Monomial]:
        i, j = pair
        carry, word = zip(*(divmod(a + b, self.index)
                            for a, b in zip(self.words[i], self.words[j])))
        self[pair] = product = (self.basis[word], carry)
        return product


_products = functools.cache(_Products)  # one table per target


def small_qmul(a: RingElement, b: RingElement) -> RingElement:
    """Small quantum product, extended bilinearly from the basis rules."""
    if a.target != b.target:
        raise ValueError("target mismatch")
    target = a.target
    products = _products(target)
    coeffs: dict[int, dict[Monomial, Fraction]] = {}
    for bi, pa in a.coeffs.items():
        for bj, pb in b.coeffs.items():
            basis, mono = products[bi, bj]
            entry = coeffs.setdefault(basis, {})
            for ma, ca in pa.items():
                ma = tuple(map(add, ma, mono))
                for mb, cb in pb.items():
                    key = tuple(map(add, ma, mb))
                    value = entry.get(key)
                    entry[key] = ca * cb if value is None else value + ca * cb
    return RingElement._trusted(target, coeffs)


def small_qmul_pr(a: RingElement, b: RingElement, r: int) -> RingElement:
    """Small quantum product in Q*(P^r); operands must live there."""
    if a.target != ProjectiveSpace(r) or b.target != ProjectiveSpace(r):
        raise ValueError(f"operands must belong to P^{r}")
    return small_qmul(a, b)


def small_qmul_p1x1(a: RingElement, b: RingElement) -> RingElement:
    """Small quantum product in Q*(P1xP1)."""
    if not isinstance(a.target, P1xP1) or not isinstance(b.target, P1xP1):
        raise ValueError("operands must belong to P1xP1")
    return small_qmul(a, b)


def star_power(element: RingElement, exponent: int) -> RingElement:
    """exponent-fold small quantum power (exponent an int >= 1), by
    repeated squaring: floor(log2 e) squares and popcount(e) - 1 further
    products.  The small quantum product is associative (the WDVV
    equation) and commutative, and its coefficients are exact, so any
    bracketing of the e factors gives the left fold's value exactly."""
    _at_least(exponent, 1, "exponent")
    result = None
    while True:
        if exponent & 1:
            result = element if result is None else small_qmul(result, element)
        exponent >>= 1
        if not exponent:
            return result
        element = small_qmul(element, element)


class BigQuantumElement(_Record):
    """Element of Q[[x]] (x) A*(X): one truncated series per basis class.

    All component series share the variable count (one variable per basis
    class) and the truncation order.
    """

    __slots__ = ("target", "order", "components")
    __match_args__ = __slots__

    def __init__(self, target: TargetSpace, order: int,
                 components: tuple[TruncatedSeries, ...] | list[TruncatedSeries]):
        _at_least(order, 0, "order")
        m = target.basis_size
        components = tuple(components)
        if len(components) != m:
            raise ValueError(f"expected {m} component series, "
                             f"got {len(components)}")
        for s in components:
            if s.nvars != m:
                raise ValueError("component series must use one variable "
                                 "per basis class")
            if s.order != order:
                raise ValueError("all component series must share the "
                                 "truncation order")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", components)

    def _values(self) -> tuple:
        return (self.target, self.order, self.components)

    @classmethod
    def basis(cls, target: TargetSpace, index: int, order: int
              ) -> "BigQuantumElement":
        m = target.basis_size
        target.codim(index)
        comps = [TruncatedSeries.zero(m, order) for _ in range(m)]
        comps[index] = TruncatedSeries.constant(m, order, 1)
        return cls(target, order, comps)

    @classmethod
    def zero(cls, target: TargetSpace, order: int) -> "BigQuantumElement":
        m = target.basis_size
        return cls(target, order,
                   [TruncatedSeries.zero(m, order) for _ in range(m)])

    def component(self, index: int) -> TruncatedSeries:
        return self.components[index]

    def __add__(self, other: "BigQuantumElement") -> "BigQuantumElement":
        if not isinstance(other, BigQuantumElement):
            return NotImplemented
        self._check(other)
        return BigQuantumElement(
            self.target, self.order,
            [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "BigQuantumElement":
        return BigQuantumElement(self.target, self.order,
                                 [-c for c in self.components])

    def __sub__(self, other: "BigQuantumElement") -> "BigQuantumElement":
        if not isinstance(other, BigQuantumElement):
            return NotImplemented
        return self + (-other)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def _check(self, other: "BigQuantumElement") -> None:
        if self.target != other.target:
            raise ValueError("target mismatch")
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}")

    def render(self) -> str:
        parts = []
        for idx, comp in enumerate(self.components):
            if comp.is_zero():
                continue
            parts.append(f"({comp.render()}){_DOT}"
                         f"{self.target.basis_name(idx)}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"BigQuantumElement({self.target}, order={self.order})"


def big_qmul(a: BigQuantumElement, b: BigQuantumElement) -> BigQuantumElement:
    """Big quantum product: T_i * T_j = sum_f Phi_(i,j,m-1-f) T_f, extended
    bilinearly over the coefficient series.  Both bases (of size m) are
    self-dual in reverse order: h^f pairs with h^(r-f), T_f with T_(3-f).

    Raises ValueError when the structure constants' expansion is too large
    to list (``potentials._check_listing``), before any coefficient
    product."""
    a._check(b)
    target = a.target
    order = a.order
    m = target.basis_size
    out = [TruncatedSeries.zero(m, order) for _ in range(m)]
    for i in range(m):
        ai = a.components[i]
        if ai.is_zero():
            continue
        for j in range(m):
            bj = b.components[j]
            if bj.is_zero():
                continue
            factor = None
            for f in range(m):
                phi = phi_ijk(target, i, j, m - 1 - f, order)
                if phi.is_zero():
                    continue
                if factor is None:
                    factor = ai * bj
                out[f] = out[f] + factor * phi
    return BigQuantumElement(target, order, out)
