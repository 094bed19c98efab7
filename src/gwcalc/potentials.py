"""Generating functions of the invariants and the WDVV identities.

The potential of a target is the exponential generating function

    Phi(x) = sum_a x^a / a! * I(h^a)

over exponent vectors a, where I is the collected invariant.  It splits
into the classical part (degree-zero invariants, a cubic polynomial) and
the quantum part carrying the curve counts.  One builder makes the quantum
part of every structure constant Phi_ijk (third partial derivative), and
the WDVV equation, the associativity of the quantum product, is one residual

    sum_e Phi_ije Phi_(m-1-e)kl - Phi_jke Phi_i(m-1-e)l       (basis size m)

which over the reduced constants is one identity per surface, at the index
quadruples (1, 1, 2, 2) on P^2 and (1, 2, 3, 3) on P1xP1:

    P^2:     G222 + G111*G122 = G112*G112       (one variable)
    P1xP1:   G333 + G112*G233 + G122*G133 = G123*G123 + G223*G113

whose coefficient expansions are the curve-count recursions.  The residuals
take another count source, so that perturbed tables can be shown to fail.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul
from typing import Callable

from .exact import factorial
from .gw import _degrees, _invariant, _shape, _strip, _vdim
from .series import TruncatedSeries
from .surfaces import n_d, n_de
from .targets import (P1XP1, Degree, ExponentVector, P1xP1, ProjectiveSpace,
                      TargetSpace, exponents_from_classes)

NdSource = Callable[[int], int]
NdeSource = Callable[[int, int], int]

_P2 = ProjectiveSpace(2)


def _exponent_vectors(nvars: int, max_total: int):
    """All exponent tuples with the given variable count and total <= bound."""
    if nvars == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _exponent_vectors(nvars - 1, max_total - head):
            yield (head,) + tail


def classical_potential(target: TargetSpace) -> TruncatedSeries:
    """The degree-zero part of the potential, computed from the invariants.

    Phi_cl = sum_{i,j,k} x_i x_j x_k / 3! * I_0(basis triple), a cubic in
    one variable per basis class.  Supported for P^1, P^2, P^3 and P1xP1.
    """
    if isinstance(target, ProjectiveSpace):
        if target.r > 3:
            raise ValueError(
                f"classical potential is provided for P^1..P^3 and P1xP1, "
                f"got {target}")
    elif not isinstance(target, P1xP1):
        raise ValueError(f"unsupported target {target!r}")
    zero, = _degrees(target, 0)
    return TruncatedSeries(target.basis_size, 3, {
        a: Fraction(_invariant(target, zero, a), prod(map(factorial, a)))
        for a in _exponent_vectors(target.basis_size, 3) if sum(a) == 3})


def gw_potential_p1(order: int) -> TruncatedSeries:
    """Full potential of P^1 in x0, x1: x0^2 x1 / 2 + exp(x1), truncated.

    A closed form, independent of the invariant engine: the coefficient of
    x^a / a! is ``collected_invariant(ProjectiveSpace(1), a)``."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    terms: dict[tuple[int, int], Fraction] = {}
    if order >= 3:
        terms[(2, 1)] = Fraction(1, 2)
    for n in range(order + 1):
        terms[(0, n)] = Fraction(1, factorial(n))
    return TruncatedSeries(2, order, terms)


def _quantum_part(target: TargetSpace, idx: tuple[int, ...], order: int,
                  count: Callable[[Degree, ExponentVector], int],
                  keep: tuple[int, ...]) -> TruncatedSeries:
    """Curve-class part of the derivative of the potential along ``idx``.

    A series in the variables dual to the sorted basis indices ``keep``,
    the others set to zero: the coefficient of x^a / a! is the sum over
    beta != 0 of I_beta(h^a . h^idx), and ``count(beta, exps)`` gives
    I_beta for exponents without fundamental or divisor classes.  The
    exponent vectors are listed once per call.  Per beta the strip takes
    the divisor factors of ``idx``, exp(<beta, x>) is expanded once over
    the kept divisors from one row of pairing powers each, and the gate
    solves the exponent of the last kept class from those of the classes
    between.  An index 0 (the fundamental class) builds nothing.  Each
    coefficient is summed as an integer times a! and handed to the series
    as an integer numerator over the one denominator order!.
    """
    idx_exps = exponents_from_classes(target, idx)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if idx_exps[0]:  # the fundamental class kills every curve class
        return TruncatedSeries.zero(len(keep), order)
    index, dim, _, pairings = _shape(target, _degrees(target, 0)[0])
    # The gate fixes (codimension sum - marks); each class adds codim - 1.
    weight = [target.codim(c) - 1 for c in range(target.basis_size)]
    divisors = [c for c in keep if 1 <= c <= len(pairings)]
    placed = [c for c in keep if c > len(pairings)]
    top = weight[placed[-1]] if placed else 0
    free = placed[:-1]
    head = (0,) if 0 in keep else ()
    # The divisor exponent vectors in rising degree, as degrees, key heads
    # and one column of exponents per kept divisor.
    vectors = sorted(_exponent_vectors(len(divisors), order), key=sum)
    degrees = [sum(u) for u in vectors]
    heads = [head + u for u in vectors]
    columns = list(zip(*vectors))
    free_vectors = list(_exponent_vectors(len(free), order))
    acc: dict[ExponentVector, int] = {}
    total = 0
    while True:
        total += 1
        gap = _vdim(index, dim, total, 0) - sum(weight[c] for c in idx)
        if gap > top * order:
            break
        # A kept tail has degree >= gap / top, which leaves the divisors span.
        span = order - (max(gap, 0) + top - 1) // top if top else order
        for beta in _degrees(target, total):
            pairing = _shape(target, beta)[3]
            mult, base = _strip(idx_exps, pairing)
            if not mult:
                continue
            # exp(<beta, x>) over the kept divisors up to degree span, times
            # the strip factor, from one row of pairing powers per divisor.
            nums = [mult] * bisect_right(degrees, span)
            for c, column in zip(divisors, columns):
                row = [pairing[c - 1] ** a for a in range(span + 1)]
                nums = [num * row[a] for num, a in zip(nums, column)]
            exp_table = [(degrees[v], heads[v], num)
                         for v, num in enumerate(nums) if num]
            for f in free_vectors:
                rest = gap - sum(weight[c] * a for c, a in zip(free, f))
                if rest < 0 or (rest % top if top else rest):
                    continue
                tail = f + (rest // top,) if top else f
                budget = order - sum(tail)
                if budget < 0:
                    continue
                exps = list(base)
                for c, a in zip(placed, tail):
                    exps[c] += a
                value = count(beta, tuple(exps))
                if not value:
                    continue
                for degree, key_head, num in exp_table:
                    if degree > budget:
                        break
                    key = key_head + tail
                    acc[key] = acc.get(key, 0) + value * num
    # x^a / a! is x^a * (order! / a!) over the one denominator order!.
    facts = list(accumulate(range(1, order + 1), mul, initial=1))
    den = facts[order]
    return TruncatedSeries._trusted(len(keep), order, den, {
        key: num * (den // prod(map(facts.__getitem__, key)))
        for key, num in acc.items() if num})


def _with_constant(target: TargetSpace, ijk: tuple[int, ...],
                   quantum: TruncatedSeries) -> TruncatedSeries:
    """Phi_ijk: its quantum part plus the degree-zero constant I_0(ijk)."""
    zero, = _degrees(target, 0)
    constant = _invariant(target, zero, exponents_from_classes(target, ijk))
    return quantum + constant if constant else quantum


def _wdvv_residual(target: TargetSpace,
                   phi: Callable[[tuple[int, ...]], TruncatedSeries],
                   i: int, j: int, k: int, l: int) -> TruncatedSeries:
    """sum_e Phi_ij,e Phi_(m-1-e),kl - Phi_jk,e Phi_i,(m-1-e),l, where
    ``phi`` maps a sorted index triple to Phi and runs once per triple."""
    m = target.basis_size
    phi = functools.cache(phi)
    g = lambda *ijk: phi(tuple(sorted(ijk)))
    terms = [g(i, j, e) * g(m - 1 - e, k, l) - g(j, k, e) * g(i, m - 1 - e, l)
             for e in range(m)]
    return sum(terms[1:], terms[0])


def gamma_p2_reduced(i: int, j: int, k: int, order: int,
                     nd: NdSource | None = None) -> TruncatedSeries:
    """Reduced quantum structure constant of P^2, one variable.

    With the variables dual to h^0 and h^1 eliminated (the former never
    contributes, the latter only through degree factors), the quantum part
    of Phi_ijk becomes a series in the point variable alone:

        G_ijk(x) = sum_{d>=1} d^(#ones) N_d x^n / n!,  n = 3d + 2 - i - j - k.

    Any index 0 yields the zero series.
    """
    return _quantum_part(_P2, (i, j, k), order,
                         lambda d, exps: (nd or n_d)(d), (2,))


def quantum_potential_p2_reduced(order: int, nd: NdSource | None = None
                                 ) -> dict[tuple[int, int, int], TruncatedSeries]:
    """The family of reduced structure constants G_ijk, i <= j <= k in {1, 2}."""
    return {(i, j, k): gamma_p2_reduced(i, j, k, order, nd)
            for i in (1, 2) for j in (1, 2) for k in (1, 2) if i <= j <= k}


def wdvv_residual_p2(order: int, nd: NdSource | None = None) -> TruncatedSeries:
    """G222 + G111*G122 - G112*G112, identically zero for the true counts."""
    return _wdvv_residual(_P2, lambda ijk: _with_constant(
        _P2, ijk, gamma_p2_reduced(*ijk, order, nd)), 1, 1, 2, 2)


def quantum_potential_p1x1(order: int, nde: NdeSource | None = None
                           ) -> TruncatedSeries:
    """Quantum part of the P1xP1 potential in x1, x2, x3:

        sum_{d+e>=1} N_(d,e) x3^(2(d+e)-1) / (2(d+e)-1)! exp(e x1 + d x2),

    truncated at total degree <= order.  The rule variables enter through
    the exponential because extracting one vertical rule class contributes
    a factor e and one horizontal rule class a factor d.
    """
    return _quantum_part(P1XP1, (), order,
                         lambda beta, exps: (nde or n_de)(*beta), (1, 2, 3))


def gamma_p1x1(i: int, j: int, k: int, order: int,
               nde: NdeSource | None = None) -> TruncatedSeries:
    """Third partial of the P1xP1 quantum potential with respect to
    x_i, x_j, x_k (indices in 1..3); an index 0 yields the zero series."""
    return _quantum_part(P1XP1, (i, j, k), order,
                         lambda beta, exps: (nde or n_de)(*beta), (1, 2, 3))


def wdvv_residual_p1x1(order: int, nde: NdeSource | None = None
                       ) -> TruncatedSeries:
    """G333 + G112*G233 + G122*G133 - G123*G123 - G223*G113."""
    return _wdvv_residual(P1XP1, lambda ijk: _with_constant(
        P1XP1, ijk, gamma_p1x1(*ijk, order, nde)), 1, 2, 3, 3)


_PHI_CACHE: dict[tuple, TruncatedSeries] = {}


def phi_ijk(target: TargetSpace, i: int, j: int, k: int,
            order: int) -> TruncatedSeries:
    """Structure constant Phi_ijk as a multivariate series.

    The coefficient of x^a / a! is the collected invariant
    I(h^a . h^i . h^j . h^k), so no derivative-induced order loss occurs.
    """
    key = (target, tuple(sorted((i, j, k))), order)
    if key not in _PHI_CACHE:
        _PHI_CACHE[key] = _with_constant(target, key[1], _quantum_part(
            target, key[1], order, functools.partial(_invariant, target),
            tuple(range(target.basis_size))))
    return _PHI_CACHE[key]


def clear_caches() -> None:
    """Drop the memoized structure-constant series."""
    _PHI_CACHE.clear()


def wdvv_general_pr(r: int, i: int, j: int, k: int, l: int,
                    order: int) -> TruncatedSeries:
    """Full multivariate WDVV residual for P^r at one index quadruple, over
    ``phi_ijk``: a series in x0..xr that vanishes identically.  Guarded to
    r in {2, 3}; the number of structure constants grows quickly with r.
    """
    if not 2 <= r <= 3:
        raise ValueError(f"supported range is 2 <= r <= 3, got r={r}")
    target = ProjectiveSpace(r)
    return _wdvv_residual(target, lambda ijk: phi_ijk(target, *ijk, order),
                          i, j, k, l)
