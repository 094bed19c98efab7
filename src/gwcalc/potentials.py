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

By the divisor axiom the divisor variables enter a structure constant only
through exp(<beta, x>), the q = e^t substitution (Kontsevich-Manin 1994,
section 2).  So the builder makes graded terms, one int numerator per
(pairing of beta, tail over the other kept classes), and one expansion
turns them into a series.  The residual multiplies graded terms, where
exp(<beta, x>) exp(<beta', x>) = exp(<beta + beta', x>) makes their keys
add, and expands only the entries that do not cancel: a vanishing residual
expands nothing.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import comb, prod
from operator import mul
from typing import Callable

from .exact import factorial
from .gw import _degree_zero, _invariant, _strip, _vdim
from .series import TruncatedSeries, _variable_keys
from .surfaces import n_d, n_de
from .targets import (P1XP1, Degree, ExponentVector, P1xP1, ProjectiveSpace,
                      TargetSpace, exponents_from_classes)

NdSource = Callable[[int], int]
NdeSource = Callable[[int, int], int]
Count = Callable[[Degree, ExponentVector], int]

_P2 = ProjectiveSpace(2)


def _exponent_vectors(nvars: int, max_total: int):
    """All exponent tuples with the given variable count and total <= bound,
    in lexicographic order.  One odometer with a running total, so neither
    the variable count nor the recursion limit bounds it."""
    exps = [0] * nvars
    total = 0
    while True:
        yield tuple(exps)
        if nvars and total < max_total:
            exps[-1] += 1
            total += 1
            continue
        # Roll over: clear the last nonzero digit and carry into the one
        # before it; the carry cannot raise the total.
        last = nvars - 1
        while last >= 0 and not exps[last]:
            last -= 1
        if last <= 0:
            return
        total -= exps[last] - 1
        exps[last] = 0
        exps[last - 1] += 1


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
    return TruncatedSeries(target.basis_size, 3, {
        a: Fraction(_degree_zero(target, a), prod(map(factorial, a)))
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


# An expansion lists every exponent vector of total <= order over its f free
# classes (the placed classes but the last, r - 2 on P^r when every class is
# kept, none on P^1, P^2 or P1xP1): C(f + order, order) vectors of f ints.
# Past this many ints a table is refused before any listing: on a 2-vCPU
# host p3000 at order 1 (9.0e6) answered in 3.3 s, p300 at order 2 (1.3e7)
# took 22 s.
_MAX_LISTING = 10 ** 7

# It also lists big ints of up to log2(order!) <= order * bitlen(order)
# bits: the factorials 0!..order!, one H / u! per head (C(d + order, d)
# heads over d kept divisors) and one T / t! per free vector.  Past this
# many bits by that count a table is refused too.  On a 2-vCPU host under a
# 2 GB address-space limit, qmul --big on P^1 answered in 58 s at order
# 7000 (1.27e9) and ran past 60 s at 7468, the first order refused, and at
# 7500; it is the widest table of any narrow target that answers in a
# minute.
_MAX_TABLE_BITS = 145 * 10 ** 7


class _ListingTooLarge(ValueError):
    """An expansion whose listing is past ``_MAX_LISTING`` ints or whose
    big ints are past ``_MAX_TABLE_BITS`` bits."""


def _check_listing(target: TargetSpace, order: int,
                   keep: tuple[int, ...]) -> None:
    """Raise ``_ListingTooLarge`` when the expansion of (target, order,
    keep) would list more than ``_MAX_LISTING`` ints of free vectors, or
    more than ``_MAX_TABLE_BITS`` bits of factorial-sized ints."""
    f = max(sum(target.codim(c) >= 2 for c in keep) - 1, 0)
    k = min(order, _MAX_LISTING)  # any f >= 1 is over by then
    if f * comb(f + k, k) > _MAX_LISTING:
        raise _ListingTooLarge(
            f"order {order} on {target} is too large: with f = {f} free "
            f"classes, f * C(f + order, order) is over {_MAX_LISTING}")
    d = sum(target.codim(c) == 1 for c in keep)
    big = order + 1 + comb(d + order, d) + comb(f + order, f)
    if big * order * order.bit_length() > _MAX_TABLE_BITS:
        raise _ListingTooLarge(
            f"order {order} on {target} is too large: {big} factorial-sized "
            f"ints of up to order * bitlen(order) bits are over "
            f"{_MAX_TABLE_BITS} bits")


class _Expansion:
    """What ``_terms`` and ``_expand`` need of one (target, order, keep),
    whatever the index triple, so the structure constants of one WDVV
    residual or one big product share it.

    The kept classes split into the divisors (gate weight codim - 1 = 0,
    one per generator at indices 1, 2, ...) and the placed classes (weight
    > 0); the gate solves the exponent of the last placed class from those
    of the ones before it (the free classes).  A kept exponent vector is a
    head u over the divisors plus a tail t over the placed classes, and
    x^a / a! = x^u x^t (H / u!) (T / t!) / (H T), where H is order! if a
    divisor is kept (else 1) and T likewise for the placed classes.  Keys
    are the packed series keys (radix order + 1, below ``bound``), built as
    sums of the variables' keys:

    * ``heads``: the key of every head of degree <= order in rising
      degree, ``sizes[d]`` the number of heads of degree <= d,
      ``head_scale`` their H / u!, and ``columns`` their exponents, one
      column per divisor;
    * ``free``: (free exponents, gate weight, key, T / f!) per free vector,
      and ``top_key`` the key of the last placed class;
    * ``pair_units``: per divisor, the unit that packs its pairing into a
      graded key above ``bound``, in digits of radix ``pair_radix``, wide
      enough for the sum of two pairings of any curve class the order
      reaches;
    * ``rows``: per packed pairing tuple, the nonzero terms (head key,
      <beta, x>^u / u! times H) of exp(<beta, x>) up to the longest
      degree asked for so far, with their count of heads;
    * ``invariant_terms``: per index exponent vector, the ``_terms`` of
      the invariants themselves, for the next structure constant or
      residual that asks.
    """

    __slots__ = ("nvars", "order", "weight", "placed", "top", "bound",
                 "head_den", "tail_den", "facts", "divisors", "heads",
                 "sizes", "head_scale", "columns", "free", "top_key",
                 "pair_radix", "pair_units", "rows", "invariant_terms")

    def __init__(self, target: TargetSpace, order: int,
                 keep: tuple[int, ...]):
        _check_listing(target, order, keep)
        self.nvars, self.order = len(keep), order
        self.weight = weight = [target.codim(c) - 1
                                for c in range(target.basis_size)]
        self.divisors = divisors = [c for c in keep if weight[c] == 0]
        self.placed = placed = [c for c in keep if weight[c] > 0]
        self.top = top = weight[placed[-1]] if placed else 0
        self.bound = bound = (order + 1) ** (len(keep) + 1)
        self.facts = facts = list(accumulate(range(1, order + 1), mul,
                                             initial=1))
        self.head_den = head_den = facts[order] if divisors else 1
        self.tail_den = tail_den = facts[order] if placed else 1
        unit = dict(zip(keep, _variable_keys(len(keep), order)))
        # Heads in rising degree, which is all the product loop's break
        # needs: a head fits beside a tail exactly when its degree does.
        heads = sorted(_exponent_vectors(len(divisors), order), key=sum)
        degrees = list(map(sum, heads))
        self.sizes = [bisect_right(degrees, d) for d in range(order + 1)]
        self.columns = columns = list(zip(*heads))
        self.heads = _dot(columns, [unit[c] for c in divisors], len(heads))
        self.head_scale = _scaled(head_den, columns, facts, len(heads))
        free = placed[:-1]
        vectors = list(_exponent_vectors(len(free), order))
        by_class = list(zip(*vectors))
        self.free = list(zip(
            vectors, _dot(by_class, [weight[c] for c in free], len(vectors)),
            _dot(by_class, [unit[c] for c in free], len(vectors)),
            _scaled(tail_den, by_class, facts, len(vectors))))
        self.top_key = unit[placed[-1]] if placed else 0
        # A pairing is at most the total degree, and ``_terms`` stops past
        # the total whose gap exceeds top * order at the largest offset,
        # that of three classes of the largest weight; a product adds two
        # pairings digit by digit.
        most = max((top * order + 3 * max(weight) - _vdim(target, 0, 0))
                   // target.index, 0)
        self.pair_radix = radix = 2 * most + 1
        self.pair_units = [radix ** i * bound for i in range(len(divisors))]
        self.rows: dict[int, list[tuple[int, int]]] = {}
        self.invariant_terms: dict[ExponentVector, dict[int, int]] = {}

    def row(self, pairing: int, degree: int) -> list[tuple[int, int]]:
        """The terms of exp(<beta, x>) up to at least ``degree`` for one
        packed pairing tuple, from one list of pairing powers per divisor;
        a stored row is rebuilt only when a longer one is asked for."""
        size = self.sizes[degree]
        stored = self.rows.get(pairing)
        if stored is None or stored[0] < size:
            nums = self.head_scale[:size]
            rest = pairing
            for column in self.columns:
                rest, p = divmod(rest, self.pair_radix)
                powers = [p ** a for a in range(degree + 1)]
                nums = [num * powers[a] for num, a in zip(nums, column)]
            stored = self.rows[pairing] = (size, [
                (key, num) for key, num in zip(self.heads, nums) if num])
        return stored[1]


_TABLES: dict[tuple, _Expansion] = {}


def _expansion(target: TargetSpace, order: int,
               keep: tuple[int, ...]) -> _Expansion:
    """The shared table of (target, order, keep), built on first use."""
    table = _TABLES.get((target, order, keep))
    if table is None:
        table = _TABLES[target, order, keep] = _Expansion(target, order, keep)
    return table


def _dot(columns: list[tuple[int, ...]], coefs: list[int],
         size: int) -> list[int]:
    """sum_c coefs[c] * columns[c], entry by entry, one column at a time."""
    out = [0] * size
    for column, coef in zip(columns, coefs):
        out = [x + a * coef for x, a in zip(out, column)]
    return out


def _scaled(den: int, columns: list[tuple[int, ...]], facts: list[int],
            size: int) -> list[int]:
    """den / prod_c columns[c]!, entry by entry (each division is exact)."""
    out = [den] * size
    for column in columns:
        out = [x // facts[a] for x, a in zip(out, column)]
    return out


def _terms(table: _Expansion, target: TargetSpace, idx_exps: ExponentVector,
           count: Count | None) -> dict[int, int]:
    """The graded terms of the curve-class part along the index classes
    ``idx_exps`` (no fundamental class among them): numerators over the
    table's tail denominator T, one per (pairing, tail) key.  ``count``
    gives I_beta for stripped exponents; None stands for the invariants
    themselves, whose terms the table keeps, so the caller must not change
    the dict returned.

    The term num at key pairing * bound + key(t) stands for
    num / T * x^t * exp(<beta, x>) over the kept divisors, and its sum over
    beta != 0 and the tails is the quantum part.  Per beta the strip takes
    the divisor factors of the index classes into the count, and the gate
    solves the exponent of the last placed class from those of the free
    classes.  The keys add under products: the tails as series keys, the
    pairings digit by digit."""
    if count is None:
        terms = table.invariant_terms.get(idx_exps)
        if terms is None:
            terms = table.invariant_terms[idx_exps] = _terms(
                table, target, idx_exps, functools.partial(_invariant, target))
        return terms
    placed, top, bound, order = (table.placed, table.top, table.bound,
                                 table.order)
    top_key, facts = table.top_key, table.facts
    offset = sum(w * a for w, a in zip(table.weight, idx_exps))
    terms: dict[int, int] = {}
    get = terms.get
    total = 0
    while True:
        total += 1
        gap = _vdim(target, total, 0) - offset
        if gap > top * order:
            break
        for beta in target.degrees(total):
            pairing = target.pairings(beta)
            mult, base = _strip(idx_exps, pairing)
            if not mult:
                continue
            high = sum(pairing[c - 1] * unit
                       for c, unit in zip(table.divisors, table.pair_units))
            for f, f_weight, f_key, f_scale in table.free:
                rest = gap - f_weight
                if rest < 0 or (rest % top if top else rest):
                    continue
                last = rest // top if top else 0
                tail_key = f_key + last * top_key
                if tail_key >= bound:  # the tail alone exceeds the order
                    continue
                exps = list(base)
                for c, a in zip(placed, f + (last,)):
                    exps[c] += a
                value = count(beta, tuple(exps))
                if value:
                    key = high + tail_key
                    terms[key] = get(key, 0) + value * mult * (
                        f_scale // facts[last])
    return terms


def _expand(table: _Expansion, terms: dict[int, int],
            den: int) -> TruncatedSeries:
    """The series of graded terms over ``den``: each num / den * x^t *
    exp(<beta, x>), expanded through the table's row of its pairing, up to
    the table's order, over the one denominator den * H."""
    bound, order = table.bound, table.order
    place = bound // (order + 1)  # the degree digit of a series key
    acc: dict[int, int] = {}
    get = acc.get
    row: list[tuple[int, int]] = []
    pairing = None
    # In key order each pairing's first tail has its lowest degree, so the
    # row asked for first is the longest one the pairing needs.
    for key, num in sorted(terms.items()):
        high, tail = divmod(key, bound)
        if high != pairing:
            pairing = high
            row = table.row(high, order - tail // place)
        limit = bound - tail
        for head_key, scale in row:
            if head_key >= limit:
                break
            key = head_key + tail
            acc[key] = get(key, 0) + num * scale
    return TruncatedSeries._trusted(table.nvars, order, den * table.head_den,
                                    {k: n for k, n in acc.items() if n})


def _quantum_part(target: TargetSpace, idx: tuple[int, ...], order: int,
                  count: Count | None,
                  keep: tuple[int, ...]) -> TruncatedSeries:
    """Curve-class part of the derivative of the potential along ``idx``.

    A series in the variables dual to the sorted basis indices ``keep``,
    the others set to zero: the coefficient of x^a / a! is the sum over
    beta != 0 of I_beta(h^a . h^idx), and ``count(beta, exps)`` gives
    I_beta for exponents without fundamental or divisor classes (None: the
    invariants, see ``_terms``).  It is ``_expand`` of ``_terms``: the
    graded (pairing, tail) terms, expanded through exp(<beta, x>).  What
    does not depend on ``idx`` comes from the shared ``_Expansion`` of
    (target, order, keep).  An index 0 (the fundamental class) builds
    nothing.
    """
    idx_exps = exponents_from_classes(target, idx)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if idx_exps[0]:  # the fundamental class kills every curve class
        return TruncatedSeries.zero(len(keep), order)
    table = _expansion(target, order, keep)
    return _expand(table, _terms(table, target, idx_exps, count),
                   table.tail_den)


def _wdvv_residual(target: TargetSpace, order: int, count: Count | None,
                   keep: tuple[int, ...],
                   i: int, j: int, k: int, l: int) -> TruncatedSeries:
    """sum_e Phi_ij,e Phi_(m-1-e),kl - Phi_jk,e Phi_i,(m-1-e),l over the
    kept classes, with the counts and kept classes of ``_quantum_part``.

    The products run on graded terms, before any expansion: each Phi is
    its ``_terms`` plus I_0(ijk) * T at key 0, once per index triple, and
    exp(<beta, x>) exp(<beta', x>) = exp(<beta + beta', x>), so the keys
    of two terms add.  All 2m products go into one accumulator over T^2,
    and only the entries that do not cancel are expanded; a vanishing
    residual expands nothing."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    m = target.basis_size
    table = _expansion(target, order, keep)
    bound, tail_den = table.bound, table.tail_den

    @functools.cache
    def terms(exps: ExponentVector) -> list[tuple[int, int, int]]:
        graded = {} if exps[0] else _terms(table, target, exps, count)
        if constant := _degree_zero(target, exps):
            graded = {**graded, 0: graded.get(0, 0) + constant * tail_den}
        return sorted((key % bound, key, num) for key, num in graded.items())

    g = lambda *ijk: terms(exponents_from_classes(target, ijk))
    acc: dict[int, int] = {}
    get = acc.get
    for e in range(m):
        for sign, left, right in ((1, g(i, j, e), g(m - 1 - e, k, l)),
                                  (-1, g(j, k, e), g(i, m - 1 - e, l))):
            for tail_a, key_a, num_a in left:
                num_a *= sign
                limit = bound - tail_a
                for tail_b, key_b, num_b in right:
                    if tail_b >= limit:
                        break
                    key = key_a + key_b
                    acc[key] = get(key, 0) + num_a * num_b
    return _expand(table, {key: n for key, n in acc.items() if n},
                   tail_den * tail_den)


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
    return _wdvv_residual(_P2, order, lambda d, exps: (nd or n_d)(d), (2,),
                          1, 1, 2, 2)


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
    return _wdvv_residual(P1XP1, order,
                          lambda beta, exps: (nde or n_de)(*beta), (1, 2, 3),
                          1, 2, 3, 3)


_PHI_CACHE: dict[tuple, TruncatedSeries] = {}


def phi_ijk(target: TargetSpace, i: int, j: int, k: int,
            order: int) -> TruncatedSeries:
    """Structure constant Phi_ijk as a multivariate series.

    The coefficient of x^a / a! is the collected invariant
    I(h^a . h^i . h^j . h^k), so no derivative-induced order loss occurs.
    """
    key = (target, tuple(sorted((i, j, k))), order)
    if key not in _PHI_CACHE:
        quantum = _quantum_part(target, key[1], order, None,
                                tuple(range(target.basis_size)))
        # plus the degree-zero constant I_0(ijk)
        constant = _degree_zero(target,
                                exponents_from_classes(target, key[1]))
        _PHI_CACHE[key] = quantum + constant if constant else quantum
    return _PHI_CACHE[key]


def clear_caches() -> None:
    """Drop the memoized structure-constant series and expansion tables."""
    _PHI_CACHE.clear()
    _TABLES.clear()


def wdvv_general_pr(r: int, i: int, j: int, k: int, l: int,
                    order: int) -> TruncatedSeries:
    """Full multivariate WDVV residual for P^r at one index quadruple, over
    the structure constants of ``phi_ijk``: a series in x0..xr that
    vanishes identically.  Guarded to r in {2, 3}; the number of structure
    constants grows quickly with r.
    """
    if not 2 <= r <= 3:
        raise ValueError(f"supported range is 2 <= r <= 3, got r={r}")
    target = ProjectiveSpace(r)
    return _wdvv_residual(target, order, None, tuple(range(r + 1)),
                          i, j, k, l)
