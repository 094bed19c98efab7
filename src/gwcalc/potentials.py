"""Generating functions of the invariants and the WDVV identities.

The potential of a target is the exponential generating function

    Phi(x) = sum_a x^a / a! * I(h^a)

over exponent vectors a, where I is the collected invariant.  It splits
into the classical part (degree-zero invariants, a cubic polynomial) and
the quantum part carrying the curve counts.  One builder lists every
structure constant Phi_ijk (third partial derivative), I_0 included, for
each series of them to expand, and the WDVV equation, the associativity
of the quantum product, is one residual

    sum_e Phi_ije Phi_(m-1-e)kl - Phi_jke Phi_i(m-1-e)l       (basis size m)

which over the reduced constants is one identity per surface, at the index
quadruples (1, 1, 2, 2) on P^2 and (1, 2, 3, 3) on P1xP1:

    P^2:     G222 + G111*G122 = G112*G112       (one variable)
    P1xP1:   G333 + G112*G233 + G122*G133 = G123*G123 + G223*G113

whose coefficient expansions are the curve-count recursions.  The residuals
take another count source, so that perturbed tables can be shown to fail.

By the divisor axiom the divisor variables enter a structure constant only
through exp(<beta, x>), the q = e^t substitution (Kontsevich-Manin 1994,
section 2).  So the builder lists graded terms, one int numerator per
(pairing of beta, tail t over the other kept classes), over |t|!, the
factorial of the tail's own degree as in an EGF coefficient, I_0 at key 0,
and one expansion turns them into a series.  The table of one (target,
order, kept classes) and count source is the engine's one cache, shared
when it reads the invariants and built per call for another count.  It
is whole once built, its curve classes listed up to the largest total
degree the order reaches; only its per-key memos (the rows of
exp(<beta, x>), the graded lists and the expanded series) fill on use,
each entry a function of its own key alone, so threads that share a
table read the same values.  The builder reads the target and count from
the table and works per listed term: it strips the sorted index classes
once per structure constant, so a curve class's multiplier is a product
of its pairings; per total degree it lists the tails the gate admits
once, from the free vectors the table keeps bucketed by gate weight; and
the invariants are read by their stripped marks (``gw._stripped``), since
the marks are built within the gate.  A structure constant is keyed by
its sorted indices and its tails are (class, count) pairs, so none builds
a vector as wide as the basis.  One lister (``_vectors``) gives every
exponent vector of total <= order over a list of classes in that sparse
form, with its key, degree and factorial: the table's heads over the kept
divisors and its free vectors come from it, and so does the classical
cubic.  The residual multiplies the same lists, where exp(<beta, x>)
exp(<beta', x>) = exp(<beta + beta', x>) makes their keys add and a
binomial keeps the product over the factorial of its degree, so its ints
stay the size of the coefficients; it expands only the entries that do
not cancel: a vanishing residual expands nothing.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from math import comb
from operator import itemgetter, mul
from typing import Callable, Iterable

from .gw import Marks, _degree_zero, _stripped, _vdim
from .series import TruncatedSeries, _variable_keys
from .targets import (P1XP1, Degree, P1xP1, ProjectiveSpace, TargetSpace,
                      _at_least)

NdSource = Callable[[int], int]
NdeSource = Callable[[int, int], int]
Count = Callable[[Degree, Marks], int]  # I_beta of stripped marks in the gate

_P1, _P2 = ProjectiveSpace(1), ProjectiveSpace(2)


def _vectors(classes: Iterable[int], unit: dict[int, int] | list[int],
             order: int) -> list[tuple]:
    """Every exponent vector v of total <= order over ``classes``, as
    (v as sparse (class, count) pairs, its series key, |v|, v!) in rising
    degree |v|, where ``unit[c]`` is the key of the variable of class c.
    It grows the vectors one class at a time, and only those below the
    order take a later class, so neither the class count nor the
    recursion limit bounds it."""
    empty = ((), 0, 0, 1)
    vectors, short = [empty], [empty]
    for c in classes:
        u = unit[c]
        grown = []
        for v, key, n, den in short:
            for a in range(1, order - n + 1):
                den *= a
                grown.append((v + ((c, a),), key + a * u, n + a, den))
        vectors += grown
        short += [vector for vector in grown if vector[2] < order]
    return sorted(vectors, key=itemgetter(2))


def classical_potential(target: TargetSpace) -> TruncatedSeries:
    """The degree-zero part of the potential, read from the degree-zero
    rule (``gw._degree_zero``) on every exponent vector of degree 3.

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
    m = target.basis_size
    # I_0 is 0 or 1, and 0 off degree 3: x^v / v! is 6 // v! over 3!.
    return TruncatedSeries._trusted(m, 3, 6, {
        key: 6 // den
        for v, key, _, den in _vectors(range(m), _variable_keys(m, 3), 3)
        if _degree_zero(target, v)})


def gw_potential_p1(order: int) -> TruncatedSeries:
    """Full potential of P^1 in x0, x1: x0^2 x1 / 2 + exp(x1), truncated.

    A closed form, independent of the invariant engine: the coefficient of
    x^a / a! is ``collected_invariant(ProjectiveSpace(1), a)``.  Raises
    ``_ListingTooLarge`` past the size bound of P^1's tables."""
    _at_least(order, 0, "order")
    _check_listing(_P1, order, (0, 1))
    x0, x1 = _variable_keys(2, order)
    nums: dict[int, int] = {}
    scale = 1  # order! / n!, by a running product from n = order down
    for n in range(order, 0, -1):
        nums[n * x1] = scale
        scale *= n
    nums[0] = scale  # order!, the one denominator
    if order >= 3:
        nums[2 * x0 + x1] = scale // 2
    return TruncatedSeries._trusted(2, order, scale, nums)


# An expansion lists every exponent vector of total <= order over its f free
# classes (the placed classes but the last, r - 2 on P^r when every class is
# kept, none on P^1, P^2 or P1xP1): C(f + order, order) vectors, each kept
# as sparse (class, count) pairs but counted here as the f ints of the dense
# listing the rule was set on.  Past this many ints a table is refused
# before any listing: on a 2-vCPU host, with the dense listing, p3000 at
# order 1 (9.0e6) answered in 3.3 s, p300 at order 2 (1.3e7) took 22 s.
_MAX_LISTING = 10 ** 7

# It also lists big ints of up to log2(order!) <= order * bitlen(order)
# bits: the factorials 0!..order!, one H / u! per head (C(d + order, d)
# heads over d kept divisors), one |f|! / f! per free vector, the rows of
# exp(<beta, x>) and the output series.  Past this many bits by that count
# a table is refused too.  On a 2-vCPU host under a 2 GB address-space
# limit, qmul --big on P^1 answered in 58 s at order 7000 and ran past 60 s
# at 7500, with the factorials, heads and free vectors counted (1.27e9 at
# 7000); with the rows and output counted too, the last orders allowed
# answered on P1xP1 (106) in 11 s and 505 MB, on P^2 (599) in 23 s and on
# P^3 (179) in 46 s and 925 MB, and P1xP1 ran out of memory at order 160.
_MAX_TABLE_BITS = 145 * 10 ** 7


class _ListingTooLarge(ValueError):
    """An expansion whose listing is past ``_MAX_LISTING`` ints or whose
    big ints are past ``_MAX_TABLE_BITS`` bits."""


def _check_listing(target: TargetSpace, order: int, keep: tuple[int, ...]
                   ) -> tuple[list[int], list[int], list[int], int, int]:
    """Raise ``_ListingTooLarge`` when the expansion of (target, order,
    keep) would list more than ``_MAX_LISTING`` ints of free vectors, or
    more than ``_MAX_TABLE_BITS`` bits of factorial-sized ints; else give
    the shape so bounded, which the table takes as is: the gate weight
    codim - 1 of each basis class, the kept divisors (weight 0) and placed
    classes (weight > 0), the weight ``top`` of the last placed class and
    ``most``, the largest total degree of a curve class whose terms reach
    ``order``.

    Those ints are the factorials, the heads and free vectors, one row per
    pairing of a curve class (its heads up to the order less the lowest
    tail degree of that total) and one output series (a term per monomial
    over the divisors and placed classes)."""
    weight = [sum(word) - 1 for word in target.words]
    divisors = [c for c in keep if weight[c] == 0]
    placed = [c for c in keep if weight[c] > 0]
    top = weight[placed[-1]] if placed else 0
    # A pairing is at most the total degree; _terms stops past the total
    # whose gap passes top * order at three classes of the largest weight.
    heaviest = 3 * max(weight)
    most = max((top * order + heaviest - _vdim(target, 0, 0))
               // target.index, 0)
    d, p = len(divisors), len(placed)
    f = max(p - 1, 0)
    k = min(order, _MAX_LISTING)  # any f >= 1 is over by then
    if f * comb(f + k, k) > _MAX_LISTING:
        raise _ListingTooLarge(
            f"order {order} on {target} is too large: with f = {f} free "
            f"classes, f * C(f + order, order) is over {_MAX_LISTING}")
    bits = order * order.bit_length()
    big = (order + 1 + comb(d + order, d) + comb(f + order, f)
           + comb(d + p + order, d + p))
    if not d:
        big += 1  # one row, of the empty head
    else:
        # The rows by total s: C(d - 1 + s, d - 1) pairings, each of at
        # most C(d + order - least, d) heads, where the gate leaves a tail
        # of degree >= least; the count stops at the first total past the
        # bound, so a huge order is refused at once.
        for total in range(1, most + 1):
            gap = _vdim(target, total, 0) - heaviest
            least = max(-(-gap // top), 0) if top else 0  # ceil
            if least > order or big * bits > _MAX_TABLE_BITS:
                break
            big += comb(d - 1 + total, d - 1) * comb(d + order - least, d)
    if big * bits > _MAX_TABLE_BITS:
        raise _ListingTooLarge(
            f"order {order} on {target} is too large: {big} factorial-sized "
            f"ints of up to order * bitlen(order) bits are over "
            f"{_MAX_TABLE_BITS} bits")
    return weight, divisors, placed, top, most


class _Expansion:
    """What ``_terms`` and ``_expand`` need of one (target, order, keep)
    and one count source, whatever the index triple, so the structure
    constants of one WDVV residual or one big product share it; keep None
    keeps every class.  It is complete once built: only ``rows``,
    ``lists`` and ``phis`` fill on use, per key, each entry a function of
    its key alone.

    The kept classes split into the divisors (gate weight codim - 1 = 0,
    one per generator at indices 1, 2, ...) and the placed classes (weight
    > 0); the gate solves the exponent of the last placed class from those
    of the ones before it (the free classes).  A kept exponent vector is a
    head u over the divisors plus a tail t over the placed classes, and
    x^a / a! = x^u (H / u!) / H * x^t (|t|! / t!) / |t|!, where H is
    order! if a divisor is kept (else 1).  ``_expand`` brings every tail to
    one denominator T, order! if a class is placed (else 1).  Keys are the
    packed series keys (radix order + 1, below ``bound``, the degree digit
    at ``place``), built as sums of the variables' keys:

    * ``target``: the target, for the builder and the invariants;
    * ``count``: I_beta of stripped marks, (class, count) pairs, that
      meet the gate, ``gw._stripped`` of the target unless another count
      is given;
    * ``heads``: (u, key, H / u!) for every head u of degree <= order
      over the kept ``divisors``, u as sparse (class, count) pairs, in
      rising degree (``_vectors``), ``sizes[d]`` the number of heads of
      degree <= d;
    * ``buckets``: (gate weight, bucket) in rising weight, one per weight
      that some free vector has, the weight sum_c weight(c) * f_c; a
      bucket lists (f, key, degree |f|, |f|! / f!) per free vector f of
      that weight in rising degree, f as sparse (class, count) pairs
      (``_vectors``); ``top_key`` is the key of the last placed class;
    * ``tail_scale``: T / n! for each tail degree n, by a running product
      (``[1]`` when no class is placed, so every tail is empty);
    * ``classes``: per total degree 0..``most`` (``_check_listing``, the
      largest whose terms reach the order), (beta, pairing, packed
      pairing) of each curve class; the packed pairing holds the pairing
      of each kept divisor above ``bound``, in digits of radix
      ``pair_radix``, wide enough for the sum of two pairings of any
      curve class listed;
    * ``rows``: per packed pairing tuple, the nonzero terms (head key,
      <beta, x>^u / u! times H) of exp(<beta, x>) up to the longest
      degree asked for so far, with their count of heads;
    * ``lists``: per sorted index tuple, the ``_listed`` structure
      constant, for the next structure constant, residual or big product
      that asks;
    * ``phis``: per sorted index tuple, the series ``_phi`` expands.
    """

    __slots__ = ("target", "nvars", "order", "weight", "divisors", "placed",
                 "top", "bound", "place", "head_den", "heads", "sizes",
                 "buckets", "top_key", "tail_scale", "pair_radix", "classes",
                 "count", "rows", "lists", "phis")

    def __init__(self, target: TargetSpace, order: int,
                 keep: tuple[int, ...] | None, count: Count | None = None):
        keep = tuple(range(target.basis_size)) if keep is None else keep
        weight, divisors, placed, top, most = _check_listing(
            target, order, keep)
        self.target, self.nvars, self.order = target, len(keep), order
        self.weight, self.divisors = weight, divisors
        self.placed, self.top = placed, top
        self.bound = bound = (order + 1) ** (len(keep) + 1)
        self.place = bound // (order + 1)
        facts = list(accumulate(range(1, order + 1), mul, initial=1))
        self.head_den = head_den = facts[order] if divisors else 1
        unit = dict(zip(keep, _variable_keys(len(keep), order)))
        # Heads in rising degree, which is all the product loop's break
        # needs: a head fits beside a tail exactly when its degree does.
        heads = _vectors(divisors, unit, order)
        self.heads = [(u, key, head_den // den) for u, key, _, den in heads]
        per_degree = [0] * (order + 1)
        for _, _, n, _ in heads:
            per_degree[n] += 1
        self.sizes = list(accumulate(per_degree))
        buckets: dict[int, list[tuple]] = {}
        for f, key, n, den in _vectors(placed[:-1], unit, order):
            buckets.setdefault(sum(weight[c] * a for c, a in f), []).append(
                (f, key, n, facts[n] // den))
        self.buckets = sorted(buckets.items())
        self.top_key = unit[placed[-1]] if placed else 0
        # T / n! from n = order down to 0, then in rising n.
        self.tail_scale = list(accumulate(range(order, 0, -1), mul,
                                          initial=1))[::-1] if placed else [1]
        # A product adds two pairings digit by digit.
        self.pair_radix = radix = 2 * most + 1
        # The pairing with divisor c, at pairing[c - 1], packs at digit i;
        # a divisor that is not kept packs at none.
        units = [0] * len(target.params)
        for i, c in enumerate(divisors):
            units[c - 1] = radix ** i * bound
        pairings = target.pairings
        self.classes = [
            [(beta, pairing, sum(map(mul, pairing, units)))
             for beta in target.degrees(total)
             for pairing in (pairings(beta),)]
            for total in range(most + 1)]
        self.count = count or partial(_stripped, target)
        self.rows: dict[int, list[tuple[int, int]]] = {}
        self.lists: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
        self.phis: dict[tuple[int, ...], TruncatedSeries] = {}

    def row(self, pairing: int, degree: int) -> list[tuple[int, int]]:
        """The terms of exp(<beta, x>) up to at least ``degree`` for one
        packed pairing tuple: one list of pairing powers per divisor, and
        each head's H / u! times the powers its pairs pick; a stored row
        is rebuilt only when a longer one is asked for."""
        size = self.sizes[degree]
        stored = self.rows.get(pairing)
        if stored is None or stored[0] < size:
            powers = {}
            rest = pairing
            for c in self.divisors:
                rest, p = divmod(rest, self.pair_radix)
                powers[c] = [p ** a for a in range(degree + 1)]
            terms = []
            for u, key, num in self.heads[:size]:
                for c, a in u:
                    num *= powers[c][a]
                if num:
                    terms.append((key, num))
            stored = self.rows[pairing] = (size, terms)
        return stored[1]


_TABLES: dict[tuple, _Expansion] = {}


def _expansion(target: TargetSpace, order: int, keep: tuple[int, ...] | None,
               count: Count | None = None) -> _Expansion:
    """The table of (target, order, keep) that reads ``count``: for the
    invariants (None) the one in ``_TABLES``, built on first use and keyed
    with keep None when every class is kept; for another count a fresh
    table, never stored."""
    if count is not None:
        return _Expansion(target, order, keep, count)
    if keep is not None and len(keep) == target.basis_size:
        keep = None
    key = (target, order, keep)
    return _TABLES.get(key) or _TABLES.setdefault(
        key, _Expansion(target, order, keep))


def _terms(table: _Expansion, idx: tuple[int, ...]) -> dict[int, int]:
    """The graded terms of the curve-class part along the sorted index
    classes ``idx`` (no fundamental class among them) on the table's
    target: one int numerator per (pairing, tail) key, over the factorial
    of the tail's degree.  The table's count gives I_beta for stripped
    marks that meet the gate.

    The term num at key pairing * bound + key(t) stands for
    num / |t|! * x^t * exp(<beta, x>) over the kept divisors, and its sum
    over beta != 0 and the tails is the quantum part: I_beta * mult /
    t! = I_beta * mult * (|f|! / f!) * C(|t|, last) / |t|! for the free
    part f and the last placed exponent of t.  The strip is made once per
    call: ``idx`` gives the pairings each beta's multiplier multiplies,
    one per index divisor, the placed marks (class, 1) every tail starts
    from, and the gate offset, the sum of the index classes' gate weights.
    A tail's marks are the placed marks, f and (last placed class, its
    exponent) when that is nonzero, so no tail is as wide as the basis.
    Per total degree the gate solves the exponent of the last placed class
    from the free part's gate weight, so the buckets of the weights that
    leave a multiple of ``top`` list the tails once, and each curve class
    of that total, as the table lists them, reads them; the totals stop at
    the first whose gap passes every tail, which the table's last total
    bounds.  The keys add under products: the tails as series keys, the
    pairings digit by digit."""
    target, top, order = table.target, table.top, table.order
    buckets, placed, top_key = table.buckets, table.placed, table.top_key
    count, weight = table.count, table.weight
    strip = len(target.params) + 1  # h^0 and the divisors
    divisors = [c - 1 for c in idx if c < strip]  # at pairing[c - 1]
    marks = tuple((c, 1) for c in idx if c >= strip)
    offset = sum(weight[c] for c in idx)
    step = top or 1  # with no placed class only gap 0 reaches the listing
    terms: dict[int, int] = {}
    get = terms.get
    for total in range(1, len(table.classes)):
        gap = _vdim(target, total, 0) - offset
        if gap > top * order:
            break
        tails = []
        for weight, bucket in buckets:
            if weight > gap:
                break
            last, rest = divmod(gap - weight, step)
            if rest:
                continue
            room, last_key = order - last, last * top_key
            held = marks + ((placed[-1], last),) if last else marks
            for f, f_key, n, f_scale in bucket:
                if n > room:  # the tail alone exceeds the order
                    break
                tails.append((f_key + last_key, f + held,
                              f_scale * comb(n + last, last) if n else 1))
        if not tails:
            continue
        for beta, pairing, high in table.classes[total]:
            mult = 1
            for at in divisors:
                mult *= pairing[at]
            if not mult:
                continue
            for tail_key, tail, scale in tails:
                value = count(beta, tail)
                if value:
                    key = high + tail_key
                    terms[key] = get(key, 0) + value * mult * scale
    return terms


def _expand(table: _Expansion, terms: dict[int, int]) -> TruncatedSeries:
    """The series of graded terms: each num / |t|! * x^t * exp(<beta, x>),
    brought to the tail denominator T = ``tail_scale[0]`` by the table's
    T / |t|!, expanded through the table's row of its pairing up to the
    table's order, over the one denominator T * H."""
    bound, order, place = table.bound, table.order, table.place
    tail_scale = table.tail_scale
    acc: dict[int, int] = {}
    get = acc.get
    row: list[tuple[int, int]] = []
    pairing = None
    # In key order each pairing's first tail has its lowest degree, so the
    # row asked for first is the longest one the pairing needs.
    for key, num in sorted(terms.items()):
        high, tail = divmod(key, bound)
        degree = tail // place
        if high != pairing:
            pairing = high
            row = table.row(high, order - degree)
        num *= tail_scale[degree]
        limit = bound - tail
        for head_key, scale in row:
            if head_key >= limit:
                break
            key = head_key + tail
            acc[key] = get(key, 0) + num * scale
    return TruncatedSeries._trusted(
        table.nvars, order, tail_scale[0] * table.head_den,
        {k: n for k, n in acc.items() if n})


def _listed(table: _Expansion, idx: tuple[int, ...]
            ) -> list[tuple[int, int, int]]:
    """Phi along the sorted index classes ``idx`` as (tail degree, key,
    num) graded terms in rising tail degree, I_0(idx) at key 0, on the
    table's target with the table's count, kept in the table's ``lists``
    under ``idx``."""
    found = table.lists.get(idx)
    if found is None:
        # h^0 kills every curve class.
        graded = {} if 0 in idx else _terms(table, idx)
        if constant := _degree_zero(table.target, tuple((c, 1) for c in idx)):
            graded[0] = graded.get(0, 0) + constant
        found = table.lists[idx] = sorted(
            (key % table.bound // table.place, key, num)
            for key, num in graded.items())
    return found


def _phi(target: TargetSpace, idx: tuple[int, ...], order: int,
         count: Count | None, keep: tuple[int, ...] | None
         ) -> TruncatedSeries:
    """Phi along ``idx``: a series in the variables dual to the sorted
    basis indices ``keep`` (None for every class), the others set to zero,
    whose coefficient of x^a / a! is the sum over every beta of
    I_beta(h^a . h^idx), ``count`` giving beta != 0 (None for the
    invariants).  It is ``_expand`` of ``_listed`` over the ``_expansion``
    of (target, order, keep, count), kept in the table's ``phis`` under
    the sorted indices; an index 0 (the fundamental class) leaves the
    constant I_0 and builds no table.  The indices are range-checked one
    by one, and no exponent vector is built, so no call takes time linear
    in r."""
    for i in idx:
        target.codim(i)  # range check
    _at_least(order, 0, "order")
    if 0 in idx:
        return TruncatedSeries.constant(
            target.basis_size if keep is None else len(keep), order,
            _degree_zero(target, tuple((c, 1) for c in idx)))
    table = _expansion(target, order, keep, count)
    idx = tuple(sorted(idx))
    found = table.phis.get(idx)
    if found is None:
        found = table.phis[idx] = _expand(table, {
            key: num for _, key, num in _listed(table, idx)})
    return found


def _wdvv_residual(target: TargetSpace, order: int, count: Count | None,
                   keep: tuple[int, ...] | None,
                   i: int, j: int, k: int, l: int) -> TruncatedSeries:
    """sum_e Phi_ij,e Phi_(m-1-e),kl - Phi_jk,e Phi_i,(m-1-e),l over the
    kept classes, with the counts and kept classes of ``_phi``.

    The products run on graded terms, before any expansion: each Phi is
    its ``_listed`` terms, I_0(ijk) at key 0, one list per index triple,
    and exp(<beta, x>) exp(<beta', x>) = exp(<beta + beta', x>), so the
    keys of two terms add.  Two numerators over |a|! and |b|! make one over
    (|a| + |b|)! times C(|a| + |b|, |a|), so all 2m products go into one
    accumulator in the normalization of ``_terms``; a square visits each
    unordered pair once.  Only the entries that do not cancel are
    expanded; a vanishing residual expands nothing.  The order is checked
    first, then i, j, k and l in turn."""
    _at_least(order, 0, "order")
    m = target.basis_size
    table = _expansion(target, order, keep, count)
    for index in (i, j, k, l):
        target.codim(index)  # range check
    g = lambda *ijk: _listed(table, tuple(sorted(ijk)))
    acc: dict[int, int] = {}
    get = acc.get
    for e in range(m):
        for sign, left, right in ((1, g(i, j, e), g(m - 1 - e, k, l)),
                                  (-1, g(j, k, e), g(i, m - 1 - e, l))):
            square = left is right
            for at, (deg_a, key_a, num_a) in enumerate(left):
                room = order - deg_a  # the degrees that fit beside a's tail
                if square:  # the diagonal once, then each pair b > a twice
                    if deg_a > room:
                        break
                    key = key_a + key_a
                    acc[key] = get(key, 0) + sign * num_a * num_a * comb(
                        deg_a + deg_a, deg_a)
                    num_a *= 2
                num_a *= sign
                # The terms come in rising tail degree: one binomial and
                # one fit test per degree.
                last = -1
                for deg_b, key_b, num_b in (right[at + 1:] if square
                                            else right):
                    if deg_b != last:
                        if deg_b > room:
                            break
                        last = deg_b
                        scaled = num_a * comb(deg_a + deg_b, deg_a)
                    key = key_a + key_b
                    acc[key] = get(key, 0) + scaled * num_b
    return _expand(table, {key: n for key, n in acc.items() if n})


def _nd_count(nd: NdSource | None) -> Count | None:
    """N_d from ``nd``, whatever the marks; None for the default
    counts, which the shared tables read as invariants (``_expansion``)."""
    return None if nd is None else lambda d, marks: nd(d)


def _nde_count(nde: NdeSource | None) -> Count | None:
    """N_(d,e) from ``nde``, whatever the marks; None for the default
    counts, as in ``_nd_count``."""
    return None if nde is None else lambda beta, marks: nde(*beta)


def gamma_p2_reduced(i: int, j: int, k: int, order: int,
                     nd: NdSource | None = None) -> TruncatedSeries:
    """Reduced quantum structure constant of P^2, one variable.

    With the variables dual to h^0 and h^1 eliminated (the former never
    contributes, the latter only through degree factors), the quantum part
    of Phi_ijk becomes a series in the point variable alone:

        G_ijk(x) = sum_{d>=1} d^(#ones) N_d x^n / n!,  n = 3d + 2 - i - j - k.

    Any index 0 yields the zero series.
    """
    phi = _phi(_P2, (i, j, k), order, _nd_count(nd), (2,))
    return phi - _degree_zero(_P2, ((i, 1), (j, 1), (k, 1)))


def quantum_potential_p2_reduced(order: int, nd: NdSource | None = None
                                 ) -> dict[tuple[int, int, int], TruncatedSeries]:
    """The family of reduced structure constants G_ijk, i <= j <= k in {1, 2}."""
    return {(i, j, k): gamma_p2_reduced(i, j, k, order, nd)
            for i in (1, 2) for j in (1, 2) for k in (1, 2) if i <= j <= k}


def wdvv_residual_p2(order: int, nd: NdSource | None = None) -> TruncatedSeries:
    """G222 + G111*G122 - G112*G112, identically zero for the true counts."""
    return _wdvv_residual(_P2, order, _nd_count(nd), (2,), 1, 1, 2, 2)


def quantum_potential_p1x1(order: int, nde: NdeSource | None = None
                           ) -> TruncatedSeries:
    """Quantum part of the P1xP1 potential in x1, x2, x3:

        sum_{d+e>=1} N_(d,e) x3^(2(d+e)-1) / (2(d+e)-1)! exp(e x1 + d x2),

    truncated at total degree <= order.  The rule variables enter through
    the exponential because extracting one vertical rule class contributes
    a factor e and one horizontal rule class a factor d.
    """
    return _phi(P1XP1, (), order, _nde_count(nde), (1, 2, 3))


def gamma_p1x1(i: int, j: int, k: int, order: int,
               nde: NdeSource | None = None) -> TruncatedSeries:
    """Third partial of the P1xP1 quantum potential with respect to
    x_i, x_j, x_k (indices in 1..3); an index 0 yields the zero series."""
    phi = _phi(P1XP1, (i, j, k), order, _nde_count(nde), (1, 2, 3))
    return phi - _degree_zero(P1XP1, ((i, 1), (j, 1), (k, 1)))


def wdvv_residual_p1x1(order: int, nde: NdeSource | None = None
                       ) -> TruncatedSeries:
    """G333 + G112*G233 + G122*G133 - G123*G123 - G223*G113."""
    return _wdvv_residual(P1XP1, order, _nde_count(nde), (1, 2, 3),
                          1, 2, 3, 3)


def phi_ijk(target: TargetSpace, i: int, j: int, k: int,
            order: int) -> TruncatedSeries:
    """Structure constant Phi_ijk as a multivariate series.

    The coefficient of x^a / a! is the collected invariant
    I(h^a . h^i . h^j . h^k), so no derivative-induced order loss occurs.
    The series is kept in the ``phis`` of the shared table of (target,
    order), every class kept, so a repeated call returns the same object.
    """
    return _phi(target, (i, j, k), order, None, None)


def clear_caches() -> None:
    """Drop the expansion tables, and with them every memo they keep."""
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
    return _wdvv_residual(ProjectiveSpace(r), order, None, None, i, j, k, l)
