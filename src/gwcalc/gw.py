"""Genus-0 Gromov-Witten invariants of P^r and P1 x P1.

Every invariant takes the same path (Kontsevich-Manin 1994, section 2).
Each step is written once, on degrees and exponent tuples:

1. dimension gate (``_vdim``): the invariant vanishes unless the input
   codimensions sum to c1(beta) + dim X + n - 3, the dimension of the
   space of n-pointed genus-0 stable maps, where c1(beta) is (r+1)d on
   P^r and 2(d+e) on P1 x P1;
2. degree zero (``_degree_zero``): a constant map needs three marks, and
   a three-point invariant is the triple intersection number;
3. strip (``_strip``): in positive degree a fundamental class (h^0, T_0)
   kills the invariant, and each divisor class is traded for its pairing
   with the degree: d per h^1 on P^r, e per T_1 and d per T_2 on P1 x P1.

After these steps a P1 x P1 invariant consists of point classes only and
equals the curve count N_(d,e).  On P^r the remaining invariants are
computed by the reconstruction recursion: the smallest remaining class h^c
is written as h^1 u h^(c-1), those two factors are placed on two extra
marks, and the resulting pair of equivalent boundary divisors is expanded
by the splitting formula.  The unknown invariant appears in the expansion
exactly once with coefficient one.  On P^1 nothing remains after the
strip: in positive degree the gate admits degree one only, where the
space of unmarked maps is one point, the identity map.  So I_1() = 1, and
the non-zero values are I_0(h0^2 h1) = 1 and I_1(h1^n) = 1 for n >= 0.

All values are integers; the public functions return them as ``Fraction``
since the surrounding series machinery works over the rationals.  Memo
tables are keyed by fully reduced keys, are write-once, and hold values
independent of evaluation order, so concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import binomial
from .surfaces import n_de
from .targets import (P1XP1, Degree, ExponentVector, InvariantKey, P1xP1,
                      ProjectiveSpace, TargetSpace, total_codim,
                      validate_degree)

_PR_CACHE: dict[tuple[int, int, ExponentVector], int] = {}


def clear_caches() -> None:
    """Drop the memoized reconstruction values."""
    _PR_CACHE.clear()


def _vdim(index: int, dim: int, total: int, n: int) -> int:
    """c1(beta) + dim X + n - 3 with c1(beta) = index * total: index r + 1
    and total d on P^r, index 2 and total d + e on P1 x P1."""
    return index * total + dim + n - 3


def _degree_zero(exps: ExponentVector, square_zero: tuple[int, ...] = ()) -> int:
    """Degree-zero invariant of a key that passed the gate.  Only
    three-point invariants survive; their classes cup to the point class
    unless one whose square is zero (T_1 or T_2 on P1 x P1) repeats."""
    return int(sum(exps) == 3 and all(exps[i] < 2 for i in square_zero))


def _strip(exps: ExponentVector, pairings: tuple[int, ...]
           ) -> tuple[int, ExponentVector]:
    """Fundamental-class and divisor axioms in positive degree.

    ``pairings`` holds <beta, D> for the divisor classes at basis indices
    1, 2, ...  Returns (multiplier, exponents with index 0 and those
    divisors removed).  A divisor with zero pairing gives multiplier 0: a
    curve missing that component of its bidegree is disjoint from a generic
    rule of the same family.
    """
    k = len(pairings) + 1
    mult = 0 if exps[0] else 1
    for pairing, a in zip(pairings, exps[1:k]):
        mult *= pairing ** a
    return mult, (0,) * k + exps[k:]


def _shape(target: TargetSpace, degree: Degree
           ) -> tuple[int, int, int, tuple[int, ...]]:
    """(index, dim X, total degree, divisor pairings) for the steps above."""
    if isinstance(target, P1xP1):
        d, e = degree
        return 2, 2, d + e, (e, d)
    return target.r + 1, target.r, degree, (degree,)


def dim_moduli(target: TargetSpace, degree: Degree, n: int) -> int:
    """Dimension of the space of n-pointed genus-0 stable maps:
    rd + r + d + n - 3 for P^r, n + 2d + 2e - 1 for P1 x P1.

    Degree zero with fewer than three marks admits no stable map at all,
    which is reported as an error rather than a dimension.
    """
    validate_degree(target, degree)
    if n < 0:
        raise ValueError(f"mark count must be >= 0, got {n}")
    index, dim, total, _ = _shape(target, degree)
    if total == 0 and n < 3:
        raise ValueError(
            "no stable maps: a constant map needs at least three marks")
    return _vdim(index, dim, total, n)


def dimension_admissible(key: InvariantKey) -> bool:
    """True when the input codimensions sum to the moduli dimension."""
    try:
        return key.codim_sum == dim_moduli(key.target, key.degree,
                                           key.n_marks)
    except ValueError:  # a constant map with fewer than three marks
        return False


def reduce_invariant(key: InvariantKey) -> tuple[int, InvariantKey]:
    """Strip fundamental-class and divisor-class inputs.

    Returns (multiplier, reduced key) with the reduced key carrying no
    fundamental class and no divisor class.  A fundamental class forces
    multiplier 0 in positive degree; a divisor class contributes one
    factor of the matching degree component per occurrence, so a P1 x P1
    rule class whose matching component is zero gives multiplier 0.
    Degree-zero keys are returned untouched: their three-point evaluation
    handles low codimensions directly.
    """
    _, _, total, pairings = _shape(key.target, key.degree)
    if not total:
        return 1, key
    mult, exps = _strip(key.exponents, pairings)
    return mult, InvariantKey(key.target, key.degree, exps)


def gw_p1(key: InvariantKey) -> Fraction:
    """All genus-0 invariants of P^1.

    The complete list of non-zero values is I_0(h0.h0.h1) = 1 and
    I_1(h1^n) = 1 for n >= 0; everything else vanishes.
    """
    target = key.target
    if not (isinstance(target, ProjectiveSpace) and target.r == 1):
        raise ValueError(f"gw_p1 expects target P^1, got {target}")
    return Fraction(_gw_pr_int(1, key.degree, key.exponents))


def gw_pr(key: InvariantKey) -> Fraction:
    """Genus-0 invariant of P^r, r >= 2, via the reconstruction recursion."""
    target = key.target
    if not (isinstance(target, ProjectiveSpace) and target.r >= 2):
        raise ValueError(f"gw_pr expects target P^r with r >= 2, got {target}")
    return Fraction(_gw_pr_int(target.r, key.degree, key.exponents))


def _gw_pr_int(r: int, d: int, exps: ExponentVector) -> int:
    if sum(i * a for i, a in enumerate(exps)) != _vdim(r + 1, r, d, sum(exps)):
        return 0
    if d == 0:
        return _degree_zero(exps)
    mult, exps = _strip(exps, (d,))
    if not mult:
        return 0
    if sum(exps) < 3:
        # The gate leaves degree one only: the line through two points,
        # I_1(h^r.h^r) = 1, or on P^1 the identity map, I_1() = 1.
        return mult
    cache_key = (r, d, exps)
    cached = _PR_CACHE.get(cache_key)
    if cached is None:
        cached = _reconstruct(r, d, exps)
        _PR_CACHE[cache_key] = cached
    return mult * cached


def _reconstruct(r: int, d: int, exps: ExponentVector) -> int:
    """Isolate I_d(exps) from the boundary-divisor balance equation.

    All classes here have codimension >= 2, d >= 1, n >= 3.  Write the
    smallest class h^c as h^1 u h^(c-1) and put the two factors on marks
    m1, m2; the two largest classes h^b1, h^b2 sit on the pinned marks
    p1, p2 and the remaining multiset is distributed freely.  Integrating
    over the equivalent divisors D(m1,m2|p1,p2) and D(m1,p1|m2,p2) and
    splitting each component gives

        sum_{dA+dB=d} sum_{S} sum_{i+j=r}
            I_dA(h^1.h^(c-1).S.h^i) I_dB(h^b1.h^b2.S'.h^j)
      = sum_{dA+dB=d} sum_{S} sum_{i+j=r}
            I_dA(h^1.h^b1.S.h^i) I_dB(h^(c-1).h^b2.S'.h^j)

    where S runs over sub-multisets of the free classes (with binomial
    multiplicity) and S' is the complement.  On the left the slot
    dA = 0, S empty forces i = r - c, and its factor I_0(h^1.h^(c-1).h^(r-c))
    equals one, so that term *is* the unknown invariant; every other slot
    only involves invariants of lower degree, lower minimal codimension
    or fewer marks.
    """
    c = min(i for i in range(2, r + 1) if exps[i])
    rest = list(exps)
    rest[c] -= 1
    b1 = max(i for i in range(2, r + 1) if rest[i])
    rest[b1] -= 1
    b2 = max(i for i in range(2, r + 1) if rest[i])
    rest[b2] -= 1
    free = tuple(rest)
    splits = [(sub, tuple(f - s for f, s in zip(free, sub)), ways, sum(sub),
               sum(i * a for i, a in enumerate(sub)))
              for sub, ways in _submultisets(free)]

    total = 0
    for da in range(d + 1):
        db = d - da
        # The A-side gate forces its gluing class h^i; the base marks carry
        # codimension 1 + (c-1) on the left and 1 + b1 on the right.
        dim_a = _vdim(r + 1, r, da, 3)
        for sub, comp, ways, k, sub_codim in splits:
            lhs = 0
            if da or k:
                i = dim_a + k - c - sub_codim
                if 0 <= i <= r:
                    fa = _gw_side(r, da, sub, (1, c - 1, i))
                    if fa:
                        fb = _gw_side(r, db, comp, (b1, b2, r - i))
                        lhs = fa * fb
            i = dim_a + k - 1 - b1 - sub_codim
            rhs = 0
            if 0 <= i <= r:
                fa = _gw_side(r, da, sub, (1, b1, i))
                if fa:
                    fb = _gw_side(r, db, comp, (c - 1, b2, r - i))
                    rhs = fa * fb
            if lhs or rhs:
                total += ways * (rhs - lhs)
    return total


def _gw_side(r: int, d: int, base: ExponentVector, extra: tuple[int, ...]) -> int:
    exps = list(base)
    for idx in extra:
        exps[idx] += 1
    return _gw_pr_int(r, d, tuple(exps))


def _submultisets(exps: ExponentVector):
    """Yield (sub-exponent-vector, number of labeled mark subsets)."""
    out: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for count in exps:
        nxt = []
        for prefix, ways in out:
            for take in range(count + 1):
                nxt.append((prefix + (take,), ways * binomial(count, take)))
        out = nxt
    return out


def _gw_p1x1_int(d: int, e: int, exps: ExponentVector) -> int:
    index, dim, total, pairings = _shape(P1XP1, (d, e))
    if total_codim(P1XP1, exps) != _vdim(index, dim, total, sum(exps)):
        return 0
    if not total:
        return _degree_zero(exps, square_zero=(1, 2))
    mult, _ = _strip(exps, pairings)
    # The gate leaves exactly 2(d+e) - 1 point classes.
    return mult and mult * n_de(d, e)


def gw_p1x1(key: InvariantKey) -> Fraction:
    """Genus-0 invariant of P1 x P1.

    On a surface every basis class is the fundamental class, a divisor or
    the point class, so the reductions are exhaustive: after stripping
    T_0, T_1, T_2 the key holds only point classes and the dimension gate
    pins their number to 2(d+e) - 1, where the value is the curve count
    N_(d,e).  No separate splitting recursion is required.
    """
    if not isinstance(key.target, P1xP1):
        raise ValueError(f"gw_p1x1 expects target P1xP1, got {key.target}")
    return Fraction(_gw_p1x1_int(*key.degree, key.exponents))


def gw_invariant(key: InvariantKey) -> Fraction:
    """Evaluate any supported invariant, dispatching on the target."""
    target = key.target
    if isinstance(target, P1xP1):
        return gw_p1x1(key)
    return Fraction(_gw_pr_int(target.r, key.degree, key.exponents))


def collected_invariant(target: TargetSpace, exponents: ExponentVector) -> Fraction:
    """Sum of the invariant over all degrees; at most one degree survives.

    The dimension gate solves for the total degree, d on P^r and d + e on
    P1 x P1, where the sum runs over all bidegree splits of that total.
    """
    codim = total_codim(target, exponents)  # checks the length
    if any(a < 0 for a in exponents):
        raise ValueError(f"exponents must be >= 0, got {exponents}")
    p1x1 = isinstance(target, P1xP1)
    index, dim, _, _ = _shape(target, (0, 0) if p1x1 else 0)
    total, rest = divmod(codim - _vdim(index, dim, 0, sum(exponents)), index)
    if total < 0 or rest:
        return Fraction(0)
    if p1x1:
        return Fraction(sum(_gw_p1x1_int(d, total - d, exponents)
                            for d in range(total + 1)))
    return gw_invariant(InvariantKey(target, total, exponents))
