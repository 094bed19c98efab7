"""Genus-0 Gromov-Witten invariants of P^r and P1 x P1.

Every invariant takes the same path at the public entry (Kontsevich-Manin
1994, section 2).  Each step is written once, on degrees and exponent
tuples:

1. dimension gate (``_vdim``): the invariant vanishes unless the input
   codimensions sum to c1(beta) + dim X + n - 3, the dimension of the
   space of n-pointed genus-0 stable maps, where c1(beta) is (r+1)d on
   P^r and 2(d+e) on P1 x P1;
2. degree zero (``_degree_zero``): a constant map needs three marks, and
   a three-point invariant is the triple intersection number, one exactly
   when the words of the three classes add up to the point class's word;
3. strip (``_strip``): in positive degree a fundamental class (h^0, T_0)
   kills the invariant, and each divisor class is traded for its pairing
   with the degree: d per h^1 on P^r, e per T_1 and d per T_2 on P1 x P1.

The target supplies every per-target fact these steps use (its index,
dimension, words and pairings; see ``targets``).

After these steps both surfaces read their curve-count tables: the gate
leaves 2(d+e) - 1 point classes on P1 x P1, where the value is N_(d,e),
and 3d - 1 on P^2, where it is N_d.  On P^1 it leaves degree one only,
the identity map: I_1() = 1.  On P^r, r >= 3, the reconstruction
recursion (``_reconstruct``) expands a pair of equivalent boundary
divisors by the splitting formula, where the unknown appears once with
coefficient one.  The gate is checked at the entry only: in each split it
fixes the one live degree and gluing class of each side, so the split loop
resolves both sides' marks by arithmetic on that slot and probes the memo
at most once per side.  The recursion runs on an explicit stack of
generator frames (``_reconstructed``), so its depth is bounded by memory,
not by the interpreter's recursion limit.

Every target runs this path in one integer function (``_invariant``),
which ends in the stripped entry (``_stripped``): the curve count or the
reconstruction of a stripped exponent tuple that meets the gate.  The
potentials call that entry directly, on keys they build stripped and
within the gate; ``Fraction`` appears only in the values the public
functions return.  The memo is keyed by stripped keys, is write-once, and
holds values independent of evaluation order, so concurrent use is safe.

A memo key is (r, width, d, packed) (``_key``): the exponent tuple packed
into one int with exps[k] in the width-bit digit k, so each side key of a
split is one int addition away from the split's own packed multiset.  The
width is 16 bits, or the bit length of the mark count n when that is
wider; no side key has more marks than the key it splits, so every key
below a query fits the query's width and every query with n < 65,536
shares one key space.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import comb

from .surfaces import n_d, n_de
from .targets import (Degree, ExponentVector, InvariantKey, P1xP1,
                      ProjectiveSpace, TargetSpace, _checked_exponents,
                      total_codim, validate_degree)

_MemoKey = tuple[int, int, int, int]  # (r, width, d, packed), see _key
_PR_CACHE: dict[_MemoKey, int] = {}
_BIG_ENDIAN = sys.byteorder == "big"


def clear_caches() -> None:
    """Drop the memoized reconstruction values."""
    _PR_CACHE.clear()


def _vdim(target: TargetSpace, total: int, n: int) -> int:
    """c1(beta) + dim X + n - 3 with c1(beta) = index * total degree."""
    return target.index * total + target.dimension + n - 3


def _degree_zero(target: TargetSpace, exps: ExponentVector) -> int:
    """Degree-zero invariant: only three-point invariants survive, and
    those are one when the classes' words add up to the point class's."""
    if sum(exps) != 3:
        return 0
    classes = [word for word, a in zip(target.words, exps) for _ in range(a)]
    return int(tuple(map(sum, zip(*classes))) == target.words[-1])


def _strip(exps: ExponentVector, pairings: tuple[int, ...]
           ) -> tuple[int, ExponentVector]:
    """Fundamental-class and divisor axioms in positive degree.

    ``pairings`` holds <beta, D> for the divisor classes at basis indices
    1, 2, ...  Returns (multiplier, exponents with index 0 and those
    divisors removed).  A divisor with zero pairing gives multiplier 0: a
    curve missing that part of its bidegree misses a generic such rule.
    """
    k = len(pairings) + 1
    mult = 0 if exps[0] else 1
    for pairing, a in zip(pairings, exps[1:k]):
        mult *= pairing ** a
    return mult, (0,) * k + exps[k:]


def dim_moduli(target: TargetSpace, degree: Degree, n: int) -> int:
    """Dimension of the space of n-pointed genus-0 stable maps:
    rd + r + d + n - 3 for P^r, n + 2d + 2e - 1 for P1 x P1.

    Degree zero with fewer than three marks admits no stable map at all,
    which is reported as an error rather than a dimension.
    """
    validate_degree(target, degree)
    if n < 0:
        raise ValueError(f"mark count must be >= 0, got {n}")
    total = sum(target.pairings(degree))
    if total == 0 and n < 3:
        raise ValueError(
            "no stable maps: a constant map needs at least three marks")
    return _vdim(target, total, n)


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
    fundamental class and no divisor class, as ``_strip`` computes them.
    Degree-zero keys are returned untouched: their three-point evaluation
    handles low codimensions directly.
    """
    pairings = key.target.pairings(key.degree)
    if not any(pairings):
        return 1, key
    mult, exps = _strip(key.exponents, pairings)
    return mult, InvariantKey(key.target, key.degree, exps)


def gw_p1(key: InvariantKey) -> Fraction:
    """All genus-0 invariants of P^1: I_0(h0.h0.h1) = 1, I_1(h1^n) = 1 for
    n >= 0, and 0 elsewhere."""
    target = key.target
    if not (isinstance(target, ProjectiveSpace) and target.r == 1):
        raise ValueError(f"gw_p1 expects target P^1, got {target}")
    return Fraction(_invariant(target, key.degree, key.exponents))


def gw_pr(key: InvariantKey) -> Fraction:
    """Genus-0 invariant of P^r, r >= 2: mult * N_d on P^2, the
    reconstruction recursion on P^3 and up."""
    target = key.target
    if not (isinstance(target, ProjectiveSpace) and target.r >= 2):
        raise ValueError(f"gw_pr expects target P^r with r >= 2, got {target}")
    return Fraction(_invariant(target, key.degree, key.exponents))


def gw_p1x1(key: InvariantKey) -> Fraction:
    """Genus-0 invariant of P1 x P1.  On a surface the strip is exhaustive:
    only point classes remain, and the value is mult * N_(d,e)."""
    if not isinstance(key.target, P1xP1):
        raise ValueError(f"gw_p1x1 expects target P1xP1, got {key.target}")
    return Fraction(_invariant(key.target, key.degree, key.exponents))


def gw_invariant(key: InvariantKey) -> Fraction:
    """Evaluate any supported invariant, dispatching on the target."""
    return Fraction(_invariant(key.target, key.degree, key.exponents))


def _invariant(target: TargetSpace, degree: Degree, exps: ExponentVector
               ) -> int:
    """The invariant of a valid degree and exponent tuple: the gate, degree
    zero and the strip, then ``_stripped``."""
    pairings = target.pairings(degree)
    total = sum(pairings)
    if total_codim(target, exps) != _vdim(target, total, sum(exps)):
        return 0
    if not total:
        return _degree_zero(target, exps)
    mult, exps = _strip(exps, pairings)
    return mult * _stripped(target, degree, exps) if mult else 0


def _stripped(target: TargetSpace, degree: Degree, exps: ExponentVector
              ) -> int:
    """The invariant of a positive degree and a stripped exponent tuple (no
    fundamental or divisor class) that meets the gate: the curve count or
    the reconstruction."""
    # The gate leaves exactly 2(d+e) - 1 point classes on P1 x P1 and
    # 3d - 1 on P^2.
    if isinstance(target, P1xP1):
        return n_de(*degree)
    if target.r == 2:
        return n_d(degree)
    if sum(exps) < 3:  # a line through two points
        return 1
    key = _key(target.r, degree, exps)
    value = _PR_CACHE.get(key)
    return _reconstructed(key) if value is None else value


def _key(r: int, d: int, exps: ExponentVector) -> _MemoKey:
    """The memo key (r, width, d, packed) of a stripped exponent tuple.

    ``packed`` holds exps[k] in the width-bit digit k.  No digit exceeds
    the mark count n, and no side key has more marks than the key it
    splits, so the width max(16, n.bit_length()) set here holds every key
    below this one without a carry between digits.
    """
    width = max(16, sum(exps).bit_length())
    return r, width, d, sum(a << (width * k) for k, a in enumerate(exps) if a)


def _exponents(key: _MemoKey) -> ExponentVector:
    """The exponent tuple of a memo key, undoing ``_key``, in time linear
    in the key's bits: the packed int becomes bytes once, and each digit
    is read from its own few bytes."""
    r, width, _, packed = key
    data = packed.to_bytes((width * (r + 1) + 7) >> 3, "little")
    if width == 16:  # every query under 65,536 marks
        digits = array("H", data)
        if _BIG_ENDIAN:
            digits.byteswap()
        return tuple(digits)
    mask = (1 << width) - 1
    return tuple(int.from_bytes(data[bit >> 3:(bit + width + 7) >> 3],
                                "little") >> (bit & 7) & mask
                 for bit in range(0, width * (r + 1), width))


def _reconstructed(key: _MemoKey) -> int:
    """The invariant of a stripped memo key (``_key``) with at least three
    marks.  A frame holds a key and its ``_reconstruct`` generator; a side
    key the generator yields gets a frame of its own, and a finished frame
    writes its value to the memo and sends it to the frame below."""
    stack = [(key, _reconstruct(key))]
    value = None
    while stack:
        key, frame = stack[-1]
        try:
            child = frame.send(value)
        except StopIteration as done:
            stack.pop()
            _PR_CACHE[key] = value = done.value
        else:
            stack.append((child, _reconstruct(child)))
            value = None
    return value


def _reconstruct(key: _MemoKey):
    """Isolate I_d(exps) from the boundary-divisor balance equation: a
    generator that yields each side key the memo lacks and is sent its value.

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
    multiplicity) and S' is the complement.  With w = sum (k-1) s_k over
    S, the A-side gate reads (r+1) dA + r = m + w + i, with m = c on the
    left and b1 + 1 on the right, so divmod(w + m, r + 1) = (dA, j) is the
    one live slot of each side.  On the left S empty forces dA = 0 and
    i = r - c, and its factor I_0(h^1.h^(c-1).h^(r-c)) equals one, so that
    term *is* the unknown invariant; every other term only involves
    invariants of lower degree, lower minimal codimension or fewer marks.

    The gate is met on each side, so its three marks resolve by arithmetic:
    in degree zero the side is one exactly when S (or S') is empty; in
    positive degree an h^0 mark gives zero, an h^1 mark a factor of the
    side's degree, and any other mark adds one to an exponent.  A side left
    with fewer than three marks is a line through two points, value one;
    any other side is read from the memo, or yielded when the memo lacks it.

    The frame unpacks its own key once.  After that every multiset is one
    packed int in the key's width (``_key``): the split table holds S, S'
    is the packed free multiset minus S, and a side key is S or S' plus
    1 << width * k per added mark h^k.  Those shifts are made where they
    are used: a table of all r + 1 of them would hold O(r^2 width) bits,
    about 100 MB per frame on P^10000.
    """
    r, width, d, packed = key
    exps = _exponents(key)
    c, *_, b2, b1 = [i for i in range(2, r + 1) for _ in range(exps[i])]
    free = [a - (i == c) - (i == b1) - (i == b2) for i, a in enumerate(exps)]
    n_free = sum(free)
    splits = [(0, 1, 0, 0)]  # (S packed, labeled mark subsets, w, |S|)
    for k, count in enumerate(free):
        if count:
            splits = [(sub + (s << width * k), ways * comb(count, s),
                       w + (k - 1) * s, n + s)
                      for sub, ways, w, n in splits
                      for s in range(count + 1)]
    whole_b2 = packed - (1 << width * c) - (1 << width * b1)  # S' + h^b2 + S
    # (x, y, sign): A holds h^1.h^x, B holds h^y.h^b2, the left side counts -1
    both = ((c - 1, b1, -1), (b1, c - 1, 1))
    memo = _PR_CACHE.get
    total = 0
    for sub, ways, w, n in splits:
        for x, y, sign in both if w else both[1:]:
            da, j = divmod(w + x + 1, r + 1)
            db = d - da
            if db < 0:
                continue
            i = r - j
            if not da:  # I_0(h^1.h^x.S.h^i)
                if n:
                    continue
                fa = 1
            elif not i:  # h^0 in positive degree
                continue
            else:  # the h^1 mark gives da
                fa, marks, side = da, n, sub
                if x > 1:
                    side += 1 << width * x
                    marks += 1
                else:
                    fa *= da
                if i > 1:
                    side += 1 << width * i
                    marks += 1
                else:
                    fa *= da
                if marks > 2:
                    side = (r, width, da, side)
                    value = memo(side)
                    fa *= (yield side) if value is None else value
                    if not fa:
                        continue
            if not db:  # I_0(h^y.h^b2.S'.h^j)
                if n < n_free:
                    continue
                fb = 1
            elif not j:  # h^0 in positive degree
                continue
            else:  # the h^b2 mark adds one
                fb, marks, side = 1, n_free - n + 1, whole_b2 - sub
                if y > 1:
                    side += 1 << width * y
                    marks += 1
                else:
                    fb = db
                if j > 1:
                    side += 1 << width * j
                    marks += 1
                else:
                    fb *= db
                if marks > 2:
                    side = (r, width, db, side)
                    value = memo(side)
                    fb *= (yield side) if value is None else value
            total += sign * ways * fa * fb
    return total


def collected_invariant(target: TargetSpace, exponents: ExponentVector) -> Fraction:
    """Sum of the invariant over all degrees; at most one degree survives.

    The dimension gate solves for the total degree, d on P^r and d + e on
    P1 x P1, where the sum runs over all bidegree splits of that total.
    """
    exponents = _checked_exponents(target, exponents)
    total, rest = divmod(total_codim(target, exponents)
                         - _vdim(target, 0, sum(exponents)), target.index)
    if total < 0 or rest:
        return Fraction(0)
    return Fraction(sum(_invariant(target, degree, exponents)
                        for degree in target.degrees(total)))
