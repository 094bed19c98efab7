"""Genus-0 Gromov-Witten invariants of P^r and P1 x P1.

Every invariant takes the same path at the public entry (Kontsevich-Manin
1994, section 2).  Each step is written once; the gate and the strip read
degrees and exponent tuples:

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
fixes the one live degree and gluing class of each side, a slot that
depends on the split only through its gate weight.  So the split loop
reads each split's slot from a row per (r, d) (``_SLOTS``), where a
slot dead for every split is None, resolves both sides' marks by
arithmetic on a live slot and probes the memo once per live side of
positive degree.  A frame unpacks its key once and then works on the
classes the key holds, not on all of h^0..h^r.  The recursion runs on an
explicit stack of generator frames (``_reconstructed``), so its depth is
bounded by memory, not by the interpreter's recursion limit.

Every target runs this path in one integer function (``_invariant``),
which ends in the stripped entry (``_stripped``): the curve count or the
reconstruction of stripped marks that meet the gate.  ``_invariant`` is
the one place where exponent tuples, one entry per basis class, become
marks, the (class, count) pairs of the classes a key holds; past it,
degree zero, the memo key and the potentials read marks only, so their
work grows with the classes held, not with the width of the basis.  The
potentials call the stripped entry directly, on marks they build stripped
and within the gate; ``Fraction`` appears only in the values the public
functions return.  The memo is keyed by stripped keys, is write-once, and
holds values independent of evaluation order; each memo and each slot row
is built whole before it is stored, so concurrent use is safe.

The memo is one dict per r, keyed by one int (``_key``) with the degree
in the 32-bit digit 0, which stripped marks leave empty, and the count of
h^k in digit k, so each side key of a split is one int addition away
from the split's own packed multiset; a key of 2^32 or more marks is
refused.
Each memo is created holding I_1(h^r.h^r) = 1, the one stripped key the
gate leaves below three marks, so no mark is counted.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress
from math import comb

from .surfaces import n_d, n_de
from .targets import (Degree, ExponentVector, InvariantKey, P1xP1,
                      ProjectiveSpace, TargetSpace, _checked_exponents,
                      total_codim, validate_degree)

_MemoKey = tuple[int, int]  # (r, packed), see _key
Marks = tuple[tuple[int, int], ...]  # (class, count) pairs, see _invariant
_PR_CACHE: dict[int, dict[int, int]] = {}  # per r
_SLOTS: dict[tuple[int, int], list[tuple[int, int, int, int] | None]] = {}


def clear_caches() -> None:
    """Drop the memoized reconstruction values and slot rows."""
    _PR_CACHE.clear()
    _SLOTS.clear()


def _vdim(target: TargetSpace, total: int, n: int) -> int:
    """c1(beta) + dim X + n - 3 with c1(beta) = index * total degree."""
    return target.index * total + target.dimension + n - 3


def _degree_zero(target: TargetSpace, marks: Marks) -> int:
    """Degree-zero invariant: only three-point invariants survive, and
    those are one when the classes' words add up to the point class's.
    Only the words of the marked classes are read, so the cost grows with
    the marks, not with the basis."""
    if sum(a for _, a in marks) != 3:
        return 0
    words = target.words
    classes = [words[c] for c, a in marks for _ in range(a)]
    return int(tuple(map(sum, zip(*classes))) == words[-1])


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
    if type(n) is not int:
        raise ValueError(f"mark count must be an integer, got {n!r}")
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
    zero and the strip, then ``_stripped``.  Both of those read marks:
    the (class, count) pairs of the nonzero exponents, picked out here in
    one pass in C.  Marks built elsewhere (the potentials' tails) may
    name a class twice, and every reader adds up its counts."""
    pairings = target.pairings(degree)
    total = sum(pairings)
    if total_codim(target, exps) != _vdim(target, total, sum(exps)):
        return 0
    if not total:
        return _degree_zero(target, tuple(compress(enumerate(exps), exps)))
    mult, exps = _strip(exps, pairings)
    return mult * _stripped(target, degree, tuple(
        compress(enumerate(exps), exps))) if mult else 0


def _stripped(target: TargetSpace, degree: Degree, marks: Marks) -> int:
    """The invariant of a positive degree and stripped marks (no
    fundamental or divisor class) that meet the gate: the curve count or
    the reconstruction."""
    # The gate leaves exactly 2(d+e) - 1 point classes on P1 x P1, 3d - 1
    # on P^2 and no class on P^1, in degree one: the identity map.
    if isinstance(target, P1xP1):
        return n_de(*degree)
    if target.r < 3:
        return n_d(degree) if target.r == 2 else 1
    return _reconstructed(_key(target.r, degree, marks))


def _key(r: int, d: int, marks: Marks) -> _MemoKey:
    """The memo key (r, packed) of stripped marks of P^r in degree d: d in
    the 32-bit digit 0 of ``packed`` and the count of h^k in digit k, each
    (k, a) mark adding a to it.  No digit exceeds the mark count n (the
    gate gives d < n), and no side key has more marks than the key it
    splits, so every key below one of n < 2^32 marks packs without a carry
    between digits.  A key of more marks is refused: its frame would list
    an option per mark of a class.
    """
    n = packed = 0
    for k, a in marks:
        n += a
        packed += a << 32 * k
    if n >> 32:
        raise ValueError(f"{n} marks is more than the 2^32 - 1 an invariant "
                         f"of P^{r} can be reconstructed with")
    return r, d + packed


def _exponents(key: _MemoKey) -> ExponentVector:
    """The digits 0..r of a memo key, undoing ``_key``: the degree, then
    exps[1:]."""
    r, packed = key
    return struct.unpack(f"<{r + 1}I", packed.to_bytes(4 * (r + 1), "little"))


def _reconstructed(key: _MemoKey) -> int:
    """The invariant of a memo key (``_key``), read from its memo or
    reconstructed.  A frame holds a packed key and its ``_reconstruct``
    generator; a side key the generator yields gets a frame of its own,
    and a finished frame writes its value to the memo and sends it to the
    frame below."""
    r, packed = key
    memo = _PR_CACHE.get(r) or _PR_CACHE.setdefault(
        r, {1 + (2 << 32 * r): 1})  # I_1(h^r.h^r)
    value = memo.get(packed)
    if value is not None:
        return value
    stack = [(packed, _reconstruct(memo, r, packed))]
    while stack:
        packed, frame = stack[-1]
        try:
            child = frame.send(value)
        except StopIteration as done:
            stack.pop()
            memo[packed] = value = done.value
        else:
            stack.append((child, _reconstruct(memo, r, child)))
            value = None
    return value


def _reconstruct(memo: dict[int, int], r: int, packed: int):
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

    The slot depends on S only through w, so each orientation (left or
    right) runs over the split table in a pass of its own, with its
    constants made once and its terms summed apart, and reads the split's
    slot from the (r, d) row (``_SLOTS``) at t = w + m: (dA, dB, i, j) with
    (dA, j) = divmod(t, r + 1), dB = d - dA and i = r - j, where the gate
    keeps t below (r + 1)(d + 1), or None where the split is dead whatever
    its S (i = 0 < dA or j = 0 < dB: h^0 on a side of positive degree), so
    such a term costs one list index.  The first frame of an (r, d) builds
    the row whole and stores it by one assignment, so a concurrent frame
    reads a complete row or none.  Its blocks of r + 1 entries read their
    (i, j) from one gluing list, so a row makes r + 1 ints, not
    (r + 1)(d + 1).  Its tuples remain: a degree-d query on a wide target
    builds the rows of every degree up to d, so there the rows, not the
    frames, set its memory (about 40 MB at degree 8 on P^10000).

    The gate is met on each side, so its marks resolve by arithmetic: in
    degree zero the side is one exactly when S (or S') is empty; in
    positive degree an h^0 mark gives zero, an h^1 mark a factor of the
    side's degree, and any other mark adds one to an exponent.  The side
    key is then read from the memo, or yielded when the memo lacks it.  A
    side left with fewer than three marks is I_1(h^r.h^r), which every
    memo holds from its creation, so no mark is counted.

    The frame unpacks its own key once, and one pass in C lists the
    classes it holds; everything after that runs per class held, not per
    r.  Every multiset is one packed int (``_key``): the split table holds
    S, S' is the packed free multiset minus S, and a side key is S or S'
    plus its degree and 1 << 32 * k per added mark h^k.  Those shifts are
    made where they are used: a table of all r + 1 of them would hold
    16 r^2 bits, about 200 MB per frame on P^10000.  The split table grows
    class by class from one list of options per free class,
    (shift, C(count, s), (k - 1) s) for s = 0..count, so each binomial and
    shift is made once per s, not once per split.
    """
    digits = _exponents((r, packed))
    d = digits[0]
    held = list(compress(range(r + 1), digits))[1:]  # h^2 and up
    c, b1 = held[0], held[-1]
    b2 = b1 if digits[b1] > 1 else held[-2]
    splits = None  # [(S packed, labeled mark subsets, w)] once set
    for k in held:
        count = digits[k] - (k == c) - (k == b1) - (k == b2)
        if count:
            options = [(s << 32 * k, comb(count, s), (k - 1) * s)
                       for s in range(count + 1)]
            splits = options if splits is None else [
                (sub + shift, ways * ways_s, w + w_s)
                for sub, ways, w in splits
                for shift, ways_s, w_s in options]
    if splits is None:
        splits = [(0, 1, 0)]
    slots = _SLOTS.get((r, d))
    if slots is None:  # entry t: divmod(t, r + 1) = (dA, j)
        # gluing is bound inside the build, so the frame does not keep it
        _SLOTS[r, d] = slots = [
            None if da and j == r or not j and da < d else (da, d - da, i, j)
            for gluing in [[(r - j, j) for j in range(r + 1)]]
            for da in range(d + 1) for i, j in gluing]
    low = c == 2  # h^(c-1) is h^1: a factor of the side's degree, no mark
    h_b1 = 1 << 32 * b1
    h_c1 = 0 if low else 1 << 32 * (c - 1)
    rest = packed - d - (1 << 32 * c)  # S + S' + h^b1 + h^b2
    every = rest - h_b1 - (1 << 32 * b2)  # S + S'
    get = memo.get
    total = 0
    # A holds h^1.h^x.S and B holds h^y.h^b2.S', with (x, y) = (c - 1, b1)
    # on the left, which counts -1, and (b1, c - 1) on the right.  Per
    # orientation: the slot offset x + 1, the A base h^x, whether h^x is a
    # mark, the B base S + S' + h^y + h^b2, and whether y = 1.
    for offset, a_base, x_mark, b_base, y_one, sign in (
            (c, h_c1, not low, rest, False, -1),
            (b1 + 1, h_b1, True, rest - h_b1 + h_c1, low, 1)):
        part = 0
        for sub, ways, w in splits:
            slot = slots[w + offset]
            if slot is None:
                continue
            da, db, i, j = slot
            if not da:  # I_0(h^1.h^x.S.h^i)
                if sub or sign < 0:  # on the left, S empty is the unknown
                    continue
                fa = 1
            else:  # the h^1 mark gives da
                fa, side = da, sub + a_base + da
                if not x_mark:
                    fa *= da
                if i > 1:
                    side += 1 << 32 * i
                else:
                    fa *= da
                value = get(side)
                fa *= (yield side) if value is None else value
                if not fa:
                    continue
            if not db:  # I_0(h^y.h^b2.S'.h^j)
                if sub != every:
                    continue
                fb = 1
            else:  # the h^b2 mark adds one
                fb, side = 1, b_base - sub + db
                if y_one:
                    fb = db
                if j > 1:
                    side += 1 << 32 * j
                else:
                    fb *= db
                value = get(side)
                fb *= (yield side) if value is None else value
            part += ways * fa * fb
        total += sign * part
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
