import hashlib
import random
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement, compress, product
from math import comb, factorial, prod

import pytest

import gwcalc.gw as gw_module
from gwcalc.gw import (collected_invariant, dim_moduli, dimension_admissible,
                       gw_invariant, gw_p1, gw_p1x1, gw_pr, reduce_invariant)
from gwcalc.potentials import gw_potential_p1
from gwcalc.surfaces import n_d, n_de
from gwcalc.targets import InvariantKey, P1XP1, ProjectiveSpace

P2 = ProjectiveSpace(2)
P3 = ProjectiveSpace(3)
P4 = ProjectiveSpace(4)


def key(target, degree, classes):
    return InvariantKey.from_classes(target, degree, classes)


def test_dim_moduli_values():
    assert dim_moduli(P2, 2, 6) == 11
    assert dim_moduli(P1XP1, (1, 1), 1) == 4
    for r in range(1, 6):
        assert dim_moduli(ProjectiveSpace(r), 0, 3) == r


def test_dim_moduli_degree_zero_needs_three_marks():
    with pytest.raises(ValueError):
        dim_moduli(P2, 0, 2)
    with pytest.raises(ValueError):
        dim_moduli(P1XP1, (0, 0), 1)
    with pytest.raises(ValueError, match="mark count must be an integer"):
        dim_moduli(P2, 1, 2.5)


def test_dimension_admissible():
    assert dimension_admissible(key(P2, 2, [2] * 5))
    assert dimension_admissible(key(P3, 1, [3, 2, 2]))
    assert not dimension_admissible(key(P1XP1, (1, 1), [1, 2, 3, 3]))
    assert not dimension_admissible(key(P2, 2, [2] * 6))
    # degree zero with too few marks is never admissible
    assert not dimension_admissible(key(P2, 0, [2]))


def test_reduce_invariant_p2():
    mult, reduced = reduce_invariant(key(P2, 3, [2] * 8 + [1, 1]))
    assert mult == 9
    assert reduced == key(P2, 3, [2] * 8)


def test_reduce_invariant_fundamental_class():
    mult, _ = reduce_invariant(key(P3, 1, [3, 2, 2, 0]))
    assert mult == 0


def test_reduce_invariant_degree_zero_untouched():
    k = key(P2, 0, [0, 1, 1])
    assert reduce_invariant(k) == (1, k)


def test_reduce_invariant_p1x1():
    mult, reduced = reduce_invariant(key(P1XP1, (1, 1), [1, 3, 3, 3]))
    assert mult == 1
    assert reduced == key(P1XP1, (1, 1), [3, 3, 3])
    # rule class with vanishing matching degree kills the invariant
    mult, _ = reduce_invariant(key(P1XP1, (2, 0), [1, 3, 3, 3]))
    assert mult == 0


def test_gw_p1_nonzero_families():
    P1 = ProjectiveSpace(1)
    assert gw_p1(key(P1, 0, [1, 0, 0])) == 1
    assert gw_p1(key(P1, 1, [1] * 7)) == 1
    for n in range(0, 12):
        assert gw_p1(key(P1, 1, [1] * n)) == 1


def test_gw_p1_zero_elsewhere():
    P1 = ProjectiveSpace(1)
    assert gw_p1(key(P1, 2, [1] * 4)) == 0
    assert gw_p1(key(P1, 0, [1, 1, 0])) == 0
    rng = random.Random(23)
    hits = 0
    while hits < 1000:
        d = rng.randrange(0, 6)
        a0 = rng.randrange(0, 6)
        a1 = rng.randrange(0, 10)
        if d == 0 and a0 == 2 and a1 == 1:
            continue
        if d == 1 and a0 == 0:
            continue
        assert gw_p1(InvariantKey(P1, d, (a0, a1))) == 0
        hits += 1


def test_gw_pr_matches_plane_counts():
    for d in range(1, 5):
        value = gw_pr(key(P2, d, [2] * (3 * d - 1)))
        assert value == n_d(d)


def test_gw_pr_three_point_examples():
    assert gw_pr(key(P3, 1, [3, 2, 2])) == 1
    assert gw_pr(key(P4, 1, [3, 3, 3])) == 1
    assert gw_pr(key(P4, 1, [4, 3, 2])) == 1


def test_gw_pr_lines_meeting_four_lines():
    # classical count of lines in P^3 incident to four general lines
    assert gw_pr(key(P3, 1, [2, 2, 2, 2])) == 2


def test_p3_literature_counts():
    # Rational curves of degree d = 1..5 in P^3 through 4d general lines
    # and through 2d general points (Kontsevich-Manin 1994; Di
    # Francesco-Itzykson 1995).
    lines = [2, 92, 80160, 383306880, 6089786376960]
    points = [1, 0, 1, 4, 105]
    for d in range(1, 6):
        assert gw_pr(key(P3, d, [2] * (4 * d))) == lines[d - 1], d
        assert gw_pr(key(P3, d, [3] * (2 * d))) == points[d - 1], d


def test_gw_pr_three_point_sweep():
    # every dimension-admissible three-point invariant is 0 or 1, and the
    # admissible ones are exactly 1 (degree forced into {0, 1})
    for r in range(2, 6):
        target = ProjectiveSpace(r)
        for d in range(0, 3):
            for triple in combinations_with_replacement(range(r + 1), 3):
                k = key(target, d, triple)
                value = gw_pr(k)
                if dimension_admissible(k):
                    assert value == 1, (r, d, triple)
                else:
                    assert value == 0, (r, d, triple)


def test_gw_pr_dimension_gate():
    assert gw_pr(key(P2, 2, [2] * 6)) == 0
    assert gw_pr(key(P3, 2, [3, 3])) == 0


def test_gw_pr_degree_zero():
    assert gw_pr(key(P2, 0, [0, 1, 1])) == 1
    assert gw_pr(key(P2, 0, [0, 0, 2])) == 1
    assert gw_pr(key(P2, 0, [2] * 1 + [1] * 0)) == 0  # n = 1


def test_gw_p1x1_point_classes_match_counts():
    for total in range(1, 5):
        for d in range(total + 1):
            e = total - d
            k = key(P1XP1, (d, e), [3] * (2 * total - 1))
            assert gw_p1x1(k) == n_de(d, e)


def test_gw_p1x1_rules():
    for n in range(0, 6):
        assert gw_p1x1(key(P1XP1, (0, 1), [1] * n + [3])) == 1
        assert gw_p1x1(key(P1XP1, (1, 0), [2] * n + [3])) == 1
    for d in range(2, 4):
        for n in range(0, 4):
            assert gw_p1x1(key(P1XP1, (d, 0), [2] * n + [3] * (2 * d - 1))) == 0
            assert gw_p1x1(key(P1XP1, (0, d), [1] * n + [3] * (2 * d - 1))) == 0


def test_gw_p1x1_divisor_equation():
    assert gw_p1x1(key(P1XP1, (1, 1), [1, 3, 3, 3])) == 1
    # one T_1 and one T_2 on top of the 2(d+e)-1 points: factor e * d
    assert gw_p1x1(key(P1XP1, (2, 2), [1, 2] + [3] * 7)) == 2 * 2 * 12


def test_degree_zero_law():
    for r in range(2, 6):
        target = ProjectiveSpace(r)
        for triple in combinations_with_replacement(range(r + 1), 3):
            k = key(target, 0, triple)
            expected = 1 if sum(triple) == r else 0
            assert gw_pr(k) == expected
    for triple in combinations_with_replacement(range(4), 3):
        k = key(P1XP1, (0, 0), triple)
        codims = [P1XP1.codim(i) for i in triple]
        repeated_divisor = triple.count(1) > 1 or triple.count(2) > 1
        expected = 1 if sum(codims) == 2 and not repeated_divisor else 0
        assert gw_p1x1(k) == expected


def test_permutation_invariance():
    rng = random.Random(31)
    for _ in range(500):
        r = rng.randrange(2, 5)
        target = ProjectiveSpace(r)
        classes = [rng.randrange(0, r + 1) for _ in range(rng.randrange(1, 8))]
        d = rng.randrange(0, 4)
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert (InvariantKey.from_classes(target, d, classes)
                == InvariantKey.from_classes(target, d, shuffled))
    # and the value only depends on the key
    base = [2, 2, 2, 2, 3]
    rng.shuffle(base)
    assert gw_pr(key(P3, 1, base)) == gw_pr(key(P3, 1, [3, 2, 2, 2, 2]))


def test_memoization_transparency():
    cold_keys = [key(P3, 4, [2] * 16), key(P3, 2, [2, 2, 3, 3, 3])]
    gw_module.clear_caches()
    cold = [gw_pr(k) for k in cold_keys]
    warm = [gw_pr(k) for k in cold_keys]
    assert cold == warm
    gw_module.clear_caches()
    assert [gw_pr(k) for k in cold_keys] == cold


def test_collected_invariant_p2():
    # degree solved from the dimension gate: here d = 3, two divisor
    # classes contribute a factor d^2
    assert collected_invariant(P2, (0, 2, 8)) == 9 * n_d(3) == 108
    assert collected_invariant(P2, (5, 0, 0)) == 0
    assert collected_invariant(P2, (0, 0, 8)) == n_d(3)
    # malformed vectors are rejected whether or not the gate solves a degree
    for exps in ((0, -1, 4), (0, -1, 5), (0, 0), (0, 0, 8, 0)):
        with pytest.raises(ValueError):
            collected_invariant(P2, exps)


def test_collected_invariant_p1x1():
    assert collected_invariant(P1XP1, (0, 0, 0, 3)) == 1
    # T_3^5 pins d+e = 3: the two rule-plus-curve counts survive
    assert collected_invariant(P1XP1, (0, 0, 0, 5)) == \
        sum(n_de(d, 3 - d) for d in range(4)) == 2
    assert collected_invariant(P1XP1, (1, 1, 1, 0)) == 1  # degree (0,0)
    for exps in ((0, 0, -1, 6), (0, 0, -1, 7), (0, 0, 5)):
        with pytest.raises(ValueError):
            collected_invariant(P1XP1, exps)


def test_gw_invariant_dispatch():
    assert gw_invariant(key(ProjectiveSpace(1), 1, [1, 1])) == 1
    assert gw_invariant(key(P2, 1, [2, 2])) == 1
    assert gw_invariant(key(P1XP1, (1, 1), [3, 3, 3])) == 1


def test_values_are_integral_rationals():
    value = gw_pr(key(P2, 3, [2] * 8))
    assert isinstance(value, Fraction)
    assert value.denominator == 1


def test_wrong_target_rejected():
    with pytest.raises(ValueError):
        gw_pr(key(ProjectiveSpace(1), 1, [1, 1]))
    with pytest.raises(ValueError):
        gw_p1(key(P2, 1, [2, 2]))
    with pytest.raises(ValueError):
        gw_p1x1(key(P2, 1, [2, 2]))


def test_dimension_gate_random_p1x1():
    rng = random.Random(47)
    checked = 0
    while checked < 300:
        d, e = rng.randrange(0, 4), rng.randrange(0, 4)
        exps = tuple(rng.randrange(0, 4) for _ in range(4))
        k = InvariantKey(P1XP1, (d, e), exps)
        if dimension_admissible(k):
            continue
        assert gw_p1x1(k) == 0
        checked += 1


def stripped_admissible_pr(r, d):
    """Exponent vectors of P^r with classes of codimension >= 2 only that
    pass the gate in degree d >= 1: the marks' codimensions minus one add
    up to (r+1)d + r - 3."""
    def counts(weight, excess):  # classes of gate weight weight..r-1
        if weight == r:
            if not excess:
                yield ()
            return
        for a in range(excess // weight + 1):
            for rest in counts(weight + 1, excess - a * weight):
                yield (a,) + rest

    for tail in counts(1, (r + 1) * d + r - 3):
        yield (0, 0) + tail


def pr_grid(*strata):
    """Every stripped admissible key of P^r with three or more marks, for
    each (r, highest degree) stratum, in rising degree."""
    return [(r, d, exps) for r, top in strata for d in range(1, top + 1)
            for exps in stripped_admissible_pr(r, d) if sum(exps) >= 3]


def memo_items():
    """The memo flattened to {(r, d, exponents): value}, whatever the layout
    of its keys: each key unpacked to its degree (digit 0) and exps[1:],
    with exps[0] = 0 put back.  The entry every memo is created with,
    I_1(h^r.h^r) = 1, is checked and left out."""
    items = {}
    for r, memo in gw_module._PR_CACHE.items():
        _, seed = gw_module._key(r, 1, ((r, 2),))
        assert memo[seed] == 1, r
        for packed, value in memo.items():
            if packed != seed:
                d, *exps = gw_module._exponents((r, packed))
                items[r, d, (0, *exps)] = value
    return items


def stripped_admissible_keys():
    """Admissible keys with no fundamental or divisor class: P^2-P^4 in
    degree 1-3, and P1xP1 with 1 <= d + e <= 3."""
    for r in range(2, 5):
        for d in range(1, 4):
            for exps in stripped_admissible_pr(r, d):
                yield InvariantKey(ProjectiveSpace(r), d, exps)
    for d, e in product(range(4), repeat=2):
        if 1 <= d + e <= 3:
            yield InvariantKey(P1XP1, (d, e), (0, 0, 0, 2 * (d + e) - 1))


def test_reduction_sweep():
    # Fundamental-class axiom: any h0/T0 input kills a positive-degree
    # invariant.  Divisor axiom: each h1 gives a factor d on P^r, each T1 a
    # factor e and each T2 a factor d on P1xP1.
    checked = 0
    for base in stripped_admissible_keys():
        assert dimension_admissible(base), base
        value = gw_invariant(base)
        target, degree = base.target, base.degree
        p1x1 = target == P1XP1
        for added in product(range(3), repeat=3 if p1x1 else 2):
            exps = added + base.exponents[len(added):]
            if added[0]:
                mult = 0
            elif p1x1:
                mult = degree[1] ** added[1] * degree[0] ** added[2]
            else:
                mult = degree ** added[1]
            k = InvariantKey(target, degree, exps)
            assert reduce_invariant(k) == (mult, base), k
            assert gw_invariant(k) == mult * value, k
            checked += 1
    assert checked > 500
    # P^1 takes the same strip: each h1 gives a factor d, down to I_1() = 1.
    P1 = ProjectiveSpace(1)
    base = InvariantKey(P1, 1, (0, 0))
    for a0, a1 in product(range(3), range(4)):
        k = InvariantKey(P1, 1, (a0, a1))
        mult = 0 if a0 else 1
        assert reduce_invariant(k) == (mult, base)
        assert gw_invariant(k) == mult * gw_invariant(base) == mult


def test_p1_invariants_are_the_potential_coefficients():
    # gw_potential_p1 is the closed form x0^2 x1 / 2 + exp(x1); the
    # collected invariant I(h^a) is a! times its coefficient of x^a.
    P1 = ProjectiveSpace(1)
    order = 12
    potential = gw_potential_p1(order)
    for a in product(range(order + 1), repeat=2):
        if sum(a) <= order:
            expected = potential.coefficient(a) * prod(map(factorial, a))
            assert collected_invariant(P1, a) == expected, a
    # Degree-1 maps P^1 -> P^1 without marks form one point, the identity.
    empty = InvariantKey(P1, 1, (0, 0))
    assert gw_invariant(empty) == gw_p1(empty) == 1
    # Divisor axiom in degree 1: each h1 contributes <beta, h1> = 1.
    for n in range(8):
        assert gw_p1(InvariantKey(P1, 1, (0, n + 1))) == \
            gw_p1(InvariantKey(P1, 1, (0, n)))


def reference_invariant(r, d, exps, memo):
    """I_d(exps) on P^r without the engine's shortcuts: every key takes the
    gate, the degree-zero rule and the strip, and the reconstruction scans
    every degree split dA = 0..d and every gluing class i = 0..r."""
    codim = sum(i * a for i, a in enumerate(exps))
    if codim != (r + 1) * d + r + sum(exps) - 3:
        return 0
    if d == 0:
        return int(sum(exps) == 3)
    if exps[0]:
        return 0
    mult, exps = d ** exps[1], (0, 0) + tuple(exps[2:])
    if sum(exps) < 3:
        return mult
    if (d, exps) not in memo:
        classes = [i for i, a in enumerate(exps) for _ in range(a)]
        c, b2, b1 = classes[0], classes[-2], classes[-1]
        free = list(exps)
        for i in (c, b1, b2):
            free[i] -= 1

        def side(degree, base, *marks):
            v = list(base)
            for i in marks:
                v[i] += 1
            return reference_invariant(r, degree, tuple(v), memo)

        total = 0
        for sub in product(*(range(a + 1) for a in free)):
            ways = prod(comb(a, s) for a, s in zip(free, sub))
            rest = tuple(a - s for a, s in zip(free, sub))
            for da, i in product(range(d + 1), range(r + 1)):
                db = d - da
                if da or any(sub):  # else the unknown itself, or zero
                    total -= ways * side(da, sub, 1, c - 1, i) \
                        * side(db, rest, b1, b2, r - i)
                total += ways * side(da, sub, 1, b1, i) \
                    * side(db, rest, c - 1, b2, r - i)
        memo[(d, exps)] = total
    return mult * memo[(d, exps)]


@pytest.mark.parametrize("r, top", [(3, 4), (3, 5), (4, 3), (4, 4), (5, 2),
                                    (6, 2), (9, 1)])
def test_one_slot_per_split_matches_the_full_scan(r, top):
    # The engine solves each side's degree and gluing class from the gate
    # and resolves the sides' marks by arithmetic; the reference scans every
    # slot and strips each side key.  Every admissible stripped key of P^r
    # up to degree ``top`` with three or more marks is compared, and so is
    # every memo entry the engine wrote on the way, which must be a stripped
    # key: positive degree, no h^0 or h^1 class, at least three marks.
    # These sizes reach sides with an h^1 mark at c - 1 = 1 and gluing
    # classes h^0 and h^1.  On P^6 and P^9 the two sides' slot offsets c
    # and b1 + 1 lie far apart, and w + b1 + 1 passes r + 1, so j wraps
    # round to a low gluing class in a higher degree.
    gw_module.clear_caches()
    memo = {}
    checked = 0
    try:
        for _, d, base in pr_grid((r, top)):
            marks = tuple(compress(enumerate(base), base))
            assert gw_module._reconstructed(gw_module._key(r, d, marks)) == \
                reference_invariant(r, d, base, memo), (r, d, base)
            checked += 1
        for (rr, d, exps), value in memo_items().items():
            assert rr == r and d >= 1 and len(exps) == r + 1, (rr, d, exps)
            assert exps[0] == exps[1] == 0 and sum(exps) >= 3, (d, exps)
            assert value == reference_invariant(rr, d, exps, memo)
    finally:
        gw_module.clear_caches()
    assert checked >= 10


def test_invariants_do_not_depend_on_the_recursion_limit():
    p3 = InvariantKey(P3, 20, (0, 0, 80, 0))
    expected = gw_invariant(p3)
    gw_module.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        got = (gw_invariant(p3), gw_module._reconstructed(
            gw_module._key(2, 30, ((2, 89),))))
    finally:
        sys.setrecursionlimit(limit)
        gw_module.clear_caches()
    assert got == (expected, n_d(30))


def test_queries_past_255_marks_share_one_key_space():
    # Every key of P^r packs its exponents in the same 32-bit digits.  The
    # memo grows by just the entries each query adds: the third query, past
    # 255 marks, reuses the first two's instead of filling a second key
    # space.
    gw_module.clear_caches()
    try:
        for d, points, digest, entries in [
                (40, 160, "acdee281d8b1afdd", 119),
                (64, 256, "b311a5e7c648d2f3", 191),
                (70, 280, "53002b121b0560e6", 209)]:
            value = gw_invariant(InvariantKey(P3, d, (0, 0, points, 0)))
            assert hashlib.sha256(str(value).encode()).hexdigest()[:16] \
                == digest, d
            assert len(memo_items()) == entries, d
    finally:
        gw_module.clear_caches()


def test_the_memo_is_pinned_key_for_key():
    # sha256 of the sorted (key, value) items of the memo, flattened to
    # (r, d, exponents) keys by ``memo_items``, after one cold pass over
    # every stripped admissible key of P^3 to degree 6, P^4 to degree 5 and
    # P^5 to degree 4.  The digest was taken from the memo keyed by
    # 16-bit digits, one memo per (r, digit width); keys of 32-bit digits
    # must flatten to the same keys and the same values.
    gw_module.clear_caches()
    try:
        for r, d, exps in pr_grid((3, 6), (4, 5), (5, 4)):
            gw_module._stripped(ProjectiveSpace(r), d,
                                tuple(compress(enumerate(exps), exps)))
        items = sorted(memo_items().items())
    finally:
        gw_module.clear_caches()
    assert len(items) == 592
    assert hashlib.sha256(repr(items).encode()).hexdigest() == (
        "b9ed72ac5f409e51f9af45749ba3da7b336f2ea2e15815ea296c8d570d2e86de")


def test_wider_targets_are_pinned():
    # sha256 of the values of every stripped admissible key of P^8 to
    # degree 3 with at most 6 marks, of P^9 and P^10 to degree 2 with at
    # most 7, and of P^40 to degree 2 with at most 4, the two-point
    # I_1(h^r.h^r) included, each target on one cleared memo.  The digest
    # was taken from the memo keyed by (r, width, d, packed) tuples, which
    # counted each side's marks.  No memo may hold a key with fewer than
    # three marks but the one every memo is created with.
    values = []
    try:
        for r, top, most in ((8, 3, 6), (9, 2, 7), (10, 2, 7), (40, 2, 4)):
            gw_module.clear_caches()
            for d in range(1, top + 1):
                weight = (r + 1) * d + r - 3
                for n in range(2, most + 1):
                    for classes in combinations_with_replacement(
                            range(2, r + 1), n):
                        if sum(classes) - n == weight:
                            values.append(gw_invariant(key(
                                ProjectiveSpace(r), d, classes)))
            for rr, _, exps in memo_items():
                assert sum(exps) >= 3, (rr, exps)
    finally:
        gw_module.clear_caches()
    assert len(values) == 3721
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "e4c50ebee680e62643685d476cf87406fb823911817122cc0013f5a0d8a2af41")


def test_threads_sharing_the_memo_read_the_same_invariants():
    # Eight threads query one grid of P^4 and P^5 keys on one cleared memo
    # and its slot rows, started together behind a barrier with a tiny
    # switch interval so that their frames interleave; each thread's digest
    # of the values, and the memo they leave, must equal a single thread's.
    import threading
    grid = [InvariantKey(ProjectiveSpace(r), d, exps)
            for r, d, exps in pr_grid((4, 3), (5, 2))]

    def digest():
        return hashlib.sha256(repr([gw_invariant(k) for k in grid])
                              .encode()).hexdigest()

    gw_module.clear_caches()
    expected, memo = digest(), memo_items()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            gw_module.clear_caches()
            barrier = threading.Barrier(8, timeout=60)
            found = [None] * 8

            def run(slot):
                try:
                    barrier.wait()
                    found[slot] = digest()
                except Exception as error:  # reported, not raised
                    found[slot] = repr(error)

            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert found == [expected] * 8
            assert memo_items() == memo
    finally:
        sys.setswitchinterval(switch)
        gw_module.clear_caches()


@pytest.mark.parametrize("r, exps", [
    (3, (0, 0, 2 ** 16 - 1, 0)),
    (3, (0, 0, 2 ** 16, 0)),
    (4, (0, 0, 2 ** 16 + 1, 3, 2 ** 17)),
    (5, (0, 0, 0, 2 ** 31, 1, 2 ** 31 - 2)),
    (3, (0, 0, 2 ** 32 - 1, 0)),
])
def test_memo_keys_unpack_to_their_exponents(r, exps):
    # The degree takes digit 0, which a stripped tuple leaves empty.
    key = gw_module._key(r, 7, tuple(compress(enumerate(exps), exps)))
    assert key[0] == r
    assert gw_module._exponents(key) == (7,) + exps[1:]


@pytest.mark.parametrize("r, exps", [
    (3, (0, 0, 2 ** 32, 0)),
    (4, (0, 0, 2 ** 31, 2 ** 31, 0)),
    (5, (0, 0, 0, 2 ** 40, 1, 2 ** 40 - 1)),
])
def test_memo_keys_hold_fewer_than_2_to_the_32_marks(r, exps):
    # A key of 2^32 or more marks could never be answered: its frame lists
    # every mark and builds a split table at least as long.
    with pytest.raises(ValueError, match=f"{sum(exps)} marks"):
        gw_module._key(r, 7, tuple(compress(enumerate(exps), exps)))


def test_a_wide_memo_key_unpacks_in_time_linear_in_its_bits():
    # One shift of the whole packed int per class took 0.52 s for 50,001
    # classes on a 2-vCPU host; bytes read once take under a millisecond.
    exps = (0,) * 49990 + (1,) * 11
    key = gw_module._key(50000, 3, tuple(compress(enumerate(exps), exps)))
    started = time.perf_counter()
    assert gw_module._exponents(key) == (3,) + exps[1:]
    assert time.perf_counter() - started < 0.1


def test_p2_invariants_read_the_plane_counts_at_high_degree():
    assert collected_invariant(P2, (0, 0, 1199)) == n_d(400)
    assert collected_invariant(P2, (0, 2, 1199)) == 400 ** 2 * n_d(400)


def test_the_generic_reconstruction_gives_the_plane_counts_to_degree_150():
    # The public entry sends P^2 to surfaces.n_d, so the splitting formula
    # of _reconstruct is run at r = 2 through its private entry.  It shares
    # no code with _fill_nd: its binomials are split multiplicities and its
    # degrees come from the dimension gate.  One cold query at d = 150
    # leaves every lower degree's key in the memo.
    gw_module.clear_caches()
    try:
        key = lambda d: gw_module._key(2, d, ((2, 3 * d - 1),))
        assert gw_module._reconstructed(key(150)) == n_d(150)
        for d in range(2, 151):
            r, packed = key(d)
            assert gw_module._PR_CACHE[r][packed] == n_d(d), d
    finally:
        gw_module.clear_caches()


@pytest.mark.parametrize("target, degree, exponents, message", [
    (P2, 1, (0, 2), "exponent vector length 2 does not match basis size 3 "
                    "of P^2"),
    (P1XP1, (1, 1), [0, 0, 0, 3, 0], "exponent vector length 5 does not "
                                     "match basis size 4 of P1xP1"),
    (P2, 1, (0, -1, 2), "exponents must be >= 0, got (0, -1, 2)"),
    (P2, 1, [0, 2, -1], "exponents must be >= 0, got [0, 2, -1]"),
    (P2, (1, 2), (0, 0, 2), "P^r expects an integer degree, got (1, 2)"),
    (P2, -1, (0, 0, 2), "degree must be >= 0, got -1"),
    (P1XP1, (-1, 2), (0, 0, 0, 3), "bidegree components must be >= 0, "
                                   "got (-1, 2)"),
    (P1XP1, [1, -2], (0, 0, 0, 3), "bidegree components must be >= 0, "
                                   "got (1, -2)"),
    (P1XP1, 1, (0, 0, 0, 1), "P1xP1 expects a pair of integer degrees, "
                             "got 1"),
    (P1XP1, (1, 1, 1), (0, 0, 0, 5), "P1xP1 expects a pair of integer "
                                     "degrees, got (1, 1, 1)"),
    (P1XP1, (1, "1"), (0, 0, 0, 3), "P1xP1 expects a pair of integer "
                                    "degrees, got (1, '1')"),
    (P3, True, (0, 0, 4, 0), "P^r expects an integer degree, got True"),
    (P1XP1, (True, False), (0, 0, 0, 1), "P1xP1 expects a pair of integer "
                                         "degrees, got (True, False)"),
    (P3, 1, (0, 0, 4.0, 0), "exponents must be integers, got (0, 0, 4.0, 0)"),
    (P3, 1, (0, 0, "4", 0), "exponents must be integers, got (0, 0, '4', 0)"),
    (P3, 1, [0, 0, True, 3], "exponents must be integers, got "
                             "[0, 0, True, 3]"),
])
def test_invariant_key_errors(target, degree, exponents, message):
    with pytest.raises(ValueError) as info:
        InvariantKey(target, degree, exponents)
    assert str(info.value) == message


@pytest.mark.parametrize("degree", [1, (1, 1, 1), (2,), None])
def test_dim_moduli_refuses_a_malformed_bidegree(degree):
    with pytest.raises(ValueError) as info:
        dim_moduli(P1XP1, degree, 3)
    assert str(info.value) == (
        f"P1xP1 expects a pair of integer degrees, got {degree!r}")


def test_invariant_key_text():
    assert str(key(P3, 1, [2, 2, 2, 2])) == "I_1(h2^4) on P^3"
    assert str(key(P2, 2, [1, 2, 2, 2, 2, 2])) == "I_2(h1*h2^5) on P^2"
    assert str(key(P1XP1, (1, 1), [3, 3, 3])) == "I_(1, 1)(T3^3) on P1xP1"
    assert str(key(ProjectiveSpace(1), 1, [])) == "I_1(1) on P^1"


def test_projective_space_needs_a_positive_dimension():
    with pytest.raises(ValueError) as info:
        ProjectiveSpace(0)
    assert str(info.value) == "projective space needs r >= 1, got r=0"


@pytest.mark.parametrize("r", [2.5, "3", True, 3.0, None])
def test_projective_space_needs_an_integer_r(r):
    with pytest.raises(ValueError) as info:
        ProjectiveSpace(r)
    assert str(info.value) == f"projective space needs an integer r, got {r!r}"


@pytest.mark.parametrize("exponents, message", [
    ((0, 2), "exponent vector length 2 does not match basis size 3 of P^2"),
    ((0, -1, 4), "exponents must be >= 0, got (0, -1, 4)"),
    ((0, 0, 4.0), "exponents must be integers, got (0, 0, 4.0)"),
    ((0, "0", 4), "exponents must be integers, got (0, '0', 4)"),
])
def test_collected_invariant_checks_the_exponents(exponents, message):
    with pytest.raises(ValueError) as info:
        collected_invariant(P2, exponents)
    assert str(info.value) == message


def test_keys_from_lists_and_tuples_are_equal():
    from_lists = InvariantKey(P1XP1, [1, 1], [0, 0, 0, 3])
    from_tuples = InvariantKey(P1XP1, (1, 1), (0, 0, 0, 3))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    assert from_lists.degree == (1, 1)
    assert from_lists.exponents == (0, 0, 0, 3)
    on_p3 = InvariantKey(P3, 1, [0, 0, 4, 0])
    assert on_p3 == key(P3, 1, [2, 2, 2, 2])
    assert hash(on_p3) == hash(key(P3, 1, [2, 2, 2, 2]))
