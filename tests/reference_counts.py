"""Reference recursions for the curve counts, shared by the tests.

The unpaired recursions sum over every ordered split with one ``math.comb``
call per binomial: no split pairing and no binomial rows, so they share
none of the shortcuts of ``gwcalc.surfaces`` that they check.  The first
proof's recursions (``partition_n_d``, ``partition_n_de``) sum over the
boundary divisors that ``gwcalc.partitions`` enumerates, with no binomial
at all.
"""

import math

from gwcalc.partitions import (MarkSet, count_pinned_partitions,
                               enumerate_partitions)


def _comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def reference_n_d(d_max):
    """N_1..N_d_max by the plane recursion summed over every ordered split,
    one binomial call per factor: no split pairing, no binomial rows."""
    counts = [0, 1]
    for d in range(2, d_max + 1):
        counts.append(sum(
            (_comb(3 * d - 4, 3 * a - 2) * a * a * (d - a) ** 2
             - _comb(3 * d - 4, 3 * a - 1) * a ** 3 * (d - a))
            * counts[a] * counts[d - a]
            for a in range(1, d)))
    return counts


def reference_n_de(d_max, e_max):
    """N_(p,q) for p <= d_max, q <= e_max by the bidegree recursion summed
    over every ordered split with the one-sided weight
    <A, B> (C(m, 2|A|-2) d_A e_B - C(m, 2|A|-1) d_A e_A).  That weight is
    not symmetric under transposing the bidegree, so N_(p,q) and N_(q,p)
    come from different sums here.  The axes hold the rule counts."""
    counts = {(0, 1): 1, (1, 0): 1}
    for k in range(2, max(d_max, e_max) + 1):
        counts[(0, k)] = counts[(k, 0)] = 0
    for total in range(2, d_max + e_max + 1):
        m = 2 * total - 4
        for p in range(max(1, total - e_max), min(d_max, total - 1) + 1):
            q = total - p
            value = 0
            for da in range(p + 1):
                for ea in range(q + 1):
                    db, eb = p - da, q - ea
                    if da + ea == 0 or db + eb == 0:
                        continue
                    s = da + ea
                    value += ((da * eb + ea * db)
                              * (_comb(m, 2 * s - 2) * da * eb
                                 - _comb(m, 2 * s - 1) * da * ea)
                              * counts[(da, ea)] * counts[(db, eb)])
            counts[(p, q)] = value
    return counts


# The paper's first proof: pull the relation D(m1 m2 | p1 p2) = D(m1 p1 |
# m2 p2) of four-pointed rational curves back to maps of one degree with
# marks m1, m2, p1, ..., whose m marks go to two general divisors and whose
# p marks go to general points, and read off each boundary divisor that
# ``gwcalc.partitions`` lists.
_RELATIONS = ((-1, (("m1", "m2"), ("p1", "p2"))),
              (1, (("m1", "p1"), ("m2", "p2"))))


def _first_proof(degree, n_marks, counts, points, node, meets):
    """N of ``degree`` from the two pinned relations on MarkSet.standard(
    n_marks), each enumeration checked against its closed-form length.

    A divisor with sides of degrees a and b counts N_a N_b node(a, b)
    times meets(deg, m) for each m mark on a side of degree deg, and only
    when each side holds points(deg) p marks.  A degree-zero side is a
    twig over one point, and points(0) is negative: the twig {m1, m2} sits
    over the divisors' meeting point and is the left's one N_degree term,
    the unknown, with coefficient one; any other holds a p mark and counts
    zero.  So the unknown is the sum of the other terms, right minus left.
    """
    marks = MarkSet.standard(n_marks)
    value = 0
    for sign, pins in _RELATIONS:
        divisors = enumerate_partitions(marks, degree, pins)
        assert len(divisors) == count_pinned_partitions(marks, degree, pins)
        for p in divisors:
            a, b = (p.d_a, p.e_a or 0), (p.d_b, p.e_b or 0)
            on_a = ("m1" in p.a, "m2" in p.a)
            m_a = sum(on_a)
            if (len(p.a) - m_a != points(a)
                    or len(p.b) - 2 + m_a != points(b)):
                continue
            term = counts[a] * counts[b] * node(a, b)
            for m, here in zip(("m1", "m2"), on_a):
                term *= meets(a if here else b, m)
            value += sign * term
    return value


def partition_n_d(d_max):
    """N_1..N_d_max on P^2 by the first proof: 3d - 2 points and two
    lines; a side of degree a meets a line in a points and the other side
    in a b points, and passes through 3a - 1 points."""
    counts = {(1, 0): 1}
    for d in range(2, d_max + 1):
        counts[(d, 0)] = _first_proof(
            d, 3 * d, counts, lambda deg: 3 * deg[0] - 1,
            lambda a, b: a[0] * b[0], lambda deg, m: deg[0])
    return [0] + [counts[(d, 0)] for d in range(1, d_max + 1)]


def partition_n_de(total_max):
    """N_(d,e) for d + e <= total_max on P1xP1 by the first proof:
    2(d + e) - 2 points, m1 on a divisor meeting a curve of bidegree (p, q)
    p times and m2 on one meeting it q times; two sides meet in <A, B>
    points, and a side of bidegree (p, q) passes through 2(p + q) - 1
    points.  The axes hold the rule counts."""
    counts = {}
    for k in range(1, total_max + 1):
        counts[(k, 0)] = counts[(0, k)] = int(k == 1)
    for total in range(2, total_max + 1):
        for d in range(1, total):
            counts[(d, total - d)] = _first_proof(
                (d, total - d), 2 * total, counts,
                lambda deg: 2 * sum(deg) - 1,
                lambda a, b: a[0] * b[1] + a[1] * b[0],
                lambda deg, m: deg[m == "m2"])
    return counts
