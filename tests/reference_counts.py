"""Unpaired reference recursions for the curve counts, shared by the tests.

Each sums over every ordered split with one ``math.comb`` call per
binomial: no split pairing and no binomial rows, so it shares none of the
shortcuts of ``gwcalc.surfaces`` that it checks.
"""

import math


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
