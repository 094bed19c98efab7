"""Degree-1 invariants of P^r against Schubert calculus.

A degree-1 invariant counts lines, and ``reference_lines.lines_meeting``
counts them on the Grassmannian G(2, r + 1) by Pieri's rule, with nothing
in common with the reconstruction it checks.  Every key is reconstructed
from an empty memo, so each check covers every side key below it.  The
same count checks the degree-1 coefficients of wide structure constants,
which reach the invariants through the potentials' own marks.
"""

import random

import pytest

import gwcalc.gw as gw_module
import gwcalc.potentials as potentials
from gwcalc.gw import gw_invariant
from gwcalc.potentials import phi_ijk
from gwcalc.targets import InvariantKey, ProjectiveSpace

from reference_lines import lines_meeting


def gate_partitions(total, most):
    """The partitions of ``total`` into parts of at most ``most``, each a
    tuple in falling order."""
    if not total:
        yield ()
        return
    for part in range(min(total, most), 0, -1):
        for rest in gate_partitions(total - part, part):
            yield (part,) + rest


def reconstructed(r, codims):
    """I_1 of the classes h^a, a in ``codims``, on P^r, from empty memos."""
    exps = [0] * (r + 1)
    for a in codims:
        exps[a] += 1
    gw_module.clear_caches()
    try:
        return gw_invariant(InvariantKey(ProjectiveSpace(r), 1, tuple(exps)))
    finally:
        gw_module.clear_caches()


def test_every_degree_one_key_of_p3_to_p12_counts_lines():
    # The gate asks the a_i - 1 of the stripped classes h^a_i (2 <= a_i <= r)
    # to sum to 2r - 2, so the keys are the partitions of 2r - 2 into
    # parts of at most r - 1: no multiset outside the gate is built.
    keys = 0
    for r in range(3, 13):
        for parts in gate_partitions(2 * r - 2, r - 1):
            codims = [p + 1 for p in parts]
            assert reconstructed(r, codims) == lines_meeting(r, codims), \
                (r, codims)
            keys += len(codims) >= 3
    assert keys == 2105


WIDE = [
    (1000, {999: 2, 2: 2}, 2),
    (3000, {3000: 1, 2999: 1, 2: 1}, 1),
    (10000, {9999: 2, 2: 2}, 2),
    (60, {3: 59}, 11176109832763802046866481),
    # h(r/2 + 1).h(r/2)^3.h2: the five-mark family whose memo grows as r^2
    *[(r, {r // 2 + 1: 1, r // 2: 3, 2: 1}, r - 1)
      for r in range(20, 321, 20)],
]


@pytest.mark.parametrize("r, classes, lines", WIDE, ids=[
    f"p{r}-" + ".".join(f"h{a}^{n}" for a, n in classes.items())
    for r, classes, _ in WIDE])
def test_wide_degree_one_keys_count_lines(r, classes, lines):
    codims = [a for a, count in classes.items() for _ in range(count)]
    assert lines_meeting(r, codims) == lines
    assert reconstructed(r, codims) == lines


def seeded_triples(r, count, low, high):
    """Index triples of P^r from a generator seeded by r: one along h^0 and
    one along h^1 with a second class h^r, one at each sum a constant term
    reads (r in degree 0, 2r + 1 in degree 1), and ``count`` more whose
    sums are drawn from ``low``..``high``."""
    rng = random.Random(r)
    triples = [(0, rng.randint(0, r), r), (1, rng.randint(0, r), r)]
    totals = [r, 2 * r + 1] + [rng.randint(low, high) for _ in range(count)]
    for total in totals:
        i = rng.randint(max(total - 2 * r, 0), min(total, r))
        j = rng.randint(max(total - i - r, 0), min(total - i, r))
        triples.append((i, j, total - i - j))
    return triples


# On P^3000 the sums stay within 8 of 2r + 2, so each degree-1 key has a
# class of codimension at most 8: a four-class key of P^3000 whose lowest
# codimension is c takes about 0.025 c seconds to reconstruct.
@pytest.mark.parametrize("r, count, low, high", [
    (5, 40, 0, 15), (40, 20, 0, 120), (300, 8, 0, 900),
    (3000, 4, 5994, 6001)])
def test_wide_structure_constants_count_lines(r, count, low, high):
    # Phi_ijk at order 1 holds the constant I_0(ijk) + I_1(ijk) and, per
    # class h^a, the coefficient I_1(h^a.ijk) of x_a (a constant map needs
    # exactly three marks).  I_0(ijk) is one exactly when i + j + k = r.
    # A degree-1 coefficient counts lines, h^1 among its classes by a
    # factor d = 1, and h^0 makes it zero.  A coefficient whose gate solves
    # degree 2 (a + i + j + k = 3r + 3) is left out.
    target = ProjectiveSpace(r)
    checked = 0
    potentials.clear_caches()
    gw_module.clear_caches()
    try:
        for i, j, k in seeded_triples(r, count, low, high):
            total, curves = i + j + k, 0 not in (i, j, k)
            expected = {None: (total == r) + (
                curves and lines_meeting(r, [i, j, k]))}
            a = 2 * r + 2 - total  # the one x_a whose gate solves degree 1
            if curves and 1 <= a <= r:
                expected[a] = lines_meeting(r, [a, i, j, k])
            got = {}
            for exps, value in phi_ijk(target, i, j, k, 1).terms.items():
                a = exps.index(1) if any(exps) else None
                if a is None or a + total != 3 * r + 3:
                    got[a] = value
            assert got == {a: v for a, v in expected.items() if v}, (i, j, k)
            checked += len(got)
    finally:
        potentials.clear_caches()
        gw_module.clear_caches()
    assert checked >= 8  # nonzero coefficients compared
