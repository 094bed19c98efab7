"""Degree-1 invariants of P^r against Schubert calculus.

A degree-1 invariant counts lines, and ``reference_lines.lines_meeting``
counts them on the Grassmannian G(2, r + 1) by Pieri's rule, with nothing
in common with the reconstruction it checks.  Every key is reconstructed
from an empty memo, so each check covers every side key below it.
"""

import pytest

import gwcalc.gw as gw_module
from gwcalc.gw import gw_invariant
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
