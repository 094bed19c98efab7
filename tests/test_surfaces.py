import sys

import pytest

from gwcalc.surfaces import (bidegree_intersection, cache_snapshot,
                             clear_caches, genus_nodal_p2, genus_smooth_p1x1,
                             n_d, n_d_raw, n_de, n_de_raw, required_points,
                             seed_caches)
from gwcalc.targets import P1XP1, ProjectiveSpace

from reference_counts import reference_n_d, reference_n_de

ND_TABLE = {
    1: 1,
    2: 1,
    3: 12,
    4: 620,
    5: 87304,
    6: 26312976,
    7: 14616808192,
    8: 13525751027392,
    9: 19385778269260800,
    10: 40739017561997799680,
    11: 120278021410937387514880,
    12: 482113680618029292368686080,
}

NDE_TABLE = {
    (0, 1): 1, (0, 2): 0, (0, 3): 0,
    (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1,
    (2, 0): 0, (2, 1): 1, (2, 2): 12, (2, 3): 96,
    (3, 0): 0, (3, 1): 1, (3, 2): 96, (3, 3): 3510,
}


def test_nd_golden_table():
    for d, expected in ND_TABLE.items():
        assert n_d(d) == expected


def test_nd_invalid_degree():
    with pytest.raises(ValueError):
        n_d(0)
    with pytest.raises(ValueError):
        n_d(-2)


@pytest.mark.parametrize("warm, call, message", [
    (True, lambda: n_d(5.0),
     "plane curve count needs an integer degree, got 5.0"),
    (False, lambda: n_d(5.0),
     "plane curve count needs an integer degree, got 5.0"),
    (False, lambda: n_d(True),
     "plane curve count needs an integer degree, got True"),
    (True, lambda: n_de(2.0, 2),
     "bidegree components must be integers, got (2.0, 2)"),
    (False, lambda: n_de(2, True),
     "bidegree components must be integers, got (2, True)"),
], ids=["nd-warm", "nd-cold", "nd-bool", "nde-warm", "nde-bool"])
def test_counts_check_the_degree_before_the_memo(warm, call, message):
    # A float equal to a stored degree finds its entry in the memo, so the
    # degree's type is checked before any lookup, warm or cold.
    clear_caches()
    if warm:
        n_d(5)
        n_de(2, 2)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_nde_golden_table():
    for (d, e), expected in NDE_TABLE.items():
        assert n_de(d, e) == expected


def test_nde_undefined_and_invalid():
    with pytest.raises(ValueError):
        n_de(0, 0)
    with pytest.raises(ValueError):
        n_de(-1, 2)


def test_nde_axes():
    for d in range(2, 9):
        assert n_de(d, 0) == 0
        assert n_de(0, d) == 0
    assert n_de(1, 0) == 1
    assert n_de(0, 1) == 1


def test_nde_column_one():
    for d in range(0, 9):
        assert n_de(d, 1) == 1
        assert n_de(1, d if d else 1) == 1


def test_nd_matches_unpaired_reference():
    reference = reference_n_d(40)
    assert reference[1:13] == [ND_TABLE[d] for d in range(1, 13)]
    for d in range(1, 41):
        assert n_d(d) == reference[d], d
        assert n_d_raw(d, {}) == reference[d], d


def test_nde_matches_unpaired_reference_in_both_orientations():
    reference = reference_n_de(12, 12)
    for (d, e), value in NDE_TABLE.items():
        assert reference[(d, e)] == value
    for d in range(1, 13):
        for e in range(1, 13):
            assert reference[(d, e)] == reference[(e, d)], (d, e)
            assert n_de(d, e) == reference[(d, e)], (d, e)
            assert n_de_raw(d, e, {}) == reference[(d, e)], (d, e)


def test_symmetry_without_normalized_cache():
    # Both orientations of the raw count, each on a private table, against
    # the unpaired reference at the transposed key, whose sum differs from
    # the one at the key itself.
    reference = reference_n_de(8, 8)
    for total in range(1, 9):
        for d in range(total + 1):
            e = total - d
            assert n_de_raw(d, e, {}) == reference[(e, d)], (d, e)
            assert n_de_raw(e, d, {}) == reference[(d, e)], (d, e)


def test_raw_matches_memoized():
    for d in range(1, 31):
        assert n_d_raw(d) == n_d(d)
    for d in range(4):
        for e in range(4):
            if d + e < 1:
                continue
            assert n_de_raw(d, e, {}) == n_de(d, e)


def test_counts_do_not_depend_on_the_recursion_limit():
    nd150 = n_d_raw(150, {})
    expected = (nd150, nd150, n_de_raw(20, 20, {}), n_de_raw(20, 19, {}))
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        got = (n_d(150), n_d_raw(150, {}), n_de(20, 20),
               n_de_raw(20, 19, {}))
    finally:
        sys.setrecursionlimit(limit)
        clear_caches()
    assert got == expected


def test_sparse_seeded_tables_are_completed():
    clear_caches()
    try:
        seed_caches(nd={5: ND_TABLE[5], 9: ND_TABLE[9]}, nde={(3, 4): 87544})
        assert n_d(12) == ND_TABLE[12]
        assert n_de(6, 6) == 780252921765888
        nd, nde = cache_snapshot()
        assert all(nd[d] == v for d, v in ND_TABLE.items() if d > 1)
        assert nde[(3, 4)] == 87544 and nde[(4, 4)] == 6508640
        assert all(d <= e for d, e in nde)
    finally:
        clear_caches()


def test_private_and_shared_tables_use_one_key_layout():
    calls = [(5, 3), (3, 5), (6, 4), (2, 7)]
    private: dict[tuple[int, int], int] = {}
    clear_caches()
    try:
        for d, e in calls:
            assert n_de_raw(d, e, private) == n_de(d, e)
        _, shared = cache_snapshot()
        assert private == shared
        assert all(p <= q for p, q in private)
        assert {(4, 6), (2, 7)} <= set(private)
        clear_caches()
        seed_caches(nde={(4, 3): 87544})
        _, shared = cache_snapshot()
        assert shared == {(3, 4): 87544}
        assert n_de(4, 3) == n_de(3, 4) == 87544
    finally:
        clear_caches()


def test_seeding_leaves_out_the_keys_the_tables_never_read():
    # N_d below d = 2 and N_(d,e) with a side below 1 come from the
    # recursions' base cases, never from the tables.
    clear_caches()
    try:
        seed_caches(nd={1: 5, 0: 7, -3: 1}, nde={(0, 3): 7, (2, 0): 1})
        assert cache_snapshot() == ({}, {})
        seed_caches(nd={1: 5, 2: 1}, nde={(0, 3): 7, (4, 3): 87544})
        assert cache_snapshot() == ({2: 1}, {(3, 4): 87544})
        assert n_d(1) == 1 and n_de(0, 3) == 0 and n_de(1, 0) == 1
    finally:
        clear_caches()


def test_required_points():
    assert required_points(ProjectiveSpace(2), 3) == 8
    assert required_points(ProjectiveSpace(2), 1) == 2
    assert required_points(P1XP1, (1, 1)) == 3
    with pytest.raises(ValueError):
        required_points(ProjectiveSpace(3), 1)
    with pytest.raises(ValueError):
        required_points(P1XP1, (0, 0))
    for degree in (2.5, True):
        with pytest.raises(ValueError, match="expects an integer degree"):
            required_points(ProjectiveSpace(2), degree)


def test_genus_nodal_p2():
    assert genus_nodal_p2(3, 1) == 0
    assert genus_nodal_p2(1, 0) == 0
    assert genus_nodal_p2(4, 0) == 3
    with pytest.raises(ValueError):
        genus_nodal_p2(3, 2)  # more nodes than the degree allows
    with pytest.raises(ValueError, match="must be integers"):
        genus_nodal_p2(4, 0.5)


def test_genus_smooth_p1x1():
    assert genus_smooth_p1x1(1, 1) == 0
    assert genus_smooth_p1x1(2, 3) == 2
    assert genus_smooth_p1x1(3, 3) == 4
    with pytest.raises(ValueError):
        genus_smooth_p1x1(0, 1)
    with pytest.raises(ValueError, match="needs integers"):
        genus_smooth_p1x1(True, 3)


def test_bidegree_intersection():
    for d in range(4):
        for e in range(4):
            assert bidegree_intersection((d, e), (1, 0)) == e
            assert bidegree_intersection((d, e), (0, 1)) == d
            assert bidegree_intersection((d, e), (1, 1)) == d + e
    assert bidegree_intersection((1, 1), (1, 1)) == 2
    with pytest.raises(ValueError, match="pairs of integers"):
        bidegree_intersection((1.5, 0), (1, 1))
