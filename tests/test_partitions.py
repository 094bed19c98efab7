import time
from itertools import combinations

import pytest

from gwcalc.partitions import (MarkSet, WeightedPartition,
                               boundary_divisor_count_m0n,
                               count_labeled_configurations,
                               count_pinned_partitions, enumerate_partitions,
                               stratum_dimension)
from gwcalc.surfaces import n_d, n_de

from reference_counts import partition_n_d, partition_n_de

PINS = (("m1", "m2"), ("p1", "p2"))


def test_markset():
    marks = MarkSet.standard(6)
    assert marks.labels == ("m1", "m2", "p1", "p2", "p3", "p4")
    with pytest.raises(ValueError):
        MarkSet(("a", "a"))
    with pytest.raises(ValueError):
        marks.index("q9")


def test_conic_census():
    parts = enumerate_partitions(MarkSet.standard(6), 2, PINS)
    assert len(parts) == 12
    # factors as (degree splits) x (spare mark distributions) = 3 * 4
    assert count_pinned_partitions(MarkSet.standard(6), 2, PINS) == 12


def test_cubic_census():
    parts = enumerate_partitions(MarkSet.standard(9), 3, PINS)
    assert len(parts) == 128
    assert count_pinned_partitions(MarkSet.standard(9), 3, PINS) == 4 * 32


def test_degree_zero_stability_forces_single_partition():
    parts = enumerate_partitions(MarkSet.standard(4), 0, PINS)
    assert len(parts) == 1
    only = parts[0]
    assert only.a == ("m1", "m2") and only.b == ("p1", "p2")


def test_every_partition_is_stable_and_ordered():
    marks = MarkSet.standard(8)
    parts = enumerate_partitions(marks, 2, PINS)
    order = {m: i for i, m in enumerate(marks)}
    for p in parts:
        if p.total_a == 0:
            assert len(p.a) >= 2
        if p.total_b == 0:
            assert len(p.b) >= 2
        assert list(p.a) == sorted(p.a, key=order.__getitem__)
        assert set(p.a) | set(p.b) == set(marks.labels)
        assert not set(p.a) & set(p.b)
        assert "m1" in p.a and "m2" in p.a
        assert "p1" in p.b and "p2" in p.b
    # deterministic canonical order
    assert parts == enumerate_partitions(marks, 2, PINS)
    keys = [(p.d_a, tuple(order[m] for m in p.a)) for p in parts]
    assert keys == sorted(keys)


def test_partition_count_equals_closed_form():
    for n in (5, 6, 7):
        for d in (1, 2, 3):
            marks = MarkSet.standard(n)
            assert len(enumerate_partitions(marks, d, PINS)) == \
                count_pinned_partitions(marks, d, PINS)


def test_partition_count_needs_no_loop_over_the_splits():
    # (d+1)(e+1) degree splits times 2^(n-4): 9 million splits here, which
    # counting one by one took over a second.
    marks = MarkSet.standard(6)
    started = time.perf_counter()
    assert count_pinned_partitions(marks, (3000, 3000), PINS) == 3001 ** 2 * 4
    assert count_pinned_partitions(marks, 3000, PINS) == 3001 * 4
    assert time.perf_counter() - started < 0.5
    for degree, message in ((-1, "degree must be >= 0, got -1"),
                            ((2, -1), r"bidegree components must be >= 0, "
                                      r"got \(2, -1\)")):
        with pytest.raises(ValueError, match=message):
            count_pinned_partitions(marks, degree, PINS)
    with pytest.raises(ValueError, match="four pinned marks must be distinct"):
        count_pinned_partitions(marks, 1, (("m1", "m1"), ("p1", "p2")))


def test_bidegree_enumeration():
    marks = MarkSet.standard(6)
    parts = enumerate_partitions(marks, (1, 1), PINS)
    assert len(parts) == 4 * 4  # four bidegree splits, 2^2 distributions
    record = parts[0].to_json()
    assert set(record) == {"A", "B", "dA", "dB", "eA", "eB"}
    # with e = 0 the bidegree enumeration collapses to the plain count
    assert len(enumerate_partitions(marks, (2, 0), PINS)) == \
        len(enumerate_partitions(marks, 2, PINS))


def test_unstable_partition_rejected():
    with pytest.raises(ValueError):
        WeightedPartition(("m1",), ("m2", "p1", "p2"), 0, 2)


def test_pins_validation():
    marks = MarkSet.standard(6)
    with pytest.raises(ValueError):
        enumerate_partitions(marks, 2, (("m1", "m1"), ("p1", "p2")))
    with pytest.raises(ValueError):
        enumerate_partitions(marks, 2, (("m1", "zz"), ("p1", "p2")))


def test_stratum_dimension():
    assert stratum_dimension(6, 0) == 3
    assert stratum_dimension(6, 3) == 0
    assert stratum_dimension(4, 1) == 0
    with pytest.raises(ValueError):
        stratum_dimension(6, 4)
    with pytest.raises(ValueError):
        stratum_dimension(6, -1)
    with pytest.raises(ValueError, match="must be integers"):
        stratum_dimension(5.5, 1)


def brute_force_divisor_count(n):
    labels = range(n)
    seen = set()
    for size in range(2, n - 1):
        for a in combinations(labels, size):
            b = tuple(x for x in labels if x not in a)
            if len(b) < 2:
                continue
            seen.add(frozenset((frozenset(a), frozenset(b))))
    return len(seen)


def test_boundary_divisor_count():
    assert boundary_divisor_count_m0n(4) == 3
    assert boundary_divisor_count_m0n(5) == 10
    assert boundary_divisor_count_m0n(6) == 25
    for n in range(4, 9):
        assert boundary_divisor_count_m0n(n) == brute_force_divisor_count(n)
    with pytest.raises(ValueError):
        boundary_divisor_count_m0n(3)
    with pytest.raises(ValueError, match="must be an integer"):
        boundary_divisor_count_m0n(4.0)


def test_count_labeled_configurations():
    assert count_labeled_configurations(6, (2, 4)) == 15
    assert count_labeled_configurations(6, (6, 0)) == 1
    assert count_labeled_configurations(5, (2, 3)) == 10
    with pytest.raises(ValueError):
        count_labeled_configurations(6, (2, 5))
    for n, shape in ((6.0, (2, 4)), (True, (1, 0)), (6, (2.0, 4))):
        with pytest.raises(ValueError) as info:
            count_labeled_configurations(n, shape)
        assert str(info.value) == (f"mark count and twig sizes must be "
                                   f"integers, got {n!r} and {shape!r}")


@pytest.mark.parametrize("listing", [enumerate_partitions,
                                     count_pinned_partitions])
@pytest.mark.parametrize("degree, pins, message", [
    (2, (("m1", "m1"), ("p1", "p2")), "the four pinned marks must be distinct"),
    (2, (("m1", "p2"), ("p1", "p2")), "the four pinned marks must be distinct"),
    (2, (("m1", "zz"), ("p1", "p2")), "mark 'zz' is not in the mark set"),
    (-1, (("m1", "zz"), ("p1", "p2")), "mark 'zz' is not in the mark set"),
    (-1, PINS, "degree must be >= 0, got -1"),
    ((1, -1), PINS, "bidegree components must be >= 0, got (1, -1)"),
    ((-3, 0), PINS, "bidegree components must be >= 0, got (-3, 0)"),
    ((1, 1, 1), PINS, "a degree is an integer or a pair of integers, "
                      "got (1, 1, 1)"),
    ((1,), PINS, "a degree is an integer or a pair of integers, got (1,)"),
    ("12", PINS, "a degree is an integer or a pair of integers, got '12'"),
    (True, PINS, "a degree is an integer or a pair of integers, got True"),
    ((1, False), PINS, "a degree is an integer or a pair of integers, "
                       "got (1, False)"),
])
def test_listing_and_count_refuse_the_same_input(listing, degree, pins,
                                                 message):
    with pytest.raises(ValueError) as info:
        listing(MarkSet.standard(6), degree, pins)
    assert str(info.value) == message


def test_the_first_proof_over_the_enumerated_divisors_gives_the_counts():
    # The paper's first proof: the relation D(m1 m2 | p1 p2) = D(m1 p1 |
    # m2 p2), scored over the divisors ``enumerate_partitions`` lists
    # (each listing's length checked against ``count_pinned_partitions``),
    # against the curve-count tables, which share no code with it.
    assert partition_n_d(5) == [0] + [n_d(d) for d in range(1, 6)]
    counts = partition_n_de(6)
    assert len(counts) == 27
    for (d, e), value in counts.items():
        assert value == n_de(d, e), (d, e)
    assert (counts[(2, 4)], counts[(3, 3)], counts[(2, 3)]) == (640, 3510, 96)
