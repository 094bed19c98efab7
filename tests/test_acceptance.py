"""Acceptance suite: every criterion exact (tolerance zero), one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
with timings.  Each criterion clears the relevant memo tables first so the
time budgets are honest cold-start measurements.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

import gwcalc.gw as gw_module
import gwcalc.potentials as potentials_module
import gwcalc.surfaces as surfaces_module
from gwcalc.exact import binomial, factorial
from gwcalc.gw import gw_p1, gw_p1x1, gw_pr, dimension_admissible
from gwcalc.partitions import (MarkSet, boundary_divisor_count_m0n,
                               enumerate_partitions)
from gwcalc.potentials import (classical_potential, gw_potential_p1,
                               wdvv_residual_p1x1, wdvv_residual_p2)
from gwcalc.rings import RingElement, small_qmul, star_power
from gwcalc.series import TruncatedSeries
from gwcalc.surfaces import n_d, n_de, n_de_raw
from gwcalc.targets import InvariantKey, P1XP1, ProjectiveSpace

ND_TABLE = [1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392,
            19385778269260800, 40739017561997799680,
            120278021410937387514880, 482113680618029292368686080]

NDE_TABLE = {
    (0, 1): 1, (0, 2): 0, (0, 3): 0,
    (1, 0): 1, (1, 1): 1, (1, 2): 1, (1, 3): 1,
    (2, 0): 0, (2, 1): 1, (2, 2): 12, (2, 3): 96,
    (3, 0): 0, (3, 1): 1, (3, 2): 96, (3, 3): 3510,
}


def _clear_all():
    surfaces_module.clear_caches()
    gw_module.clear_caches()
    potentials_module.clear_caches()


def _report(number, description, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"[PASS] criterion {number:2d}: {description} ({elapsed:.3f}s)")


def test_criterion_01_nd_golden_table():
    _clear_all()
    started = time.monotonic()
    for d, expected in enumerate(ND_TABLE, start=1):
        assert n_d(d) == expected, d
    _report(1, "N_d table reproduced exactly for d = 1..12", started, 1.0)


def test_criterion_02_nde_golden_table():
    _clear_all()
    started = time.monotonic()
    for (d, e), expected in NDE_TABLE.items():
        assert n_de(d, e) == expected, (d, e)
    _report(2, "N_(d,e) table reproduced exactly for d, e <= 3", started, 1.0)


def test_criterion_03_symmetry_sweep():
    started = time.monotonic()
    for total in range(1, 9):
        for d in range(total + 1):
            e = total - d
            assert n_de_raw(d, e, {}) == n_de_raw(e, d, {}), (d, e)
    _report(3, "N_(d,e) = N_(e,d) for d+e <= 8 without shared caching",
            started, 10.0)


def test_criterion_04_gw_cross_oracle():
    _clear_all()
    started = time.monotonic()
    for d in range(1, 5):
        key = InvariantKey.from_classes(
            ProjectiveSpace(2), d, [2] * (3 * d - 1))
        assert gw_pr(key) == n_d(d), d
    for total in range(1, 5):
        for d in range(total + 1):
            e = total - d
            key = InvariantKey.from_classes(
                P1XP1, (d, e), [3] * (2 * total - 1))
            assert gw_p1x1(key) == n_de(d, e), (d, e)
    _report(4, "reconstruction and reduction agree with the curve counts",
            started, 30.0)


def test_criterion_05_three_point_normalization():
    _clear_all()
    started = time.monotonic()
    admissible = 0
    for r in range(2, 6):
        target = ProjectiveSpace(r)
        for d in range(0, 3):
            for triple in combinations_with_replacement(range(r + 1), 3):
                key = InvariantKey.from_classes(target, d, triple)
                value = gw_pr(key)
                if dimension_admissible(key):
                    assert value == 1, (r, d, triple)
                    admissible += 1
                else:
                    assert value == 0, (r, d, triple)
    assert admissible > 0
    explicit = [
        (ProjectiveSpace(3), (3, 2, 2)),
        (ProjectiveSpace(4), (3, 3, 3)),
    ]
    for target, triple in explicit:
        assert gw_pr(InvariantKey.from_classes(target, 1, triple)) == 1
    _report(5, "all admissible three-point invariants equal 1 for r <= 5",
            started, 10.0)


def test_criterion_06_p1_exhaustiveness():
    started = time.monotonic()
    P1 = ProjectiveSpace(1)
    assert gw_p1(InvariantKey(P1, 0, (2, 1))) == 1
    for n in range(0, 10):
        assert gw_p1(InvariantKey(P1, 1, (0, n))) == 1
    rng = random.Random(1234)
    hits = 0
    while hits < 1000:
        d = rng.randrange(0, 7)
        a0 = rng.randrange(0, 7)
        a1 = rng.randrange(0, 12)
        if (d, a0, a1) == (0, 2, 1) or (d == 1 and a0 == 0 and a1 >= 0):
            continue
        assert gw_p1(InvariantKey(P1, d, (a0, a1))) == 0, (d, a0, a1)
        hits += 1
    _report(6, "P^1 invariants are 1 on the two families and 0 elsewhere",
            started, 1.0)


def test_criterion_07_small_quantum_rings():
    started = time.monotonic()
    for r in range(2, 7):
        target = ProjectiveSpace(r)
        h1 = RingElement.basis(target, 1)
        assert star_power(h1, r + 1) == RingElement.basis(target, 0, mono=(1,))
    T = [RingElement.basis(P1XP1, i) for i in range(4)]
    expected_table = {
        (0, 0): T[0], (0, 1): T[1], (0, 2): T[2], (0, 3): T[3],
        (1, 1): RingElement.basis(P1XP1, 0, mono=(1, 0)),
        (1, 2): T[3],
        (1, 3): RingElement.basis(P1XP1, 2, mono=(1, 0)),
        (2, 2): RingElement.basis(P1XP1, 0, mono=(0, 1)),
        (2, 3): RingElement.basis(P1XP1, 1, mono=(0, 1)),
        (3, 3): RingElement.basis(P1XP1, 0, mono=(1, 1)),
    }
    for (i, j), expected in expected_table.items():
        assert small_qmul(T[i], T[j]) == expected, (i, j)
        assert small_qmul(T[j], T[i]) == expected, (i, j)
    for r in range(2, 7):
        target = ProjectiveSpace(r)
        basis = [RingElement.basis(target, i) for i in range(r + 1)]
        for a, b, c in product(basis, repeat=3):
            assert small_qmul(small_qmul(a, b), c) == \
                small_qmul(a, small_qmul(b, c))
    for a, b, c in product(T, repeat=3):
        assert small_qmul(small_qmul(a, b), c) == \
            small_qmul(a, small_qmul(b, c))
    rng = random.Random(99)

    def random_element(target):
        coeffs = {}
        for basis_idx in range(target.basis_size):
            poly = {}
            for _ in range(rng.randrange(0, 3)):
                mono = tuple(rng.randrange(0, 3) for _ in range(
                    1 if isinstance(target, ProjectiveSpace) else 2))
                poly[mono] = Fraction(rng.randrange(-5, 6),
                                      rng.randrange(1, 5))
            if poly:
                coeffs[basis_idx] = poly
        return RingElement(target, coeffs)

    for target in (ProjectiveSpace(2), P1XP1):
        for _ in range(100):
            a, b, c = (random_element(target) for _ in range(3))
            assert small_qmul(small_qmul(a, b), c) == \
                small_qmul(a, small_qmul(b, c))
    _report(7, "small quantum relations, tables and exact associativity",
            started, 5.0)


def test_criterion_08_wdvv_residuals():
    _clear_all()
    started = time.monotonic()
    assert wdvv_residual_p2(8).is_zero()
    assert wdvv_residual_p1x1(6).is_zero()
    perturbed_nd = lambda d: 13 if d == 3 else n_d(d)
    assert not wdvv_residual_p2(8, nd=perturbed_nd).is_zero()
    perturbed_nde = lambda d, e: 13 if (d, e) == (2, 2) else n_de(d, e)
    assert not wdvv_residual_p1x1(6, nde=perturbed_nde).is_zero()
    _report(8, "WDVV residuals vanish and detect a perturbed count",
            started, 60.0)


def test_criterion_09_potentials():
    started = time.monotonic()
    assert classical_potential(ProjectiveSpace(1)) == TruncatedSeries(
        2, 3, {(2, 1): Fraction(1, 2)})
    assert classical_potential(P1XP1) == TruncatedSeries(
        4, 3, {(2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1)})
    full = gw_potential_p1(10)
    for n in range(11):
        assert full.coefficient((0, n)) == Fraction(1, factorial(n))
    _report(9, "classical potentials verbatim, P^1 potential coefficients",
            started, 1.0)


def test_criterion_10_boundary_census():
    started = time.monotonic()
    pins = (("m1", "m2"), ("p1", "p2"))
    assert len(enumerate_partitions(MarkSet.standard(6), 2, pins)) == 12
    assert len(enumerate_partitions(MarkSet.standard(9), 3, pins)) == 128
    assert boundary_divisor_count_m0n(4) == 3
    _report(10, "boundary divisor censuses 12, 128 and 3", started, 1.0)


def test_criterion_11_property_suites():
    started = time.monotonic()
    rng = random.Random(2024)

    # rational canonical-form closure
    for _ in range(500):
        a = Fraction(rng.randrange(-60, 61), rng.randrange(1, 60))
        b = Fraction(rng.randrange(-60, 61), rng.randrange(1, 60))
        for value in (a + b, a * b, a - b):
            assert value.denominator > 0
            assert math.gcd(value.numerator, value.denominator) == 1

    # Pascal identity
    for _ in range(500):
        n = rng.randrange(1, 200)
        k = rng.randrange(-1, n + 2)
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def random_series(nvars, order):
        terms = {}
        for _ in range(6):
            exps = tuple(rng.randrange(0, order + 1) for _ in range(nvars))
            if sum(exps) <= order:
                terms[exps] = Fraction(rng.randrange(-9, 10),
                                       rng.randrange(1, 7))
        return TruncatedSeries(nvars, order, terms)

    # Leibniz rule
    for _ in range(500):
        nvars = rng.randrange(1, 4)
        order = rng.randrange(1, 6)
        a, b = random_series(nvars, order), random_series(nvars, order)
        var = rng.randrange(nvars)
        lhs = (a * b).partial_derivative(var)
        rhs = a.partial_derivative(var) * b + a * b.partial_derivative(var)
        assert lhs == rhs.truncate(lhs.order)

    # mixed-partial symmetry
    for _ in range(500):
        nvars = rng.randrange(2, 4)
        order = rng.randrange(2, 7)
        s = random_series(nvars, order)
        i, j = rng.randrange(nvars), rng.randrange(nvars)
        assert (s.partial_derivative(i).partial_derivative(j)
                == s.partial_derivative(j).partial_derivative(i))

    # permutation invariance of invariant keys
    for _ in range(500):
        r = rng.randrange(2, 5)
        target = ProjectiveSpace(r)
        classes = [rng.randrange(0, r + 1)
                   for _ in range(rng.randrange(1, 9))]
        shuffled = classes[:]
        rng.shuffle(shuffled)
        d = rng.randrange(0, 4)
        assert (InvariantKey.from_classes(target, d, classes)
                == InvariantKey.from_classes(target, d, shuffled))

    _report(11, "five property suites, 500 randomized cases each",
            started, 30.0)
