import hashlib
import itertools
import re
import sys
from fractions import Fraction

import pytest

from gwcalc.exact import factorial
from gwcalc.gw import collected_invariant
from gwcalc.potentials import (classical_potential, gamma_p1x1,
                               gamma_p2_reduced, gw_potential_p1, phi_ijk,
                               quantum_potential_p1x1,
                               quantum_potential_p2_reduced, wdvv_general_pr,
                               wdvv_residual_p1x1, wdvv_residual_p2)
from gwcalc.series import TruncatedSeries
from gwcalc.surfaces import n_d, n_de
from gwcalc.targets import P1XP1, ProjectiveSpace

P1 = ProjectiveSpace(1)
P2 = ProjectiveSpace(2)
P3 = ProjectiveSpace(3)


def test_classical_potential_p1():
    assert classical_potential(P1) == TruncatedSeries(
        2, 3, {(2, 1): Fraction(1, 2)})


def test_classical_potential_p2():
    assert classical_potential(P2) == TruncatedSeries(
        3, 3, {(1, 2, 0): Fraction(1, 2), (2, 0, 1): Fraction(1, 2)})


def test_classical_potential_p3():
    # includes the x0^2 x3 / 2 term demanded by I_0(h0.h0.h3) = 1
    assert classical_potential(P3) == TruncatedSeries(
        4, 3, {(0, 3, 0, 0): Fraction(1, 6),
               (1, 1, 1, 0): Fraction(1),
               (2, 0, 0, 1): Fraction(1, 2)})


def test_classical_potential_p1x1():
    assert classical_potential(P1XP1) == TruncatedSeries(
        4, 3, {(2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1)})


def test_classical_potential_unsupported():
    with pytest.raises(ValueError):
        classical_potential(ProjectiveSpace(4))


def test_gw_potential_p1():
    assert gw_potential_p1(0) == TruncatedSeries.constant(2, 0, 1)
    expected3 = TruncatedSeries(2, 3, {
        (2, 1): Fraction(1, 2), (0, 0): 1, (0, 1): 1,
        (0, 2): Fraction(1, 2), (0, 3): Fraction(1, 6)})
    assert gw_potential_p1(3) == expected3
    s = gw_potential_p1(10)
    for n in range(11):
        assert s.coefficient((0, n)) == Fraction(1, factorial(n))


def test_gamma_p2_point_coefficients():
    g222 = gamma_p2_reduced(2, 2, 2, 8)
    for d in range(2, 5):
        assert g222.coefficient((3 * d - 4,)) == \
            Fraction(n_d(d), factorial(3 * d - 4))
    g111 = gamma_p2_reduced(1, 1, 1, 4)
    assert g111.coefficient((2,)) == Fraction(1, 2)  # d^3 N_1 / 2!
    assert gamma_p2_reduced(0, 1, 2, 6).is_zero()
    assert gamma_p2_reduced(0, 0, 0, 6).is_zero()


def test_quantum_potential_p2_family():
    family = quantum_potential_p2_reduced(5)
    assert set(family) == {(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)}
    assert family[(1, 1, 2)].coefficient((1,)) == 1  # d^2 N_1 x / 1!
    assert family[(1, 2, 2)].coefficient((0,)) == 1  # d N_1 / 0!


def test_quantum_potential_p1x1_coefficients():
    g = quantum_potential_p1x1(4)
    # the two rules contribute x3 each
    assert g.coefficient((0, 0, 1)) == 2
    # x1 x3: sum of e * N_(d,e) over d+e = 1
    assert g.coefficient((1, 0, 1)) == 1
    # x3^3: d+e = 2 contributions N_(1,1) = 1, axes vanish
    assert g.coefficient((0, 0, 3)) == Fraction(1, factorial(3))
    assert quantum_potential_p1x1(0).is_zero()


def test_gamma_p1x1_derivative_consistency():
    # third partials of the quantum part agree with the direct assembly
    order = 5
    g = quantum_potential_p1x1(order + 3)
    for (i, j, k) in [(1, 1, 2), (3, 3, 3), (1, 2, 3), (2, 2, 3)]:
        derived = g
        for idx in (i, j, k):
            derived = derived.partial_derivative(idx - 1)
        assert derived == gamma_p1x1(i, j, k, order), (i, j, k)
    assert gamma_p1x1(0, 1, 2, 4).is_zero()


def test_wdvv_residual_p2():
    assert wdvv_residual_p2(8).is_zero()
    assert wdvv_residual_p2(0).is_zero()


def test_wdvv_residual_p2_sensitivity():
    perturbed = lambda d: 13 if d == 3 else n_d(d)
    residual = wdvv_residual_p2(8, nd=perturbed)
    assert not residual.is_zero()
    exps, coeff = residual.leading_term()
    assert exps == (5,) and coeff == Fraction(1, 120)
    # any single wrong table entry visible at this order breaks the identity
    for wrong in (2, 3, 4):
        bumped = lambda d: n_d(d) + 1 if d == wrong else n_d(d)
        assert not wdvv_residual_p2(8, nd=bumped).is_zero(), wrong


def test_wdvv_residual_p1x1():
    assert wdvv_residual_p1x1(6).is_zero()
    assert wdvv_residual_p1x1(1).is_zero()


def test_wdvv_residual_p1x1_sensitivity():
    perturbed = lambda d, e: 13 if (d, e) == (2, 2) else n_de(d, e)
    assert not wdvv_residual_p1x1(6, nde=perturbed).is_zero()
    for wrong in ((1, 1), (1, 2), (2, 2)):
        target = {wrong, (wrong[1], wrong[0])}
        bumped = lambda d, e: n_de(d, e) + 1 if (d, e) in target \
            else n_de(d, e)
        assert not wdvv_residual_p1x1(6, nde=bumped).is_zero(), wrong
    exps, coeff = wdvv_residual_p1x1(6, nde=perturbed).leading_term()
    assert exps == (0, 0, 4) and coeff == Fraction(1, 24)


def test_phi_ijk_coefficient_extraction():
    # coefficient of x^a / a! in Phi_ijk is the collected invariant with
    # the three extra classes appended; checked for all |a| <= 4
    order = 4
    cases = [
        (P1, (0, 0, 1)), (P1, (0, 1, 1)), (P1, (1, 1, 1)),
        (P2, (1, 1, 2)), (P2, (2, 2, 2)), (P2, (0, 1, 1)), (P2, (1, 2, 2)),
        (P3, (1, 2, 3)), (P3, (2, 2, 3)), (P3, (3, 3, 3)), (P3, (0, 1, 2)),
        (P3, (1, 1, 1)),
        (P1XP1, (1, 2, 3)), (P1XP1, (3, 3, 3)), (P1XP1, (1, 1, 3)),
        (P1XP1, (0, 1, 2)), (P1XP1, (0, 3, 3)),
    ]
    for target, (i, j, k) in cases:
        phi = phi_ijk(target, i, j, k, order)
        for a in itertools.product(range(order + 1),
                                   repeat=target.basis_size):
            if sum(a) > order:
                continue
            extended = list(a)
            for idx in (i, j, k):
                extended[idx] += 1
            expected = collected_invariant(target, tuple(extended))
            denom = 1
            for entry in a:
                denom *= factorial(entry)
            assert phi.coefficient(a) == expected / denom, \
                (target, i, j, k, a)


def test_phi_ijk_derivative_route():
    # build Phi itself from collected invariants and differentiate thrice;
    # this exercises the factorial bookkeeping of the direct assembly
    order = 7
    terms = {}
    for a in itertools.product(range(order + 1), repeat=3):
        if sum(a) > order:
            continue
        value = collected_invariant(P2, a)
        if value:
            denom = 1
            for entry in a:
                denom *= factorial(entry)
            terms[a] = value / denom
    phi = TruncatedSeries(3, order, terms)
    for (i, j, k) in [(1, 1, 2), (2, 2, 2)]:
        derived = phi
        for idx in (i, j, k):
            derived = derived.partial_derivative(idx)
        assert derived == phi_ijk(P2, i, j, k, order - 3).truncate(order - 3)


def test_phi_112_matches_reduced_gamma():
    # set x0 = x1 = 0 in the multivariate quantum structure constant and
    # compare with the one-variable closed form built from the N_d table
    order = 6
    phi = phi_ijk(P2, 1, 1, 2, order)
    classical = classical_potential(P2)
    for idx in (1, 1, 2):
        classical = classical.partial_derivative(idx)
    quantum = phi - TruncatedSeries.constant(
        3, order, classical.coefficient((0, 0, 0)))
    sliced = {}
    for exps, coeff in quantum.terms.items():
        if exps[0] == 0 and exps[1] == 0:
            sliced[(exps[2],)] = coeff
    assert TruncatedSeries(1, order, sliced) == \
        gamma_p2_reduced(1, 1, 2, order)


@pytest.mark.parametrize("target, order", [
    (P2, 5), (P1XP1, 4), (P1, 8), (P3, 6), (ProjectiveSpace(4), 5),
    (ProjectiveSpace(5), 4)],
    ids=["p2", "p1x1", "p1", "p3", "p4", "p5"])
def test_wdvv_residual_vanishes_at_every_quadruple(target, order):
    # the generic residual over the full multivariate structure constants,
    # at all m^4 index quadruples; only (1,1,2,2) on P^2 and (1,2,3,3) on
    # P1xP1 have dedicated one-identity residuals.  The reconstruction uses
    # one pair of equivalent boundary divisors, so every other quadruple is
    # an independent check of it.  A low order reaches only low degrees:
    # bench/reference.json stays the guard for P^4 at d = 7 and P^5 at d = 5.
    import itertools
    from gwcalc.potentials import _wdvv_residual
    m = target.basis_size
    for quad in itertools.product(range(m), repeat=4):
        residual = _wdvv_residual(target, order, None, tuple(range(m)),
                                  *quad)
        assert residual.is_zero(), quad
        assert (residual.nvars, residual.order) == (m, order)


@pytest.mark.parametrize("quad", [
    (1, 1, 2, 2), (1, 1, 2, 3), (1, 1, 3, 3), (1, 2, 2, 3), (1, 2, 3, 3),
    (2, 2, 3, 3)])
def test_p1x1_residual_vanishes_in_every_quadruple_class_at_order_90(quad):
    # A wrong N_(d,e) shows in six sorted classes of P1xP1 quadruples, and
    # only (1,2,3,3) is the equation the table filler transcribes; the
    # other five check N_(d,e) independently, up to d + e = 45 at order 90.
    # All 256 quadruples at this order would take about 40 times as long.
    from gwcalc.potentials import _wdvv_residual
    assert _wdvv_residual(P1XP1, 90, None, None, *quad).is_zero()


def test_wdvv_general_pr():
    assert wdvv_general_pr(2, 1, 1, 2, 2, 6).is_zero()
    assert wdvv_general_pr(2, 0, 1, 2, 2, 4).is_zero()
    assert wdvv_general_pr(3, 1, 1, 3, 3, 5).is_zero()
    with pytest.raises(ValueError):
        wdvv_general_pr(4, 1, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        wdvv_general_pr(2, 3, 0, 0, 0, 3)


@pytest.mark.parametrize("name, args, message", [
    ("wdvv_general_pr", (3, -1, 1, 2, 2, 3),
     "basis index -1 out of range for P^3"),
    ("wdvv_general_pr", (3, 4, 1, 1, 1, 3),
     "basis index 4 out of range for P^3"),
    ("wdvv_general_pr", (3, 1, 1, 7, -2, 3),
     "basis index 7 out of range for P^3"),
    ("wdvv_general_pr", (3, 1, 1, 2, -2, 3),
     "basis index -2 out of range for P^3"),
    ("_wdvv_residual", (P1XP1, 3, None, None, 1, 2, 3, 4),
     "basis index 4 out of range for P1xP1"),
    ("wdvv_general_pr", (3, -1, 9, 1, 1, -1), "order must be >= 0, got -1"),
], ids=["negative-i", "i-past-r", "k-before-l", "negative-l", "p1x1-l",
        "order-first"])
def test_residuals_check_the_order_then_each_index(name, args, message):
    # Past the range check an index reads a weight by position, where -1
    # would be the last class, so each index is checked, in the order i,
    # j, k, l, after the order.
    from gwcalc import potentials
    with pytest.raises(ValueError) as info:
        getattr(potentials, name)(*args)
    assert str(info.value) == message


def test_exponent_vectors_do_not_recurse_per_variable():
    from gwcalc.potentials import _vectors
    from gwcalc.series import _variable_keys
    assert sys.getrecursionlimit() < 2000
    vectors = _vectors(range(2000), _variable_keys(2000, 1), 1)
    assert len(vectors) == 2001
    assert vectors[0] == ((), 0, 0, 1)
    assert [v for v, _, _, _ in vectors[1:]] == [
        ((c, 1),) for c in range(2000)]
    assert _vectors([], [], 3) == [((), 0, 0, 1)]
    unit = _variable_keys(2, 2)
    assert _vectors(range(2), unit, 2) == [
        ((), 0, 0, 1), (((0, 1),), unit[0], 1, 1),
        (((1, 1),), unit[1], 1, 1), (((0, 2),), 2 * unit[0], 2, 2),
        (((1, 2),), 2 * unit[1], 2, 2),
        (((0, 1), (1, 1)), unit[0] + unit[1], 2, 1)]


def test_clear_caches_leaves_no_table_behind():
    from gwcalc import potentials
    wdvv_residual_p1x1(6)
    wdvv_general_pr(3, 1, 1, 2, 3, 3)
    phi_ijk(P1XP1, 1, 2, 3, 5)
    tables = {name: value for name, value in vars(potentials).items()
              if isinstance(value, (dict, list, set))
              and not name.startswith("__")}
    assert any(tables.values())
    potentials.clear_caches()
    assert {name: len(value) for name, value in tables.items()} == \
        dict.fromkeys(tables, 0)


def test_a_custom_count_builds_a_table_it_does_not_keep():
    # A caller's own count source gets a table of its own: the shared
    # tables, which read the invariants, are left as they were.
    from gwcalc import potentials
    potentials.clear_caches()
    cold = wdvv_residual_p2(40), gamma_p1x1(1, 2, 3, 8)
    potentials.clear_caches()
    wdvv_residual_p2(12)
    before = dict(potentials._TABLES)
    assert wdvv_residual_p2(40, nd=n_d).is_zero()
    assert gamma_p1x1(1, 2, 3, 8, nde=n_de) == cold[1]
    assert potentials._TABLES == before
    assert (wdvv_residual_p2(40), gamma_p1x1(1, 2, 3, 8)) == cold


def test_every_class_kept_shares_one_table():
    # phi_ijk, big_qmul and wdvv_general_pr on one target and order read
    # one table, keyed with kept classes None; a repeated structure
    # constant is the object the table kept.
    from gwcalc import potentials
    from gwcalc.rings import BigQuantumElement, big_qmul
    potentials.clear_caches()
    h1 = BigQuantumElement.basis(P3, 1, 3)
    big_qmul(h1, h1)
    wdvv_general_pr(3, 1, 1, 2, 3, 3)
    phi = phi_ijk(P3, 3, 1, 2, 3)
    assert list(potentials._TABLES) == [(P3, 3, None)]
    assert phi_ijk(P3, 1, 2, 3, 3) is phi
    assert potentials._TABLES[P3, 3, None].phis[1, 2, 3] is phi


@pytest.mark.parametrize("target, order, keep", [
    (ProjectiveSpace(1), 5279, None), (ProjectiveSpace(2), 599, None),
    (ProjectiveSpace(2), 7466, (2,)), (P1XP1, 106, None),
    (P1XP1, 106, (1, 2, 3)), (ProjectiveSpace(3), 179, None),
    (ProjectiveSpace(4), 84, None),
], ids=["p1", "p2", "p2-reduced", "p1xp1", "p1xp1-reduced", "p3", "p4"])
def test_the_listing_bound_leaves_narrow_targets_to_the_product(
        target, order, keep):
    # P^1, P^2 and P1xP1 have no free class and P^3 one, so only the bits of
    # the factorial-sized ints bound them; each order here is the last one
    # allowed, and the next one is refused.
    from gwcalc.potentials import _ListingTooLarge, _check_listing
    keep = keep or tuple(range(target.basis_size))
    _check_listing(target, order, keep)
    with pytest.raises(_ListingTooLarge, match=(
            rf"^order {order + 1} on {re.escape(str(target))} is too large: "
            r"\d+ factorial-sized ints of up to order \* bitlen\(order\) "
            r"bits are over 1450000000 bits$")):
        _check_listing(target, order + 1, keep)


def test_the_listing_bound_refuses_p4_from_order_3161():
    # 2 * C(3163, 3161) = 10,001,406 ints, one order past the last allowed
    # by the free listing, which is checked before the bits.
    from gwcalc.potentials import _ListingTooLarge, _check_listing
    with pytest.raises(_ListingTooLarge, match=(
            r"^order 3161 on P\^4 is too large: with f = 2 free classes, "
            r"f \* C\(f \+ order, order\) is over 10000000$")):
        _check_listing(ProjectiveSpace(4), 3161, tuple(range(5)))


@pytest.mark.parametrize("args, message", [
    ((P3, 4, 1, 1, 2), "basis index 4 out of range for P^3"),
    ((P3, 1, -1, 2, 2), "basis index -1 out of range for P^3"),
    ((P3, 3, 1, 9, 4), "basis index 9 out of range for P^3"),
    ((P3, 4, 1, 1, -1), "basis index 4 out of range for P^3"),
    ((P3, 0, 1, 5, 2), "basis index 5 out of range for P^3"),
    ((P1XP1, 1, 2, 4, 3), "basis index 4 out of range for P1xP1"),
    ((P3, 1, 2, 3, -1), "order must be >= 0, got -1"),
    ((ProjectiveSpace(1000), 1, 1, 1001, 1),
     "basis index 1001 out of range for P^1000"),
])
def test_structure_constants_check_their_indices_before_the_lookup(
        args, message):
    # A structure constant is looked up by its sorted indices before any
    # exponent vector is built, so each index is range-checked first, ahead
    # of the order, on a table that already holds other constants too.
    phi_ijk(P3, 3, 1, 2, 4)
    with pytest.raises(ValueError) as info:
        phi_ijk(*args)
    assert str(info.value) == message


def test_a_structure_constant_along_the_fundamental_class_builds_no_table():
    # h^0 kills every curve class, so Phi_0jk is the constant I_0(0jk) even
    # on a target whose table is past the listing bound.
    from gwcalc import potentials
    from gwcalc.potentials import _ListingTooLarge
    potentials.clear_caches()
    big = ProjectiveSpace(1000)
    assert phi_ijk(big, 0, 1, 999, 3) == TruncatedSeries.constant(1001, 3, 1)
    assert gamma_p2_reduced(0, 1, 2, 10 ** 6).is_zero()
    assert not potentials._TABLES
    with pytest.raises(_ListingTooLarge):
        phi_ijk(big, 1, 1, 998, 3)


def test_structure_constant_renders_are_pinned():
    # sha256 of the renders (one per line) as the separate builders of the
    # quantum part and the degree-zero constant printed them; index-0
    # triples and unsorted triples included.
    lines = []
    for target, order in ((P1, 6), (P2, 5), (P3, 4), (P1XP1, 5)):
        for ijk in itertools.product(range(target.basis_size), repeat=3):
            lines.append(phi_ijk(target, *ijk, order).render())
    for order in (*range(15), 150):
        for ijk in itertools.product(range(3), repeat=3):
            lines.append(gamma_p2_reduced(*ijk, order).render())
    for order in range(15):
        for ijk in itertools.product(range(4), repeat=3):
            lines.append(gamma_p1x1(*ijk, order).render())
        lines.append(quantum_potential_p1x1(order).render())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "687512702c2daca38928daa9be7e98db36ebf1911c2438b888bc71859e34175a")


def test_threads_sharing_a_table_read_the_same_structure_constants():
    # Eight threads call phi_ijk at every sorted index triple on one fresh
    # table, started together behind a barrier with a tiny switch interval
    # so that they interleave inside the table's lazy fills; each thread's
    # digest of the renders must equal the single-threaded one.
    import threading
    from gwcalc import potentials
    cases = ((P3, 8), (ProjectiveSpace(4), 6), (P1XP1, 10), (P2, 30))

    def digest(target, order):
        triples = itertools.combinations_with_replacement(
            range(target.basis_size), 3)
        return hashlib.sha256("\n".join(
            phi_ijk(target, *ijk, order).render()
            for ijk in triples).encode()).hexdigest()

    expected = {}
    for case in cases:
        potentials.clear_caches()
        expected[case] = digest(*case)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(15):
            for case in cases:
                potentials.clear_caches()
                barrier = threading.Barrier(8, timeout=60)
                found = [None] * 8

                def run(slot):
                    try:
                        barrier.wait()
                        found[slot] = digest(*case)
                    except Exception as error:  # reported, not raised
                        found[slot] = repr(error)

                threads = [threading.Thread(target=run, args=(slot,))
                           for slot in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert found == [expected[case]] * 8, case
    finally:
        sys.setswitchinterval(switch)
