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
    from gwcalc.potentials import _exponent_vectors
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
        for a in _exponent_vectors(target.basis_size, order):
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
    from gwcalc.potentials import _exponent_vectors
    order = 7
    terms = {}
    for a in _exponent_vectors(3, order):
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
    phi = lambda ijk: phi_ijk(target, *ijk, order)
    for quad in itertools.product(range(m), repeat=4):
        residual = _wdvv_residual(target, phi, *quad)
        assert residual.is_zero(), quad
        assert (residual.nvars, residual.order) == (m, order)


def test_wdvv_general_pr():
    assert wdvv_general_pr(2, 1, 1, 2, 2, 6).is_zero()
    assert wdvv_general_pr(2, 0, 1, 2, 2, 4).is_zero()
    assert wdvv_general_pr(3, 1, 1, 3, 3, 5).is_zero()
    with pytest.raises(ValueError):
        wdvv_general_pr(4, 1, 1, 2, 2, 3)
    with pytest.raises(ValueError):
        wdvv_general_pr(2, 3, 0, 0, 0, 3)
