"""The WDVV residuals against the series-product reference.

``reference_residual`` is the residual as a sum of products of fully
expanded ``TruncatedSeries``: the public structure constants
``gamma_p2_reduced``, ``gamma_p1x1`` and ``phi_ijk``, each with its
degree-zero constant, or ``defined_phi``, the structure constants written
from their definition without the graded terms, multiplied and summed by
the series arithmetic.  The library multiplies graded (curve class, tail)
terms instead, each over its own degree's factorial, and expands only what
does not cancel; both must give the same series, term for term.
"""

import functools
import hashlib
import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from gwcalc.gw import _strip, _stripped, _vdim, collected_invariant, \
    gw_invariant
from gwcalc.potentials import (_phi, _wdvv_residual, gamma_p1x1,
                               gamma_p2_reduced, phi_ijk, wdvv_general_pr,
                               wdvv_residual_p1x1, wdvv_residual_p2)
from gwcalc.surfaces import n_d, n_de
from gwcalc.series import TruncatedSeries
from gwcalc.targets import (P1XP1, InvariantKey, ProjectiveSpace,
                            exponents_from_classes, total_codim)

P1, P2 = ProjectiveSpace(1), ProjectiveSpace(2)


def reference_residual(target, phi, i, j, k, l):
    """sum_e Phi_ij,e Phi_(m-1-e),kl - Phi_jk,e Phi_i,(m-1-e),l, where
    ``phi`` maps a sorted index triple to the series Phi."""
    m = target.basis_size
    phi = functools.cache(phi)
    g = lambda *ijk: phi(tuple(sorted(ijk)))
    terms = [g(i, j, e) * g(m - 1 - e, k, l) - g(j, k, e) * g(i, m - 1 - e, l)
             for e in range(m)]
    return sum(terms[1:], terms[0])


def constant(target, ijk):
    """I_0(ijk), the degree-zero part of Phi_ijk."""
    return gw_invariant(InvariantKey(target, target.degrees(0)[0],
                                     exponents_from_classes(target, ijk)))


def defined_phi(target, order, bumped=None):
    """Phi_ijk from its definition, independent of the graded terms: the
    coefficient of x^a / a! is the collected invariant of h^a . h^ijk.  A
    ``bumped`` curve class adds one to every count at that class, times
    the divisor factors the strip takes out of h^a . h^ijk, as a count
    source bumped there does."""
    m = target.basis_size

    def phi(ijk):
        coefficients = {}
        for a in itertools.product(range(order + 1), repeat=m):
            if sum(a) > order:
                continue
            exps = tuple(n + ijk.count(c) for c, n in enumerate(a))
            value = collected_invariant(target, exps)
            total, rest = divmod(total_codim(target, exps)
                                 - _vdim(target, 0, sum(exps)), target.index)
            if bumped is not None and not rest and \
                    bumped in target.degrees(total):
                value += _strip(exps, target.pairings(bumped))[0]
            coefficients[a] = Fraction(value, prod(map(factorial, a)))
        return TruncatedSeries(m, order, coefficients)
    return phi


def reference_p2(order, nd=None):
    return reference_residual(P2, lambda ijk: gamma_p2_reduced(
        *ijk, order, nd) + constant(P2, ijk), 1, 1, 2, 2)


def reference_p1x1(order, nde=None):
    return reference_residual(P1XP1, lambda ijk: gamma_p1x1(
        *ijk, order, nde) + constant(P1XP1, ijk), 1, 2, 3, 3)


def bumped_nd(degree):
    return lambda d: n_d(d) + 1 if d == degree else n_d(d)


def bumped_nde(*bidegrees):
    return lambda d, e: n_de(d, e) + 1 if (d, e) in bidegrees else n_de(d, e)


def assert_same(residual, reference):
    assert residual == reference
    assert residual.render() == reference.render()


@pytest.mark.parametrize("order", [*range(0, 20), *range(20, 151, 13), 150])
def test_p2_residual_matches_the_reference(order):
    assert_same(wdvv_residual_p2(order), reference_p2(order))
    for degree in (1, 2, 3, 7, 20, 50):
        nd = bumped_nd(degree)
        assert_same(wdvv_residual_p2(order, nd), reference_p2(order, nd))


@pytest.mark.parametrize("order", range(15))
def test_p1x1_residual_matches_the_reference(order):
    assert_same(wdvv_residual_p1x1(order), reference_p1x1(order))
    for bump in (((0, 1),), ((1, 1),), ((1, 2), (2, 1)), ((2, 2),),
                 ((1, 3),), ((3, 4), (4, 3))):
        nde = bumped_nde(*bump)
        assert_same(wdvv_residual_p1x1(order, nde),
                    reference_p1x1(order, nde))


@pytest.mark.parametrize("r, order", [(1, 6), (2, 4), (3, 3), (4, 2)],
                         ids=["p1", "p2", "p3", "p4"])
def test_every_quadruple_matches_the_reference(r, order):
    target = ProjectiveSpace(r)
    m = r + 1
    count = functools.partial(_stripped, target)
    phi = lambda ijk: phi_ijk(target, *ijk, order)
    for quad in itertools.product(range(m), repeat=4):
        assert_same(_wdvv_residual(target, order, count, tuple(range(m)),
                                   *quad),
                    reference_residual(target, phi, *quad))


def reference_residuals(target, phi):
    """(quadruple, ``reference_residual``) at every index quadruple, each
    product of two structure constants made once."""
    m = target.basis_size
    phi = functools.cache(phi)
    times = functools.cache(lambda a, b: phi(a) * phi(b))
    g = lambda *ijk: tuple(sorted(ijk))
    for i, j, k, l in itertools.product(range(m), repeat=4):
        terms = [times(*sorted((g(i, j, e), g(m - 1 - e, k, l))))
                 - times(*sorted((g(j, k, e), g(i, m - 1 - e, l))))
                 for e in range(m)]
        yield (i, j, k, l), sum(terms[1:], terms[0])


@pytest.mark.parametrize("r, order, bumped, nonzero", [
    (3, 6, None, 0), (3, 6, 2, 36), (4, 4, 1, 144), (5, 4, None, 0),
    (5, 4, 1, 400)], ids=["p3", "p3-d2", "p4-d1", "p5", "p5-d1"])
def test_every_quadruple_matches_the_definition(r, order, bumped, nonzero):
    # Tails over two to four placed classes, so the binomials of _terms and
    # of the products meet a reference that builds no graded term; bumped
    # counts make residuals nonzero, so their expansion is checked too.
    target = ProjectiveSpace(r)
    count = None if bumped is None else (
        lambda beta, marks: _stripped(target, beta, marks) + (beta == bumped))
    seen = 0
    for quad, reference in reference_residuals(
            target, defined_phi(target, order, bumped)):
        residual = _wdvv_residual(target, order, count, tuple(range(r + 1)),
                                  *quad)
        assert_same(residual, reference)
        seen += not residual.is_zero()
    assert seen == nonzero


@pytest.mark.parametrize("bumped", [None, 1])
def test_p1_structure_constants_match_the_definition(bumped):
    # No class is placed on P^1: every tail is empty and its scale is
    # [1].  A rank-two quantum product is associative whatever the counts,
    # so the residuals vanish even for bumped ones.
    count = None if bumped is None else (
        lambda beta, marks: _stripped(P1, beta, marks) + (beta == bumped))
    for order in range(9):
        phi = defined_phi(P1, order, bumped)
        for ijk in itertools.combinations_with_replacement(range(2), 3):
            assert_same(_phi(P1, ijk, order, count, (0, 1)), phi(ijk))
        for quad, reference in reference_residuals(P1, phi):
            assert reference.is_zero()
            assert _wdvv_residual(P1, order, count, (0, 1), *quad).is_zero()


@pytest.mark.parametrize("target, order, bumped, nonzero", [
    (ProjectiveSpace(2), 6, 2, 4), (ProjectiveSpace(3), 5, 2, 36),
    (P1XP1, 5, (1, 1), 36)], ids=["p2", "p3", "p1x1"])
def test_perturbed_general_residuals_match_the_reference(
        target, order, bumped, nonzero):
    # phi_ijk reads the true invariants; here the same structure constants
    # are built from counts bumped at one degree, so the residuals are
    # nonzero and the graded products meet the expanded ones term by term.
    m = target.basis_size
    keep = tuple(range(m))

    def count(beta, marks):
        return _stripped(target, beta, marks) + (beta == bumped)

    phi = lambda ijk: _phi(target, ijk, order, count, keep)
    seen = 0
    for quad in itertools.product(range(m), repeat=4):
        residual = _wdvv_residual(target, order, count, keep, *quad)
        assert_same(residual, reference_residual(target, phi, *quad))
        seen += not residual.is_zero()
    assert seen == nonzero


# Nonzero residuals of perturbed tables, and the sha256 of their renders
# (one per line) as the series-product residuals printed them.
NONZERO = [
    *(("p2", order, degree) for order, degree in (
        (8, 2), (8, 3), (20, 4), (40, 5), (75, 12), (150, 1), (150, 30))),
    *(("p1x1", order, bump) for order, bump in (
        (6, ((1, 1),)), (6, ((1, 2), (2, 1))), (9, ((2, 3),)),
        (12, ((1, 4), (4, 1))), (14, ((3, 3),)), (14, ((0, 1),)))),
]


def test_nonzero_residuals_are_pinned():
    lines = []
    for surface, order, bump in NONZERO:
        residual = (wdvv_residual_p2(order, bumped_nd(bump))
                    if surface == "p2"
                    else wdvv_residual_p1x1(order, bumped_nde(*bump)))
        assert not residual.is_zero(), (surface, order, bump)
        lines.append(residual.render())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "2bca3155606a90e105bc0e0ef7a86ce6aa61d5794e4e33656ac9d4dc43bd329c")


# Counts changed at a few classes (class: change), where the residual's
# first nonzero term takes a share from its one square product, G112^2 on
# P^2 and G123^2 on P1xP1, and the sha256 of each render as the residual
# over one common tail denominator printed it.
SQUARE_LED = [
    ("p2", 8, {1: 1},
     "daae6f5640302e6cdba79a1466473b496ca15264828707dd82126dc7a485df14"),
    ("p2", 40, {1: -1},
     "b39c7a5335fe5a2fe8f43b9d1b6f3b949657b3f28fd642f238183579a841d515"),
    ("p2", 150, {1: 2},
     "633a7d519ebcac68ed5136aacac8991f2aab997b45a3b1978e638dc15218048a"),
    ("p1x1", 8, {(1, 1): -1, (2, 0): 1, (2, 1): 1, (3, 0): 1},
     "49c2728bb6b4546f79c5177ece45c9d3f03c5600cca9851ee3fd673550a78025"),
    ("p1x1", 14, {(0, 2): -1, (1, 1): 1, (1, 2): -1, (2, 1): -1},
     "5b2cadd811277fbb1f0da6fd61aff8aab7268d5ef04623b96bfbab50bf62eace"),
]


@pytest.mark.parametrize("surface, order, changes, digest", SQUARE_LED,
                         ids=[f"{s}-{o}" for s, o, _, _ in SQUARE_LED])
def test_residuals_led_by_a_square_are_pinned(surface, order, changes,
                                              digest):
    if surface == "p2":
        nd = lambda d: n_d(d) + changes.get(d, 0)
        residual = wdvv_residual_p2(order, nd)
        g = lambda nd=None: (gamma_p2_reduced(1, 1, 2, order, nd)
                             + constant(P2, (1, 1, 2)))
        moved = g(nd) * g(nd) - g() * g()
    else:
        nde = lambda d, e: n_de(d, e) + changes.get((d, e), 0)
        residual = wdvv_residual_p1x1(order, nde)
        g = lambda nde=None: gamma_p1x1(1, 2, 3, order, nde)
        moved = g(nde) * g(nde) - g() * g()
    first, _ = residual.leading_term()
    assert moved.coefficient(first)
    assert hashlib.sha256(residual.render().encode()).hexdigest() == digest


def test_wdvv_general_pr_is_the_graded_residual():
    assert_same(wdvv_general_pr(3, 1, 2, 3, 3, 4), reference_residual(
        ProjectiveSpace(3), lambda ijk: phi_ijk(ProjectiveSpace(3), *ijk, 4),
        1, 2, 3, 3))
