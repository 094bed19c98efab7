"""The WDVV residuals against the series-product reference.

``reference_residual`` is the residual as a sum of products of fully
expanded ``TruncatedSeries``: the public structure constants
``gamma_p2_reduced``, ``gamma_p1x1`` and ``phi_ijk``, each with its
degree-zero constant, multiplied and summed by the series arithmetic.  The
library multiplies graded (curve class, tail) terms instead and expands
only what does not cancel; both must give the same series, term for term.
"""

import functools
import hashlib
import itertools

import pytest

from gwcalc.gw import _invariant, gw_invariant
from gwcalc.potentials import (_quantum_part, _wdvv_residual,
                               gamma_p1x1, gamma_p2_reduced, phi_ijk,
                               wdvv_general_pr, wdvv_residual_p1x1,
                               wdvv_residual_p2)
from gwcalc.surfaces import n_d, n_de
from gwcalc.targets import (P1XP1, InvariantKey, ProjectiveSpace,
                            exponents_from_classes)

P2 = ProjectiveSpace(2)


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
    count = functools.partial(_invariant, target)
    phi = lambda ijk: phi_ijk(target, *ijk, order)
    for quad in itertools.product(range(m), repeat=4):
        assert_same(_wdvv_residual(target, order, count, tuple(range(m)),
                                   *quad),
                    reference_residual(target, phi, *quad))


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

    def count(beta, exps):
        return _invariant(target, beta, exps) + (beta == bumped)

    phi = lambda ijk: _quantum_part(target, ijk, order, count, keep) \
        + constant(target, ijk)
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


def test_wdvv_general_pr_is_the_graded_residual():
    assert_same(wdvv_general_pr(3, 1, 2, 3, 3, 4), reference_residual(
        ProjectiveSpace(3), lambda ijk: phi_ijk(ProjectiveSpace(3), *ijk, 4),
        1, 2, 3, 3))
