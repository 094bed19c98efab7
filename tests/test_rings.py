import hashlib
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from gwcalc.gw import gw_invariant
from gwcalc.potentials import classical_potential, phi_ijk
from gwcalc.rings import (BigQuantumElement, RingElement, big_qmul, cup_p1x1,
                          cup_pr, small_qmul, small_qmul_p1x1, small_qmul_pr,
                          star_power)
from gwcalc.series import TruncatedSeries
from gwcalc.surfaces import n_d
from gwcalc.targets import InvariantKey, P1XP1, ProjectiveSpace

P2 = ProjectiveSpace(2)


def h(i, r, coeff=1, mono=None):
    return RingElement.basis(ProjectiveSpace(r), i, coeff, mono)


def T(i, coeff=1, mono=None):
    return RingElement.basis(P1XP1, i, coeff, mono)


def random_element(rng, target):
    coeffs = {}
    for basis in range(target.basis_size):
        poly = {}
        for _ in range(rng.randrange(0, 3)):
            if isinstance(target, ProjectiveSpace):
                mono = (rng.randrange(0, 3),)
            else:
                mono = (rng.randrange(0, 3), rng.randrange(0, 3))
            poly[mono] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        if poly:
            coeffs[basis] = poly
    return RingElement(target, coeffs)


def test_cup_pr():
    assert cup_pr(1, 1, 2) == h(2, 2)
    assert cup_pr(2, 2, 3).is_zero()
    for r in range(1, 5):
        for k in range(r + 1):
            assert cup_pr(0, k, r) == h(k, r)


def test_cup_p1x1():
    assert cup_p1x1(1, 2) == T(3)
    assert cup_p1x1(1, 1).is_zero()
    assert cup_p1x1(2, 2).is_zero()
    assert cup_p1x1(3, 3).is_zero()
    assert cup_p1x1(0, 3) == T(3)
    assert cup_p1x1(1, 3).is_zero()


def test_small_qmul_pr_rules():
    for r in range(1, 7):
        assert small_qmul(h(1, r), h(r, r)) == h(0, r, mono=(1,))
    assert small_qmul(h(1, 2), h(1, 2)) == h(2, 2)
    for r in range(2, 7):
        assert star_power(h(1, r), r + 1) == h(0, r, mono=(1,))


def test_small_qmul_p1x1_table():
    qv = (1, 0)
    qh = (0, 1)
    qvqh = (1, 1)
    table = {
        (0, 0): T(0), (0, 1): T(1), (0, 2): T(2), (0, 3): T(3),
        (1, 1): T(0, mono=qv), (1, 2): T(3), (1, 3): T(2, mono=qv),
        (2, 2): T(0, mono=qh), (2, 3): T(1, mono=qh),
        (3, 3): T(0, mono=qvqh),
    }
    for (i, j), expected in table.items():
        assert small_qmul(T(i), T(j)) == expected
        assert small_qmul(T(j), T(i)) == expected


def test_small_qmul_target_mismatch():
    with pytest.raises(ValueError):
        small_qmul(h(1, 2), h(1, 3))
    with pytest.raises(ValueError):
        small_qmul_pr(h(1, 2), h(1, 2), 3)
    with pytest.raises(ValueError):
        small_qmul_p1x1(h(1, 2), h(1, 2))


def test_foreign_operands_raise_type_error():
    small = h(1, 2)
    big = BigQuantumElement.basis(P2, 1, 3)
    for operation in (lambda: small * 2, lambda: small + 1,
                      lambda: small - 1, lambda: 2 * small,
                      lambda: big + 1, lambda: big - 1, lambda: 1 - big):
        with pytest.raises(TypeError):
            operation()


def test_small_associativity_basis_triples():
    for r in range(2, 7):
        basis = [h(i, r) for i in range(r + 1)]
        for a, b, c in product(basis, repeat=3):
            assert small_qmul(small_qmul(a, b), c) == \
                small_qmul(a, small_qmul(b, c))
    basis = [T(i) for i in range(4)]
    for a, b, c in product(basis, repeat=3):
        assert small_qmul(small_qmul(a, b), c) == \
            small_qmul(a, small_qmul(b, c))


def test_small_associativity_random_elements():
    rng = random.Random(41)
    for target in (ProjectiveSpace(2), ProjectiveSpace(3), P1XP1):
        for _ in range(100):
            a = random_element(rng, target)
            b = random_element(rng, target)
            c = random_element(rng, target)
            assert small_qmul(small_qmul(a, b), c) == \
                small_qmul(a, small_qmul(b, c))


def test_small_structure_constants_match_invariants():
    # dual route: the closed-form products against the three-point
    # invariants I_0 + q I_1 that define them
    for r in range(1, 7):
        target = ProjectiveSpace(r)
        for i in range(r + 1):
            for j in range(r + 1):
                expected = RingElement.zero(target)
                for f in range(r + 1):
                    e = r - f
                    c0 = gw_invariant(
                        InvariantKey.from_classes(target, 0, (i, j, e)))
                    c1 = gw_invariant(
                        InvariantKey.from_classes(target, 1, (i, j, e)))
                    if c0:
                        expected = expected + RingElement.basis(
                            target, f, c0, (0,))
                    if c1:
                        expected = expected + RingElement.basis(
                            target, f, c1, (1,))
                assert small_qmul(h(i, r), h(j, r)) == expected, (r, i, j)


def test_small_structure_constants_match_invariants_p1x1():
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for i in range(4):
        for j in range(4):
            expected = RingElement.zero(P1XP1)
            for f in range(4):
                e = 3 - f
                for (dd, ee) in degrees:
                    value = gw_invariant(
                        InvariantKey.from_classes(P1XP1, (dd, ee), (i, j, e)))
                    if value:
                        expected = expected + RingElement.basis(
                            P1XP1, f, value, (ee, dd))
            assert small_qmul(T(i), T(j)) == expected, (i, j)


def test_render():
    assert small_qmul(h(1, 2), h(2, 2)).render() == "q·h0"
    assert T(3, coeff=2).render() == "2·T3"
    assert RingElement.zero(P2).render() == "0"


def test_big_identity_and_commutativity():
    order = 4
    for target in (P2, P1XP1):
        basis = [BigQuantumElement.basis(target, i, order)
                 for i in range(target.basis_size)]
        for i in range(target.basis_size):
            assert big_qmul(basis[0], basis[i]) == basis[i]
        for i in range(target.basis_size):
            for j in range(target.basis_size):
                assert big_qmul(basis[i], basis[j]) == \
                    big_qmul(basis[j], basis[i])


def test_big_h1_h1_p2():
    # h1 * h1 = h2 + G111 h1 + G112 h0; the h2 coefficient is exactly 1
    # and the h0 series is the divisor-reduced closed form
    order = 5
    a = BigQuantumElement.basis(P2, 1, order)
    prod = big_qmul(a, a)
    assert prod.component(2) == TruncatedSeries.constant(3, order, 1)
    expected_h0 = {}
    d = 1
    while 3 * d - 2 <= order:
        base = Fraction(d * d * n_d(d))
        from gwcalc.exact import factorial
        p = 3 * d - 2
        for u in range(order - p + 1):
            expected_h0[(0, u, p)] = base * Fraction(d ** u) \
                / (factorial(u) * factorial(p))
        d += 1
    assert prod.component(0) == TruncatedSeries(3, order, expected_h0)
    # N_1 enters as the coefficient of the point variable
    assert prod.component(0).coefficient((0, 0, 1)) == n_d(1) == 1


def test_big_classical_part_is_cup():
    # the part of h^i * h^j built from the classical potential recovers
    # the cup product on every basis pair
    for target in (P2, ProjectiveSpace(3), P1XP1):
        cubic = classical_potential(target)
        m = target.basis_size
        top = target.dimension if isinstance(target, ProjectiveSpace) else 3
        for i in range(m):
            for j in range(m):
                got = RingElement.zero(target)
                for f in range(m):
                    e = top - f
                    if not 0 <= e < m:
                        continue
                    c = cubic
                    for idx in (i, j, e):
                        c = c.partial_derivative(idx)
                    value = c.coefficient((0,) * m)
                    if value:
                        got = got + RingElement.basis(target, f, value)
                if isinstance(target, ProjectiveSpace):
                    expected = cup_pr(i, j, target.r)
                else:
                    expected = cup_p1x1(i, j)
                assert got == expected, (target, i, j)


def test_big_associativity_p2_order8():
    order = 8
    basis = [BigQuantumElement.basis(P2, i, order) for i in range(3)]
    for i, j, k in product(range(3), repeat=3):
        lhs = big_qmul(big_qmul(basis[i], basis[j]), basis[k])
        rhs = big_qmul(basis[i], big_qmul(basis[j], basis[k]))
        assert (lhs - rhs).is_zero(), (i, j, k)


def test_big_associativity_p1x1_order6():
    order = 6
    basis = [BigQuantumElement.basis(P1XP1, i, order) for i in range(4)]
    for i, j, k in product(range(4), repeat=3):
        lhs = big_qmul(big_qmul(basis[i], basis[j]), basis[k])
        rhs = big_qmul(basis[i], big_qmul(basis[j], basis[k]))
        assert (lhs - rhs).is_zero(), (i, j, k)


def test_big_order_mismatch():
    a = BigQuantumElement.basis(P2, 1, 3)
    b = BigQuantumElement.basis(P2, 1, 4)
    with pytest.raises(ValueError):
        big_qmul(a, b)


@pytest.mark.parametrize("r, order", [(1000, 2), (10000, 10 ** 1000)])
def test_big_product_past_the_size_bound_raises_at_once(r, order):
    # f * C(f + order, order) > 10^7 ints of free exponent vectors, with
    # f = r - 2: p1000 at order 2 was killed after 57 s without the bound,
    # and at order 10^1000 one coefficient product alone takes seconds.
    target = ProjectiveSpace(r)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=(
            rf"^order {order} on P\^{r} is too large: with f = {r - 2} free "
            r"classes, f \* C\(f \+ order, order\) is over 10000000$")):
        big_qmul(BigQuantumElement.basis(target, 1, order),
                 BigQuantumElement.basis(target, 2, order))
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("r, order, digest", [
    (20, 4, "c2ec1c696339cd980d4fa8ddb4f844cdfa5e313596c83c6aadbbf4cc8509ab36"),
    (50, 2, "38597ad8e260fdb6eded8bccc49083da8f7729b2eb52a2685158685d2209c0f4"),
])
def test_wide_big_products_are_pinned(r, order, digest):
    # sha256 of the render of h1 * h2 as the dense listing of free exponent
    # vectors printed it.  With 18 and 48 free classes, the gate-weight
    # buckets hold vectors over several classes; the benchmark's big
    # products reach P^3 at most.
    target = ProjectiveSpace(r)
    product = big_qmul(BigQuantumElement.basis(target, 1, order),
                       BigQuantumElement.basis(target, 2, order))
    assert hashlib.sha256(product.render().encode()).hexdigest() == digest


@pytest.mark.parametrize("target, i, j, order, digest", [
    (P1XP1, 1, 2, 40,
     "8a5319fcb62ec0aebb4fe476a1b4109a64fe7d223538a6c382c5df4fc71a6419"),
    (P1XP1, 3, 3, 24,
     "a062a84b3af017b9841a58eac27304be3943440c0234f011c9be3f89fb2d9d77"),
    (ProjectiveSpace(1), 1, 1, 300,
     "23d0fdef97df0b2665ee1b7e97886b9dacbc3331c252e65ee436aa4a92f08b78"),
])
def test_long_exp_rows_are_pinned(target, i, j, order, digest):
    # sha256 of the render as the column-wise rows of exp(<beta, x>)
    # printed it: long rows over two divisors on P1xP1, and over one
    # divisor on P^1, where each head's scale order! / u! is a big int.
    product = big_qmul(BigQuantumElement.basis(target, i, order),
                       BigQuantumElement.basis(target, j, order))
    assert hashlib.sha256(product.render().encode()).hexdigest() == digest


def test_big_commutativity_random_elements():
    rng = random.Random(53)
    order = 3
    for target in (P2, P1XP1):
        m = target.basis_size
        for _ in range(5):
            def rand_big():
                comps = []
                for _ in range(m):
                    terms = {}
                    for _ in range(3):
                        exps = tuple(rng.randrange(0, 2) for _ in range(m))
                        if sum(exps) <= order:
                            terms[exps] = Fraction(rng.randrange(-4, 5),
                                                   rng.randrange(1, 4))
                    comps.append(TruncatedSeries(m, order, terms))
                return BigQuantumElement(target, order, comps)
            a, b = rand_big(), rand_big()
            assert big_qmul(a, b) == big_qmul(b, a)


def test_parameter_powers_render_with_a_caret():
    assert h(1, 2, mono=(2,)).render() == "q^2·h1"
    assert h(0, 2, Fraction(-3, 2), (1,)).render() == "-3/2·q·h0"
    assert T(3, 2, (1, 2)).render() == "2·q_v·q_h^2·T3"
    assert (T(1, mono=(0, 3)) + T(0)).render() == "T0 + q_h^3·T1"
    assert repr(h(1, 2, mono=(2,))) == "RingElement(P^2, q^2·h1)"


def test_ring_element_arithmetic_and_hash():
    a = h(1, 2, Fraction(2, 3), (1,)) + h(2, 2)
    assert a.scale(Fraction(3, 2)) == h(1, 2, 1, (1,)) + h(2, 2, Fraction(3, 2))
    assert a.scale(0).is_zero()
    assert -a == h(1, 2, Fraction(-2, 3), (1,)) + h(2, 2, -1)
    assert (a - a).is_zero()
    assert a - h(2, 2) == h(1, 2, Fraction(2, 3), (1,))
    rebuilt = RingElement(P2, {2: {(0,): 1}, 1: {(1,): Fraction(2, 3)}})
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert {a: 1}[rebuilt] == 1


@pytest.mark.parametrize("mono", [(0, 1), (-1,), (), (1.0,), (True,)])
def test_bad_parameter_monomials_are_refused(mono):
    with pytest.raises(ValueError) as info:
        RingElement(P2, {1: {mono: 1}})
    assert str(info.value) == f"bad parameter monomial {mono}"


@pytest.mark.parametrize("call, message", [
    (lambda: RingElement.basis(P2, True),
     "basis index True out of range for P^2"),
    (lambda: RingElement(P2, {1.0: {(0,): 1}}),
     "basis index 1.0 out of range for P^2"),
    (lambda: cup_pr(True, 1, 2), "basis index True out of range for P^2"),
    (lambda: cup_p1x1(1, 2.0), "basis index 2.0 out of range for P1xP1"),
    (lambda: BigQuantumElement.basis(P2, 1.0, 2),
     "basis index 1.0 out of range for P^2"),
    (lambda: BigQuantumElement.basis(P2, 1, 2.0),
     "truncation order must be an integer, got 2.0"),
    (lambda: BigQuantumElement(P2, 2.0, [TruncatedSeries.zero(3, 2)] * 3),
     "order must be an integer, got 2.0"),
    (lambda: BigQuantumElement(P2, True, [TruncatedSeries.zero(3, 1)] * 3),
     "order must be an integer, got True"),
    (lambda: star_power(h(1, 2), 2.0), "exponent must be an integer, got 2.0"),
    (lambda: star_power(h(1, 2), True),
     "exponent must be an integer, got True"),
])
def test_indices_and_exponents_refuse_bools_and_floats(call, message):
    # A bool is an int and 1.0 == 1, so each would pass a range check alone.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_ring_elements_are_read_only():
    a = h(1, 3) + h(3, 3, 2, (1,))
    for mapping, key in ((a.coeffs, 3), (a.coeffs[3], (0,)),
                         (a.coeffs[1], (0,))):
        with pytest.raises(TypeError):
            mapping[key] = 7
        with pytest.raises(TypeError):
            del mapping[key]
    assert a == h(1, 3) + h(3, 3, 2, (1,))
    assert a.coeffs == {1: {(0,): 1}, 3: {(1,): 2}}


def test_a_shared_structure_constant_cannot_be_emptied():
    # phi_ijk hands out the series kept in its table, and big_qmul reads it
    # again from there.
    p3 = ProjectiveSpace(3)
    a, b = (BigQuantumElement.basis(p3, i, 3) for i in (1, 2))
    product = big_qmul(a, b)
    phi = phi_ijk(p3, 1, 2, 3, 3)
    text = phi.render()
    with pytest.raises(AttributeError):
        del phi._nums
    with pytest.raises(AttributeError):
        phi.order = 2
    assert phi_ijk(p3, 1, 2, 3, 3) is phi and phi.render() == text
    assert big_qmul(a, b) == product


def test_star_power_needs_a_positive_exponent():
    assert star_power(h(1, 2), 1) == h(1, 2)
    with pytest.raises(ValueError) as info:
        star_power(h(1, 2), 0)
    assert str(info.value) == "exponent must be >= 1, got 0"


def element_of(target, *terms):
    """The sum of coeff * mono * basis class over (class, coeff, mono)."""
    element = RingElement.zero(target)
    for index, coeff, mono in terms:
        element += RingElement.basis(target, index, coeff, mono)
    return element


# Non-basis elements with Fraction coefficients and several parameter
# monomials.  Their terms' degrees step by r on P^r and their bidegrees by
# (1, -1) on P1xP1, so the e-th power has at most 2e + 1 terms.
FOLD_ELEMENTS = [
    *(element_of(ProjectiveSpace(r), (1, Fraction(3, 2), (0,)),
                 (0, Fraction(-1, 3), (1,)), (r, Fraction(2, 5), (1,)))
      for r in range(1, 5)),
    element_of(P1XP1, (3, Fraction(3, 2), (0, 0)),
               (0, Fraction(-1, 3), (1, 0)), (0, Fraction(2, 5), (0, 1))),
]


@pytest.mark.parametrize("element", FOLD_ELEMENTS,
                         ids=lambda e: str(e.target))
def test_star_power_matches_the_left_fold(element):
    # Squaring brackets the factors otherwise than the fold does; the
    # small product's associativity makes the two equal at every exponent.
    fold = element
    for exponent in range(1, 41):
        assert star_power(element, exponent) == fold, exponent
        fold = small_qmul(fold, element)


def test_big_zero_hash_and_repr():
    zero = BigQuantumElement.zero(P2, 3)
    a = BigQuantumElement.basis(P2, 1, 3)
    assert zero.is_zero() and zero.render() == "0"
    assert a - a == zero and a + zero == a
    assert zero.order == 3 and zero.component(1) == TruncatedSeries.zero(3, 3)
    again = BigQuantumElement.basis(P2, 1, 3)
    assert again == a and hash(again) == hash(a)
    assert repr(a) == "BigQuantumElement(P^2, order=3)"
    assert repr(BigQuantumElement.zero(P1XP1, 0)) == (
        "BigQuantumElement(P1xP1, order=0)")


@pytest.mark.parametrize("components, message", [
    ([TruncatedSeries.zero(3, 2)] * 2, "expected 3 component series, got 2"),
    ([TruncatedSeries.zero(3, 2)] * 2 + [TruncatedSeries.zero(2, 2)],
     "component series must use one variable per basis class"),
    ([TruncatedSeries.zero(3, 2)] * 2 + [TruncatedSeries.zero(3, 1)],
     "all component series must share the truncation order"),
])
def test_big_constructor_errors(components, message):
    with pytest.raises(ValueError) as info:
        BigQuantumElement(P2, 2, components)
    assert str(info.value) == message


def test_big_target_mismatch():
    a = BigQuantumElement.basis(P2, 1, 2)
    b = BigQuantumElement.basis(ProjectiveSpace(1), 1, 2)
    for op in (lambda: a + b, lambda: big_qmul(a, b), lambda: b - a):
        with pytest.raises(ValueError) as info:
            op()
        assert str(info.value) == "target mismatch"
