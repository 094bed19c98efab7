import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcalc.exact import factorial
from gwcalc.potentials import gamma_p1x1, phi_ijk
from gwcalc.series import TruncatedSeries, parse_series
from gwcalc.targets import P1XP1


def exp_series(order):
    return TruncatedSeries(1, order,
                           {(n,): Fraction(1, factorial(n))
                            for n in range(order + 1)})


def random_series(rng, nvars, order, nterms=6):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(0, order + 1) for _ in range(nvars))
        if sum(exps) > order:
            continue
        terms[exps] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return TruncatedSeries(nvars, order, terms)


def test_product_of_exponentials():
    e = exp_series(4)
    square = e * e
    for n in range(5):
        assert square.coefficient((n,)) == Fraction(2 ** n, factorial(n))


def test_additive_identity_and_truncation():
    rng = random.Random(3)
    a = random_series(rng, 2, 5)
    zero = TruncatedSeries.zero(2, 5)
    assert a + zero == a
    x = TruncatedSeries.variable(1, 1, 0)
    assert (x * x).is_zero()  # x^2 exceeds order 1


def test_order_bookkeeping():
    a = TruncatedSeries.constant(2, 5, 1)
    b = TruncatedSeries.constant(2, 3, 1)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.partial_derivative(0).order == 4
    with pytest.raises(ValueError):
        a.truncate(7)
    with pytest.raises(ValueError):
        a.coefficient((6, 0))


def test_variable_count_mismatch():
    a = TruncatedSeries.constant(2, 3, 1)
    b = TruncatedSeries.constant(3, 3, 1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_derivative_examples():
    e = exp_series(5)
    d = e.partial_derivative(0)
    assert d.order == 4
    for n in range(5):
        assert d.coefficient((n,)) == Fraction(1, factorial(n))
    # d/dx0 of x0^2 x1 / 2 is x0 x1
    s = TruncatedSeries(2, 3, {(2, 1): Fraction(1, 2)})
    assert s.partial_derivative(0) == TruncatedSeries(2, 2, {(1, 1): 1})
    assert TruncatedSeries.constant(1, 4, 5).partial_derivative(0).is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(17)
    for _ in range(500):
        nvars = rng.randrange(1, 4)
        order = rng.randrange(1, 6)
        a = random_series(rng, nvars, order)
        b = random_series(rng, nvars, order)
        var = rng.randrange(nvars)
        lhs = (a * b).partial_derivative(var)
        rhs = a.partial_derivative(var) * b + a * b.partial_derivative(var)
        assert lhs == rhs.truncate(lhs.order)


def test_mixed_partials_randomized():
    rng = random.Random(19)
    for _ in range(500):
        nvars = rng.randrange(2, 4)
        order = rng.randrange(2, 7)
        s = random_series(rng, nvars, order)
        i = rng.randrange(nvars)
        j = rng.randrange(nvars)
        assert (s.partial_derivative(i).partial_derivative(j)
                == s.partial_derivative(j).partial_derivative(i))


def test_immutability():
    s = TruncatedSeries.constant(1, 2, 1)
    with pytest.raises(AttributeError):
        s.order = 5


def test_render_canonical():
    s = TruncatedSeries(3, 3, {(2, 1, 0): Fraction(1, 2)})
    assert s.render() == "1/2·x0^2·x1"
    assert TruncatedSeries.zero(2, 2).render() == "0"
    multi = TruncatedSeries(2, 3, {(0, 0): Fraction(1),
                                   (1, 1): Fraction(-2, 3),
                                   (0, 2): Fraction(3)})
    # lexicographic by exponent tuple
    assert multi.render() == "1 + 3·x1^2 + -2/3·x0·x1"


def test_parse_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        nvars = rng.randrange(1, 4)
        order = rng.randrange(0, 7)
        s = random_series(rng, nvars, order)
        assert parse_series(s.render(), nvars, order) == s


# -- the integer product kernel against a reference Fraction convolution --

def reference_product(a, b):
    order = min(a.order, b.order)
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) <= order:
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def reference_sum(a, b, sign):
    order = min(a.order, b.order)
    out = {}
    for s, terms in ((1, a.terms), (sign, b.terms)):
        for e, c in terms.items():
            if sum(e) <= order:
                out[e] = out.get(e, Fraction(0)) + s * c
    return {k: v for k, v in out.items() if v}


COEFFICIENTS = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))


@st.composite
def series_pairs(draw):
    nvars = draw(st.integers(1, 3))

    def operand():
        order = draw(st.integers(0, 8))
        kind = draw(st.sampled_from(("terms", "terms", "constant", "empty")))
        if kind == "constant":
            return TruncatedSeries.constant(nvars, order, draw(COEFFICIENTS))
        if kind == "empty":
            return TruncatedSeries.zero(nvars, order)
        exps = st.tuples(*[st.integers(0, order)] * nvars)
        return TruncatedSeries(nvars, order, draw(
            st.dictionaries(exps, COEFFICIENTS, max_size=12)))

    return operand(), operand()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(series_pairs())
def test_arithmetic_matches_reference_convolution(pair):
    a, b = pair
    order = min(a.order, b.order)
    for result, expected in ((a * b, reference_product(a, b)),
                             (a + b, reference_sum(a, b, 1)),
                             (a - b, reference_sum(a, b, -1))):
        assert result.order == order
        assert result.terms == expected
        assert all(type(c) is Fraction for c in result.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_pairs(), COEFFICIENTS)
def test_arithmetic_results_are_canonical(pair, scalar):
    a, b = pair
    results = [a * b, a + b, a - b, -a, a * scalar, a + scalar, scalar - a,
               a.truncate(a.order // 2), a.substitute_zero(0)]
    if a.order:
        results.append(a.partial_derivative(a.nvars - 1))
    for result in results:
        rebuilt = TruncatedSeries(result.nvars, result.order, result.terms)
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)
        for exps in itertools.product(range(result.order + 1),
                                      repeat=result.nvars):
            if sum(exps) > result.order:
                continue
            assert result.coefficient(exps) == result.terms.get(exps, 0)


def test_terms_view_is_read_only():
    s = TruncatedSeries(3, 3, {(1, 1, 0): Fraction(1, 2), (0, 0, 2): 3})
    copy = TruncatedSeries(3, 3, {(1, 1, 0): Fraction(1, 2), (0, 0, 2): 3})
    with pytest.raises(TypeError):
        s.terms[(0, 0, 0)] = Fraction(5)
    with pytest.raises(TypeError):
        del s.terms[(0, 0, 2)]
    with pytest.raises(TypeError):  # a view built on first use
        (s * 2).terms[(0, 0, 0)] = Fraction(5)
    assert s.coefficient((0, 0, 0)) == 0
    assert s == copy and hash(s) == hash(copy)
    assert s.terms == {(1, 1, 0): Fraction(1, 2), (0, 0, 2): 3}
    assert len(s.terms) == 2 and sorted(s.terms.values()) == [Fraction(1, 2), 3]


def test_render_refuses_a_wrong_number_of_names():
    s = TruncatedSeries(3, 3, {(1, 1, 0): Fraction(1, 2), (0, 0, 2): 3})
    for names in (["x"], ["x", "y"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match="variable names"):
            s.render(names)
    with pytest.raises(ValueError, match="variable names"):
        TruncatedSeries.zero(2, 3).render(["x"])
    assert s.render(["a", "b", "c"]) == "3·c^2 + 1/2·a·b"


def test_cancelling_terms_are_dropped():
    x = TruncatedSeries.variable(2, 4, 0)
    y = TruncatedSeries.variable(2, 4, 1)
    one = TruncatedSeries.constant(2, 4, 1)
    product = (one + x * Fraction(1, 3) - y) * (one - x * Fraction(1, 3) - y)
    assert product.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1,
                             (2, 0): Fraction(-1, 9)}
    assert (product - product).terms == {}


@pytest.mark.parametrize("op", [
    lambda s: s * 1.5, lambda s: 1.5 * s, lambda s: s + 1.5,
    lambda s: 1.5 + s, lambda s: s - 1.5, lambda s: 1.5 - s,
    lambda s: s * "x", lambda s: None + s],
    ids=["mul", "rmul", "add", "radd", "sub", "rsub", "str", "none"])
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op(exp_series(3))


def test_derivative_of_order_zero_series_is_refused():
    s = TruncatedSeries(1, 0, {(0,): 2, (1,): 5})
    with pytest.raises(ValueError):
        s.partial_derivative(0)


def test_coefficient_rejects_negative_exponents():
    s = TruncatedSeries(2, 3, {(1, 0): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        s.coefficient((-1, 1))


def test_fundamental_class_leaves_only_the_constant():
    def never(d, e):
        raise AssertionError("no count is read when an index is T0")

    assert gamma_p1x1(0, 1, 2, 10, nde=never).is_zero()
    assert phi_ijk(P1XP1, 0, 1, 2, 10) == TruncatedSeries.constant(4, 10, 1)


# -- the packed monomial keys against a plain dict of exponent tuples ------

def ref_truncate(terms, order):
    return {e: c for e, c in terms.items() if sum(e) <= order}


def ref_derivative(terms, var):
    out = {}
    for e, c in terms.items():
        if e[var]:
            out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c * e[var]
    return out


def check_against(series, terms, nvars, order):
    """``series`` holds exactly ``terms`` at ``order``, in every view."""
    terms = {e: Fraction(c) for e, c in terms.items() if c}
    assert (series.nvars, series.order) == (nvars, order)
    assert series.terms == terms
    rebuilt = TruncatedSeries(nvars, order, terms)
    assert series == rebuilt and hash(series) == hash(rebuilt)
    assert series.leading_term() == (min(terms.items()) if terms else None)
    edge = (0,) * (nvars - 1)
    for exps in set(terms) | {(0,) + edge, (order,) + edge, edge + (order,)}:
        assert series.coefficient(exps) == terms.get(exps, 0)
    assert parse_series(series.render(), nvars, order) == series


@st.composite
def keyed_operands(draw):
    """Two operands of possibly different orders in 1-5 variables, or in 60
    at order <= 2, with many exponents on the order bound."""
    nvars = draw(st.sampled_from((1, 2, 3, 4, 5, 60)))
    top = 2 if nvars == 60 else 7

    def operand():
        order = draw(st.integers(0, top))
        terms = {}
        for _ in range(draw(st.integers(0, 10))):
            total = draw(st.one_of(st.just(order), st.integers(0, order)))
            exps = [0] * nvars
            for _ in range(total):
                exps[draw(st.integers(0, nvars - 1))] += 1
            terms[tuple(exps)] = draw(COEFFICIENTS)
        return order, terms

    return nvars, operand(), operand()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(keyed_operands(), st.data())
def test_packed_keys_match_a_tuple_keyed_reference(case, data):
    nvars, (order_a, terms_a), (order_b, terms_b) = case
    a = TruncatedSeries(nvars, order_a, terms_a)
    b = TruncatedSeries(nvars, order_b, terms_b)
    ref_a = {e: Fraction(c) for e, c in terms_a.items()}
    ref_b = {e: Fraction(c) for e, c in terms_b.items()}
    check_against(a, ref_a, nvars, order_a)
    order = min(order_a, order_b)
    check_against(a * b, reference_product(a, b), nvars, order)
    check_against(a + b, reference_sum(a, b, 1), nvars, order)
    check_against(a - b, reference_sum(a, b, -1), nvars, order)
    cut = data.draw(st.integers(0, order_a))
    check_against(a.truncate(cut), ref_truncate(ref_a, cut), nvars, cut)
    series, terms, left = a, ref_a, order_a
    for var in data.draw(st.lists(st.integers(0, nvars - 1),
                                  max_size=order_a)):
        series, terms = series.partial_derivative(var), \
            ref_derivative(terms, var)
        left -= 1
        check_against(series, terms, nvars, left)
    check_against(series * b, reference_product(series, b), nvars,
                  min(left, order_b))
    for var in range(nvars):
        check_against(a.substitute_zero(var),
                      {e: c for e, c in ref_a.items() if not e[var]},
                      nvars, order_a)


def test_monomial_and_repr():
    s = TruncatedSeries.monomial(2, 3, [1, 2], Fraction(1, 2))
    assert s.terms == {(1, 2): Fraction(1, 2)}
    assert TruncatedSeries.monomial(2, 3, (0, 0)) == \
        TruncatedSeries.constant(2, 3, 1)
    assert TruncatedSeries.monomial(2, 2, (1, 2)).is_zero()
    assert repr(s) == "TruncatedSeries(nvars=2, order=3, 1/2·x0·x1^2)"
    assert repr(TruncatedSeries.zero(1, 0)) == \
        "TruncatedSeries(nvars=1, order=0, 0)"


@pytest.mark.parametrize("nvars, order, terms, message", [
    (0, 2, {}, "need at least one variable, got 0"),
    (2, -1, {}, "truncation order must be >= 0, got -1"),
    (2, 3.0, {}, "truncation order must be an integer, got 3.0"),
    (2, True, {}, "truncation order must be an integer, got True"),
    (2, 2, {(1,): 1}, "exponent tuple (1,) does not have 2 entries"),
    (2, 2, {(1, 0, 0): 1}, "exponent tuple (1, 0, 0) does not have 2 entries"),
    (2, 2, {(1, -1): 1}, "negative exponent in (1, -1)"),
    (2, 2, {(5, -1): 1}, "negative exponent in (5, -1)"),
])
def test_constructor_errors(nvars, order, terms, message):
    with pytest.raises(ValueError) as info:
        TruncatedSeries(nvars, order, terms)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda s: s.coefficient((1,)), "exponent tuple (1,) does not have 2 "
                                    "entries"),
    (lambda s: s.coefficient([1, 0, 0]), "exponent tuple [1, 0, 0] does not "
                                         "have 2 entries"),
    (lambda s: s.coefficient([0, -2]), "negative exponent in [0, -2]"),
    (lambda s: s.coefficient((2, 2)), "degree 4 exceeds the trusted order 3"),
    (lambda s: s.truncate(-1), "truncation order must be >= 0, got -1"),
    (lambda s: s.truncate(2.0),
     "truncation order must be an integer, got 2.0"),
    (lambda s: s.truncate(True),
     "truncation order must be an integer, got True"),
    (lambda s: s.truncate(4), "cannot extend trusted order 3 to 4"),
    (lambda s: s.partial_derivative(2), "variable index 2 out of range"),
    (lambda s: s.partial_derivative(-1), "variable index -1 out of range"),
    (lambda s: s.substitute_zero(2), "variable index 2 out of range"),
    (lambda s: s.substitute_zero(-1), "variable index -1 out of range"),
    (lambda s: TruncatedSeries.variable(2, 2, 5),
     "variable index 5 out of range"),
    (lambda s: TruncatedSeries.variable(2, 2, -1),
     "variable index -1 out of range"),
])
def test_query_errors(call, message):
    s = TruncatedSeries(2, 3, {(1, 0): 1, (1, 2): Fraction(1, 2)})
    with pytest.raises(ValueError) as info:
        call(s)
    assert str(info.value) == message
    assert s.coefficient([1, 2]) == Fraction(1, 2)


def test_parse_refuses_a_variable_out_of_range():
    assert parse_series("x1^2 + 1/2·x0", 2, 3) == TruncatedSeries(
        2, 3, {(0, 2): 1, (1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError) as info:
        parse_series("x0 + x2", 2, 3)
    assert str(info.value) == "variable x2 out of range"


def test_parse_refuses_a_zero_denominator():
    for text in ("1/0", "x0 + 3/0·x1"):
        with pytest.raises(ValueError) as info:
            parse_series(text, 2, 3)
        assert str(info.value).startswith("zero denominator in "), text
