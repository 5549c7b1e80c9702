"""Kernel tests: arithmetic, substitution, exact division, canonical form."""

import ast
import random
import time
import tracemalloc
from fractions import Fraction
from heapq import heappop
from pathlib import Path

import pytest

from qck import exactalg
from qck.exactalg import (MultiLaurentPoly as P, NotDivisibleError,
                          TermBudgetExceeded, divrem_in_q, exact_div,
                          exact_divide, is_nonneg_integer_laurent, sum_of_products)
from qck.qkit import qbinomial

q = P.var("q")
a = P.var("a")
c = P.var("c")
x = P.var("x")
one = P.const(1)


def test_add_cancellation():
    assert (q + 1) + P.const(-1) == q


def test_add_identity():
    p = 3 * q + a
    assert P.zero() + p == p


def test_add_doubling():
    assert (1 + q) + (1 + q) == 2 + 2 * q


def test_mul_difference_of_squares():
    assert (1 - q) * (1 + q) == 1 - q ** 2


def test_mul_laurent_unit():
    assert P.var("q", -1) * q == one


def test_q_only_int_product_takes_the_packed_path(monkeypatch):
    u = P.var("q", -3) + 2 - 7 * q ** 2 + 3 * q ** 4
    v = 1 - P.var("q", -1) + 5 * q - q ** 3
    expected = exactalg._mul_generic(u._terms, v._terms)
    # (q^-2 + q^2)(1 - q^4) = q^-2 - q^6: the coefficients of q^2..q^5 cancel to zero
    run4 = 1 + q + q ** 2 + q ** 3
    w, want = (1 - q ** 4) * run4, (P.var("q", -2) - q ** 6) * run4
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert u * v == v * u == expected
    assert (P.var("q", -2) + q ** 2) * w == want


@pytest.mark.parametrize("e", [1, 5, 40])
def test_two_term_q_only_operand_takes_the_packed_path(monkeypatch, e):
    dense = sum((P.monomial(3 - i, {"q": i}) for i in range(12)), P.zero())
    expected = exactalg._mul_generic((1 - q ** e)._terms, dense._terms)
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert (1 - q ** e) * dense == dense * (1 - q ** e) == expected


def test_product_in_one_other_variable():
    y = P.var("y")
    product = (1 + y + y ** 2) * (1 - y)
    assert product == exactalg._mul_generic((1 + y + y ** 2)._terms, (1 - y)._terms)
    assert product == 1 - y ** 3
    assert (1 + x + x ** 2) * (1 + x + x ** 2) * (1 - x) == (1 - x ** 3) * (1 + x + x ** 2)


def test_monomial_product_stores_int_coefficients():
    product = P.monomial(2, {"q": 1}) * (3 * q + 1)
    assert product == 6 * q ** 2 + 2 * q
    assert [type(coeff) for _, coeff in product.sorted_terms()] == [int, int]
    assert P.monomial(-3, {"a": 1}) * (q - 2 * x) == -3 * a * q + 6 * a * x


def test_mul_lemma_n1_expansion():
    lhs = (1 - x) * (1 - a * P.var("x", -1))
    assert lhs == 1 - x - a * P.var("x", -1) + a


def test_substitute_monomial_image():
    p = P.monomial(1, {"c": 1, "x": -1})
    assert p.substitute({"c": P.monomial(1, {"q": 3})}) == P.monomial(1, {"q": 3, "x": -1})


def test_substitute_pochhammer_at_one():
    poch2 = (1 - x) * (1 - x * q)
    assert poch2.substitute({"x": 1}).is_zero()


def test_substitute_q_at_one():
    assert (1 + q + q ** 2).substitute({"q": 1}) == 3


def test_substitute_zero_into_negative_exponent():
    p = P.monomial(1, {"x": -1})
    with pytest.raises(ZeroDivisionError):
        p.substitute({"x": 0})


def test_substitute_rational_value():
    with pytest.raises(TypeError):
        (2 * q + 1).substitute({"q": Fraction(1, 2)})


def test_substitute_non_unit_into_negative_exponent():
    with pytest.raises(ValueError):
        (q ** -1).substitute({"q": 2})
    assert (q ** 3).substitute({"q": 2}) == 8
    assert (q ** -3 + a).substitute({"q": -1}) == a - 1


def test_const_takes_only_an_int():
    for value in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            P.const(value)
        with pytest.raises(TypeError):
            P.monomial(value, {"q": 1})


def test_a_bool_coefficient_is_stored_as_its_int():
    for poly in (P.const(True), P.monomial(True, {"q": 2})):
        assert all(type(coeff) is int for _, coeff in poly.sorted_terms())
    assert str(P.const(True)) == "1" and str(P.monomial(True, {"q": 2})) == "q^2"


def test_negative_power_of_a_non_unit_monomial():
    with pytest.raises(ValueError):
        (2 * q) ** -1


def test_exact_divide_telescoping():
    assert exact_divide(1 - q ** 2, 1 - q) == 1 + q


def test_exact_divide_not_divisible():
    assert exact_divide(1 - q ** 3, 1 - q ** 2) is None


def test_exact_divide_stores_whole_coefficients_as_int():
    for d in (1 - q, 1 + q, 2 - q, 1 - 3 * a):
        quotient = exact_divide((2 - 5 * q + 3 * q ** 2) * d, d)
        assert quotient == 2 - 5 * q + 3 * q ** 2
        assert [type(coeff) for _, coeff in quotient.sorted_terms()] == [int, int, int]
    # (4 - q^2) / (4 - 2q) is 1 + q/2, which is not integral
    assert exact_divide(4 - q ** 2, 4 - 2 * q) is None


def test_exact_divide_gaussian_binomial():
    # oracle: product expansion of both sides of [4 choose 2] * (1-q^2)(1-q) = (1-q^4)(1-q^3)
    num = (1 - q ** 4) * (1 - q ** 3)
    den = (1 - q ** 2) * (1 - q)
    expected = 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert exact_divide(num, den) == expected
    assert expected * den == num


def test_exact_div_raises():
    with pytest.raises(NotDivisibleError):
        exact_div(1 - q ** 3, 1 - q ** 2)
    with pytest.raises(ZeroDivisionError):
        exact_divide(q, P.zero())


def test_divrem_q3_mod_bracket3():
    # long-division oracle: q^3 - 1 = (q - 1)(1 + q + q^2)
    quotient, remainder = divrem_in_q(q ** 3, 1 + q + q ** 2)
    assert remainder == one
    assert quotient * (1 + q + q ** 2) + remainder == q ** 3


def test_divrem_self():
    _, remainder = divrem_in_q(1 + q + q ** 2, 1 + q + q ** 2)
    assert remainder.is_zero()


def test_divrem_degree_below():
    quotient, remainder = divrem_in_q(P.const(5), 1 + q + q ** 2)
    assert quotient.is_zero() and remainder == 5


def test_divrem_rejects_non_monic():
    with pytest.raises(ValueError):
        divrem_in_q(q ** 2, 2 * q + 1)


def test_divrem_rejects_laurent():
    with pytest.raises(ValueError):
        divrem_in_q(P.var("q", -1), 1 + q)


def test_divrem_rejects_a_bad_modulus():
    with pytest.raises(ZeroDivisionError):
        divrem_in_q(q ** 2, P.zero())
    for modulus in (q + P.var("q", -1), q + x):
        with pytest.raises(ValueError):
            divrem_in_q(q ** 2, modulus)


def test_divrem_of_zero():
    assert divrem_in_q(P.zero(), 1 + q) == (P.zero(), P.zero())


def test_is_nonneg_integer_laurent():
    assert is_nonneg_integer_laurent(2 * P.var("q", -1) + 3 + q ** 2)
    assert not is_nonneg_integer_laurent(1 - q)
    with pytest.raises(ValueError):
        is_nonneg_integer_laurent(q + a)


def _random_poly(rng, nterms=3):
    out = P.zero()
    for _ in range(rng.randint(0, nterms)):
        powers = {v: rng.randint(-3, 3) for v in rng.sample(("q", "a", "x"), rng.randint(0, 2))}
        out = out + P.monomial(rng.randint(-4, 4), powers)
    return out


def test_ring_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(1000):
        p, r, s = (_random_poly(rng) for _ in range(3))
        assert (p + r) + s == p + (r + s)
        assert p * (r + s) == p * r + p * s
        assert p * r == r * p


def test_exact_divide_roundtrip_randomized():
    rng = random.Random(4711)
    for _ in range(300):
        p = _random_poly(rng)
        d = _random_poly(rng)
        if d.is_zero():
            continue
        assert exact_divide(p * d, d) == p


def test_substitute_is_homomorphism():
    rng = random.Random(99)
    bindings = {"x": P.monomial(-1, {"q": 2}), "a": -1}
    for _ in range(200):
        p = _random_poly(rng)
        r = _random_poly(rng)
        assert (p * r).substitute(bindings) == p.substitute(bindings) * r.substitute(bindings)
        assert (p + r).substitute(bindings) == p.substitute(bindings) + r.substitute(bindings)


def test_canonical_form_path_independence():
    # same value along different expression trees -> identical term maps
    left = ((1 + q) * (1 + q)) * a - a
    right = a * q * (2 + q)
    assert left == right
    assert str(left) == str(right)


def test_canonical_string_and_roundtrip():
    p = P.monomial(32, {"q": -3}) + 1 - 2 * a * P.var("x", -1)
    assert str(p) == "32*q^-3 + 1 + -2*a*x^-1"
    rebuilt = sum((P.monomial(c, powers) for powers, c in reversed(p.sorted_terms())), P.zero())
    assert rebuilt == p and str(rebuilt) == str(p)
    assert str(P.zero()) == "0"


def test_canonical_order_is_graded():
    p = q ** 2 + 1 + q
    assert str(p) == "1 + q + q^2"
    assert str(2 + q) == "2 + q"


def test_negative_exponent_printing():
    assert str(P.monomial(1, {"q": -3})) == "q^-3"


def test_pow():
    assert (1 + q) ** 0 == one
    assert (1 + q) ** 3 == 1 + 3 * q + 3 * q ** 2 + q ** 3


def test_negative_power_of_a_monomial():
    assert (c * x ** -1) ** 2 == P.monomial(1, {"c": 2, "x": -2})
    assert q * a ** -1 == P.monomial(1, {"q": 1, "a": -1})
    assert (-q) ** -3 == P.monomial(-1, {"q": -3})
    assert (-2 * q) ** 3 == P.monomial(-8, {"q": 3})
    with pytest.raises(ValueError):
        (1 + q) ** -1


_TOP = P.var("q", 2 ** 20 - 1)  # the largest exponent the kernel stores
_RUN = sum((q ** i for i in range(8)), P.zero())  # a dense q-run: groups of 8 terms


@pytest.mark.parametrize("build", [
    lambda: _TOP ** 16,                                          # power
    lambda: _TOP ** -2,                                          # negative power
    lambda: _TOP * _TOP,                                         # monomial product
    lambda: (_TOP + P.var("q", 2 ** 20 - 2)) * (1 + q),          # q-only product
    lambda: (P.var("q", 1 - 2 ** 20) + 2) * (q ** -1 + 1),       # q-only, negative side
    lambda: (_TOP + P.var("q", 2 ** 20 - 2)) * _RUN,             # q-only, packed
    lambda: (_TOP ** -1 + P.var("q", 2 - 2 ** 20)) * (q ** -1 * _RUN),  # q-only, packed, negative
    lambda: (_TOP + a) * (q + a),                                # generic product
    lambda: P.var("q", 1 - 2 ** 20) * (q ** -1 + a),             # negative exponent
    lambda: P.var("q", 2 ** 20 - 8) * _RUN * (a + x) * (_RUN * (a + x)),  # grouped product
    lambda: (_TOP + a).substitute({"q": _TOP}),                  # substitution
    lambda: (_TOP * a).substitute({"a": q}),                     # substituted image
    lambda: exact_divide(_TOP, P.var("q", 1 - 2 ** 20)),         # shift of the quotient
    lambda: exact_divide(c ** (2 ** 20 - 1) * (1 + a), c ** -1 * (1 + a)),  # key-order path
], ids=["pow", "neg-pow", "monomial", "univariate", "q-only-negative", "q-only-packed",
        "q-only-packed-negative", "generic", "negative", "grouped", "substitute",
        "substitute-image", "shift", "key-order"])
def test_exponent_overflow_raises(build):
    with pytest.raises(ValueError):
        build()


def test_exponents_up_to_the_limit_are_kept():
    assert str(P.var("q", 2 ** 20 - 2) * q) == "q^1048575"
    assert str(P.var("x", 2 - 2 ** 20) * x ** -1) == "x^-1048575"
    assert (_TOP + a) * (1 + a) == _TOP + a + _TOP * a + a ** 2
    assert (_TOP + a).substitute({"a": q}) == _TOP + q
    assert exact_divide(_TOP * (1 + q ** -1), 1 + q) == P.var("q", 2 ** 20 - 2)
    # the operands span almost 2^21 once shifted to exponent 0, the quotient stays in range
    wide = P.var("q", 2 ** 20 - 2) + P.var("q", 1 - 2 ** 20)
    assert exact_divide(wide * (1 + q), 1 + q) == wide


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        P.var("zz")


def test_degree_range_rejects_an_unknown_variable():
    for poly in (q + a, P.zero()):
        for name in ("z", "t"):  # no t in the ring: q -> q^2 makes q itself carry q^{1/2}
            with pytest.raises(ValueError, match="unknown variable"):
                poly.degree_range(name)


def test_term_budget(monkeypatch):
    monkeypatch.setattr(exactalg, "_MAX_TERMS", 4)
    with pytest.raises(TermBudgetExceeded):
        (1 + q + q ** 2) * (1 + a + a ** 2)


def _forbidden(*args):
    raise AssertionError("this product should take the other path")


_GROUPED = (_RUN * (a + x), _RUN * (a - x + c))  # int operands with q-groups of 8 terms


# p * r lays out 5 accumulators of 15 (a^2, a*x, x^2, a*c, x*c): 75 > cap
@pytest.mark.parametrize("cap", [4, 40])
def test_term_budget_on_the_grouped_path(monkeypatch, cap):
    p, r = _GROUPED
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert len(p * r) == 4 * 15  # a^2, x^2, a*c, x*c times q^0..q^14
    monkeypatch.setattr(exactalg, "_MAX_TERMS", cap)
    monkeypatch.setattr(exactalg, "_pack", _forbidden)  # refused before packing
    with pytest.raises(TermBudgetExceeded):
        p * r


def test_packed_budget_caps_the_layout_not_the_term_pairs(monkeypatch):
    run = sum((q ** i for i in range(101)), P.zero())
    want = sum(((min(i, 200 - i) + 1) * q ** i for i in range(201)), P.zero())
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    monkeypatch.setattr(exactalg, "_MAX_TERMS", 201)  # 101 x 101 term pairs are above 50 * 201
    assert run * run == sum_of_products([(run, run)]) == want
    monkeypatch.setattr(exactalg, "_MAX_TERMS", 200)  # the layout q^0..q^200 is not
    monkeypatch.setattr(exactalg, "_pack", _forbidden)
    for build in (lambda: run * run, lambda: sum_of_products([(run, run)])):
        with pytest.raises(TermBudgetExceeded):
            build()


def test_term_budget_refuses_many_q_groups_fast():
    xkey, = x._terms  # one q-group a term: 30000 x 30000 group pairs are above 50 * 10^7
    p, r = (P._raw({k * xkey: k + c for k in range(30000)}) for c in (1, 2))
    for build in (lambda: p * r, lambda: sum_of_products([(p, r)])):
        started = time.perf_counter()
        with pytest.raises(TermBudgetExceeded):
            build()
        assert time.perf_counter() - started < 1


_RUN2 = _RUN * _RUN


def test_grouped_path_takes_only_int_coefficients(monkeypatch):
    p, r = _GROUPED
    with pytest.raises(TypeError):  # no rational scalar reaches any product path
        p * Fraction(1, 2)
    triple = p * 3
    expected = _RUN2 * (a * a - x * x + a * c + x * c) * 3
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert triple * r == r * triple == expected


def test_cancellation_on_the_grouped_path(monkeypatch):
    p, r = _GROUPED
    r_minus = _RUN * (a + x - c)  # p * r has an a*x accumulator that cancels, p * r_minus an x*c one
    expected = _RUN2 * (a * a - x * x + a * c + x * c)
    expected_minus = _RUN2 * (a * a + 2 * a * x + x * x - a * c - x * c)
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert p * r == expected
    assert p * r_minus == expected_minus


def test_grouped_range_check_at_the_limit(monkeypatch):
    run4 = 1 + q + q ** 2 + q ** 3
    h0 = 1 + 2 * q + 2 * q ** 2 + q ** 3
    u, v = run4 * (1 + a), h0 - a * run4
    # the a^1 accumulator, run4 * (h0 - run4) = q + ... + q^5, is zero at both ends of its span
    expected = exactalg._mul_generic(u._terms, v._terms)
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert u * v == expected
    top = P.var("q", 2 ** 20 - 7)  # the a^0 accumulator ends at q^(2^20 - 1)
    assert (top * u) * v == top * expected
    with pytest.raises(ValueError):
        (top * q * u) * v


def test_grouped_product_of_largest_coefficients(monkeypatch):
    # every output coefficient sums up to 20 products of 2^140: the limbs need the term count
    big = sum((P.monomial(1 << 70, {"q": i}) for i in range(10)), P.zero())
    p, r = big * (a + x), big * (a - x)
    expected = exactalg._mul_generic(p._terms, r._terms)
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert p * r == expected
    assert p * p == big * big * (a * a + 2 * a * x + x * x)


_HALF = 2 ** 19


@pytest.mark.parametrize("build, expected", [
    # the example of a sparse q-span: too few terms to group at all
    (lambda: (q ** -_HALF + q ** _HALF) * (a + x),
     lambda: q ** -_HALF * a + q ** -_HALF * x + q ** _HALF * a + q ** _HALF * x),
    # enough terms to group, but one q-group spans 2^20 exponents
    (lambda: _RUN * (q ** -_HALF + q ** _HALF) * (_RUN * (a + x)),
     lambda: _RUN * _RUN * (a + x) * q ** -_HALF + _RUN * _RUN * (a + x) * q ** _HALF),
    # dense q-groups whose products land 2^19 apart in one output monomial
    (lambda: _RUN * (1 + a * q ** (_HALF // 2)) * (_RUN * (a + q ** (_HALF // 2))),
     lambda: _RUN * _RUN * (a + q ** (_HALF // 2) + a * a * q ** (_HALF // 2) + a * q ** _HALF)),
    # two operands in q alone, one of them spanning 2^20 exponents
    (lambda: (_RUN * (q ** -_HALF + q ** _HALF)) * _RUN,
     lambda: _RUN * _RUN * q ** -_HALF + _RUN * _RUN * q ** _HALF),
    # a dividend in q alone spanning 2^21 - 3 exponents, over a divisor in q alone
    (lambda: exact_divide((_TOP * q ** -1 + P.var("q", 1 - 2 ** 20)) * (1 + q), 1 + q),
     lambda: _TOP * q ** -1 + P.var("q", 1 - 2 ** 20)),
    # a divisor in q alone of higher degree than the dividend: not divisible
    (lambda: exact_divide((1 + q) * (2 + q), 1 - _TOP), lambda: None),
], ids=["two-terms", "sparse-group", "far-apart-products", "q-only", "q-only-division",
        "short-dividend"])
def test_sparse_q_span_builds_no_dense_list(build, expected):
    want = expected()
    tracemalloc.start()
    try:
        got = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 20  # a dense list over 2^20 exponents takes 8 MB


def test_q_only_divisor_takes_key_order_division_only_for_sparse_q_groups(monkeypatch):
    terms = exactalg._divide_terms
    monkeypatch.setattr(exactalg, "_divide_terms", _forbidden)
    for p, d in [(1 + q, 1 - q), (_RUN * (a + x), 2 - 3 * q ** 2),
                 (q ** -3 * _RUN * (a - c * x ** -1), 2 * q ** -1 - q ** 5),
                 (_RUN, P.const(3))]:
        assert exact_divide(p * d, d) == p
    assert exact_divide(_RUN + a, 1 - q) is None
    assert exact_divide(_RUN * (2 - q), 2 + q) is None  # the first quotient step is 3/2
    sparse = (1 + q ** 200) * (a + x)  # q-groups of 2 terms spanning 200 exponents
    monkeypatch.setattr(exactalg, "_divide_terms", terms)
    monkeypatch.setattr(exactalg, "_divide_in_q", _forbidden)
    for d in (1 + q, 2 - 3 * q ** 2):
        assert exactalg._q_groups((sparse * d)._terms) is None  # the product would refuse them
        assert exact_divide(sparse * d, d) == sparse
    assert exact_divide(sparse, 1 + q) is None  # 1 + q^200 is 2 at q = -1


def test_divisor_outside_q_takes_key_order_division(monkeypatch):
    terms, divisors = exactalg._divide_terms, []
    monkeypatch.setattr(exactalg, "_divide_in_q", _forbidden)
    monkeypatch.setattr(exactalg, "_divide_terms",
                        lambda p, d: divisors.append(d) or terms(p, d))
    p = 1 + a * q + q ** -2 * x
    for d in (1 - c, (1 - q) * (1 - c), 1 - x):
        assert exact_divide(p * d, d) == p
        assert exact_divide(p + 1, d) is None
    assert divisors == [1 - c] * 2 + [(1 - q) * (1 - c)] * 2 + [1 - x] * 2


@pytest.mark.parametrize("z", [x, c * x], ids=["1-x", "1-cx"])
@pytest.mark.parametrize("coeff", [lambda i: i + 1, lambda i: 1], ids=["801-terms", "2-terms"])
def test_key_order_division_of_a_long_dividend(monkeypatch, z, coeff):
    # 801 terms over 1 - z, or 1 - z^800, where every step adds a new key to the
    # remainder: the quotient box is checked on packed keys, so each operand key
    # is decoded once, not once per step of the division
    quotient = sum((P.monomial(coeff(i), {}) * z ** i for i in range(800)), P.zero())
    d = 1 - z
    p = quotient * d
    decode, calls = exactalg._decode, []
    monkeypatch.setattr(exactalg, "_decode", lambda k: calls.append(k) or decode(k))
    assert exactalg._divide_terms(p, d) == quotient
    assert len(calls) == len(p) + len(d)
    assert exactalg._divide_terms(p + z ** 1000, d) is None


def test_a_remainder_that_would_descend_without_end_is_not_divisible(monkeypatch):
    # x^5 + 2 over 1 - x leaves the remainder 3 after five steps, and then 3/x,
    # 3/x^2, ... without end: the sixth quotient key, 1/x, is outside the box
    # x^0..x^4 of an exact quotient, so the division stops there
    pops = []

    def counted(heap):
        pops.append(1)
        assert len(pops) <= 12, "the division does not stop"
        return heappop(heap)
    monkeypatch.setattr(exactalg, "heappop", counted)
    assert exact_divide(x ** 5 + 2, 1 - x) is None
    # here 1 is the greatest term of the divisor: the quotient keys descend to c^5/x^5,
    # past the box's c^4
    assert exact_divide(c ** 5 * x ** -5 + 2, 1 - c * x ** -1) is None
    assert len(pops) == 12


def test_sum_of_products_limbs_hold_the_term_count(monkeypatch):
    # 300 equal terms with coefficients up to 2^62 need limbs of 62 + 9 bits and a
    # sign bit: without the term count in the width they would be 64-bit limbs.
    f = sum((P.monomial((-1) ** i * ((1 << 62) - i), {"q": i, "a": i % 2}) for i in range(6)),
            P.zero())
    monkeypatch.setattr(exactalg, "_mul_generic", _forbidden)
    assert sum_of_products([(f,)] * 300 + [(f, -q)]) == f * 300 - f * q
    assert sum_of_products([(f, _RUN)] * 300) == f * _RUN * 300


def test_sum_of_products_multiplies_out_a_far_shifted_term(monkeypatch):
    # The second term's accumulators would span 5000 q exponents for the few
    # products added into them: the planner refuses the term before anything
    # is packed, and it is multiplied out with * instead.
    f = 1 + q + q ** 2 + a
    expected = f * f + f * f * q ** 5000
    packed, products = [], []
    pack, times = exactalg._pack, P.__mul__
    monkeypatch.setattr(exactalg, "_pack", lambda coeffs, nbytes: packed.append(coeffs)
                        or pack(coeffs, nbytes))
    monkeypatch.setattr(P, "__mul__", lambda u, v: products.append((len(u), len(v)))
                        or times(u, v))
    assert sum_of_products([(f, f), (f, f, q ** 5000)]) == expected
    assert packed == [[1, 1, 1], [1], [1, 1, 1], [1]]  # the two factors of the first term
    assert (4, 4) in products  # f * f of the second term


def test_sum_of_products_multiplies_out_a_refused_empty_term():
    g = 1 + q + q ** 2
    assert sum_of_products([(g, q ** 5000), ()]) == g * q ** 5000 + 1


def test_sum_of_products_raises_at_the_exponent_limit():
    run4 = 1 + q + q ** 2 + q ** 3
    top = P.var("q", 2 ** 19)
    assert sum_of_products([(top * run4, P.var("q", 2 ** 19 - 7) * run4)]) \
        == top * run4 * P.var("q", 2 ** 19 - 7) * run4  # q^(2^20 - 1) at the top
    for terms in ([(top * run4, P.var("q", 2 ** 19 - 6) * run4)],  # the product reaches q^(2^20)
                  [(P.var("q", 1 - 2 ** 20), P.var("q", -1))],  # two monomials
                  [(a ** (2 ** 20 - 1),) * 17],  # the a field would wrap to b * a^(2^20 - 17)
                  [(run4 * P.var("q", 2 ** 20 - 4),) * 17],  # q^(17 * 2^20) would pass 2^24
                  [(a ** (2 ** 19) * run4, a ** (2 ** 19) * run4)],
                  # the first two factors reach x^(2^20) before the third divides it out
                  [(x ** (2 ** 19) * run4, x ** (2 ** 19) * run4, x ** -(2 ** 19) * run4)]):
        with pytest.raises(ValueError):
            sum_of_products(terms)


@pytest.mark.parametrize("cap", [4, 40])  # the layout holds at least p * r's 75
def test_term_budget_of_sum_of_products(monkeypatch, cap):
    p, r = _GROUPED
    monkeypatch.setattr(exactalg, "_MAX_TERMS", cap)
    monkeypatch.setattr(exactalg, "_pack", _forbidden)  # refused before packing
    with pytest.raises(TermBudgetExceeded):
        sum_of_products([(p, r), (q, p)])


def test_keys_in_q_alone_are_their_exponents():
    # a polynomial in q alone keys its terms by plain small ints
    assert sorted(qbinomial(20, 10)._terms) == list(range(101))
    assert P.var("q", -5)._terms == {-5: 1}
    assert P.const(7)._terms == {0: 7}
    assert (a * q ** -2)._terms == {(1 << 24) - 2: 1}  # a is the second field


def test_a_constant_hashes_as_the_int_it_equals():
    # equal values must hash alike, so a constant polynomial finds its int in a set or dict
    for c in (3, 0, -1, 2 ** 70):
        assert P.const(c) == c
        assert c in {P.const(c)} and P.const(c) in {c}
        assert {c: "int"}.get(P.const(c)) == "int"
    assert P.zero() in {0}
    assert len({P.const(5), 5, q - q + 5}) == 1


def _private_kernel_names(tree):
    """Underscore names a module takes from exactalg, by import or by attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exactalg":
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "exactalg"):
            yield node.attr


def test_only_the_kernel_uses_its_private_names():
    # the dense coefficient lists and the packed keys stay behind exactalg
    package = Path(exactalg.__file__).parent
    found = {path.name: names for path in sorted(package.rglob("*.py"))
             if path.name != "exactalg.py"
             and (names := sorted(_private_kernel_names(ast.parse(path.read_text()))))}
    assert found == {}
