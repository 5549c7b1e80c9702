"""Property tests of the arithmetic kernel on small random polynomials."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import pytest

from qck.exactalg import (VAR_NAMES, MultiLaurentPoly as P, _W, _check_keys, _decode,
                          _dense_divrem, _divide_graded, _encode, _min_exponent_key,
                          _mul_generic, _mul_grouped, _q_range, exact_divide, sum_of_products)

_SETTINGS = settings(deadline=None, max_examples=60)

# Coefficients are small ints or Fractions with small denominators.
coeffs = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6)),
)


@st.composite
def polys(draw, names=None, coeffs=coeffs):
    """A polynomial in q (alone, to reach the dense path) or in q, a and x."""
    names = names or draw(st.sampled_from((("q",), ("q", "a", "x"))))
    monomial = st.fixed_dictionaries({v: st.integers(-3, 3) for v in names})
    terms = draw(st.lists(st.tuples(monomial, coeffs), max_size=6))
    out = P.zero()
    for powers, c in terms:
        out = out + P.monomial(c, powers)
    return out


@_SETTINGS
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    zero, one = P.zero(), P.const(1)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a - a).is_zero() and (a * zero).is_zero()


@_SETTINGS
@given(polys(), polys())
def test_exact_divide_round_trip(p, d):
    if d.is_zero():
        return
    assert exact_divide(p * d, d) == p


@_SETTINGS
@given(polys())
def test_canonical_string_round_trip(p):
    assert P.from_canonical(str(p)) == p


signed_lists = st.lists(st.integers(-(1 << 70), 1 << 70), min_size=1, max_size=40)


def _q_poly(coeffs):
    """sum_i coeffs[i] q^i."""
    return sum((P.monomial(c, {"q": i}) for i, c in enumerate(coeffs)), P.zero())


def _assert_packed_product_is_generic(A, B):
    u, v = _q_poly(A), _q_poly(B)
    assert u * v == v * u == _mul_generic(u._terms, v._terms)


@_SETTINGS
@given(signed_lists, signed_lists)
def test_packed_product_matches_schoolbook(A, B):
    # coefficients up to 2^70 need limbs wider than 8 bytes: the bytearray packing
    _assert_packed_product_is_generic(A, B)


@_SETTINGS
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=60),
       st.lists(st.integers(-3, 3), min_size=1, max_size=60))
def test_packed_product_matches_schoolbook_small(A, B):
    _assert_packed_product_is_generic(A, B)


# Int polynomials in q alone: negative exponents, a constant term, coefficients up to 2^70.
q_int_polys = st.dictionaries(st.integers(-6, 6), st.integers(-(1 << 70), 1 << 70).filter(bool),
                              min_size=2, max_size=8).map(
    lambda terms: sum((P.monomial(c, {"q": e}) for e, c in terms.items()), P.zero()))
_MINUS_Q = P.monomial(-1, {"q": 1})


@_SETTINGS
@given(q_int_polys, q_int_polys)
def test_q_only_product_matches_generic(u, v):
    # u(-q) * u(q) is even in q: its odd powers cancel to zero.
    for x, y in ((u, v), (u.substitute({"q": _MINUS_Q}), u)):
        product = x * y
        assert product == _mul_generic(x._terms, y._terms)
        assert {type(c) for c in product._terms.values()} == {int}


def _dense_walk_divrem(A, B):
    """The textbook long division, over every index of B."""
    r = list(A)
    if len(A) < len(B):
        return [], r
    q = [0] * (len(A) - len(B) + 1)
    for i in reversed(range(len(q))):
        c = r[i + len(B) - 1]
        if c:
            qc = Fraction(c) / B[-1]
            q[i] = qc.numerator if qc.denominator == 1 else qc
            for j, bj in enumerate(B):
                r[i + j] -= q[i] * bj
    while r and not r[-1]:
        r.pop()
    return q, r


@st.composite
def divisions(draw):
    """(dividend, divisor) lists; the divisor is mostly zeros below its lead."""
    entry = st.integers(-5, 5)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
    lead = draw(st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))))
    tail = draw(st.lists(st.one_of(st.just(0), st.just(0), entry), max_size=12))
    return draw(st.lists(entry, max_size=30)), tail + [lead]


@_SETTINGS
@given(divisions())
def test_sparse_divisor_division_matches_the_dense_walk(AB):
    A, B = AB
    q, r = _dense_divrem(A, B)
    want_q, want_r = _dense_walk_divrem(A, B)
    assert q == want_q and r == want_r
    assert [type(c) for c in q] == [type(c) for c in want_q]


@_SETTINGS
@given(polys())
def test_min_exponent_key_is_the_fieldwise_minimum(p):
    if p.is_zero():
        return
    mins = [min(field) for field in zip(*map(_decode, p._terms))]
    assert _min_exponent_key(p) == _encode(dict(zip(VAR_NAMES, mins)))


@st.composite
def q_divisors(draw):
    """A polynomial in q alone whose lead coefficient is not a unit."""
    lead = draw(st.sampled_from((2, -3, Fraction(1, 2), Fraction(-2, 3))))
    return draw(polys(("q",))) + P.monomial(lead, {"q": draw(st.integers(4, 6))})


@_SETTINGS
@given(polys(), q_divisors(), polys())
def test_q_divisor_division_matches_graded_division(p, d, extra):
    # p * d + extra is mostly not a multiple of d: both paths must refuse it alike
    for dividend in (p * d, p * d + extra):
        if dividend:
            assert exact_divide(dividend, d) == _divide_graded(dividend, d)
    assert exact_divide(p * d, d) == p


@st.composite
def grouped_polys(draw):
    """A polynomial in q, a and x whose q-groups are dense runs of signed ints up to 2^70."""
    out = P.zero()
    groups = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                  st.integers(-6, 6), min_size=1, max_size=4))
    for (ea, ex), lo in groups.items():
        run = draw(st.lists(st.integers(-(1 << 70), 1 << 70).filter(bool),
                            min_size=4, max_size=10))
        for i, c in enumerate(run):
            out = out + P.monomial(c, {"q": lo + i, "a": ea, "x": ex})
    return out


_MINUS_X = P.monomial(-1, {"x": 1})


@_SETTINGS
@given(grouped_polys(), grouped_polys())
def test_grouped_product_matches_generic(p, r):
    # r(q, a, -x) * r(q, a, x) is even in x: its odd-x monomials cancel to zero.
    for u, v in ((p, r), (r.substitute({"x": _MINUS_X}), r)):
        grouped = _mul_grouped(u._terms, v._terms)
        assert grouped is not None
        assert grouped == _mul_generic(u._terms, v._terms) == u * v


_LIMIT = 1 << 20
# Exponents from the whole stored range, and ones near +-2^19 whose sums straddle the limit.
exponents = st.one_of(st.integers(1 - _LIMIT, _LIMIT - 1),
                      st.integers(-8, 8).map(lambda d: _LIMIT // 2 + d),
                      st.integers(-8, 8).map(lambda d: d - _LIMIT // 2))


@_SETTINGS
@given(st.dictionaries(st.sampled_from(VAR_NAMES), st.tuples(exponents, exponents),
                       min_size=1, max_size=4))
def test_product_raises_exactly_when_an_exponent_leaves_the_range(pairs):
    m1 = P.monomial(3, {v: e1 for v, (e1, _) in pairs.items()})
    m2 = P.monomial(-2, {v: e2 for v, (_, e2) in pairs.items()})
    sums = {v: e1 + e2 for v, (e1, e2) in pairs.items()}
    # three-term operands in two spare variables take the generic product path
    u, w = (P.var(v) for v in [v for v in VAR_NAMES if v not in pairs][:2])
    if any(abs(e) >= _LIMIT for e in sums.values()):
        for build in (lambda: m1 * m2, lambda: (m1 + 1 + u) * (m2 + 1 + w)):
            with pytest.raises(ValueError):
                build()
    else:
        assert m1 * m2 == P.monomial(-6, sums)
        assert (m1 + 1 + u) * (m2 + 1 + w) == \
            m1 * m2 + m1 + m1 * w + m2 + 1 + w + u * m2 + u + u * w


_RUN4 = st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=4, max_size=4)
# Shifts whose sums straddle the limit, and whose operands are still in range.
_shifts = st.one_of(st.integers(8 - _LIMIT, _LIMIT - 8),
                    st.integers(-8, 8).map(lambda d: _LIMIT // 2 + d),
                    st.integers(-8, 8).map(lambda d: d - _LIMIT // 2))


@_SETTINGS
@given(st.dictionaries(st.sampled_from(VAR_NAMES), st.tuples(_shifts, _shifts),
                       min_size=1, max_size=4),
       st.lists(_RUN4, min_size=4, max_size=4))
def test_grouped_product_raises_exactly_when_an_exponent_leaves_the_range(pairs, runs):
    # Two q-groups of four terms a side (a^0 and a^1) are 16 term pairs per group
    # pair; random signs make the a^1 accumulator cancel, at its ends or whole.
    u0, v0 = (sum((P.monomial(c, {"q": i, "a": ea}) for ea, run in enumerate(two)
                   for i, c in enumerate(run)), P.zero()) for two in (runs[:2], runs[2:]))
    u = P.monomial(1, {v: e1 for v, (e1, _) in pairs.items()}) * u0
    v = P.monomial(1, {v: e2 for v, (_, e2) in pairs.items()}) * v0
    shift = {v: e1 + e2 for v, (e1, e2) in pairs.items()}
    outside = any(abs(shift.get(name, 0) + powers.get(name, 0)) >= _LIMIT
                  for powers, _ in (u0 * v0).sorted_terms() for name in VAR_NAMES)
    if outside:
        with pytest.raises(ValueError):
            _mul_grouped(u._terms, v._terms)
    else:
        product = _mul_grouped(u._terms, v._terms)
        assert product is not None
        assert product == _mul_generic(u._terms, v._terms)


# Exponent vectors over the whole ring: zero fields, small negative ones next to
# positive ones (a negative field borrows from the one above it in the key's
# binary form), and the stored extremes.
field = st.one_of(st.just(0), st.integers(-3, 3), st.integers(1 - _LIMIT, _LIMIT - 1),
                  st.sampled_from((1 - _LIMIT, _LIMIT - 1)))
vectors = st.lists(field, min_size=len(VAR_NAMES), max_size=len(VAR_NAMES)).map(tuple)


def _key(vector) -> int:
    """The balanced key of any exponent vector, built without _encode's range check."""
    return sum(e << (_W * i) for i, e in enumerate(vector))


@_SETTINGS
@given(vectors)
def test_encoding_round_trip(v):
    key = _encode(dict(zip(VAR_NAMES, v)))
    assert key == _key(v)
    assert _decode(key) == v


@_SETTINGS
@given(vectors, vectors)
def test_key_order_is_lexicographic_from_the_top_field(v, w):
    kv, kw = _encode(dict(zip(VAR_NAMES, v))), _encode(dict(zip(VAR_NAMES, w)))
    assert (kv < kw) == (v[::-1] < w[::-1])
    assert (kv == kw) == (v == w)


# Fields up to 2^22, where the range test is exact, with values either side of the limit.
wide_field = st.one_of(st.just(0), st.integers(-3, 3), st.integers(1 - 4 * _LIMIT, 4 * _LIMIT - 1),
                       st.sampled_from((_LIMIT - 1, _LIMIT, 1 - _LIMIT, -_LIMIT)))


@_SETTINGS
@given(st.lists(st.lists(wide_field, min_size=len(VAR_NAMES), max_size=len(VAR_NAMES)),
                min_size=1, max_size=3))
def test_check_keys_raises_exactly_when_an_exponent_reaches_the_limit(vs):
    if any(abs(e) >= _LIMIT for v in vs for e in v):
        with pytest.raises(ValueError):
            _check_keys([_key(v) for v in vs])
    else:
        _check_keys([_key(v) for v in vs])


# Zero above the lowest one to three fields, the ones above q mostly -1, 0 or 1:
# t^-1 q^e and t q^-e are the keys nearest to those in q alone.
low_vectors = st.tuples(field, st.lists(st.one_of(st.integers(-1, 1), field), max_size=2)).map(
    lambda qv: (qv[0], *qv[1]) + (0,) * (len(VAR_NAMES) - 1 - len(qv[1])))
_ZEROS = (0,) * (len(VAR_NAMES) - 2)


@_SETTINGS
@given(st.lists(low_vectors, min_size=1, max_size=4))
@example([(_LIMIT - 1, -1) + _ZEROS])
@example([(1 - _LIMIT, 1) + _ZEROS])
def test_q_range_is_found_exactly_in_q_alone(vs):
    terms = {_key(v): 1 for v in vs}
    if all(not any(v[1:]) for v in vs):
        assert _q_range(terms) == (min(v[0] for v in vs), max(v[0] for v in vs))
    else:
        assert _q_range(terms) is None


@st.composite
def product_terms(draw):
    """Terms for sum_of_products: lists of factors in q alone or in q, a and x.

    Factors are int polynomials (packed), polynomials with Fraction
    coefficients (multiplied out), zero, Laurent monomials, and 1 + q^e with
    e up to 300, whose q-group the grouped product refuses.  Some terms carry
    a shift of thousands of q exponents, so the accumulator they share with
    the other terms would span far more than the products added into it.
    """
    names = draw(st.sampled_from((("q",), ("q", "a", "x"))))
    monomial = st.builds(P.monomial, st.integers(-30, 30).filter(bool),
                         st.fixed_dictionaries({v: st.integers(-4, 4) for v in names}))
    factor = st.one_of(polys(names, st.integers(-30, 30)), polys(names, st.integers(-30, 30)),
                       polys(names), monomial, st.just(P.zero()),
                       st.integers(40, 300).map(lambda e: 1 + P.var("q", e)))
    shift = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-5000, 5000))
    return draw(st.lists(st.builds(lambda fs, e: fs + [P.var("q", e)] if e else fs,
                                   st.lists(factor, max_size=4), shift), max_size=6))


def _is_canonical(p) -> bool:
    return all(c and (type(c) is int or c.denominator != 1) for c in p._terms.values())


@_SETTINGS
@given(product_terms())
def test_sum_of_products_matches_the_folds(terms):
    fold, generic = P.zero(), P.zero()
    for factors in terms:
        product, plain = P.const(1), P.const(1)
        for f in factors:
            product = product * f
            plain = _mul_generic(plain._terms, f._terms)
        fold, generic = fold + product, generic + plain
    total = sum_of_products(iter(terms))
    assert total == fold == generic
    assert _is_canonical(total)
