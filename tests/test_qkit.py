"""q-combinatorics tests with an independent Pascal-recurrence oracle."""

import inspect
import sys
from fractions import Fraction
from math import comb

import pytest

from qck import qkit
from qck.exactalg import MultiLaurentPoly as P, exact_div, is_nonneg_integer_laurent
from qck.hyperg import check_qbinomial_theorem, check_qchu_vandermonde
from qck.qkit import (ParamExpr, bracket, one_minus_q, poch_prefixes, poch_suffixes, qbinomial,
                      qpochhammer)

q = P.var("q")


def pascal_qbinomial(n, k, _cache={}):
    """Oracle: [n;k] = [n-1;k] + q^{n-k} [n-1;k-1], independent of the product formula."""
    if not (n >= k >= 0):
        return P.zero()
    if k == 0 or k == n:
        return P.const(1)
    key = (n, k)
    if key not in _cache:
        _cache[key] = pascal_qbinomial(n - 1, k) \
            + P.monomial(1, {"q": n - k}) * pascal_qbinomial(n - 1, k - 1)
    return _cache[key]


def test_qpochhammer_empty():
    assert qpochhammer(ParamExpr.var("x"), 0) == P.const(1)


def test_qpochhammer_qq2():
    assert qpochhammer(ParamExpr.var("q"), 2) == 1 - q - q ** 2 + q ** 3


def test_qpochhammer_minus_one_pair():
    # oracle: (1 - (-1))(1 - (-q)) = 2(1 + q)
    v = qpochhammer(ParamExpr.of(-1), 1) * qpochhammer(ParamExpr.of(-1, {"q": 1}), 1)
    assert v == 2 + 2 * q


def test_qpochhammer_negative_order():
    with pytest.raises(ValueError):
        qpochhammer(ParamExpr.var("x"), -1)


def test_qbinomial_4_2_frozen():
    # oracle value computed by the Pascal recurrence
    assert pascal_qbinomial(4, 2) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4
    assert qbinomial(4, 2) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4


def test_qbinomial_out_of_range():
    assert qbinomial(3, 5).is_zero()
    assert qbinomial(3, -1).is_zero()
    assert qbinomial(-2, 0).is_zero()


def test_qbinomial_k0():
    for n in range(11):
        assert qbinomial(n, 0) == P.const(1)


def test_qbinomial_matches_pascal_oracle():
    # every row up to 12, and a few up to n = 52, the largest [m+j; j] of the congruence grid
    rows = [(n, range(n + 1)) for n in range(13)] + [
        (n, range(0, n + 1, 3)) for n in (25, 39, 52)]
    for n, ks in rows:
        for k in ks:
            assert qbinomial(n, k) == pascal_qbinomial(n, k), (n, k)


def test_qbinomial_q1_is_binomial():
    for n in range(13):
        for k in range(n + 1):
            assert qbinomial(n, k).substitute({"q": 1}) == comb(n, k)


def test_qbinomial_nonneg_and_degree():
    for n in range(13):
        for k in range(n + 1):
            b = qbinomial(n, k)
            assert is_nonneg_integer_laurent(b)
            assert b.degree_range("q") == (0, k * (n - k))


def division_row(n):
    """Oracle: the row [n; 0..n] by [n; k] = [n; k-1] (1-q^{n-k+1}) / (1-q^k)."""
    row = [P.const(1)]
    for k in range(1, n + 1):
        row.append(exact_div(row[-1] * one_minus_q(n - k + 1), one_minus_q(k)))
    return row


def test_qbinomial_matches_the_division_formula():
    # q-Pascal against the division formula, every n <= 40
    for n in range(41):
        assert [qbinomial(n, k) for k in range(n + 1)] == division_row(n), n


def test_a_broken_q_pascal_step_is_caught(monkeypatch):
    right = qkit.lattice

    def mutant(table, diagonal, i, j):  # q^{i+1} where the q-Pascal step has q^i
        if i < 1 or j < 1:
            return right(table, diagonal, i, j)
        return table(i - 1, j) + q ** (i + 1) * table(i, j - 1)
    qbinomial.cache_clear()
    monkeypatch.setattr(qkit, "lattice", mutant)
    try:
        for n in range(2, 13):
            assert [qbinomial(n, k) for k in range(n + 1)] != division_row(n), n
    finally:
        monkeypatch.undo()
        qbinomial.cache_clear()
    assert [qbinomial(12, k) for k in range(13)] == division_row(12)


def test_qbinomial_cold_row_needs_no_deep_recursion():
    # plain q-Pascal recursion from [120; 60] would nest 120 calls deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        b = qbinomial(120, 60)
    finally:
        sys.setrecursionlimit(limit)
    assert b.substitute({"q": 1}) == comb(120, 60)
    assert b.degree_range("q") == (0, 60 * 60)


def test_pochhammer_splitting():
    av = ParamExpr.var("a")
    for m in range(9):
        for n in range(9):
            lhs = qpochhammer(av, m + n)
            rhs = qpochhammer(av, m) * qpochhammer(ParamExpr.of(1, {"a": 1, "q": m}), n)
            assert lhs == rhs


def test_even_odd_split():
    # (d^2; q)_{2k} = (d^2; q^2)_k (d^2 q; q^2)_k
    d2 = ParamExpr.of(1, {"d": 2})
    q2 = ParamExpr.of(1, {"q": 2})
    d2q = ParamExpr.of(1, {"d": 2, "q": 1})
    for k in range(7):
        assert qpochhammer(d2, 2 * k) == \
            qpochhammer(d2, k, base=q2) * qpochhammer(d2q, k, base=q2)


def test_poch_prefix_suffix_consistency():
    av = ParamExpr.var("a")
    pre = poch_prefixes(av, 6)
    suf = poch_suffixes(av, 6)
    for k in range(7):
        assert pre[k] * suf[k] == pre[6]


def test_qbracket():
    br = bracket(5)
    assert br == 1 + q + q ** 2 + q ** 3 + q ** 4
    assert br.substitute({"q": 1}) == 5
    assert br.degree_range("q") == (0, 4)
    assert bracket(1) == P.const(1)
    with pytest.raises(ValueError):
        bracket(0)


def test_qbinomial_theorem_small():
    assert check_qbinomial_theorem(0).passed
    # n = 2 by hand: 1 - (1+q)x + q x^2 == (1-x)(1-xq)
    assert check_qbinomial_theorem(2).passed
    assert check_qbinomial_theorem(6).passed


def test_qchu_vandermonde_small():
    assert check_qchu_vandermonde(0).passed
    assert check_qchu_vandermonde(1).passed
    assert check_qchu_vandermonde(4).passed


def test_param_expr_arithmetic():
    # parameters are kernel monomials: the kernel multiplies and raises them
    cx = ParamExpr.of(1, {"c": 1, "x": -1})
    assert cx == P.monomial(1, {"c": 1, "x": -1}) == ParamExpr.of(1, c=1, x=-1)
    assert cx ** 2 == ParamExpr.of(1, {"c": 2, "x": -2})
    assert (cx * ParamExpr.var("x")) == ParamExpr.var("c")
    assert ParamExpr.var("q", -3) == P.var("q", -3)
    assert ParamExpr.of(1) == ParamExpr.var("q", 0) == P.const(1)
    with pytest.raises(ValueError):
        ParamExpr.var("zz")


def test_param_expr_fraction_coeff():
    with pytest.raises(TypeError):  # a rational parameter is a hyperg (monomial, v) pair
        ParamExpr.of(Fraction(1, 2), {"q": 1})
    assert ParamExpr.of(-1, {"q": 1}) ** -1 == ParamExpr.of(-1, {"q": -1})
    with pytest.raises(ValueError):
        ParamExpr.of(2, {"q": 1}) ** -1
