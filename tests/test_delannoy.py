"""Delannoy tests against lattice-path oracles."""

from functools import lru_cache

import pytest

from qck.delannoy import (DelannoyTable, build_table, delannoy, dq, dq_alt,
                          dq_inverse_base, dq_star, dq_star_alt, general_x_expansion,
                          product_expansion, product_expansion_rhs,
                          product_x_identity, verify_relations)
from qck.exactalg import MultiLaurentPoly as P, is_nonneg_integer_laurent
from qck.qkit import ParamExpr

q = P.var("q")


@lru_cache(maxsize=None)
def path_count(m, n):
    """Oracle: recursive path count D(m,n) = D(m-1,n) + D(m,n-1) + D(m-1,n-1)."""
    if m == 0 or n == 0:
        return 1
    return path_count(m - 1, n) + path_count(m, n - 1) + path_count(m - 1, n - 1)


def enumerate_paths(m, n):
    """Oracle: explicit enumeration of east/north/diagonal step sequences."""
    if (m, n) == (0, 0):
        return 1
    total = 0
    if n > 0:
        total += enumerate_paths(m, n - 1)      # east
    if m > 0:
        total += enumerate_paths(m - 1, n)      # north
    if m > 0 and n > 0:
        total += enumerate_paths(m - 1, n - 1)  # diagonal
    return total


def test_delannoy_first_row():
    for n in range(9):
        assert delannoy(0, n) == 1
        assert delannoy(n, 0) == 1


def test_delannoy_11_by_enumeration():
    # three paths: (E,N), (N,E), (D)
    assert enumerate_paths(1, 1) == 3
    assert delannoy(1, 1) == 3


def test_delannoy_values_frozen():
    # oracle: path-count recurrence
    assert path_count(2, 2) == 13
    assert path_count(3, 3) == 63
    assert delannoy(2, 2) == 13
    assert delannoy(3, 3) == 63


def test_delannoy_matches_recurrence_oracle():
    for m in range(9):
        for n in range(9):
            assert delannoy(m, n) == path_count(m, n)


def test_dq_frozen_values():
    assert dq(1, 1) == 2 + q
    assert dq_star(1, 1) == 1 + 2 * q
    assert dq(3, 0) == P.const(1)
    assert dq_star(0, 4) == P.const(1)


def test_dq_alt_frozen():
    # two-term expansions at (1,1): q + (-1;q)_1 = q + 2 and q + (1+q) = 1 + 2q
    assert dq_alt(1, 1) == 2 + q
    assert dq_star_alt(1, 1) == 1 + 2 * q


def test_alt_expansions_match():
    for m in range(9):
        for n in range(9):
            assert dq_alt(m, n) == dq(m, n), (m, n)
            assert dq_star_alt(m, n) == dq_star(n, m), (m, n)


def test_q1_specialization():
    for m in range(9):
        for n in range(9):
            d = delannoy(m, n)
            assert dq(m, n).substitute({"q": 1}) == d
            assert dq_star(m, n).substitute({"q": 1}) == d


def test_inverse_base_relation():
    for m in range(9):
        for n in range(9):
            twisted = dq_inverse_base(m, n) * P.monomial(1, {"q": m * n})
            assert dq_star(m, n) == twisted


def test_nonneg_coefficients():
    for m in range(9):
        for n in range(9):
            assert is_nonneg_integer_laurent(dq(m, n))
            assert is_nonneg_integer_laurent(dq_star(m, n))


def test_product_expansion_frozen_11():
    # hand expansion: (2+q)(1+2q) = 2 + 5q + 2q^2 = q + 2(1+q)^2
    assert dq(1, 1) * dq_star(1, 1) == 2 + 5 * q + 2 * q ** 2
    assert product_expansion_rhs(1, 1) == 2 + 5 * q + 2 * q ** 2
    assert product_expansion(1, 1).passed


def test_product_expansion_zero_row():
    assert product_expansion(0, 5).passed
    assert product_expansion(4, 0).passed


def test_general_x_expansion():
    for m in range(5):
        for n in range(5):
            lhs, rhs = general_x_expansion(m, n)
            assert lhs == rhs, (m, n)


def test_general_x_specializations():
    for m in range(5):
        for n in range(5):
            lhs, _ = general_x_expansion(m, n)
            assert lhs.substitute({"x": -1}) == dq(m, n)
            assert lhs.substitute({"x": ParamExpr.of(-1, {"q": 1})}) == dq_star(n, m)
            # x -> 0 collapses the alternating side to a single binomial
            from qck.qkit import qbinomial
            assert lhs.substitute({"x": 0}) == qbinomial(n + m, n)


def test_product_x_identity_small():
    for m in range(4):
        for n in range(4):
            assert product_x_identity(m, n).passed


def test_verify_relations():
    for m in range(5):
        for n in range(5):
            assert verify_relations(m, n).passed


def test_build_table():
    table = build_table("plain", 3, 3)
    assert table.cell(2, 2) == 13
    assert table.cell(0, 3) == 1
    dq_table = build_table("dq", 2, 2)
    assert dq_table.cell(1, 1) == 2 + q
    with pytest.raises(ValueError):
        build_table("nope", 2, 2)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        delannoy(-1, 2)
