"""Delannoy tests against lattice-path oracles."""

import inspect
import sys
from functools import lru_cache

import pytest

from qck import congruence, qkit
from qck import delannoy as delannoy_module
from qck.congruence import Thm2MismatchError, thm2_witness
from qck.delannoy import (_alt_sum, _dq_sum, build_table, delannoy, dq, dq_alt,
                          dq_inverse_base, dq_star, dq_star_alt, product_expansion,
                          product_expansion_rhs, product_x_identity, verify_relations)
from qck.exactalg import MultiLaurentPoly as P, is_nonneg_integer_laurent
from qck.qkit import ParamExpr, lattice_step, qbinomial

q = P.var("q")
x = P.var("x")


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
    # the (x;q)_k form of D_q: the D_q sum with weight -x
    for m in range(5):
        for n in range(5):
            assert _alt_sum(m, n, x) == _dq_sum(m, n, -x), (m, n)


def test_general_x_specializations():
    for m in range(5):
        for n in range(5):
            lhs = _alt_sum(m, n, x)
            assert lhs.substitute({"x": -1}) == dq(m, n)
            assert lhs.substitute({"x": ParamExpr.of(-1, {"q": 1})}) == dq_star(n, m)
            # x -> 0 collapses the alternating side to a single binomial
            assert lhs.substitute({"x": 0}) == qbinomial(n + m, n)


def test_product_x_identity_small():
    for m in range(4):
        for n in range(4):
            assert product_x_identity(m, n).passed


def test_product_x_row_checks_the_x_form(monkeypatch):
    # a D_q sum at weight -x that is off by x fails the row with exactly that difference
    orig = delannoy_module._dq_sum

    def perturbed(m, n, w):
        return orig(m, n, w) + x if w == -x else orig(m, n, w)
    monkeypatch.setattr(delannoy_module, "_dq_sum", perturbed)
    report = product_x_identity(2, 2)
    assert not report.passed
    assert report.difference == -x


def test_verify_relations():
    for m in range(5):
        for n in range(5):
            assert verify_relations(m, n).passed


def test_build_table():
    rows = build_table("plain", 3, 3)
    assert len(rows) == 4 and all(len(row) == 4 for row in rows)
    assert rows[2][2] == 13
    assert rows[0][3] == 1
    dq_rows = build_table("dq", 2, 1)
    assert dq_rows[1][1] == 2 + q
    assert len(dq_rows) == 3 and len(dq_rows[2]) == 2
    with pytest.raises(ValueError):
        build_table("nope", 2, 2)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        delannoy(-1, 2)


def test_recurrences_match_the_defining_sums():
    # D_q by its recurrence against the defining sum, and D_{1/q} against that sum at q -> 1/q
    one = P.const(1)
    for m in range(21):
        for n in range(14):
            want = _dq_sum(m, n, one)
            assert dq(m, n) == want, (m, n)
            assert dq_inverse_base(m, n) == want.substitute({"q": q ** -1}), (m, n)


def test_cold_corner_needs_no_deep_recursion():
    # plain recursion from (700, 2) would nest about 700 calls deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        d, d_inv = dq(700, 2), dq_inverse_base(700, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert d.substitute({"q": 1}) == delannoy(700, 2)
    assert d_inv == d.substitute({"q": q ** -1})


def _clear_tables():
    for table in (dq, dq_star, dq_inverse_base, qbinomial, congruence._single_sum_factor,
                  congruence._m_row):
        table.cache_clear()


def _assert_caught(monkeypatch, mutant):
    """A mutant of the one lattice step fails delannoy_relations and splits thm2's routes."""
    _clear_tables()
    bindings = [module for name, module in sys.modules.items()  # ``lattice``'s and the rows'
                if name.split(".")[0] == "qck"
                and vars(module).get("lattice_step") is lattice_step]
    assert {qkit, congruence} <= set(bindings)
    for module in bindings:
        monkeypatch.setattr(module, "lattice_step", mutant)
    try:
        assert not verify_relations(2, 2).passed
        with pytest.raises(Thm2MismatchError):
            thm2_witness(3, 2)
    finally:
        monkeypatch.undo()
        _clear_tables()
    assert verify_relations(2, 2).passed


def test_a_wrong_power_in_the_recurrence_is_caught(monkeypatch):
    def mutant(i, up, left, corner=None):  # q^{i+1} where the step has q^i
        out = up + q ** (i + 1) * left
        return out if corner is None else out + q ** (i - 1) * corner
    _assert_caught(monkeypatch, mutant)


def test_a_missing_diagonal_step_is_caught(monkeypatch):
    _assert_caught(monkeypatch, lambda i, up, left, corner=None: lattice_step(i, up, left))


def test_the_inverse_base_is_the_mirror_image():
    for m in range(13):
        for n in range(13):
            assert dq_inverse_base(m, n) == dq(m, n).substitute({"q": q ** -1}), (m, n)
