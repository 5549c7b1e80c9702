"""Positivity-certificate tests."""

from fractions import Fraction

import pytest

from qck import positivity
from qck.delannoy import delannoy, dq, dq_inverse_base
from qck.exactalg import MultiLaurentPoly as P, exact_div, is_nonneg_integer_laurent
from qck.positivity import (lemma41_generic, linearize_power, s_n, s_n_symbolic,
                            sn_basis, structure_constant, thm3_poly1,
                            thm3_poly2, thm3_poly3,
                            verify_alternating_sum, verify_schmidt, verify_thm3,
                            xk_weights)

q = P.var("q")


def test_schmidt_collapse_at_i0():
    for k in range(4):
        for j in range(k + 1):
            assert verify_schmidt(k, 0, j).passed


def test_schmidt_examples():
    assert verify_schmidt(2, 1, 1).passed
    assert verify_schmidt(5, 2, 3).passed
    with pytest.raises(ValueError):
        verify_schmidt(2, 3, 1)


def test_sn_base_cases():
    assert s_n([1], 0) == P.const(1)
    # only x_0 nonzero -> the k = 0 basis element, which is 1
    assert s_n([1, 0, 0], 2) == P.const(1)
    # [2;2][2;1] q^{-1} = (1+q) q^{-1}, so s_1(1,1) = 1 + q^{-1} + 1
    assert s_n([1, 1], 1) == 2 + P.var("q", -1)
    with pytest.raises(ValueError):
        s_n([1, 1], 2)


def test_sn_symbolic_linearity():
    v = s_n_symbolic(2)
    groups = v.coefficients_by(("x0", "x1", "x2"))
    assert groups[(("x0", 1),)] == P.const(1)
    assert set(groups) == {(("x0", 1),), (("x1", 1),), (("x2", 1),)}


def test_sn_basis_element():
    assert sn_basis(2, 1) == (1 + q + q ** 2) * (1 + q) * P.monomial(1, {"q": -2})
    with pytest.raises(ValueError):
        sn_basis(1, 2)


def test_structure_constants_nonneg():
    for i in range(6):
        for j in range(6):
            for s in range(i, i + j + 1):
                assert is_nonneg_integer_laurent(structure_constant(i, j, s))


def test_linearize_power_matches_direct_product():
    # expanding prod B_{i_l}(k) through repeated linearization agrees with the
    # direct product for sample k
    for indices, k in (((1, 1), 3), ((2, 1), 4), ((1, 2, 2), 5)):
        direct = P.const(1)
        for i in indices:
            direct = direct * sn_basis(k, i)
        expansion = linearize_power(indices)
        rebuilt = P.zero()
        for s, constant in expansion.items():
            rebuilt = rebuilt + constant * sn_basis(k, s)
        assert direct == rebuilt


def test_linearize_power_constants_nonneg():
    for indices in ((1, 1), (2, 3), (1, 2, 1)):
        for constant in linearize_power(indices).values():
            assert is_nonneg_integer_laurent(constant)


def test_sn_power_via_linearization():
    # S_k(x)^r expanded monomial-by-monomial through the linearization table
    k, r = 2, 2
    direct = s_n_symbolic(k) ** r
    xs = [f"x{i}" for i in range(k + 1)]
    rebuilt = P.zero()
    for i1 in range(k + 1):
        for i2 in range(k + 1):
            mono = P.var(xs[i1]) * P.var(xs[i2])
            for s, constant in linearize_power((i1, i2)).items():
                if s > k:
                    continue  # [k+s; 2s] vanishes there
                rebuilt = rebuilt + constant * sn_basis(k, s) * mono
    assert direct == rebuilt


def test_thm3_poly1_hand_case():
    assert thm3_poly1(1, 1) == P.const(1)


def test_thm3_poly1_routes_agree():
    # the displayed sum, computed inline, against the family built on thm2_lhs
    for m in range(1, 5):
        for n in range(1, 5):
            total = P.zero()
            for k in range(n):
                total = total + (1 - q ** (2 * k + 1)) * dq(m, k) * dq_inverse_base(m, k) \
                    * P.monomial(1, {"q": -k})
            num = total * (1 - q ** m) * (1 - q ** (m + 1))
            direct = exact_div(num, (1 - q ** 2) * (1 - q ** n) ** 2)
            assert thm3_poly1(m, n) == direct, (m, n)


def test_thm3_poly1_q1_oracle():
    # at q = 1 the value is m(m+1)/(2 n^2) sum_{k<n} (2k+1) D(m,k)^2, an integer
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum((2 * k + 1) * delannoy(m, k) ** 2 for k in range(n))
            expected = m * (m + 1) * total
            assert expected % (2 * n * n) == 0
            value = thm3_poly1(m, n).substitute({"q": 1})
            assert value == expected // (2 * n * n)


def test_thm3_poly23_hand_cases():
    assert thm3_poly2(1, 1, 1) == P.const(1)
    assert thm3_poly3(1, 1, 1) == P.const(1)


def test_thm3_poly2_q1_oracle():
    # at q = 1: (1/n) sum_{k<n} (2k+1) D(m,k)^2, an integer
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum((2 * k + 1) * delannoy(m, k) ** 2 for k in range(n))
            assert total % n == 0
            assert thm3_poly2(m, n, 1).substitute({"q": 1}) == total // n


def test_thm3_nonneg_small():
    for m in range(1, 4):
        for n in range(1, 4):
            assert is_nonneg_integer_laurent(thm3_poly1(m, n))
            for r in (1, 2):
                assert is_nonneg_integer_laurent(thm3_poly2(m, n, r))
                assert is_nonneg_integer_laurent(thm3_poly3(m, n, r))


def test_thm3_record_shape():
    rec = verify_thm3("thm3-2", 2, 3, 1).to_dict()
    assert rec == {"name": "thm3-2", "params": {"m": 2, "n": 3, "r": 1},
                   "free_vars": ["q"], "passed": True, "difference": "0"}
    assert verify_thm3("thm3-3", 2, 2, 2).passed
    with pytest.raises(ValueError):
        verify_thm3("thm3-9", 1, 1)


def test_thm3_difference_is_the_violating_terms(monkeypatch):
    half = P.const(Fraction(1, 2))
    quotient = 2 - 3 * q + half * q ** 2 + q ** 3
    parts = {"thm3-2": lambda m, n, r: (quotient * (1 - q), 1 - q)}
    monkeypatch.setattr(positivity, "_CLAIM_PARTS", parts)
    report = verify_thm3("thm3-2", 1, 1, 1)
    assert not report.passed
    assert report.difference == -3 * q + half * q ** 2
    parts["thm3-2"] = lambda m, n, r: (1 + q, 1 - q)  # not divisible
    assert verify_thm3("thm3-2", 1, 1, 1).difference == P.const(1)


def test_alternating_sum_base():
    # (n,s) = (1,0): lhs = (1-q), rhs = (1-q)
    assert verify_alternating_sum(1, 0).passed


def test_alternating_sum_examples():
    assert verify_alternating_sum(4, 2).passed
    assert verify_alternating_sum(5, 0).passed
    with pytest.raises(ValueError):
        verify_alternating_sum(3, 3)


def test_xk_weights_base():
    assert xk_weights(1, 0) == P.const(1)
    # [2;2] (-1;q)_1 (-q;q)_1 q^0 = 2 (1 + q)
    assert xk_weights(1, 1) == 2 + 2 * q


def test_xk_weights_product_identity():
    # sum_k [n+k;2k][2k;k] q^{-nk} x_k(m) = D_q(m,n) D_{1/q}(m,n)
    for m in range(1, 7):
        for n in range(1, 7):
            values = [xk_weights(m, k) for k in range(n + 1)]
            assert s_n(values, n) == dq(m, n) * dq_inverse_base(m, n), (m, n)


def test_xk_weights_nonneg():
    for m in range(1, 6):
        for k in range(5):
            assert is_nonneg_integer_laurent(xk_weights(m, k))


def test_lemma41_coefficient_of_x0():
    # n = r = 1: single k = 0 term, coefficient of x0 is (1-q)/(1-q) = 1
    report = lemma41_generic(1, 1)
    assert report.passed
    from qck.exactalg import exact_div
    one_minus_q = P.const(1) - q
    # both displays collapse to (1-q) x0 at n = r = 1
    quotient = exact_div(one_minus_q * P.var("x0"), one_minus_q)
    assert quotient.coefficients_by(("x0",))[(("x0", 1),)] == P.const(1)


def test_lemma41_difference_is_the_violating_terms(monkeypatch):
    # n = r = 1 with x0 (1 - q) in place of s_0: both quotients are x0 (1 - q)
    monkeypatch.setattr(positivity, "s_n_symbolic", lambda k: P.var(f"x{k}") * (1 - q))
    assert lemma41_generic(1, 1).difference == -2 * q * P.var("x0")


def test_lemma41_small_grid():
    for n in (2, 3):
        for r in (1, 2):
            assert lemma41_generic(n, r).passed
