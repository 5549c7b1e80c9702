"""Positivity-certificate tests."""

import random

import pytest

from qck import delannoy as delannoy_module
from qck import positivity
from qck.delannoy import delannoy, dq, dq_inverse_base
from qck.exactalg import MultiLaurentPoly as P, exact_div, is_nonneg_integer_laurent
from qck.positivity import (lemma41_generic, s_n_symbolic, verify_alternating_sum,
                            verify_schmidt, verify_thm3)
from qck.qkit import poch_prefixes, qbinomial
from qck.suites import run_case

q = P.var("q")


def _quotient(claim, m, n, r=1):
    """The claim's polynomial: its numerator exact-divided by its divisor."""
    return exact_div(*positivity._CLAIM_PARTS[claim](m, n, r))


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
    assert s_n_symbolic(0).substitute({"x0": 1}) == P.const(1)
    # only x_0 nonzero -> the k = 0 basis element, which is 1
    assert s_n_symbolic(2).substitute({"x0": 1, "x1": 0, "x2": 0}) == P.const(1)
    # [2;2][2;1] q^{-1} = (1+q) q^{-1}, so s_1(1,1) = 1 + q^{-1} + 1
    assert s_n_symbolic(1).substitute({"x0": 1, "x1": 1}) == 2 + P.var("q", -1)


def _basis(n):
    """The weight of each x_k in s_n: s_n with x_k = 1 and every other weight 0."""
    xs = [f"x{k}" for k in range(n + 1)]
    return [s_n_symbolic(n).substitute({x: int(x == xk) for x in xs}) for xk in xs]


def test_sn_symbolic_linearity():
    v = s_n_symbolic(2)
    xs = ("x0", "x1", "x2")
    assert v.variables() == ("q",) + xs
    # every term carries exactly one weight, to the first power
    assert all([e for name, e in powers.items() if name in xs] == [1]
               for powers, _ in v.sorted_terms())
    assert _basis(2)[0] == P.const(1)


def test_sn_basis_element():
    # the weight of x1 in s_2 is B_1(2) = [3;2][2;1] q^{-2}
    assert _basis(2)[1] == (1 + q + q ** 2) * (1 + q) * P.monomial(1, {"q": -2})


def test_thm3_poly1_hand_case():
    assert _quotient("thm3-1", 1, 1) == P.const(1)


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
            assert _quotient("thm3-1", m, n) == direct, (m, n)


def test_thm3_poly1_q1_oracle():
    # at q = 1 the value is m(m+1)/(2 n^2) sum_{k<n} (2k+1) D(m,k)^2, an integer
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum((2 * k + 1) * delannoy(m, k) ** 2 for k in range(n))
            expected = m * (m + 1) * total
            assert expected % (2 * n * n) == 0
            value = _quotient("thm3-1", m, n).substitute({"q": 1})
            assert value == expected // (2 * n * n)


def test_thm3_poly23_hand_cases():
    assert _quotient("thm3-2", 1, 1, 1) == P.const(1)
    assert _quotient("thm3-3", 1, 1, 1) == P.const(1)


def test_thm3_poly2_q1_oracle():
    # at q = 1: (1/n) sum_{k<n} (2k+1) D(m,k)^2, an integer
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum((2 * k + 1) * delannoy(m, k) ** 2 for k in range(n))
            assert total % n == 0
            assert _quotient("thm3-2", m, n, 1).substitute({"q": 1}) == total // n


def test_thm3_nonneg_small():
    for m in range(1, 4):
        for n in range(1, 4):
            assert is_nonneg_integer_laurent(_quotient("thm3-1", m, n))
            for r in (1, 2):
                assert is_nonneg_integer_laurent(_quotient("thm3-2", m, n, r))
                assert is_nonneg_integer_laurent(_quotient("thm3-3", m, n, r))


def _inline_odd_sum(m, n, r, alternating):
    """The displayed sum, one + at a time: sum_{k<n} (1-q^{2k+1}) (D_q D_{1/q})^r w_k."""
    total = P.zero()
    for k in range(n):
        weight = P.monomial((-1) ** (n - k - 1), {"q": k * (k - 1) // 2}) if alternating \
            else P.monomial(1, {"q": -k})
        total = total + (1 - q ** (2 * k + 1)) * (dq(m, k) * dq_inverse_base(m, k)) ** r * weight
    return total


def test_thm3_23_numerators_are_the_displayed_sums():
    # every (r, weight) row at m, extended in two shuffled orders, each from empty rows
    cells = [(claim, m, n, r) for claim in ("thm3-2", "thm3-3") for m in range(1, 6)
             for n in range(1, 6) for r in range(1, 4)]
    want = {cell: _inline_odd_sum(*cell[1:], cell[0] == "thm3-3") for cell in cells}
    for seed in (1, 2):
        delannoy_module._m_row.cache_clear()
        random.Random(seed).shuffle(cells)
        for claim, m, n, r in cells:
            num, den = positivity._CLAIM_PARTS[claim](m, n, r)
            assert (num, den) == (want[claim, m, n, r], 1 - q ** n), (claim, m, n, r)


@pytest.mark.parametrize("claim", ["thm3-1", "thm3-2", "thm3-3"])
def test_thm3_zero_parameter_is_a_case_error(claim):
    # with r copies of each factor, r = 0 would build a non-vacuous sum of the wrong claim
    params = {"m": 1, "n": 1} if claim == "thm3-1" else {"m": 1, "n": 1, "r": 1}
    for key in params:
        record = run_case((claim, dict(params, **{key: 0})))
        assert record.get("error") == "ValueError: need m, n, r >= 1", (claim, key)


def test_thm3_record_shape():
    rec = verify_thm3("thm3-2", 2, 3, 1).to_dict()
    assert rec == {"name": "thm3-2", "params": {"m": 2, "n": 3, "r": 1},
                   "free_vars": ["q"], "passed": True, "difference": "0"}
    assert verify_thm3("thm3-3", 2, 2, 2).passed
    with pytest.raises(ValueError):
        verify_thm3("thm3-9", 1, 1)


def test_thm3_difference_is_the_violating_terms(monkeypatch):
    quotient = 2 - 3 * q - 5 * q ** 2 + q ** 3
    parts = {"thm3-2": lambda m, n, r: (quotient * (1 - q), 1 - q)}
    monkeypatch.setattr(positivity, "_CLAIM_PARTS", parts)
    report = verify_thm3("thm3-2", 1, 1, 1)
    assert not report.passed
    assert report.difference == -3 * q - 5 * q ** 2
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


def test_xk_weights_product_identity():
    # sum_k [n+k;2k][2k;k] q^{-nk} x_k(m) = D_q(m,n) D_{1/q}(m,n) for the Delannoy
    # weights x_k(m) = [m+k;2k] (-1;q)_k (-q;q)_k q^{k^2 - mk}
    for n in range(1, 7):
        basis = _basis(n)
        w1, w2 = poch_prefixes(P.const(-1), n), poch_prefixes(-q, n)
        for m in range(1, 7):
            total = P.zero()
            for k in range(n + 1):
                weight = qbinomial(m + k, 2 * k) * w1[k] * w2[k] * P.var("q", k * k - m * k)
                total = total + basis[k] * weight
            assert total == dq(m, n) * dq_inverse_base(m, n), (m, n)


def test_lemma41_coefficient_of_x0():
    # n = r = 1: single k = 0 term, coefficient of x0 is (1-q)/(1-q) = 1
    report = lemma41_generic(1, 1)
    assert report.passed
    # both displays collapse to (1-q) x0 at n = r = 1
    assert exact_div((1 - q) * P.var("x0"), 1 - q) == P.var("x0")


def test_lemma41_difference_is_the_violating_terms(monkeypatch):
    # n = r = 1 with x0 (1 - q) in place of s_0: both quotients are x0 (1 - q)
    monkeypatch.setattr(positivity, "s_n_symbolic", lambda k: P.var(f"x{k}") * (1 - q))
    assert lemma41_generic(1, 1).difference == -2 * q * P.var("x0")


def test_lemma41_small_grid():
    for n in (2, 3):
        for r in (1, 2):
            assert lemma41_generic(n, r).passed
