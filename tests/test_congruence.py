"""Congruence tests with division oracles."""

import hashlib
import inspect
import random
import sys
import time
from fractions import Fraction

import pytest

from qck import cli, congruence, qkit, suites
from qck import delannoy as delannoy_module
from qck.congruence import (congruence_witness, minus_q_pochhammer_witness,
                            nonneg_divisibility_fact, thm2_case, thm2_lhs, thm2_target,
                            thm2_witness, verify_minus_q_pochhammer, verify_qidentity,
                            verify_thm2)
from qck.delannoy import _dq_sum, delannoy, dq, dq_inverse_base
from qck.exactalg import MultiLaurentPoly as P, divrem_in_q, exact_div
from qck.qkit import bracket, one_minus_q, poch_prefixes, qbinomial
from qck.suites import suite_cases

q = P.var("q")


def test_modulus_construction():
    assert bracket(3) == 1 + q + q ** 2
    square = bracket(3) * bracket(3)
    assert congruence_witness(square, P.zero(), 3, square=True).is_zero()
    assert congruence_witness(bracket(3), P.zero(), 3, square=True) == bracket(3)


def test_modulus_rejects_non_prime():
    for p in (9, 2, 10 ** 5 + 3):
        for witness in (lambda: thm2_witness(p, 1), lambda: minus_q_pochhammer_witness(p)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="not an odd prime"):
                witness()
            assert time.perf_counter() - start < 0.5, p


def test_grid_runs_every_odd_prime_up_to_pmax():
    cases = suite_cases("congruence", {"pmax": 17, "mmax": 1})
    assert [c[1]["p"] for c in cases if c[0] == "thm2"] == [3, 5, 7, 11, 13, 17]
    assert ("minus_q_pochhammer", {"p": 17}) in cases


def test_congruence_oracle_cases():
    # q^3 - q = q(q-1)(q+1); [3] does not divide it
    assert not congruence_witness(q ** 3, q, 3).is_zero()
    # q^3 - 1 = (q - 1)(1 + q + q^2)
    assert congruence_witness(q ** 3, P.const(1), 3).is_zero()
    assert congruence_witness(q, q, 3).is_zero()


@pytest.mark.parametrize("p", [3, 5, 13])
def test_square_witness_is_the_remainder_modulo_the_squared_bracket(p):
    # the witness reduces by (q^p - 1)^2 first; the remainder is the one modulo [p]^2
    signs = [(-1) ** (e * e // 3) * (e % 7 + 1) for e in range(90)]
    for u in (thm2_lhs(p, 4), P.var("q", -3) * (1 + q) ** 9,
              sum((P.monomial(c, {"q": e}) for e, c in enumerate(signs)), P.zero())):
        cleared = u * P.var("q", max(0, -u.degree_range("q")[0]))
        assert congruence_witness(u, P.zero(), p, square=True) \
            == divrem_in_q(cleared, bracket(p) ** 2)[1]


def test_congruence_laurent_clearing():
    # q^{-1} == q^2 mod [3] because q^{-1}(1 - q^3) is divisible by [3]
    assert congruence_witness(P.var("q", -1), q ** 2, 3).is_zero()


def test_congruence_rejects_non_integer_univariate_input():
    with pytest.raises(ValueError, match="univariate"):
        congruence_witness(q * P.var("x"), q, 3)
    with pytest.raises(TypeError, match="not an integer"):  # a rational input cannot be built
        P.monomial(Fraction(1, 2), {"q": -1})


def test_congruence_unit_invariance():
    u = 1 + 3 * q ** 2
    v = q ** 5 + 3 * q ** 2
    for j in (-2, 0, 1, 3):
        shift = P.monomial(1, {"q": j})
        assert (congruence_witness(u * shift, v * shift, 5).is_zero()
                == congruence_witness(u, v, 5).is_zero())


def test_congruence_equivalence_relation_sample():
    xs = [P.const(1), q ** 3, q ** 6, q, 1 + q]
    for u in xs:
        assert congruence_witness(u, u, 3).is_zero()
        for v in xs:
            assert (congruence_witness(u, v, 3).is_zero()
                    == congruence_witness(v, u, 3).is_zero())
    for u in xs:
        for v in xs:
            for w in xs:
                if (congruence_witness(u, v, 3).is_zero()
                        and congruence_witness(v, w, 3).is_zero()):
                    assert congruence_witness(u, w, 3).is_zero()


def test_congruence_rejects_extra_variables():
    with pytest.raises(ValueError):
        congruence_witness(P.var("a"), P.zero(), 3)


def test_minus_q_pochhammer():
    # p = 3 oracle: (1+q)(1+q^2) - 1 = q + q^2 + q^3 = q [3]
    assert verify_minus_q_pochhammer(3).passed
    assert verify_minus_q_pochhammer(5).passed
    assert verify_minus_q_pochhammer(7).passed


def test_qidentity_single_term():
    assert verify_qidentity(1, 0).passed


def test_qidentity_examples():
    assert verify_qidentity(3, 1).passed
    assert verify_qidentity(5, 4).passed
    with pytest.raises(ValueError):
        verify_qidentity(3, 3)


def test_thm2_lhs_q1_oracle():
    # at q = 1 the sum is sum_k (2k+1) D(m,k)^2; for p=3, m=1: 1 + 27 + 125 = 153
    expected = sum((2 * k + 1) * delannoy(1, k) ** 2 for k in range(3))
    assert expected == 153
    # thm2_lhs is the sum cleared by 1 - q
    assert exact_div(thm2_lhs(3, 1), one_minus_q(1)).substitute({"q": 1}) == 153


def test_thm2_lhs_routes_agree_small():
    for p in (3, 5):
        for m in range(1, 6):
            thm2_lhs(p, m)  # raises Thm2MismatchError on route disagreement


def test_thm2_lhs_does_not_depend_on_the_order_of_its_calls():
    # each m keeps one row of sums; a shuffled order must give what a cold start gives
    pairs = [(p, m) for p in (1, 2, 3, 5, 7) for m in range(1, 7)]
    random.Random(1).shuffle(pairs)
    warm = [thm2_lhs(p, m) for p, m in pairs]
    cold = []
    for p, m in pairs:
        for table in (delannoy_module._m_row, congruence._single_sum_factor, dq, dq_inverse_base,
                      qbinomial):
            table.cache_clear()
        cold.append(thm2_lhs(p, m))
    assert warm == cold


def test_thm2_case_selection():
    assert thm2_case(3, 3) == "zero"
    assert thm2_case(3, 2) == "minus_one"
    assert thm2_case(3, 1) == "other"
    assert thm2_case(7, 13) == "minus_one"


def test_thm2_target_materialization():
    # the closed form times 1 - q, as thm2_lhs is cleared
    # m = 3, p = 3: q(1 - q^-6)/(1 + q) = -q^-5(1 - q^6)/(1 + q) = -q^-5 + q^-4 - ... + 1
    target = thm2_target(3, 3)
    assert target == sum((P.monomial((-1) ** (e % 2), {"q": e}) for e in range(-5, 1)), P.zero())
    assert target == -(1 - q) * (P.var("q", -5) + P.var("q", -3) + P.var("q", -1))
    # m = 2, p = 3: q(1 - q^6)/(1 + q) = q - q^2 + q^3 - q^4 + q^5 - q^6
    target = thm2_target(3, 2)
    assert target == q - q ** 2 + q ** 3 - q ** 4 + q ** 5 - q ** 6
    assert target == (1 - q) * (q + q ** 3 + q ** 5)
    assert thm2_target(3, 1).is_zero()


def test_thm2_all_three_cases():
    assert verify_thm2(3, 1).passed   # other
    assert verify_thm2(5, 5).passed   # zero
    assert verify_thm2(7, 6).passed   # minus_one
    with pytest.raises(ValueError):
        verify_thm2(3, 0)
    with pytest.raises(ValueError):
        verify_thm2(9, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_cleared_check_neither_hides_nor_invents_a_failure(monkeypatch, p):
    # thm2 is checked times the factor thm2_lhs carries over the displayed [2k+1] sum; a
    # target off by [p] q (a multiple of [p], not of [p]^2) must fail, one off by [p]^2 pass
    right = congruence.thm2_target
    for m in (p, p - 1, 1):  # the 'zero', 'minus_one' and 'other' cases
        shown = sum((bracket(2 * k + 1) * dq(m, k) * dq_inverse_base(m, k) * P.var("q", -k)
                     for k in range(p)), P.zero())
        clearing = exact_div(thm2_lhs(p, m), shown)
        for delta, passes in ((bracket(p) * q, False), (bracket(p) ** 2, True)):
            monkeypatch.setattr(congruence, "thm2_target",
                                lambda p, m, d=clearing * delta: right(p, m) + d)
            assert thm2_witness(p, m).is_zero() is passes, (m, delta)
            assert verify_thm2(p, m).passed is passes, (m, delta)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_thm2_sum_is_affine_in_the_multiple_of_p(p):
    """The premise that proves Theorem 2 for every m from the cases m <= 2p.

    Write m = b + a*p.  Modulo [p]^2, q^p = 1 + u with u = (q-1)[p] and u^2 = 0,
    so z^e = q^{e m} = q^{e b} (1 + e a u).  The sum runs over k < p whatever m
    is, and m enters it through z = q^m alone, so its residue is affine in a,
    and so is the witness: two values of a fix it for every a.  So the second
    difference in a vanishes modulo [p]^2 at every residue b (b = 0 from m = p).
    A term q^{m^2}, quadratic in a, leaves 2p q^{b^2} u there, which is not 0.
    """
    def second_difference(values):
        return values[0] - 2 * values[1] + values[2]

    for b in range(p):
        ms = [(b or p) + a * p for a in range(3)]
        lhs = [thm2_lhs(p, m) for m in ms]
        assert congruence_witness(second_difference(lhs), P.zero(), p, square=True) == 0, b
        mutant = [value + q ** (m * m) for value, m in zip(lhs, ms)]
        assert congruence_witness(second_difference(mutant), P.zero(), p, square=True) != 0, b


def test_congruence_witness_nonzero_on_failure():
    w = congruence_witness(q, P.const(1), 3)
    assert not w.is_zero()


def test_nonneg_divisibility_fact_grid():
    for p in (3, 5, 7):
        for j in range(p):
            for m in range(1, 2 * p + 1):
                assert nonneg_divisibility_fact(p, j, m), (p, j, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_single_sum_factors_match_the_inline_expressions(p):
    w1 = poch_prefixes(P.const(-1), p - 1)
    w2 = poch_prefixes(P.monomial(-1, {"q": 1}), p - 1)
    for j in range(p):
        num = one_minus_q(p) * one_minus_q(p - j) * qbinomial(p + j, 2 * j)
        assert congruence._single_sum_factor(p, j) == \
            exact_div(num, one_minus_q(j + 1)) * w1[j] * w2[j]


# sha256 of `qck verify --suite congruence --pmax 13 --mmax 39 --format json`
_CONGRUENCE_GRID_DIGEST = "907c7f883915a66e1a751bbff9c1bc9c5d33a20b4e32cb300ffcdc1ad2eb821e"


def test_cleared_caches_leave_the_congruence_grid_report_unchanged(capsys):
    argv = ["verify", "--suite", "congruence", "--pmax", "13", "--mmax", "39", "--format", "json"]
    congruence._single_sum_factor.cache_clear()
    delannoy_module._m_row.cache_clear()
    for _ in ("cold", "warm"):
        assert cli.main(argv) == 0
        report = capsys.readouterr().out
        assert hashlib.sha256(report.encode()).hexdigest() == _CONGRUENCE_GRID_DIGEST


def test_the_sum_rows_keep_no_mirror_table():
    # a row mirrors each of its D_q(m,k) as it multiplies it, and owns its D_q table: a grid
    # of thm2 and thm3 cases leaves the D_{1/q} and D_q caches empty and holds two rows
    cases = [case for case in suite_cases("congruence", {"pmax": 13, "mmax": 39})
             if case[0] == "thm2"] + list(suites.thm3_cases(6, 6, 3))
    for table in (delannoy_module._m_row, congruence._single_sum_factor, dq, dq_inverse_base):
        table.cache_clear()
    records = suites.run_cases(cases)
    assert len(records) == len(cases) and all(record["passed"] for record in records)
    assert dq_inverse_base.cache_info().currsize == 0
    assert dq.cache_info().currsize == 0
    assert len(delannoy_module._ROWS) <= 2


def test_rows_match_the_caches_they_replace():
    # each row from cold, then the cells m-major and shuffled: every entry equals D_q(m,k) by
    # its defining sum, and [m;k] and [m+k;k] as the cached q-Pascal table builds them
    cells = [(m, k) for m in range(21) for k in range(14)]

    def check(m, k, row):
        assert row.dq[k] == _dq_sum(m, k, P.const(1)), (m, k)
        assert (row.binom[k], row.binom_up[k]) == (qbinomial(m, k), qbinomial(m + k, k)), (m, k)
        assert len(delannoy_module._ROWS) <= 2

    for m in range(21):
        delannoy_module._m_row.cache_clear()
        row = delannoy_module._m_row(m, 14)
        for k in range(14):
            check(m, k, row)
    for order in (cells, random.Random(3).sample(cells, len(cells))):
        delannoy_module._m_row.cache_clear()
        for m, k in order:
            check(m, k, delannoy_module._m_row(m, k + 1))


def test_a_cold_row_needs_no_deep_recursion():
    # a row is stepped up from row 0 in a loop, not by one call per m
    delannoy_module._m_row.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        lhs = thm2_lhs(3, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert lhs == congruence._thm2_lhs_single_sum(3, 300)
    assert exact_div(lhs, one_minus_q(1)).substitute({"q": 1}) == \
        sum((2 * k + 1) * delannoy(300, k) ** 2 for k in range(3))


def test_running_sums_add_no_term_at_a_time(monkeypatch):
    # D_q, D*_q and both routes of the thm2 sum accumulate in sum_of_products, not by +
    p, m, n = 7, 5, 4
    want_dq_star = sum((qbinomial(n, k) * qbinomial(n + m - k, n) * q ** (k * (k + 1) // 2)
                        for k in range(n + 1)), P.zero())
    want_thm2 = thm2_lhs(p, m)
    # 1 - q^e is built with -, that is with +: the factors of the sum are built before + goes
    factors = {e: one_minus_q(e) for e in range(2 * p)}
    monkeypatch.setattr(qkit, "one_minus_q", factors.__getitem__)

    def one_term_at_a_time(*args):
        raise AssertionError("a running sum added one term at a time")
    monkeypatch.setattr(P, "__add__", one_term_at_a_time)
    monkeypatch.setattr(P, "__radd__", one_term_at_a_time)
    assert _dq_sum(m, n, q) == want_dq_star
    assert thm2_lhs(p, m) == want_thm2  # the direct route, qkit.odd_sum, against the other
    assert congruence._thm2_lhs_single_sum(p, m) == want_thm2
