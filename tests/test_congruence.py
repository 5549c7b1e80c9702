"""Congruence tests with division oracles."""

from fractions import Fraction

import pytest

from qck.congruence import (BracketModulus, Thm2MismatchError, congruence_witness,
                            nonneg_divisibility_fact, thm2_case, thm2_lhs,
                            thm2_target, verify_minus_q_pochhammer,
                            verify_qidentity, verify_thm2)
from qck.delannoy import delannoy
from qck.exactalg import MultiLaurentPoly as P

q = P.var("q")


def test_modulus_construction():
    mod = BracketModulus.of(3)
    assert mod.bracket == 1 + q + q ** 2
    assert mod.bracket_sq == mod.bracket * mod.bracket
    # the witness proves q is a unit modulo [p]^2
    assert q * mod.q_unit_witness + mod.bracket_sq == P.const(1)


def test_modulus_rejects_non_prime():
    with pytest.raises(ValueError):
        BracketModulus.of(9)
    with pytest.raises(ValueError):
        BracketModulus.of(2)
    with pytest.raises(ValueError):
        BracketModulus.of(10 ** 5 + 3)


def test_congruence_oracle_cases():
    mod = BracketModulus.of(3)
    # q^3 - q = q(q-1)(q+1); [3] does not divide it
    assert not congruence_witness(q ** 3, q, mod).is_zero()
    # q^3 - 1 = (q - 1)(1 + q + q^2)
    assert congruence_witness(q ** 3, P.const(1), mod).is_zero()
    assert congruence_witness(q, q, mod).is_zero()


def test_congruence_laurent_clearing():
    mod = BracketModulus.of(3)
    # q^{-1} == q^2 mod [3] because q^{-1}(1 - q^3) is divisible by [3]
    assert congruence_witness(P.var("q", -1), q ** 2, mod).is_zero()


def test_congruence_rejects_non_integer_univariate_input():
    mod = BracketModulus.of(3)
    with pytest.raises(ValueError, match="univariate"):
        congruence_witness(q * P.var("x"), q, mod)
    with pytest.raises(ValueError, match="integer coefficients"):
        congruence_witness(P.monomial(Fraction(1, 2), {"q": -1}), q, mod)


def test_congruence_unit_invariance():
    mod = BracketModulus.of(5)
    u = 1 + 3 * q ** 2
    v = q ** 5 + 3 * q ** 2
    for j in (-2, 0, 1, 3):
        shift = P.monomial(1, {"q": j})
        assert (congruence_witness(u * shift, v * shift, mod).is_zero()
                == congruence_witness(u, v, mod).is_zero())


def test_congruence_equivalence_relation_sample():
    mod = BracketModulus.of(3)
    xs = [P.const(1), q ** 3, q ** 6, q, 1 + q]
    for u in xs:
        assert congruence_witness(u, u, mod).is_zero()
        for v in xs:
            assert (congruence_witness(u, v, mod).is_zero()
                    == congruence_witness(v, u, mod).is_zero())
    for u in xs:
        for v in xs:
            for w in xs:
                if (congruence_witness(u, v, mod).is_zero()
                        and congruence_witness(v, w, mod).is_zero()):
                    assert congruence_witness(u, w, mod).is_zero()


def test_congruence_rejects_extra_variables():
    mod = BracketModulus.of(3)
    with pytest.raises(ValueError):
        congruence_witness(P.var("a"), P.zero(), mod)


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
    assert thm2_lhs(3, 1).substitute({"q": 1}) == 153


def test_thm2_lhs_routes_agree_small():
    for p in (3, 5):
        for m in range(1, 6):
            thm2_lhs(p, m)  # raises Thm2MismatchError on route disagreement


def test_thm2_case_selection():
    assert thm2_case(3, 3) == "zero"
    assert thm2_case(3, 2) == "minus_one"
    assert thm2_case(3, 1) == "other"
    assert thm2_case(7, 13) == "minus_one"


def test_thm2_target_materialization():
    # m = 3, p = 3: q(1 - q^-6)/(1 - q^2) = -q^-5(1 - q^6)/(1 - q^2) = -(q^-5 + q^-3 + q^-1)
    target = thm2_target(3, 3)
    assert target == -(P.monomial(1, {"q": -5}) + P.monomial(1, {"q": -3}) + P.monomial(1, {"q": -1}))
    # m = 2, p = 3: q(1 - q^6)/(1 - q^2) = q + q^3 + q^5
    target = thm2_target(3, 2)
    assert target == q + q ** 3 + q ** 5
    assert thm2_target(3, 1).is_zero()


def test_thm2_all_three_cases():
    assert verify_thm2(3, 1).passed   # other
    assert verify_thm2(5, 5).passed   # zero
    assert verify_thm2(7, 6).passed   # minus_one
    with pytest.raises(ValueError):
        verify_thm2(3, 0)
    with pytest.raises(ValueError):
        verify_thm2(9, 2)


def test_congruence_witness_nonzero_on_failure():
    mod = BracketModulus.of(3)
    w = congruence_witness(q, P.const(1), mod)
    assert not w.is_zero()


def test_nonneg_divisibility_fact_grid():
    for p in (3, 5, 7):
        for j in range(p):
            for m in range(1, 2 * p + 1):
                assert nonneg_divisibility_fact(p, j, m), (p, j, m)
