"""Series evaluator and parser tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qck import hyperg
from qck.exactalg import MultiLaurentPoly as P, NotDivisibleError
from qck.hyperg import (PhiParseError, PhiSpec, PhiSpecError, check_qbinomial_theorem,
                        check_qchu_vandermonde, parse_phi, phi_sum, phi_sum_cleared, phi_term,
                        phi_term_cleared, print_phi)
from qck.qkit import ParamExpr

q = P.var("q")


def test_parse_basic():
    spec = parse_phi("phi[3,2]{q^-2, a, x ; c, 0 ; q}")
    assert spec.r == 3 and spec.s == 2
    assert spec.termination == 2
    assert spec.upper[0] == (ParamExpr.var("q", -2), 1)
    assert spec.lower[1] == 0
    assert spec.argument == (ParamExpr.var("q"), 1)


def test_rational_coefficient_is_a_reduced_pair():
    spec = parse_phi("phi[2,1]{2/4*a, q^-2 ; c ; q}")
    assert spec.upper[0] == (ParamExpr.var("a"), 2)
    assert print_phi(spec) == "phi[2,1]{1/2*a, q^-2 ; c ; q}"
    spec = parse_phi("phi[1,0]{q^-2 ; ; -6/4}")
    assert spec.argument == (ParamExpr.of(-3), 2)
    assert print_phi(spec) == "phi[1,0]{q^-2 ;  ; -3/2}"


def test_rational_parameters_are_cleared():
    # 1phi0(q^-1; ; q/2): the summand at k = 1 is (1 - q^-1) (q/2) / (1 - q) = -1/2
    spec = parse_phi("phi[1,0]{q^-1 ; ; 1/2*q}")
    num, den = phi_term_cleared(spec, 1)
    assert -2 * num == den
    num, den = phi_sum_cleared(spec)
    assert 2 * num == den
    with pytest.raises(NotDivisibleError):  # 1/2 is not an integer polynomial
        phi_sum(spec)


def test_parse_termination_from_any_position():
    spec = parse_phi("phi[2,1]{a, q^-3 ; c ; q}")
    assert spec.termination == 3


def test_parse_no_termination_parameter():
    # a coefficient other than 1, or another variable, makes no q^-n
    for spec in ["phi[2,1]{a, b ; c ; q}", "phi[2,1]{-q^-2, a ; c ; q}",
                 "phi[2,1]{c*q^-2, a ; c ; q}"]:
        with pytest.raises(PhiSpecError):
            parse_phi(spec)


def test_parse_syntax_error_offset():
    with pytest.raises(PhiParseError) as err:
        parse_phi("phi[2,1]{a q^-1 ; c ; q}")
    assert err.value.offset > 0


def test_parse_non_ascii_digits():
    # str.isdigit takes "٣" and "²"; the grammar's INT is ASCII 0-9
    for text in ["phi[1,0]{q^-1 ; ; 1/٣*q}", "phi[1,0]{q^-1 ; ; q^²}", "phi[٢,1]{a ; c ; q}"]:
        with pytest.raises(PhiParseError):
            parse_phi(text)
    with pytest.raises(PhiParseError, match="integer too long"):
        parse_phi("phi[1,0]{q^-1 ; ; q^" + "9" * 5000 + "}")


_GRAMMAR_TEXT = st.text(alphabet="phi[],{};-*/^ 0123456789qabcxyd²٣ｑ", max_size=30)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(["", "phi[", "phi[2,1]{", "phi[1,0]{q^-1 ; ; "]), _GRAMMAR_TEXT)
def test_parse_raises_only_its_own_errors(head, tail):
    try:
        parse_phi(head + tail)
    except (PhiParseError, PhiSpecError):
        pass


def test_parse_arity_mismatch():
    with pytest.raises(PhiSpecError):
        parse_phi("phi[2,1]{a, x, q^-1 ; c ; q}")


def test_parse_bad_lower_parameter():
    # q^0 = 1 sits inside the summation range of a q^-2 terminating series
    with pytest.raises(PhiSpecError):
        parse_phi("phi[2,2]{a, q^-2 ; c, q^-1 ; q}")


def test_non_monomial_upper_parameter_is_rejected():
    # print_phi would write 1 + a as an item that parse_phi cannot read back
    a, c = P.var("a"), P.var("c")
    with pytest.raises(PhiSpecError, match="upper parameter"):
        PhiSpec.of([q ** -2, 1 + a], [c], q)
    spec = PhiSpec.of([q ** -2, a], [c], q)
    assert parse_phi(print_phi(spec)) == spec


def test_roundtrip_corpus():
    corpus = [
        "phi[3,2]{q^-2, a, x ; c, 0 ; q}",
        "phi[2,1]{a, q^-3 ; c ; q}",
        "phi[2,1]{a, q^-0 ; c ; q}",
        "phi[1,1]{q^-1 ; c ; q}",
        "phi[4,3]{q^-2, a, x, y ; c, d, 0 ; q}",
        "phi[3,2]{q^-4, a, c*x^-1 ; c, 0 ; q}",
        "phi[2,1]{a, q^-2 ; c ; q^2}",
        "phi[2,1]{a, q^-2 ; c ; 1/2*q}",
        "phi[2,1]{3*a, q^-2 ; c ; q}",
        "phi[2,1]{a^2, q^-2 ; c ; q}",
        "phi[2,1]{a*x, q^-2 ; c ; q}",
        "phi[2,1]{-a, q^-2 ; c ; q}",
        "phi[2,1]{a, q^-2 ; -x ; q}",
        "phi[2,1]{a, q^-2 ; 2/3*c ; q}",
        "phi[5,4]{q^-3, a, c*a^-1, x, c*x^-1 ; c, d, y, 0 ; q}",
        "phi[2,1]{q^-5, a ; c*q^5 ; q}",
        "phi[3,2]{q^-1, a, x ; x^2, 0 ; q}",
        "phi[2,2]{a, q^-2 ; c, d ; q}",
        "phi[1,0]{q^-2 ;  ; q}",
        "phi[2,1]{a, q^-6 ; c ; q}",
    ]
    for text in corpus:
        spec = parse_phi(text)
        assert parse_phi(print_phi(spec)) == spec, text


def test_phi_term_k0_is_one():
    spec = parse_phi("phi[3,2]{q^-2, a, x ; c, 0 ; q}")
    assert phi_term(spec, 0) == P.const(1)


def test_phi_term_cleared_matches_definition():
    # 3phi2(q^-1, a, x; c, 0; q, q) at k=1: (1-q^-1)(1-a)(1-x) q / ((1-q)(1-c))
    spec = parse_phi("phi[3,2]{q^-1, a, x ; c, 0 ; q}")
    num, den = phi_term_cleared(spec, 1)
    expect_num = (1 - P.var("q", -1)) * (1 - P.var("a")) * (1 - P.var("x")) * q
    expect_den = (1 - q) * (1 - P.var("c"))
    assert num == expect_num
    assert den == expect_den
    with pytest.raises(NotDivisibleError):
        phi_term(spec, 1)


def test_phi_term_past_termination_is_zero():
    spec = parse_phi("phi[2,1]{a, q^-2 ; c ; q}")
    assert phi_term(spec, 3).is_zero()


def test_sign_factor_bookkeeping():
    # 1phi1 has 1 + s - r = 1: k = 2 contributes ((-1)^2 q^1)^1 = q
    spec = parse_phi("phi[1,1]{q^-2 ; c ; q}")
    num, _ = phi_term_cleared(spec, 2)
    plain = parse_phi("phi[1,0]{q^-2 ;  ; q}")
    num_plain, _ = phi_term_cleared(plain, 2)
    assert num == num_plain * q


def test_phi_sum_termination_zero():
    spec = parse_phi("phi[2,1]{a, q^-0 ; c ; q}")
    assert phi_sum(spec) == P.const(1)


def test_the_classical_rows_read_the_engine(monkeypatch):
    # a numerator off by 1 in phi_sum_cleared must fail both classical summations
    assert check_qbinomial_theorem(3).passed and check_qchu_vandermonde(3).passed
    right = phi_sum_cleared
    monkeypatch.setattr(hyperg, "phi_sum_cleared",
                        lambda spec: (right(spec)[0] + 1, right(spec)[1]))
    assert not check_qbinomial_theorem(3).passed
    assert not check_qchu_vandermonde(3).passed


def test_phi_sum_upper_one_collapses():
    spec = PhiSpec.of([ParamExpr.of(1), ParamExpr.var("q", -3)],
                      [ParamExpr.var("c")], ParamExpr.var("q"))
    assert spec.termination == 0
    assert phi_sum(spec) == P.const(1)


def test_phi_sum_two_term_expansion():
    # 3phi2(q^-1, a, x; c, 0; q, q) * (1-c) = (1-c) - (1-a)(1-x) q^0 ... cleared form
    spec = parse_phi("phi[3,2]{q^-1, a, x ; c, 0 ; q}")
    num, den = phi_sum_cleared(spec)
    av, xv, cv = P.var("a"), P.var("x"), P.var("c")
    expected = (1 - cv) - (1 - av) * (1 - xv)
    assert num == expected
    assert den == 1 - cv


def test_permutation_invariance_randomized():
    rng = random.Random(7)
    spec = parse_phi("phi[4,3]{q^-2, a, x, y ; c, d, 0 ; q}")
    num, den = phi_sum_cleared(spec)
    for _ in range(10):
        upper = list(spec.upper)
        lower = list(spec.lower)
        rng.shuffle(upper)
        rng.shuffle(lower)
        other = PhiSpec.of(upper, lower, spec.argument)
        num2, den2 = phi_sum_cleared(other)
        assert num * den2 == num2 * den
