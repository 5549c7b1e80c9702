"""Series engine tests: PhiSpec validation and the cleared sums."""

import random

import pytest

from qck import hyperg
from qck.exactalg import MultiLaurentPoly as P, exact_divide
from qck.hyperg import (PhiSpec, PhiSpecError, check_qbinomial_theorem, check_qchu_vandermonde,
                        phi_sum_cleared)
from qck.qkit import ParamExpr

q, a, c, d, x, y = (P.var(v) for v in "qacdxy")


def test_spec_fields():
    spec = PhiSpec.of([q ** -2, a, x], [c, 0], q)
    assert spec.r == 3 and spec.s == 2
    assert spec.termination == 2
    assert spec.upper[0] == ParamExpr.var("q", -2)
    assert spec.lower[1] == 0
    assert spec.argument == ParamExpr.var("q")


def test_termination_from_any_position():
    assert PhiSpec.of([a, q ** -3], [c], q).termination == 3
    assert PhiSpec.of([a, q ** -4, q ** -3], [c], q).termination == 3


def test_no_termination_parameter():
    # a coefficient other than 1, or another variable, makes no q^-n
    for upper in ([a, P.var("b")], [-q ** -2, a], [c * q ** -2, a]):
        with pytest.raises(PhiSpecError, match="does not terminate"):
            PhiSpec.of(upper, [c], q)


def test_bad_lower_parameter():
    # q^0 = 1 sits inside the summation range of a q^-2 terminating series
    with pytest.raises(PhiSpecError, match="vanishes"):
        PhiSpec.of([a, q ** -2], [c, q ** -1], q)
    with pytest.raises(PhiSpecError, match="lower parameter"):
        PhiSpec.of([a, q ** -2], [1 + c], q)


def test_non_monomial_upper_parameter_is_rejected():
    with pytest.raises(PhiSpecError, match="upper parameter"):
        PhiSpec.of([q ** -2, 1 + a], [c], q)
    with pytest.raises(PhiSpecError, match="argument"):
        PhiSpec.of([q ** -2, a], [c], 1 + q)


def test_parameters_are_monomials_only():
    # neither a (monomial, denominator) pair nor a bare int is a parameter
    for upper, lower, z in [([(a, 2), q ** -2], [c], q), ([a, q ** -2], [(c, 2)], q),
                            ([a, q ** -2], [c], (q, 2)), ([3, q ** -2], [c], q),
                            ([a, q ** -2], [3], q), ([a, q ** -2], [c], 1)]:
        with pytest.raises(PhiSpecError):
            PhiSpec.of(upper, lower, z)


def test_sign_factor_bookkeeping():
    # the k-th summand of 1phi0(q^-2; ; q, q) is (q^-2;q)_k q^k / (q;q)_k: 1, -1 - q^-1, q^-1;
    # 1phi1 has 1 + s - r = 1, so with the lower parameter 0 summand k gains (-1)^k q^C(k,2)
    assert phi_sum_cleared(PhiSpec.of([q ** -2], [], q)) == (P.zero(), P.const(1))
    assert phi_sum_cleared(PhiSpec.of([q ** -2], [0], q)) == (1 + (1 + q ** -1) + q ** -1 * q,
                                                              P.const(1))


def test_phi_sum_termination_zero():
    num, den = phi_sum_cleared(PhiSpec.of([a, q ** -0], [c], q))
    assert num == den == 1


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
    num, den = phi_sum_cleared(spec)
    assert num == den == 1


def test_phi_sum_two_term_expansion():
    # 3phi2(q^-1, a, x; c, 0; q, q) * (1-c) = (1-c) - (1-a)(1-x) q^0 ... cleared form
    num, den = phi_sum_cleared(PhiSpec.of([q ** -1, a, x], [c, 0], q))
    assert num == (1 - c) - (1 - a) * (1 - x)
    assert den == 1 - c


def test_cleared_examples():
    for upper, lower, num, den in [
        # a denominator in q and c: exact division in key order finds no quotient
        ([a, q ** -2], [c], -a * c + a ** 2 + q * c ** 2 - q * a * c,
         (1 - c) * (1 - q * c)),
        # a denominator in q alone that does not divide the numerator
        ([a, q ** -2], [q ** 3], a ** 2 - q ** 3 * a - q ** 4 * a + q ** 7,
         (1 - q ** 3) * (1 - q ** 4)),
        # 2phi1(c, q^-n; c; q, q) = (1;q)_n c^n / (c;q)_n vanishes
        ([c, q ** -2], [c], P.zero(), (1 - c) * (1 - q * c)),
    ]:
        assert phi_sum_cleared(PhiSpec.of(upper, lower, q)) == (num, den)
        if not num.is_zero():
            assert exact_divide(num, den) is None


def test_permutation_invariance_randomized():
    rng = random.Random(7)
    spec = PhiSpec.of([q ** -2, a, x, y], [c, d, 0], q)
    num, den = phi_sum_cleared(spec)
    for _ in range(10):
        upper = list(spec.upper)
        lower = list(spec.lower)
        rng.shuffle(upper)
        rng.shuffle(lower)
        num2, den2 = phi_sum_cleared(PhiSpec.of(upper, lower, spec.argument))
        assert num * den2 == num2 * den
