"""Laurent-polynomial congruences modulo [p] and [p]^2.

For an odd prime p, [p] = 1 + q + ... + q^{p-1} is irreducible, and q is a
unit modulo [p]^2 (a witness Y with q*Y + [p]^2 == 1 is constructed for every
modulus).  A congruence u == v between Laurent polynomials therefore means:
after multiplying u - v by the minimal q-power that clears negative exponents,
the result is an integer polynomial divisible by [p] (or [p]^2).

The headline check: the odd-weighted sum over k < p of
D_q(m,k) D_{1/q}(m,k) q^{-k} collapses modulo [p]^2 to one of three closed
forms selected by m mod p.  The sum is computed both from the Delannoy product
formula directly and through its single-sum rewriting; the two must agree
exactly before any reduction happens.  The sum itself (``thm2_lhs``) needs no
prime: the first positivity family is this sum with p replaced by any n >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delannoy import dq, dq_inverse_base
from .exactalg import (MultiLaurentPoly, divrem_in_q, exact_div, exact_divide,
                       is_nonneg_integer_laurent)
from .qkit import ParamExpr, bracket, one_minus_q, poch_prefixes, qbinomial, qpochhammer
from .report import CaseKind

_PRIME_CAP = 10 ** 4


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class BracketModulus:
    """An odd prime p with [p] and [p]^2, plus the unit witness for q."""

    p: int
    bracket: MultiLaurentPoly
    bracket_sq: MultiLaurentPoly
    q_unit_witness: MultiLaurentPoly  # Y with q*Y + [p]^2 == 1

    @classmethod
    def of(cls, p: int) -> "BracketModulus":
        if p > _PRIME_CAP:
            raise ValueError(f"prime {p} above supported cap {_PRIME_CAP}")
        if p == 2 or not _is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        br = bracket(p)
        sq = br * br
        # [p]^2 has constant term 1, so 1 - [p]^2 is divisible by q.
        witness = exact_div(MultiLaurentPoly.const(1) - sq,
                            MultiLaurentPoly.var("q"))
        assert MultiLaurentPoly.var("q") * witness + sq == MultiLaurentPoly.const(1)
        return cls(p, br, sq, witness)


def congruence_witness(u: MultiLaurentPoly, v: MultiLaurentPoly,
                       mod: BracketModulus, square: bool = False) -> MultiLaurentPoly:
    """Remainder of the cleared difference u - v modulo [p] or [p]^2 (zero iff congruent)."""
    d = u - v
    if d.is_zero():
        return d
    lo = d.degree_range("q")[0]
    if lo < 0:
        d = d * MultiLaurentPoly.monomial(1, {"q": -lo})
    modulus = mod.bracket_sq if square else mod.bracket
    _, rem = divrem_in_q(d, modulus)
    return rem


def minus_q_pochhammer_witness(p: int) -> MultiLaurentPoly:
    """(-q; q)_{p-1} == 1 (mod [p])."""
    mod = BracketModulus.of(p)
    value = qpochhammer(ParamExpr.of(-1, {"q": 1}), p - 1)
    return congruence_witness(value, MultiLaurentPoly.const(1), mod, square=False)


def qidentity_sides(n: int, j: int) -> tuple:
    """The telescoping identity behind the single-sum rewriting, cleared by (1 - q^{j+1}):

    sum_{k=j}^{n-1} (1-q^{2k+1}) [k+j;2j] q^{-(j+1)k} * (1-q^{j+1})
        == (1-q^n)(1-q^{n-j}) [n+j;2j] q^{-(j+1)(n-1)}
    """
    if not 0 <= j <= n - 1:
        raise ValueError("need 0 <= j <= n-1")
    lhs = MultiLaurentPoly.zero()
    for k in range(j, n):
        term = one_minus_q(2 * k + 1) * qbinomial(k + j, 2 * j)
        lhs = lhs + term * MultiLaurentPoly.monomial(1, {"q": -(j + 1) * k})
    lhs = lhs * one_minus_q(j + 1)
    rhs = one_minus_q(n) * one_minus_q(n - j) * qbinomial(n + j, 2 * j) \
        * MultiLaurentPoly.monomial(1, {"q": -(j + 1) * (n - 1)})
    return lhs, rhs


class Thm2MismatchError(RuntimeError):
    """The two routes to the left-hand sum disagreed; transcription is broken."""


def _thm2_lhs_direct(p: int, m: int) -> MultiLaurentPoly:
    out = MultiLaurentPoly.zero()
    for k in range(p):
        term = bracket(2 * k + 1) * dq(m, k) * dq_inverse_base(m, k)
        out = out + term * MultiLaurentPoly.monomial(1, {"q": -k})
    return out


def _thm2_lhs_single_sum(p: int, m: int) -> MultiLaurentPoly:
    out = MultiLaurentPoly.zero()
    w1 = poch_prefixes(ParamExpr.of(-1), p - 1)
    w2 = poch_prefixes(ParamExpr.of(-1, {"q": 1}), p - 1)
    for j in range(p):
        # [p] = (1-q^p)/(1-q), so this ratio carries the full displayed
        # prefactor (1-q^p)(1-q^{p-j}) / ((1-q)(1-q^{j+1})).
        num = bracket(p) * one_minus_q(p - j) * qbinomial(p + j, 2 * j)
        ratio = exact_div(num, one_minus_q(j + 1))
        term = ratio * qbinomial(m, j) * qbinomial(m + j, j) * w1[j] * w2[j]
        exp = j * j - m * j - (j + 1) * (p - 1)
        out = out + term * MultiLaurentPoly.monomial(1, {"q": exp})
    return out


def thm2_lhs(p: int, m: int) -> MultiLaurentPoly:
    """sum_{k<p} [2k+1] D_q(m,k) D_{1/q}(m,k) q^{-k}, by both routes and cross-checked.

    Both routes hold for every p >= 1, prime or not: the positivity module
    uses this sum with p = n for its first family.
    """
    direct = _thm2_lhs_direct(p, m)
    single = _thm2_lhs_single_sum(p, m)
    if direct != single:
        raise Thm2MismatchError(f"sum routes disagree at p={p}, m={m}")
    return direct


def thm2_case(p: int, m: int) -> str:
    """Which congruence case applies: 'zero' (m = 0), 'minus_one' (m = -1) or 'other' mod p."""
    r = m % p
    if r == 0:
        return "zero"
    if r == p - 1:
        return "minus_one"
    return "other"


def thm2_target(p: int, m: int) -> MultiLaurentPoly:
    """The closed form the sum must match modulo [p]^2, materialized by exact division."""
    case = thm2_case(p, m)
    if case == "other":
        return MultiLaurentPoly.zero()
    top = 1 - 2 * m if case == "zero" else 2 * m + 3
    num = MultiLaurentPoly.var("q") - MultiLaurentPoly.monomial(1, {"q": top})
    return exact_div(num, one_minus_q(2))


def thm2_witness(p: int, m: int) -> MultiLaurentPoly:
    """Sum over k < p of [2k+1] D_q(m,k) D_{1/q}(m,k) q^{-k}, minus its case target, mod [p]^2."""
    if m < 1:
        raise ValueError("need m >= 1")
    mod = BracketModulus.of(p)
    return congruence_witness(thm2_lhs(p, m), thm2_target(p, m), mod, square=True)


def nonneg_divisibility_fact(p: int, j: int, m: int) -> bool:
    """The auxiliary polynomiality fact used in the congruence proof:

    (1-q^{p-j})(1-q^{j+1}) / ((1-q)(1-q^p)) * [p+j;2j] [m+1;j+1] [m+j;j+1]
    is a polynomial in q with non-negative integer coefficients.
    """
    num = one_minus_q(p - j) * one_minus_q(j + 1) \
        * qbinomial(p + j, 2 * j) * qbinomial(m + 1, j + 1) * qbinomial(m + j, j + 1)
    den = one_minus_q(1) * one_minus_q(p)
    quotient = exact_divide(num, den)
    return quotient is not None and is_nonneg_integer_laurent(quotient)


verify_minus_q_pochhammer = CaseKind("minus_q_pochhammer", __name__, ("p",), ("q",),
                                     difference="minus_q_pochhammer_witness")
verify_qidentity = CaseKind("qidentity", __name__, ("n", "j"), ("q",))
verify_thm2 = CaseKind("thm2", __name__, ("p", "m"), ("q",), difference="thm2_witness")
