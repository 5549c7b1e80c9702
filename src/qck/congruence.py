"""Laurent-polynomial congruences modulo [p] and [p]^2.

For an odd prime p, [p] = 1 + q + ... + q^{p-1} is irreducible, and q is a
unit modulo [p]^2, because [p]^2 has constant term 1.  A congruence u == v
between Laurent polynomials therefore means: after multiplying u - v by the
minimal q-power that clears negative exponents, the result is an integer
polynomial divisible by [p] (or [p]^2).  A modulus p is valid when it is an
odd prime no larger than a fixed cap (``odd_prime``); each case checks this
before it builds anything.

The headline check: the odd-weighted sum over k < p of
[2k+1] D_q(m,k) D_{1/q}(m,k) q^{-k} collapses modulo [p]^2 to one of three
closed forms selected by m mod p.  Both the sum and its target are checked
multiplied by 1-q (the cleared form): the sum is then ``qkit.odd_sum``, with
(1-q^{2k+1}) in place of [2k+1], and no division by 1-q is needed.  This is
the same congruence, because [p] is monic and coprime to 1-q ([p] at q = 1 is
p, not 0), so [p]^2 divides (1-q) X in Z[q] exactly when it divides X.  The
sum is computed both from the Delannoy product formula directly and through
its single-sum rewriting; the two must agree exactly before any reduction
happens.  The sum itself (``thm2_lhs``) needs no prime: the first positivity
family is this sum with p replaced by any n >= 1.

The direct route, ``odd_delannoy_sum``, is the one transcription of the sum
S_r(m, n) = sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r w_k: Theorem 2's at
r = 1, w_k = q^{-k}, and positivity's thm3-2/3 at every r, one weight each.  One
cached row per m (``_m_row``) holds the prefix sums of every (r, weight), and
the suites run a kind's cases m-major, so each m builds its row once; in any
order the sums are the same.  The row mirrors each cached D_q(m,k) into
D_{1/q}(m,k) as it multiplies it and keeps no D_{1/q} table: each (r, weight)
asks for each (m, k) once, and a mirror costs less than the product it feeds, so
a table would only double the row's Delannoy working set.
``delannoy.dq_inverse_base``'s cache serves only ``delannoy_relations``
(m, n <= 12) and the tests.  A single-sum term has [m;j], [m+j;j] as factors.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .delannoy import dq
from .exactalg import (MultiLaurentPoly, divrem_in_q, exact_div, exact_divide,
                       is_nonneg_integer_laurent, sum_of_products)
from .qkit import bracket, odd_sum, one_minus_q, qbinomial, qpochhammer
from .report import CaseKind

PRIME_CAP = 10 ** 4


def odd_prime(p: int) -> bool:
    """The one rule for a modulus: p is an odd prime no larger than the cap."""
    return 2 < p <= PRIME_CAP and all(p % d for d in range(2, isqrt(p) + 1))


def _require_odd_prime(p: int) -> None:
    if not odd_prime(p):
        raise ValueError(f"{p} is not an odd prime <= {PRIME_CAP}")


def congruence_witness(u: MultiLaurentPoly, v: MultiLaurentPoly,
                       p: int, square: bool = False) -> MultiLaurentPoly:
    """Remainder of the cleared difference u - v modulo [p] or [p]^2 (zero iff congruent)."""
    d = u - v
    if d.is_zero():
        return d
    lo = d.degree_range("q")[0]
    if lo < 0:
        d = d * MultiLaurentPoly.monomial(1, {"q": -lo})
    if square:
        # (q^p - 1)^2 = (q - 1)^2 [p]^2 is a monic multiple of [p]^2 with three
        # terms: reducing by it first is cheap, and leaves the same remainder.
        _, d = divrem_in_q(d, (MultiLaurentPoly.var("q", p) - 1) ** 2)
    br = bracket(p)
    _, rem = divrem_in_q(d, br * br if square else br)
    return rem


def minus_q_pochhammer_witness(p: int) -> MultiLaurentPoly:
    """(-q; q)_{p-1} == 1 (mod [p])."""
    _require_odd_prime(p)
    value = qpochhammer(MultiLaurentPoly.monomial(-1, {"q": 1}), p - 1)
    return congruence_witness(value, MultiLaurentPoly.const(1), p)


def qidentity_sides(n: int, j: int) -> tuple:
    """The telescoping identity behind the single-sum rewriting, cleared by (1 - q^{j+1}):

    sum_{k=j}^{n-1} (1-q^{2k+1}) [k+j;2j] q^{-(j+1)k} * (1-q^{j+1})
        == (1-q^n)(1-q^{n-j}) [n+j;2j] q^{-(j+1)(n-1)}

    The sum runs over every k < n: [k+j;2j] = 0 for k < j.
    """
    if not 0 <= j <= n - 1:
        raise ValueError("need 0 <= j <= n-1")
    lhs = odd_sum([(qbinomial(k + j, 2 * j), MultiLaurentPoly.var("q", -j * k))
                   for k in range(n)]) * one_minus_q(j + 1)
    rhs = one_minus_q(n) * one_minus_q(n - j) * qbinomial(n + j, 2 * j) \
        * MultiLaurentPoly.monomial(1, {"q": -(j + 1) * (n - 1)})
    return lhs, rhs


class Thm2MismatchError(RuntimeError):
    """The two routes to the left-hand sum disagreed; transcription is broken."""


@lru_cache(maxsize=None)
def _single_sum_factor(p: int, j: int) -> MultiLaurentPoly:
    """(1-q^p)(1-q^{p-j})[p+j;2j] / (1-q^{j+1}) * (-1;q)_j (-q;q)_j, the j-th factor free of m.

    The quotient is the displayed prefactor (1-q^p)(1-q^{p-j}) / ((1-q)(1-q^{j+1}))
    times 1-q, the cleared form of the sum.
    """
    num = one_minus_q(p) * one_minus_q(p - j) * qbinomial(p + j, 2 * j)
    return exact_div(num, one_minus_q(j + 1)) * qpochhammer(MultiLaurentPoly.const(-1), j) \
        * qpochhammer(MultiLaurentPoly.monomial(-1, {"q": 1}), j)


@lru_cache(maxsize=1)
def _m_row(m: int) -> dict:
    """The row at m: for each (r, alternating), the sums S_r(m, n) built so far, by n."""
    return {}


def odd_delannoy_sum(m: int, n: int, r: int = 1, alternating: bool = False) -> MultiLaurentPoly:
    """S_r(m, n) = sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r w_k, w_k as in ``odd_sum``.

    It extends the row's largest S_r(m, n'), n' < n (if alternating, times (-1)^{n-n'}), by
    ``odd_sum`` over n' <= k < n, whose terms take r copies of D_q(m,k), D_{1/q}(m,k).  Each
    term mirrors the cached D_q(m,k) as it multiplies it; no D_{1/q} table is kept (the
    ``dq_inverse_base`` cache serves only ``delannoy_relations`` and the tests).
    """
    sums = _m_row(m).setdefault((r, alternating), {0: MultiLaurentPoly.zero()})
    if n not in sums:
        lo = max(k for k in sums if k < n)
        head = -sums[lo] if alternating and (n - lo) % 2 else sums[lo]
        sums[n] = head + odd_sum([(d, d.invert_variables()) * r
                                  for d in (dq(m, k) for k in range(lo, n))],
                                 alternating, start=lo)
    return sums[n]


def _thm2_lhs_single_sum(p: int, m: int) -> MultiLaurentPoly:
    return sum_of_products((_single_sum_factor(p, j), qbinomial(m, j), qbinomial(m + j, j),
                            MultiLaurentPoly.var("q", j * j - m * j - (j + 1) * (p - 1)))
                           for j in range(p))


def thm2_lhs(p: int, m: int) -> MultiLaurentPoly:
    """(1-q) sum_{k<p} [2k+1] D_q(m,k) D_{1/q}(m,k) q^{-k}, by both routes and cross-checked.

    The direct route is ``odd_delannoy_sum``.  Both routes hold for every p >= 1,
    prime or not: the positivity module uses this sum with p = n for its first
    family.
    """
    direct = odd_delannoy_sum(m, p)
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
    """(1-q) times the sum's closed form (q - q^top)/(1-q^2) mod [p]^2: (q - q^top)/(1+q)."""
    case = thm2_case(p, m)
    if case == "other":
        return MultiLaurentPoly.zero()
    top = 1 - 2 * m if case == "zero" else 2 * m + 3
    num = MultiLaurentPoly.var("q") - MultiLaurentPoly.monomial(1, {"q": top})
    return exact_div(num, bracket(2))


def thm2_witness(p: int, m: int) -> MultiLaurentPoly:
    """The cleared sum ``thm2_lhs`` minus its cleared case target, mod [p]^2."""
    if m < 1:
        raise ValueError("need m >= 1")
    _require_odd_prime(p)
    return congruence_witness(thm2_lhs(p, m), thm2_target(p, m), p, square=True)


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


verify_minus_q_pochhammer = CaseKind("minus_q_pochhammer", __name__, ("q",),
                                     difference="minus_q_pochhammer_witness")
verify_qidentity = CaseKind("qidentity", __name__, ("q",))
verify_thm2 = CaseKind("thm2", __name__, ("q",), difference="thm2_witness")
