"""Coefficient-positivity certificates for the Delannoy-product sums.

Three families of sums built from D_q(m,k) D_{1/q}(m,k) weights carry rational
prefactors such as (1-q^m)(1-q^{m+1}) / ((1-q^2)(1-q^n)^2); each family is
built as a (numerator, divisor) pair, materialized by one exact division and
then certified to have non-negative integer coefficients (``verify_thm3``).
Only that final division can fail the polynomiality claim (difference 1); an
exception raised while building the numerator propagates, so it is a case
error, never a verdict.  The first family is Theorem 2's odd-weighted sum
``congruence.thm2_lhs`` taken over k < n for any n >= 1 (n need not be
prime), so every cell also cross-checks that sum's two routes.  The second
and third families are that sum's direct route at any power r of the Delannoy
product and with either weight, ``delannoy.odd_delannoy_sum``: their
numerators are read from the same cached row of prefix sums per m.

The supporting identities: products of the basis B_k(n) = [n+k;2k][2k;k] q^{-nk}
linearize (a Pfaff-Saalschutz consequence, the ``schmidt`` rows) with constants
[i+j;i][j;s-i][s;j] times a power of q, non-negative by construction; the
alternating telescoping sum; and the generic-weight lemma checked with fully
symbolic weights x0..x_{n-1}.
"""

from __future__ import annotations

from .congruence import thm2_lhs
from .delannoy import odd_delannoy_sum
from .exactalg import MultiLaurentPoly, exact_divide, non_positive_terms, sum_of_products
from .qkit import choose2, odd_sum, one_minus_q, qbinomial
from .report import CaseKind, VerificationReport


def s_n_symbolic(n: int) -> MultiLaurentPoly:
    """sum_{k=0}^{n} [n+k;2k][2k;k] q^{-nk} x_k with the symbolic weights x0..xn."""
    return sum_of_products((qbinomial(n + k, 2 * k), qbinomial(2 * k, k),
                            MultiLaurentPoly.var("q", -n * k), MultiLaurentPoly.var(f"x{k}"))
                           for k in range(n + 1))


def schmidt_sides(k: int, i: int, j: int) -> tuple:
    """The linearization identity for [k+i;2i][2i;i] [k+j;2j][2j;j]:

    equals sum_{s=i}^{i+j} [i+j;i][j;s-i][s;j] [k+s;2s][2s;s] q^{(i+j-s)(k-s)}.
    """
    if not (0 <= i <= k and 0 <= j <= k):
        raise ValueError("need 0 <= i, j <= k")
    lhs = qbinomial(k + i, 2 * i) * qbinomial(2 * i, i) \
        * qbinomial(k + j, 2 * j) * qbinomial(2 * j, j)
    rhs = sum_of_products((qbinomial(i + j, i), qbinomial(j, s - i), qbinomial(s, j),
                           qbinomial(k + s, 2 * s), qbinomial(2 * s, s),
                           MultiLaurentPoly.var("q", (i + j - s) * (k - s)))
                          for s in range(i, i + j + 1))
    return lhs, rhs


def alternating_sum_sides(n: int, s: int) -> tuple:
    """The alternating telescoping sum, cleared by (1 - q^n):

    sum_{k=s}^{n-1} (-1)^{n-k-1} (1-q^{2k+1}) [k+s;2s][2s;s] q^{C(k,2)-sk}
        == (1-q^n) [n-1;s][n+s;s] q^{C(n,2)-sn}
    """
    if not 0 <= s <= n - 1:
        raise ValueError("need 0 <= s <= n-1")
    lhs = odd_sum([(qbinomial(k + s, 2 * s), qbinomial(2 * s, s), MultiLaurentPoly.var("q", -s * k))
                   for k in range(n)], alternating=True)  # [k+s;2s] = 0 for k < s
    rhs = one_minus_q(n) * qbinomial(n - 1, s) * qbinomial(n + s, s) \
        * MultiLaurentPoly.monomial(1, {"q": choose2(n) - s * n})
    return lhs, rhs


# ---------------------------------------------------------------------------
# The three certified families.
# ---------------------------------------------------------------------------

# (numerator, divisor) of each claim; only the final division decides divisibility.
#   thm3-1: sum_{k<n} (1-q^m)(1-q^{m+1})(1-q^{2k+1}) D_q(m,k) D_{1/q}(m,k) q^{-k}
#           / ((1-q^2)(1-q^n)^2), built on Theorem 2's cleared sum thm2_lhs;
#   thm3-2: sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{-k} / (1-q^n);
#   thm3-3: sum_{k<n} (-1)^{n-k-1} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{C(k,2)} / (1-q^n).
_CLAIM_PARTS = {
    "thm3-1": lambda m, n, r: (thm2_lhs(n, m) * one_minus_q(m) * one_minus_q(m + 1),
                               one_minus_q(2) * one_minus_q(n) * one_minus_q(n)),
    "thm3-2": lambda m, n, r: (odd_delannoy_sum(m, n, r), one_minus_q(n)),
    "thm3-3": lambda m, n, r: (odd_delannoy_sum(m, n, r, True), one_minus_q(n)),
}


def verify_thm3(claim: str, m: int, n: int, r: int = 1) -> VerificationReport:
    """Certificate for one (claim, m, n, r) cell; m, n, r >= 1, and thm3-1 takes only r = 1.

    The difference is 1 when the claim's final division is inexact, and
    otherwise the quotient's violating terms (zero when it passes).
    """
    if claim not in _CLAIM_PARTS:
        raise ValueError(f"unknown claim {claim!r}")
    if m < 1 or n < 1 or r < 1:
        raise ValueError("need m, n, r >= 1")
    if claim == "thm3-1" and r != 1:
        raise ValueError(f"thm3-1 has no power: parameter 'r' must be 1, not {r}")
    quotient = exact_divide(*_CLAIM_PARTS[claim](m, n, r))
    bad = MultiLaurentPoly.const(1) if quotient is None else non_positive_terms(quotient)
    return VerificationReport(claim, {"m": m, "n": n, "r": r}, ("q",), bad)


def lemma41_generic(n: int, r: int) -> VerificationReport:
    """Both generic-weight sums, divided by (1 - q^n), with symbolic x0..x_{n-1}.

    Certifies that every coefficient of every x-monomial is a Laurent
    polynomial in q with non-negative integer coefficients.  The report
    difference collects all violating terms (and the whole numerator if the
    division itself fails).
    """
    if n < 1 or r < 1:
        raise ValueError("need n, r >= 1")
    xvars = tuple(f"x{k}" for k in range(n))
    powers = [(s_n_symbolic(k) ** r,) for k in range(n)]
    bad = MultiLaurentPoly.zero()
    for total in (odd_sum(powers), odd_sum(powers, alternating=True)):
        quotient = exact_divide(total, one_minus_q(n))
        bad = bad + (total if quotient is None else non_positive_terms(quotient))
    return VerificationReport("lemma41_generic", {"n": n, "r": r}, ("q",) + xvars, bad)


verify_schmidt = CaseKind("schmidt", __name__, ("q",))
verify_alternating_sum = CaseKind("alternating_sum", __name__, ("q",))
