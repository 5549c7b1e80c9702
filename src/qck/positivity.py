"""Coefficient-positivity certificates for the Delannoy-product sums.

Three families of sums built from D_q(m,k) D_{1/q}(m,k) weights carry rational
prefactors such as (1-q^m)(1-q^{m+1}) / ((1-q^2)(1-q^n)^2); each family is
built as a (numerator, divisor) pair, materialized by one exact division and
then certified to have non-negative integer coefficients (``verify_thm3``).
Only that final division can fail the polynomiality claim (difference 1); an
exception raised while building the numerator propagates, so it is a case
error, never a verdict.  The first family is Theorem 2's odd-weighted sum
``congruence.thm2_lhs`` taken over k < n for any n >= 1 (n need not be
prime), so every cell also cross-checks that sum's two routes.

The supporting machinery: the basis B_k(n) = [n+k;2k][2k;k] q^{-nk}, whose
products linearize with non-negative structure constants (a Pfaff-Saalschutz
consequence), the alternating telescoping sum, and the generic-weight lemma
checked with fully symbolic weights x0..x_{n-1}.
"""

from __future__ import annotations

from .congruence import thm2_lhs
from .delannoy import dq, dq_inverse_base
from .exactalg import MultiLaurentPoly, exact_div, exact_divide
from .qkit import ParamExpr, choose2, one_minus_q, poch_prefixes, qbinomial
from .report import CaseKind, VerificationReport, make_report


def sn_basis(n: int, k: int) -> MultiLaurentPoly:
    """B_k(n) = [n+k; 2k] [2k; k] q^{-nk}, the weight of x_k in the generic sum."""
    if k > n:
        raise ValueError("need k <= n")
    return qbinomial(n + k, 2 * k) * qbinomial(2 * k, k) \
        * MultiLaurentPoly.monomial(1, {"q": -n * k})


def s_n(values, n: int) -> MultiLaurentPoly:
    """sum_{k=0}^{n} [n+k;2k][2k;k] q^{-nk} x_k for the given x_k values."""
    values = list(values)
    if len(values) != n + 1:
        raise ValueError(f"expected {n + 1} values, got {len(values)}")
    out = MultiLaurentPoly.zero()
    for k, v in enumerate(values):
        if isinstance(v, int):
            v = MultiLaurentPoly.const(v)
        out = out + sn_basis(n, k) * v
    return out


def s_n_symbolic(n: int) -> MultiLaurentPoly:
    """s_n with the symbolic weights x0..xn."""
    return s_n([MultiLaurentPoly.var(f"x{k}") for k in range(n + 1)], n)


def schmidt_sides(k: int, i: int, j: int) -> tuple:
    """The linearization identity for [k+i;2i][2i;i] [k+j;2j][2j;j]:

    equals sum_{s=i}^{i+j} [i+j;i][j;s-i][s;j] [k+s;2s][2s;s] q^{(i+j-s)(k-s)}.
    """
    if not (0 <= i <= k and 0 <= j <= k):
        raise ValueError("need 0 <= i, j <= k")
    lhs = qbinomial(k + i, 2 * i) * qbinomial(2 * i, i) \
        * qbinomial(k + j, 2 * j) * qbinomial(2 * j, j)
    rhs = MultiLaurentPoly.zero()
    for s in range(i, i + j + 1):
        term = qbinomial(i + j, i) * qbinomial(j, s - i) * qbinomial(s, j)
        term = term * qbinomial(k + s, 2 * s) * qbinomial(2 * s, s)
        rhs = rhs + term * MultiLaurentPoly.monomial(1, {"q": (i + j - s) * (k - s)})
    return lhs, rhs


def structure_constant(i: int, j: int, s: int) -> MultiLaurentPoly:
    """[i+j;i][j;s-i][s;j] q^{-s(i+j-s)}; zero outside i <= s <= i+j."""
    term = qbinomial(i + j, i) * qbinomial(j, s - i) * qbinomial(s, j)
    return term * MultiLaurentPoly.monomial(1, {"q": -s * (i + j - s)})


def linearize_power(indices) -> dict:
    """Expand prod_j B_{i_j}(k) in the basis B_s(k): {s: constant polynomial}.

    The result does not depend on k; these are the repeated-linearization
    coefficients P(i_1, ..., i_r, s).
    """
    indices = list(indices)
    out = {indices[0]: MultiLaurentPoly.const(1)}
    for idx in indices[1:]:
        nxt = {}
        for s0, coeff in out.items():
            for s in range(s0, s0 + idx + 1):
                piece = coeff * structure_constant(s0, idx, s)
                if piece.is_zero():
                    continue
                nxt[s] = nxt.get(s, MultiLaurentPoly.zero()) + piece
        out = {s: v for s, v in nxt.items() if not v.is_zero()}
    return out


def xk_weights(m: int, k: int) -> MultiLaurentPoly:
    """The Delannoy specialization weight x_k = [m+k;2k] (-1;q)_k (-q;q)_k q^{k^2 - mk}."""
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    w1 = poch_prefixes(ParamExpr.of(-1), k)[k]
    w2 = poch_prefixes(ParamExpr.of(-1, {"q": 1}), k)[k]
    return qbinomial(m + k, 2 * k) * w1 * w2 \
        * MultiLaurentPoly.monomial(1, {"q": k * k - m * k})


def alternating_sum_sides(n: int, s: int) -> tuple:
    """The alternating telescoping sum, cleared by (1 - q^n):

    sum_{k=s}^{n-1} (-1)^{n-k-1} (1-q^{2k+1}) [k+s;2s][2s;s] q^{C(k,2)-sk}
        == (1-q^n) [n-1;s][n+s;s] q^{C(n,2)-sn}
    """
    if not 0 <= s <= n - 1:
        raise ValueError("need 0 <= s <= n-1")
    lhs = MultiLaurentPoly.zero()
    for k in range(s, n):
        sign = -1 if (n - k - 1) % 2 else 1
        term = one_minus_q(2 * k + 1) * qbinomial(k + s, 2 * s) * qbinomial(2 * s, s)
        lhs = lhs + term * MultiLaurentPoly.monomial(sign, {"q": choose2(k) - s * k})
    rhs = one_minus_q(n) * qbinomial(n - 1, s) * qbinomial(n + s, s) \
        * MultiLaurentPoly.monomial(1, {"q": choose2(n) - s * n})
    return lhs, rhs


# ---------------------------------------------------------------------------
# The three certified families.
# ---------------------------------------------------------------------------

def _odd_sum(values, alternating: bool) -> MultiLaurentPoly:
    """sum_{k<n} (1-q^{2k+1}) v_k q^{-k}, with n = len(values).

    When ``alternating`` the weight q^{-k} becomes (-1)^{n-k-1} q^{C(k,2)}.
    """
    n = len(values)
    total = MultiLaurentPoly.zero()
    for k, v in enumerate(values):
        if alternating:
            sign = -1 if (n - k - 1) % 2 else 1
            weight = MultiLaurentPoly.monomial(sign, {"q": choose2(k)})
        else:
            weight = MultiLaurentPoly.monomial(1, {"q": -k})
        total = total + one_minus_q(2 * k + 1) * v * weight
    return total


def _poly1_parts(m: int, n: int) -> tuple:
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    num = thm2_lhs(n, m) * one_minus_q(1) * one_minus_q(m) * one_minus_q(m + 1)
    return num, one_minus_q(2) * one_minus_q(n) * one_minus_q(n)


def _delannoy_powers(m: int, n: int, r: int) -> list:
    """(D_q(m,k) D_{1/q}(m,k))^r for k < n."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("need m, n, r >= 1")
    return [(dq(m, k) * dq_inverse_base(m, k)) ** r for k in range(n)]


def _odd_parts(m: int, n: int, r: int, alternating: bool) -> tuple:
    return _odd_sum(_delannoy_powers(m, n, r), alternating), one_minus_q(n)


def thm3_poly1(m: int, n: int) -> MultiLaurentPoly:
    """First family: Theorem 2's sum over k < n, scaled and exact-divided.

    sum_{k<n} (1-q^m)(1-q^{m+1})(1-q^{2k+1}) / ((1-q^2)(1-q^n)^2)
              * D_q(m,k) D_{1/q}(m,k) q^{-k}
    with (1-q^{2k+1}) = (1-q)[2k+1]; thm2_lhs raises Thm2MismatchError when
    its two routes to the sum disagree.
    """
    return exact_div(*_poly1_parts(m, n))


def thm3_poly2(m: int, n: int, r: int) -> MultiLaurentPoly:
    """sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{-k} / (1-q^n)."""
    return exact_div(*_odd_parts(m, n, r, False))


def thm3_poly3(m: int, n: int, r: int) -> MultiLaurentPoly:
    """sum_{k<n} (-1)^{n-k-1} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{C(k,2)} / (1-q^n)."""
    return exact_div(*_odd_parts(m, n, r, True))


# (numerator, divisor) of each claim; only the final division decides divisibility.
_CLAIM_PARTS = {
    "thm3-1": lambda m, n, r: _poly1_parts(m, n),
    "thm3-2": lambda m, n, r: _odd_parts(m, n, r, False),
    "thm3-3": lambda m, n, r: _odd_parts(m, n, r, True),
}


def _violations(poly: MultiLaurentPoly) -> MultiLaurentPoly:
    """The terms of poly whose coefficient is not a positive int."""
    return MultiLaurentPoly._raw({k: c for k, c in poly._terms.items()
                                  if not (isinstance(c, int) and c > 0)})


def verify_thm3(claim: str, m: int, n: int, r: int = 1) -> VerificationReport:
    """Certificate for one (claim, m, n, r) cell.

    The difference is 1 when the claim's final division is inexact, and
    otherwise the quotient's violating terms (zero when it passes).
    """
    if claim not in _CLAIM_PARTS:
        raise ValueError(f"unknown claim {claim!r}")
    quotient = exact_divide(*_CLAIM_PARTS[claim](m, n, r))
    bad = MultiLaurentPoly.const(1) if quotient is None else _violations(quotient)
    return make_report(claim, {"m": m, "n": n, "r": r}, ("q",), bad)


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
    powers = [s_n_symbolic(k) ** r for k in range(n)]
    bad = MultiLaurentPoly.zero()
    for total in (_odd_sum(powers, False), _odd_sum(powers, True)):
        quotient = exact_divide(total, one_minus_q(n))
        bad = bad + (total if quotient is None else _violations(quotient))
    return make_report("lemma41_generic", {"n": n, "r": r}, ("q",) + xvars, bad)


verify_schmidt = CaseKind("schmidt", __name__, ("k", "i", "j"), ("q",))
verify_alternating_sum = CaseKind("alternating_sum", __name__, ("n", "s"), ("q",))
