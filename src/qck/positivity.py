"""Coefficient-positivity certificates for the Delannoy-product sums.

Three families of sums built from D_q(m,k) D_{1/q}(m,k) weights carry rational
prefactors such as (1-q^m)(1-q^{m+1}) / ((1-q^2)(1-q^n)^2); each family is
materialized by exact division (a failed division would falsify the
polynomiality claim and is reported as a verification failure, not a crash)
and then certified to have non-negative integer coefficients.

The supporting machinery: the basis B_k(n) = [n+k;2k][2k;k] q^{-nk}, whose
products linearize with non-negative structure constants (a Pfaff-Saalschutz
consequence), the alternating telescoping sum, and the generic-weight lemma
checked with fully symbolic weights x0..x_{n-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .delannoy import dq, dq_inverse_base
from .exactalg import (MultiLaurentPoly, NotDivisibleError, exact_div,
                       is_nonneg_integer_laurent)
from .qkit import ParamExpr, choose2, poch_prefixes, qbinomial
from .report import CaseKind, VerificationReport, make_report

_ONE = MultiLaurentPoly.const(1)


def _one_minus_q(exp: int) -> MultiLaurentPoly:
    return _ONE - MultiLaurentPoly.monomial(1, {"q": exp})


@dataclass(frozen=True)
class SnBasisElement:
    """B_k(n) = [n+k; 2k] [2k; k] q^{-nk}, the weight of x_k in the generic sum."""

    n: int
    k: int
    value: MultiLaurentPoly

    @classmethod
    def of(cls, n: int, k: int) -> "SnBasisElement":
        if k > n:
            raise ValueError("need k <= n")
        value = qbinomial(n + k, 2 * k) * qbinomial(2 * k, k) \
            * MultiLaurentPoly.monomial(1, {"q": -n * k})
        return cls(n, k, value)


def s_n(values, n: int) -> MultiLaurentPoly:
    """sum_{k=0}^{n} [n+k;2k][2k;k] q^{-nk} x_k for the given x_k values."""
    values = list(values)
    if len(values) != n + 1:
        raise ValueError(f"expected {n + 1} values, got {len(values)}")
    out = MultiLaurentPoly.zero()
    for k, v in enumerate(values):
        if isinstance(v, int):
            v = MultiLaurentPoly.const(v)
        out = out + SnBasisElement.of(n, k).value * v
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


@dataclass
class LinearizationTable:
    """Structure constants of the normalized basis B_i(k) = [k+i;2i][2i;i] q^{-ki}.

    entries[(i, j)] is a list of (s, constant) with
    B_i(k) B_j(k) = sum_s constant(s) * B_s(k), the constants independent of k:
    constant(s) = [i+j;i][j;s-i][s;j] q^{-s(i+j-s)}.
    """

    bound: int
    entries: dict

    @classmethod
    def up_to(cls, bound: int) -> "LinearizationTable":
        entries = {}
        for i in range(bound + 1):
            for j in range(bound + 1):
                entries[(i, j)] = [(s, structure_constant(i, j, s))
                                   for s in range(i, i + j + 1)]
        return cls(bound, entries)


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
        term = _one_minus_q(2 * k + 1) * qbinomial(k + s, 2 * s) * qbinomial(2 * s, s)
        lhs = lhs + term * MultiLaurentPoly.monomial(sign, {"q": choose2(k) - s * k})
    rhs = _one_minus_q(n) * qbinomial(n - 1, s) * qbinomial(n + s, s) \
        * MultiLaurentPoly.monomial(1, {"q": choose2(n) - s * n})
    return lhs, rhs


# ---------------------------------------------------------------------------
# The three certified families.
# ---------------------------------------------------------------------------

def thm3_poly1(m: int, n: int) -> MultiLaurentPoly:
    """First family, built from its single-sum rewriting and exact-divided.

    sum_{k<n} (1-q^m)(1-q^{m+1})(1-q^{2k+1}) / ((1-q^2)(1-q^n)^2)
              * D_q(m,k) D_{1/q}(m,k) q^{-k}
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    w1 = poch_prefixes(ParamExpr.of(-1), n - 1)
    w2 = poch_prefixes(ParamExpr.of(-1, {"q": 1}), n - 1)
    qq_n = poch_prefixes(ParamExpr.var("q"), n)[n]
    total = MultiLaurentPoly.zero()
    for j in range(n):
        gj = exact_div(qq_n, _one_minus_q(j + 1))
        term = _one_minus_q(n - j) * qbinomial(n + j, 2 * j) \
            * qbinomial(m, j) * qbinomial(m + j, j) * w1[j] * w2[j] * gj
        exp = j * j - m * j - (j + 1) * (n - 1)
        total = total + term * MultiLaurentPoly.monomial(1, {"q": exp})
    num = total * _one_minus_q(m) * _one_minus_q(m + 1)
    den = _one_minus_q(2) * _one_minus_q(n) * qq_n
    return exact_div(num, den)


def thm3_poly1_direct(m: int, n: int) -> MultiLaurentPoly:
    """First family computed straight from its displayed sum (cross-check route)."""
    total = MultiLaurentPoly.zero()
    for k in range(n):
        term = _one_minus_q(2 * k + 1) * dq(m, k) * dq_inverse_base(m, k)
        total = total + term * MultiLaurentPoly.monomial(1, {"q": -k})
    num = total * _one_minus_q(m) * _one_minus_q(m + 1)
    den = _one_minus_q(2) * _one_minus_q(n) * _one_minus_q(n)
    return exact_div(num, den)


def thm3_poly2(m: int, n: int, r: int) -> MultiLaurentPoly:
    """sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{-k} / (1-q^n)."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("need m, n, r >= 1")
    total = MultiLaurentPoly.zero()
    for k in range(n):
        prod = (dq(m, k) * dq_inverse_base(m, k)) ** r
        total = total + _one_minus_q(2 * k + 1) * prod \
            * MultiLaurentPoly.monomial(1, {"q": -k})
    return exact_div(total, _one_minus_q(n))


def thm3_poly3(m: int, n: int, r: int) -> MultiLaurentPoly:
    """sum_{k<n} (-1)^{n-k-1} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r q^{C(k,2)} / (1-q^n)."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("need m, n, r >= 1")
    total = MultiLaurentPoly.zero()
    for k in range(n):
        sign = -1 if (n - k - 1) % 2 else 1
        prod = (dq(m, k) * dq_inverse_base(m, k)) ** r
        total = total + _one_minus_q(2 * k + 1) * prod \
            * MultiLaurentPoly.monomial(sign, {"q": choose2(k)})
    return exact_div(total, _one_minus_q(n))


_CLAIM_BUILDERS = {
    "thm3-1": lambda m, n, r: thm3_poly1(m, n),
    "thm3-2": thm3_poly2,
    "thm3-3": thm3_poly3,
}


def _thm3_poly(claim: str, m: int, n: int, r: int):
    """The claim's polynomial, or None when its exact division fails."""
    if claim not in _CLAIM_BUILDERS:
        raise ValueError(f"unknown claim {claim!r}")
    try:
        return _CLAIM_BUILDERS[claim](m, n, r)
    except NotDivisibleError:
        return None


def thm3_record(claim: str, m: int, n: int, r: int = 1) -> dict:
    """Structured certificate for one (claim, m, n, r) cell.

    Keys: m, n, r, claim, divisible, nonneg, min_coeff, degree_range.
    """
    poly = _thm3_poly(claim, m, n, r)
    record = {"m": m, "n": n, "r": r, "claim": claim, "divisible": poly is not None}
    if poly is None:
        record.update(nonneg=False, min_coeff=None, degree_range=None)
        return record
    coeffs = [c for _, c in poly.sorted_terms()]
    record["nonneg"] = is_nonneg_integer_laurent(poly)
    record["min_coeff"] = str(min(coeffs)) if coeffs else "0"
    record["degree_range"] = list(poly.degree_range("q"))
    return record


def verify_thm3(claim: str, m: int, n: int, r: int = 1) -> VerificationReport:
    """Report form of thm3_record: difference collects any violating terms."""
    poly = _thm3_poly(claim, m, n, r)
    if poly is None:
        bad = MultiLaurentPoly.const(1)
    else:
        bad = MultiLaurentPoly.from_terms(
            (powers, c) for powers, c in poly.sorted_terms()
            if not (isinstance(c, int) and c >= 0))
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
    plain = MultiLaurentPoly.zero()
    alternating = MultiLaurentPoly.zero()
    for k in range(n):
        skr = s_n_symbolic(k) ** r
        plain = plain + _one_minus_q(2 * k + 1) * skr \
            * MultiLaurentPoly.monomial(1, {"q": -k})
        sign = -1 if (n - k - 1) % 2 else 1
        alternating = alternating + _one_minus_q(2 * k + 1) * skr \
            * MultiLaurentPoly.monomial(sign, {"q": choose2(k)})
    bad = MultiLaurentPoly.zero()
    for total in (plain, alternating):
        try:
            quotient = exact_div(total, _one_minus_q(n))
        except NotDivisibleError:
            bad = bad + total
            continue
        for powers, coeffpoly in quotient.coefficients_by(xvars).items():
            if not is_nonneg_integer_laurent(coeffpoly):
                bad = bad + coeffpoly * MultiLaurentPoly.monomial(1, dict(powers))
    return make_report("lemma41_generic", {"n": n, "r": r}, ("q",) + xvars, bad)


verify_schmidt = CaseKind("schmidt", __name__, ("k", "i", "j"), ("q",))
verify_alternating_sum = CaseKind("alternating_sum", __name__, ("n", "s"), ("q",))
