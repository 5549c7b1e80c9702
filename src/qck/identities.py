"""Mechanical verification of the product and transformation identities.

Every check reduces an identity between terminating series to an equality of
Laurent polynomials: both sides are multiplied by an explicit clearing factor
(a product of Pochhammer symbols covering every summand's denominator), each
summand's denominator cancels exactly into tail factors such as

    (c;q)_n / (c;q)_k = (c q^k; q)_{n-k},

and the verified statement is always "difference polynomial equals zero".
A side that is a terminating rphis series in base q (the 3phi2 factors, the
3phi1 transformation, the q-Chu-Vandermonde 2phi1) is built by
``hyperg.phi_sum_cleared``, which clears it by exactly these lower Pochhammer
symbols; sums in base q^2 or over a shifted range k >= s are written out here.
Square roots never appear: identities stated with sqrt(c) or q^{1/2} are
verified in an equivalent root-free form, via (c;q)_{2k} regrouping or the
base substitution q = t^2.  A specialization of a parameter to a monomial (a =
-q^{-n} in the shifted formula, a = c q^{2j} in the connection kernel) is built
with the parameter already bound, never substituted into the symbolic sides
afterwards; substitution is a ring homomorphism, so the polynomial is the same.

Builders named ``*_sides`` return the cleared (lhs, rhs) pair so that tests
can exercise substitution consistency between related identities; the public
``verify_*`` names are CaseKind rows over them, returning a VerificationReport.
"""

from __future__ import annotations

from .exactalg import MultiLaurentPoly, exact_div
from .hyperg import PhiSpec, phi_sum_cleared
from .qkit import (ParamExpr, Q, choose2, one_minus_q, poch_prefixes, poch_suffixes,
                   qbinomial, qpochhammer, terminating_weight)
from .report import CaseKind

_T2 = ParamExpr.of(1, {"t": 2})  # the base t^2 used where sqrt(q) would appear


def _mono(coeff=1, **powers) -> MultiLaurentPoly:
    return MultiLaurentPoly.monomial(coeff, powers)


def _pe(coeff=1, **powers) -> ParamExpr:
    return ParamExpr.of(coeff, powers)


def _qq(n: int) -> MultiLaurentPoly:
    """(q;q)_n."""
    return qpochhammer(Q, n)


def _shifted_factorial_ratio(n: int, parts) -> MultiLaurentPoly:
    """(q;q)_n / prod (q;q)_p for p in parts; exact by the stated identities."""
    den = MultiLaurentPoly.const(1)
    for p in parts:
        den = den * _qq(p)
    return exact_div(_qq(n), den)


# ---------------------------------------------------------------------------
# Core product formula: two 3phi2 factors against a single six-Pochhammer sum.
# ---------------------------------------------------------------------------

def clausen_orr_sides(n: int) -> tuple:
    """Cleared sides of the root-free product formula in symbolic a, x, c.

    lhs * (c;q)_n^2 (c;q)_{2n}:
        [sum_k w_k (a;q)_k (x;q)_k   q^k (cq^k;q)_{n-k}]
      * [sum_k w_k (a;q)_k (c/x;q)_k q^k (cq^k;q)_{n-k}] * (c;q)_{2n}
    rhs, same clearing:
        (c;q)_n * sum_k w_k (cq^n;q)_k (a;q)_k a^{n-k} prod_{i<k}(a - cq^i)
                  (x;q)_k (c/x;q)_k q^k (cq^k;q)_{n-k} (cq^{2k};q)_{2(n-k)}
    with w_k = (q^{-n};q)_k / (q;q)_k.
    """
    qn, a, x, c = ParamExpr.q_power(-n), _pe(1, a=1), _pe(1, x=1), _pe(1, c=1)
    cx = _pe(1, c=1, x=-1)
    s1, _ = phi_sum_cleared(PhiSpec.of([qn, a, x], [c, 0], Q))
    s2, _ = phi_sum_cleared(PhiSpec.of([qn, a, cx], [c, 0], Q))
    pa = poch_prefixes(a, n)
    px = poch_prefixes(x, n)
    pcx = poch_prefixes(cx, n)
    pcqn = poch_prefixes(_pe(1, c=1, q=n), n)
    ctail = poch_suffixes(c, n)
    c2tail = poch_suffixes(c, 2 * n)
    aca = poch_prefixes(c, n, lead=_mono(a=1))

    rhs_sum = MultiLaurentPoly.zero()
    for k in range(n + 1):
        w = terminating_weight(n, k) * _mono(1, q=k)
        rterm = w * pcqn[k] * pa[k] * aca[k] * _mono(1, a=n - k)
        rterm = rterm * px[k] * pcx[k] * ctail[k] * c2tail[2 * k]
        rhs_sum = rhs_sum + rterm
    lhs = s1 * s2 * c2tail[0]
    rhs = ctail[0] * rhs_sum
    return lhs, rhs



def final_square_sides(n: int) -> tuple:
    """Cleared sides of the c = x^2 corollary: the square of one 3phi2 as a 5phi4.

    Root-free regrouping: the lower parameters x q^{1/2}, -x q^{1/2} enter only
    through (x q^{1/2};q)_k (-x q^{1/2};q)_k = (x^2 q; q^2)_k.
    """
    a, x, x2 = _pe(1, a=1), _pe(1, x=1), _pe(1, x=2)
    s3, _ = phi_sum_cleared(PhiSpec.of([ParamExpr.q_power(-n), a, x], [x2, 0], Q))
    pa = poch_prefixes(a, n)
    px = poch_prefixes(x, n)
    pxqn = poch_prefixes(_pe(1, x=2, q=n), n)
    x2tail = poch_suffixes(x2, n)
    mxtail = poch_suffixes(_pe(-1, x=1), n)
    x2qtail = poch_suffixes(_pe(1, x=2, q=1), n, base=ParamExpr.of(1, {"q": 2}))
    axa = poch_prefixes(x2, n, lead=_mono(a=1))

    rhs_sum = MultiLaurentPoly.zero()
    for k in range(n + 1):
        w = terminating_weight(n, k) * _mono(1, q=k)
        rterm = w * pxqn[k] * pa[k] * axa[k] * _mono(1, a=n - k) * px[k]
        rterm = rterm * x2tail[k] * mxtail[k] * x2qtail[k]
        rhs_sum = rhs_sum + rterm
    lhs = s3 * s3 * mxtail[0] * x2qtail[0]
    rhs = x2tail[0] * rhs_sum
    return lhs, rhs



def sqrt_corollary_sides(m: int) -> tuple:
    """Cleared sides of the even-order square root: 3phi2(q^{-2m},a,x;x^2,0) = a^m 4phi3.

    Verified after the base substitution q = t^2, so q^{1/2} becomes t and both
    sides live in the Laurent ring over t, a, x.  Clearing factor:
    (x^2;t^2)_{2m} (xt;t^2)_m (-xt;t^2)_m (-x;t^2)_m.
    """
    a, x2 = _pe(1, a=1), _pe(1, x=2)
    lhs_sum, x2_whole = phi_sum_cleared(
        PhiSpec.of([ParamExpr.q_power(-2 * m), a, _pe(1, x=1)], [x2, 0], Q))
    pa = poch_prefixes(a, m, base=_T2)
    pxtm = poch_prefixes(_pe(1, x=1, t=2 * m), m, base=_T2)
    xt_tail = poch_suffixes(_pe(1, x=1, t=1), m, base=_T2)
    mxt_tail = poch_suffixes(_pe(-1, x=1, t=1), m, base=_T2)
    mx_tail = poch_suffixes(_pe(-1, x=1), m, base=_T2)
    axa = poch_prefixes(x2, m, base=_T2, lead=_mono(a=1))

    lhs = lhs_sum.substitute({"q": _T2}) * xt_tail[0] * mxt_tail[0] * mx_tail[0]

    rhs = MultiLaurentPoly.zero()
    for k in range(m + 1):
        w = terminating_weight(m, k).substitute({"q": _T2}) * _mono(1, t=2 * k)
        term = w * pxtm[k] * pa[k] * axa[k] * _mono(1, a=m - k)
        term = term * xt_tail[k] * mxt_tail[k] * mx_tail[k]
        rhs = rhs + term
    rhs = rhs * x2_whole.substitute({"q": _T2})
    return lhs, rhs



# ---------------------------------------------------------------------------
# The (x;q^2) companion product formula and its transformation lemmas.
# ---------------------------------------------------------------------------

_Q2 = ParamExpr.of(1, {"q": 2})


def special3_sides(n: int) -> tuple:
    """Cleared sides of the (x;q^2)-weighted product formula, symbolic in x, c."""
    px2 = poch_prefixes(_pe(1, x=1), n, base=_Q2)
    pc2x = poch_prefixes(_pe(1, c=2, x=-1), n, base=_Q2)
    pcqn = poch_prefixes(_pe(1, c=1, q=n), n)
    ctail = poch_suffixes(_pe(1, c=1), n)
    c2tail = poch_suffixes(_pe(1, c=1), 2 * n)

    s1 = MultiLaurentPoly.zero()
    s2 = MultiLaurentPoly.zero()
    rhs_sum = MultiLaurentPoly.zero()
    for k in range(n + 1):
        w = terminating_weight(n, k)
        common = w * px2[k] * ctail[k]
        s1 = s1 + common * _mono(1, q=k)
        s2 = s2 + common * _mono(1, c=k, q=n * k - choose2(k), x=-k)
        rterm = w * _mono(1, q=k) * pcqn[k] * px2[k] * pc2x[k] * ctail[k] * c2tail[2 * k]
        rhs_sum = rhs_sum + rterm
    return s1 * s2 * c2tail[0], ctail[0] * rhs_sum



def special1_sides(n: int) -> tuple:
    """Cleared sides of the a = -x specialization of the core product formula."""
    s2, _ = phi_sum_cleared(PhiSpec.of(
        [ParamExpr.q_power(-n), _pe(-1, x=1), _pe(1, c=1, x=-1)], [_pe(1, c=1), 0], Q))
    px2 = poch_prefixes(_pe(1, x=2), n, base=_Q2)
    pc2x2 = poch_prefixes(_pe(1, c=2, x=-2), n, base=_Q2)
    pcqn = poch_prefixes(_pe(1, c=1, q=n), n)
    ctail = poch_suffixes(_pe(1, c=1), n)
    c2tail = poch_suffixes(_pe(1, c=1), 2 * n)

    s1 = MultiLaurentPoly.zero()
    rhs_sum = MultiLaurentPoly.zero()
    for k in range(n + 1):
        w = terminating_weight(n, k) * _mono(1, q=k)
        s1 = s1 + w * px2[k] * ctail[k]
        rhs_sum = rhs_sum + w * pcqn[k] * px2[k] * pc2x2[k] * ctail[k] * c2tail[2 * k]
    sign = -1 if n % 2 else 1
    return s1 * s2 * c2tail[0], _mono(sign, x=n) * ctail[0] * rhs_sum



def special222_sides(n: int) -> tuple:
    """Cleared sides of the two-variable transformation, symbolic in x, y, c:

    3phi2(q^{-n}, x, y; c, 0; q, q) = x^n 3phi1(q^{-n}, x, c/y; c; q, q^n y/x).
    """
    qn, x, c = ParamExpr.q_power(-n), _pe(1, x=1), _pe(1, c=1)
    lhs, _ = phi_sum_cleared(PhiSpec.of([qn, x, _pe(1, y=1)], [c, 0], Q))
    rhs, _ = phi_sum_cleared(
        PhiSpec.of([qn, x, _pe(1, c=1, y=-1)], [c], _pe(1, q=n, y=1, x=-1)))
    return lhs, _mono(1, x=n) * rhs



def special2_sides(n: int) -> tuple:
    """Cleared sides of the x -> -x, y -> c/x instance used by the companion formula."""
    lhs, _ = phi_sum_cleared(PhiSpec.of(
        [ParamExpr.q_power(-n), _pe(-1, x=1), _pe(1, c=1, x=-1)], [_pe(1, c=1), 0], Q))
    px2 = poch_prefixes(_pe(1, x=2), n, base=_Q2)
    ctail = poch_suffixes(_pe(1, c=1), n)
    rhs = MultiLaurentPoly.zero()
    for k in range(n + 1):
        w = terminating_weight(n, k)
        rhs = rhs + w * px2[k] * _mono(1, c=k, q=n * k - choose2(k), x=-2 * k) * ctail[k]
    sign = -1 if n % 2 else 1
    return lhs, _mono(sign, x=n) * rhs



# ---------------------------------------------------------------------------
# Shifted forms: summation starting at k = s with (q;q)_{k-s} (q;q)_{k+s}.
# ---------------------------------------------------------------------------

def _range_tails(n: int, s: int) -> list:
    """tails[k] = (q^{k-s+1};q)_{n-k} (q^{k+s+1};q)_{n-k} for k = s..n (index k)."""
    t1 = poch_suffixes(Q, n - s)
    t2 = poch_suffixes(ParamExpr.q_power(2 * s + 1), n - s)
    return [None] * s + [a * b for a, b in zip(t1, t2)]


def general_s_sides(n: int, s: int) -> tuple:
    """Cleared sides of the shifted product formula with c = q^{2s+1}, symbolic a, x.

    Clearing multiplies both sides by D^2 G E with D = (q;q)_{n-s}(q;q)_{n+s},
    G = (q^{n+1};q)_s (q/a;q)_s, E = (q;q)_{2n}.
    """
    return _general_s_sides(n, s, ParamExpr.var("a"))


def _general_s_sides(n: int, s: int, a: ParamExpr) -> tuple:
    """``general_s_sides`` with a bound to the monomial ``a``."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    pqn = poch_prefixes(ParamExpr.q_power(-n), n)
    pa = poch_prefixes(a, n)
    px = poch_prefixes(_pe(1, x=1), n)
    pqx = poch_prefixes(_pe(1, q=1, x=-1), n)
    pqa = poch_prefixes(Q * a.power(-1), n)
    pqn1 = poch_prefixes(ParamExpr.q_power(n + 1), n)
    tails = _range_tails(n, s)
    e2tail = poch_suffixes(Q, 2 * n)

    s1 = MultiLaurentPoly.zero()
    s2 = MultiLaurentPoly.zero()
    rhs_sum = MultiLaurentPoly.zero()
    for k in range(s, n + 1):
        base = pqn[k] * _mono(1, q=k) * tails[k]
        s1 = s1 + base * pa[k] * px[k]
        s2 = s2 + base * pa[k] * pqx[k]
        rterm = base * pqn1[k] * pa[k] * pqa[k] * px[k] * pqx[k] * e2tail[2 * k]
        rhs_sum = rhs_sum + rterm
    g = pqn1[s] * pqa[s]
    lhs = s1 * s2 * g * e2tail[0]
    d_whole = _qq(n - s) * _qq(n + s)
    lead = pqn[s] * pa[s] * (a.power(n - s) * ParamExpr.q_power((n + 1) * s - s * s)).as_poly()
    rhs = lead * rhs_sum * d_whole
    return lhs, rhs



def q2_product_sides(n: int, s: int) -> tuple:
    """Cleared sides of the (q^{-2n};q^2)-weighted product identity, coded from its own display.

    This is the a = -q^{-n} instance of the shifted product formula, verified
    independently; the specialization consistency is a separate check.
    """
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    pq2n = poch_prefixes(ParamExpr.of(1, {"q": -2 * n}), n, base=_Q2)
    px = poch_prefixes(_pe(1, x=1), n)
    pqx = poch_prefixes(_pe(1, q=1, x=-1), n)
    tails = _range_tails(n, s)
    e2tail = poch_suffixes(Q, 2 * n)
    q2up = poch_prefixes(_Q2, n + n, base=_Q2)   # (q^2;q^2)_j for j <= 2n

    s1 = MultiLaurentPoly.zero()
    s2 = MultiLaurentPoly.zero()
    rhs_sum = MultiLaurentPoly.zero()
    for k in range(s, n + 1):
        base = pq2n[k] * _mono(1, q=k) * tails[k]
        s1 = s1 + base * px[k]
        s2 = s2 + base * pqx[k]
        sign = -1 if k % 2 else 1
        # (q^2;q^2)_{n-s} / (q^2;q^2)_{n-k} = (q^{2(n-k)+2}; q^2)_{k-s}
        drop = qpochhammer(ParamExpr.q_power(2 * (n - k) + 2), k - s, base=_Q2)
        rterm = _mono(sign, q=k * k - 2 * n * k) * q2up[n + k] * px[k] * pqx[k]
        rhs_sum = rhs_sum + rterm * drop * tails[k] * e2tail[2 * k]
    # One (q^2;q^2)_{n-s} cancels the prefactor denominator, a second one feeds
    # the per-term (q^2;q^2)_{n-s}/(q^2;q^2)_{n-k} quotient above.
    lhs = s1 * s2 * e2tail[0] * q2up[n + s] * q2up[n - s] * q2up[n - s]
    sign = -1 if n % 2 else 1
    lead = _mono(sign, q=-n * n) * q2up[n] * q2up[n]
    d_whole = _qq(n - s) * _qq(n + s)
    rhs = lead * rhs_sum * d_whole
    return lhs, rhs



def general_s_specialization_difference(n: int, s: int) -> MultiLaurentPoly:
    """Cross-check: the a = -q^{-n} image of the shifted formula is the q^2 display.

    With a bound to -q^{-n}, (a;q)_k (q^{-n};q)_k = (q^{-2n};q^2)_k and
    (q/a;q)_s = (-q^{n+1};q)_s; comparing the two cleared forms requires
    rebalancing by G|_{a=-q^{-n}} on one side and (q^2;q^2)_{n+s}(q^2;q^2)_{n-s}
    on the other.
    """
    gl, gr = _general_s_sides(n, s, ParamExpr.of(-1, {"q": -n}))
    il, ir = q2_product_sides(n, s)
    g_at = (poch_prefixes(ParamExpr.q_power(n + 1), s)[s]
            * qpochhammer(ParamExpr.of(-1, {"q": n + 1}), s))
    nms = qpochhammer(_Q2, n - s, base=_Q2)
    scale = qpochhammer(_Q2, n + s, base=_Q2) * nms * nms
    diff_l = gl * scale - il * g_at
    diff_r = gr * scale - ir * g_at
    return diff_l if not diff_l.is_zero() else diff_r


def special3_shifted_sides(n: int, s: int) -> tuple:
    """Cleared sides of the shifted (x;q^2)-weighted product formula."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    pqn = poch_prefixes(ParamExpr.q_power(-n), n)
    px2 = poch_prefixes(_pe(1, x=1), n, base=_Q2)
    pq2x = poch_prefixes(_pe(1, q=2, x=-1), n, base=_Q2)
    pqn1 = poch_prefixes(ParamExpr.q_power(n + 1), n)
    tails = _range_tails(n, s)
    e2tail = poch_suffixes(Q, 2 * n)

    s1 = MultiLaurentPoly.zero()
    s2 = MultiLaurentPoly.zero()
    rhs_sum = MultiLaurentPoly.zero()
    for k in range(s, n + 1):
        base = pqn[k] * px2[k] * tails[k]
        s1 = s1 + base * _mono(1, q=k)
        s2 = s2 + base * _mono(1, q=(n + 1) * k - choose2(k), x=-k)
        rterm = pqn[k] * pqn1[k] * px2[k] * pq2x[k] * _mono(1, q=k)
        rhs_sum = rhs_sum + rterm * tails[k] * e2tail[2 * k]
    lhs = s1 * s2 * pq2x[s] * e2tail[0]
    sign = -1 if s % 2 else 1
    lead = _mono(sign, q=s, x=-s) * _qq(n) * _qq(n) * px2[s]
    rhs = lead * rhs_sum
    return lhs, rhs



# ---------------------------------------------------------------------------
# Double-sum lemmas with the antisymmetric (1 - q^{k-j}) kernel.
# ---------------------------------------------------------------------------

def lemma_last_sides(n: int, m: int, h: int) -> tuple:
    """Cleared sides of the double-sum evaluation with (x;q)_j (x;q)_k weights.

    Constraints: n, h >= 1, m >= 0, h <= n - m.  Clearing factor (c;q)_m (c;q)_n.
    """
    if n < 1 or h < 1 or m < 0 or h > n - m:
        raise ValueError("need n, h >= 1, m >= 0 and h <= n - m")
    px = poch_prefixes(_pe(1, x=1), max(n, m + h))
    cm_tail = poch_suffixes(_pe(1, c=1), m)
    cn_tail = poch_suffixes(_pe(1, c=1), n)
    gate = [qpochhammer(ParamExpr.q_power(i - m - h + 1), h - 1) for i in range(n + 1)]

    lhs = MultiLaurentPoly.zero()
    for j in range(m + 1):
        for k in range(n + 1):
            if k == j:
                continue
            term = terminating_weight(n, j) * terminating_weight(n, k)
            term = term * px[j] * px[k] * gate[j] * gate[k]
            term = term * one_minus_q(k - j)
            term = term * _mono(1, q=2 * j + k) * cm_tail[j] * cn_tail[k]
            lhs = lhs + term
    sign = -1 if (m - 1) % 2 else 1
    exp = (m * m + 3 * m) // 2 - m * n - m * h - h * h + h
    rhs = _shifted_factorial_ratio(n, (m, n - m - h)) * _qq(h - 1) * px[m + h]
    rhs = rhs * poch_prefixes(_pe(1, c=1), n - h, lead=_mono(x=1))[n - h]
    rhs = rhs * _mono(sign, q=exp)
    return lhs, rhs



def lemma_am2_sides(n: int, m: int, h: int) -> tuple:
    """Cleared sides of the double-sum evaluation with binomial gates and (a;q) weights."""
    if n < 1 or h < 1 or m < 0 or h > n - m:
        raise ValueError("need n, h >= 1, m >= 0 and h <= n - m")
    pa = poch_prefixes(_pe(1, a=1), max(n, m + h))
    cm_tail = poch_suffixes(_pe(1, c=1), m)
    cn_tail = poch_suffixes(_pe(1, c=1), n)

    lhs = MultiLaurentPoly.zero()
    for j in range(m + 1):
        for k in range(m + h, n + 1):
            term = terminating_weight(n, j) * terminating_weight(n, k)
            term = term * pa[j] * pa[k]
            term = term * one_minus_q(k - j)
            term = term * _mono(1, q=j + k + j * h)
            term = term * qbinomial(k - m - 1, h - 1) * qbinomial(m + h - j - 1, h - 1)
            lhs = lhs + term * cm_tail[j] * cn_tail[k]
    sign = -1 if (m - h) % 2 else 1
    exp = (m * m + m - h * h + h) // 2 - m * n
    rhs = _shifted_factorial_ratio(n, (m, h - 1, n - m - h)) * pa[m + h]
    rhs = rhs * poch_prefixes(_pe(1, c=1), n - h, lead=_mono(a=1))[n - h]
    rhs = rhs * _mono(sign, q=exp)
    return lhs, rhs



def b_poly(n: int, k: int, a: ParamExpr = ParamExpr.var("a")) -> MultiLaurentPoly:
    """The connection kernel B_{n,k}(a) = (1-q^n) sum_h (-1)^h [n-k-1;h-1][k+h-1;h-1] q^{C(h,2)+kh} a^h / (1-q^h).

    Each h-term's division by (1 - q^h) is exact; k >= n gives the empty sum.
    The monomial ``a`` defaults to the symbol a.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    out = MultiLaurentPoly.zero()
    one_minus_qn = one_minus_q(n)
    for h in range(1, n - k + 1):
        num = one_minus_qn * qbinomial(n - k - 1, h - 1) * qbinomial(k + h - 1, h - 1)
        quot = exact_div(num, one_minus_q(h))
        sign = -1 if h % 2 else 1
        out = out + quot * (a.power(h) * _pe(sign, q=choose2(h) + k * h)).as_poly()
    return out


def lem_important2_sides(n: int) -> tuple:
    """Sides of (x;q)_n + (a/x;q)_n = (x;q)_n (a/x;q)_n + (a;q)_n + sum_k (x;q)_k (a/x;q)_k B_{n,k}(a)."""
    if n < 1:
        raise ValueError("need n >= 1")
    px = poch_prefixes(_pe(1, x=1), n)
    pax = poch_prefixes(_pe(1, a=1, x=-1), n)
    pa = poch_prefixes(_pe(1, a=1), n)
    lhs = px[n] + pax[n]
    rhs = px[n] * pax[n] + pa[n]
    for k in range(1, n):
        rhs = rhs + px[k] * pax[k] * b_poly(n, k)
    return lhs, rhs



def connection_coefficients_difference(n: int, m: int) -> MultiLaurentPoly:
    """The coefficient of (x;q)_m (c/x;q)_m in the product expansion, three ways.

    Computes the connection coefficient from its defining double sum (using the
    kernel B and the single-sum closed form), from the intermediate single-sum
    form, and from the fully summed product form; all three must agree.  All
    values are cleared by (c;q)_m (c;q)_n.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    pa = poch_prefixes(_pe(1, a=1), n)
    ctail_n = poch_suffixes(_pe(1, c=1), n)
    ctail_m = poch_suffixes(_pe(1, c=1), m)
    aca = poch_prefixes(_pe(1, c=1), n, lead=_mono(a=1))
    sign_m = -1 if m % 2 else 1
    qexp = _mono(sign_m, q=(m * m + m) // 2 - m * n)

    # Single-sum part of the defining expression, summed in closed form.
    a1 = qexp * qbinomial(n, m) * pa[m] * aca[n]

    # Same part, summed term by term (checks the closed form on the way).
    jsum, _ = phi_sum_cleared(PhiSpec.of(
        [ParamExpr.q_power(-n), _pe(1, a=1)], [_pe(1, c=1)], Q))
    a1_direct = terminating_weight(n, m) * _mono(1, q=m) * pa[m] * jsum

    # Kernel part: j <= m < k <= n with B_{k-j, m-j} evaluated at c q^{2j}.
    a2 = MultiLaurentPoly.zero()
    for j in range(m + 1):
        for k in range(m + 1, n + 1):
            kern = b_poly(k - j, m - j, _pe(1, c=1, q=2 * j))
            term = terminating_weight(n, j) * terminating_weight(n, k) * pa[j] * pa[k]
            term = term * _mono(1, q=j + k) * kern * ctail_m[j] * ctail_n[k]
            a2 = a2 + term
    am0 = a1 + a2
    am0_direct = a1_direct + a2

    # Intermediate single sum over h.
    fin1 = MultiLaurentPoly.zero()
    for h in range(n - m + 1):
        term = pa[m + h] * aca[n - h] * _mono(1, q=m * h, c=h)
        term = term * qbinomial(n, m) * qbinomial(n - m, h)
        fin1 = fin1 + term
    fin1 = qexp * fin1

    # Fully summed product form.
    fin2 = qexp * qbinomial(n, m) * pa[m] * aca[m] * _mono(1, a=n - m) \
        * qpochhammer(_pe(1, c=1, q=2 * m), n - m)

    diffs = [am0 - fin1, fin1 - fin2, am0 - am0_direct]
    return next((d for d in diffs if not d.is_zero()), MultiLaurentPoly.zero())


verify_clausen_orr = CaseKind("clausen_orr", __name__, ("n",), ("q", "a", "x", "c"))
verify_final_square = CaseKind("final_square", __name__, ("n",), ("q", "a", "x"))
verify_sqrt_corollary = CaseKind("sqrt_corollary", __name__, ("m",), ("t", "a", "x"))
verify_special3 = CaseKind("special3", __name__, ("n",), ("q", "x", "c"))
verify_special1 = CaseKind("special1", __name__, ("n",), ("q", "x", "c"))
verify_special222 = CaseKind("special222", __name__, ("n",), ("q", "x", "y", "c"))
verify_special2 = CaseKind("special2", __name__, ("n",), ("q", "x", "c"))
verify_general_s = CaseKind("general_s", __name__, ("n", "s"), ("q", "a", "x"))
verify_q2_product = CaseKind("q2_product", __name__, ("n", "s"), ("q", "x"))
verify_general_s_specialization = CaseKind(
    "general_s_specialization", __name__, ("n", "s"), ("q", "x"),
    difference="general_s_specialization_difference")
verify_special3_shifted = CaseKind("special3_shifted", __name__, ("n", "s"), ("q", "x"))
verify_lemma_last = CaseKind("lemma_last", __name__, ("n", "m", "h"), ("q", "x", "c"))
verify_lemma_am2 = CaseKind("lemma_am2", __name__, ("n", "m", "h"), ("q", "a", "c"))
verify_lem_important2 = CaseKind("lem_important2", __name__, ("n",), ("q", "a", "x"))
connection_coefficients = CaseKind(
    "connection_coefficients", __name__, ("n", "m"), ("q", "a", "c"),
    difference="connection_coefficients_difference")
