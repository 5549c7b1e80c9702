"""Mechanical verification of the product and transformation identities.

Every check reduces an identity between terminating series to an equality of
Laurent polynomials: both sides are multiplied by an explicit clearing factor
(a product of Pochhammer symbols covering every summand's denominator), each
summand's denominator cancels exactly into tail factors such as

    (c;q)_n / (c;q)_k = (c q^k; q)_{n-k},

and the verified statement is always "difference polynomial equals zero".
Where it leaves the same nonzero product on both sides (a (c;q)_n, or the
s-prefix that every summand of a shifted form carries), the builder never
multiplies that product in: in an integral domain the identity is unchanged, and
both shifted displays at a = -q^{-n} then clear to the same pair.
A side that is a terminating rphis series in base q (the 3phi2 factors, the
3phi1 transformation) is built by
``hyperg.phi_sum_cleared``, which clears it by exactly these lower Pochhammer
symbols; sums in base q^2 or over a shifted range k >= s are written out here.
The lemmas' right sides close with q-factorial ratios, each built as a product of
Gaussian binomials and (q;q) factors, so no closed form divides.
Square roots never appear: identities stated with sqrt(c) or q^{1/2} are
verified in an equivalent root-free form, via (c;q)_{2k} regrouping or the
injective ring map q -> q^2, under which q^{1/2} is q itself.  A specialization
of a parameter to a monomial (a = -q^{-n} in the shifted formula, a = c q^{2j}
in the connection kernel) is built with the parameter already bound, never
substituted into the symbolic sides afterwards; substitution is a ring
homomorphism, so the polynomial is the same.

Builders named ``*_sides`` return the cleared (lhs, rhs) pair so that tests
can exercise substitution consistency between related identities; the public
``verify_*`` names are CaseKind rows over them, returning a VerificationReport.
"""

from __future__ import annotations

from .exactalg import MultiLaurentPoly, exact_div, sum_of_products
from .hyperg import PhiSpec, phi_sum_cleared
from .qkit import (Q, choose2, one_minus_q, poch_prefixes, poch_suffixes, qbinomial,
                   qpochhammer, terminating_weight)
from .report import CaseKind


def _mono(coeff=1, **powers) -> MultiLaurentPoly:
    """The Laurent monomial coeff * prod(var^exp), a parameter or a factor."""
    return MultiLaurentPoly.monomial(coeff, powers)


_Q2 = _mono(q=2)  # the base q^2, and the image of q under q -> q^2


# ---------------------------------------------------------------------------
# Core product formula: two 3phi2 factors against a single six-Pochhammer sum.
# ---------------------------------------------------------------------------

def clausen_orr_sides(n: int) -> tuple:
    """Cleared sides of the root-free product formula in symbolic a, x, c.

    lhs * (c;q)_n (c;q)_{2n}:
        [sum_k w_k (a;q)_k (x;q)_k   q^k (cq^k;q)_{n-k}]
      * [sum_k w_k (a;q)_k (c/x;q)_k q^k (cq^k;q)_{n-k}] * (cq^n;q)_n
    rhs, same clearing:
        sum_k w_k (cq^n;q)_k (a;q)_k a^{n-k} prod_{i<k}(a - cq^i)
                  (x;q)_k (c/x;q)_k q^k (cq^k;q)_{n-k} (cq^{2k};q)_{2(n-k)}
    with w_k = (q^{-n};q)_k / (q;q)_k.  Clearing by (c;q)_n^2 (c;q)_{2n} leaves one
    (c;q)_n on both sides, nonzero for symbolic c: it is never multiplied in.
    """
    qn, a, x, c = _mono(q=-n), _mono(a=1), _mono(x=1), _mono(c=1)
    cx = _mono(c=1, x=-1)
    s1, _ = phi_sum_cleared(PhiSpec.of([qn, a, x], [c, 0], Q))
    s2, _ = phi_sum_cleared(PhiSpec.of([qn, a, cx], [c, 0], Q))
    pa = poch_prefixes(a, n)
    px = poch_prefixes(x, n)
    pcx = poch_prefixes(cx, n)
    pcqn = poch_prefixes(_mono(c=1, q=n), n)
    ctail = poch_suffixes(c, n)
    c2tail = poch_suffixes(c, 2 * n)
    aca = poch_prefixes(c, n, lead=_mono(a=1))

    rhs_sum = sum_of_products((terminating_weight(n, k), _mono(q=k, a=n - k), pcqn[k], pa[k],
                               aca[k], px[k], pcx[k], ctail[k], c2tail[2 * k])
                              for k in range(n + 1))
    return s1 * s2 * c2tail[n], rhs_sum



def final_square_sides(n: int) -> tuple:
    """Cleared sides of the c = x^2 corollary: the square of one 3phi2 as a 5phi4.

    Root-free regrouping: the lower parameters x q^{1/2}, -x q^{1/2} enter only
    through (x q^{1/2};q)_k (-x q^{1/2};q)_k = (x^2 q; q^2)_k.
    """
    a, x, x2 = _mono(a=1), _mono(x=1), _mono(x=2)
    s3, _ = phi_sum_cleared(PhiSpec.of([_mono(q=-n), a, x], [x2, 0], Q))
    pa = poch_prefixes(a, n)
    px = poch_prefixes(x, n)
    pxqn = poch_prefixes(_mono(x=2, q=n), n)
    x2tail = poch_suffixes(x2, n)
    mxtail = poch_suffixes(_mono(-1, x=1), n)
    x2qtail = poch_suffixes(_mono(x=2, q=1), n, base=_mono(q=2))
    axa = poch_prefixes(x2, n, lead=_mono(a=1))

    rhs_sum = sum_of_products((terminating_weight(n, k), _mono(q=k, a=n - k), pxqn[k], pa[k],
                               axa[k], px[k], x2tail[k], mxtail[k], x2qtail[k])
                              for k in range(n + 1))
    lhs = s3 * s3 * mxtail[0] * x2qtail[0]
    rhs = x2tail[0] * rhs_sum
    return lhs, rhs



def sqrt_corollary_sides(m: int) -> tuple:
    """Cleared sides of the even-order square root: 3phi2(q^{-2m},a,x;x^2,0) = a^m 4phi3.

    Verified under the injective ring map q -> q^2, so t = q^{1/2} of the display
    (its record's free variable t) is carried by the kernel's q, and both sides
    live in the Laurent ring over q, a, x.  Clearing factor:
    (x^2;q^2)_{2m} (xq;q^2)_m (-xq;q^2)_m (-x;q^2)_m.
    """
    a, x2 = _mono(a=1), _mono(x=2)
    lhs_sum, x2_whole = phi_sum_cleared(
        PhiSpec.of([_mono(q=-2 * m), a, _mono(x=1)], [x2, 0], Q))
    pa = poch_prefixes(a, m, base=_Q2)
    pxqm = poch_prefixes(_mono(x=1, q=2 * m), m, base=_Q2)
    xq_tail = poch_suffixes(_mono(x=1, q=1), m, base=_Q2)
    mxq_tail = poch_suffixes(_mono(-1, x=1, q=1), m, base=_Q2)
    mx_tail = poch_suffixes(_mono(-1, x=1), m, base=_Q2)
    axa = poch_prefixes(x2, m, base=_Q2, lead=_mono(a=1))

    lhs = lhs_sum.substitute({"q": _Q2}) * xq_tail[0] * mxq_tail[0] * mx_tail[0]
    rhs_sum = sum_of_products((terminating_weight(m, k).substitute({"q": _Q2}),
                               _mono(q=2 * k, a=m - k), pxqm[k], pa[k], axa[k],
                               xq_tail[k], mxq_tail[k], mx_tail[k])
                              for k in range(m + 1))
    return lhs, rhs_sum * x2_whole.substitute({"q": _Q2})



# ---------------------------------------------------------------------------
# The (x;q^2) companion product formula and its transformation lemmas.
# ---------------------------------------------------------------------------


def special3_sides(n: int) -> tuple:
    """Cleared sides of the (x;q^2)-weighted product formula in x, c; cleared as clausen_orr."""
    px2 = poch_prefixes(_mono(x=1), n, base=_Q2)
    pc2x = poch_prefixes(_mono(c=2, x=-1), n, base=_Q2)
    pcqn = poch_prefixes(_mono(c=1, q=n), n)
    ctail = poch_suffixes(_mono(c=1), n)
    c2tail = poch_suffixes(_mono(c=1), 2 * n)

    ks = range(n + 1)
    w = [terminating_weight(n, k) for k in ks]
    s1 = sum_of_products((w[k], _mono(q=k), px2[k], ctail[k]) for k in ks)
    s2 = sum_of_products((w[k], _mono(c=k, q=n * k - choose2(k), x=-k), px2[k], ctail[k])
                         for k in ks)
    rhs_sum = sum_of_products((w[k], _mono(q=k), pcqn[k], px2[k], pc2x[k], ctail[k],
                               c2tail[2 * k]) for k in ks)
    return s1 * s2 * c2tail[n], rhs_sum



def special1_sides(n: int) -> tuple:
    """Cleared sides of the core product formula at a = -x, by its clearing factor."""
    s2, _ = phi_sum_cleared(PhiSpec.of(
        [_mono(q=-n), _mono(-1, x=1), _mono(c=1, x=-1)], [_mono(c=1), 0], Q))
    px2 = poch_prefixes(_mono(x=2), n, base=_Q2)
    pc2x2 = poch_prefixes(_mono(c=2, x=-2), n, base=_Q2)
    pcqn = poch_prefixes(_mono(c=1, q=n), n)
    ctail = poch_suffixes(_mono(c=1), n)
    c2tail = poch_suffixes(_mono(c=1), 2 * n)

    ks = range(n + 1)
    w = [terminating_weight(n, k) * _mono(q=k) for k in ks]
    s1 = sum_of_products((w[k], px2[k], ctail[k]) for k in ks)
    rhs_sum = sum_of_products((w[k], pcqn[k], px2[k], pc2x2[k], ctail[k], c2tail[2 * k])
                              for k in ks)
    sign = -1 if n % 2 else 1
    return s1 * s2 * c2tail[n], _mono(sign, x=n) * rhs_sum



def special222_sides(n: int) -> tuple:
    """Cleared sides of the two-variable transformation, symbolic in x, y, c:

    3phi2(q^{-n}, x, y; c, 0; q, q) = x^n 3phi1(q^{-n}, x, c/y; c; q, q^n y/x).
    """
    qn, x, c = _mono(q=-n), _mono(x=1), _mono(c=1)
    lhs, _ = phi_sum_cleared(PhiSpec.of([qn, x, _mono(y=1)], [c, 0], Q))
    rhs, _ = phi_sum_cleared(
        PhiSpec.of([qn, x, _mono(c=1, y=-1)], [c], _mono(q=n, y=1, x=-1)))
    return lhs, _mono(x=n) * rhs



def special2_sides(n: int) -> tuple:
    """Cleared sides of the x -> -x, y -> c/x instance used by the companion formula."""
    lhs, _ = phi_sum_cleared(PhiSpec.of(
        [_mono(q=-n), _mono(-1, x=1), _mono(c=1, x=-1)], [_mono(c=1), 0], Q))
    px2 = poch_prefixes(_mono(x=2), n, base=_Q2)
    ctail = poch_suffixes(_mono(c=1), n)
    rhs = sum_of_products((terminating_weight(n, k), px2[k],
                           _mono(c=k, q=n * k - choose2(k), x=-2 * k), ctail[k])
                          for k in range(n + 1))
    sign = -1 if n % 2 else 1
    return lhs, _mono(sign, x=n) * rhs



# ---------------------------------------------------------------------------
# Shifted forms: summation starting at k = s with (q;q)_{k-s} (q;q)_{k+s}.
# ---------------------------------------------------------------------------

def _range_tails(n: int, s: int) -> list:
    """tails[k] = (q^{k-s+1};q)_{n-k} (q^{k+s+1};q)_{n-k} for k = s..n (index k)."""
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    t1 = poch_suffixes(Q, n - s)
    t2 = poch_suffixes(_mono(q=2 * s + 1), n - s)
    return [None] * s + [a * b for a, b in zip(t1, t2)]


def general_s_sides(n: int, s: int) -> tuple:
    """Cleared sides of the shifted product formula with c = q^{2s+1}, symbolic a, x.

    Clearing by D^2 G E, D = (q;q)_{n-s}(q;q)_{n+s}, G = (q^{n+1};q)_s (q/a;q)_s,
    E = (q;q)_{2n}, leaves P^2 D G on both sides, P = (q^{-n};q)_s (a;q)_s being
    carried by every summand (k >= s) and by the rhs prefactor, G by every rhs
    summand.  It is never multiplied in, so the clearing factor is E D / P^2, and
    E / D = [2n; n-s].  P and G are nonzero: (q^{-n};q)_s (q^{n+1};q)_s has the
    factors 1 - q^e, e != 0, as j - n < 0 for j < s <= n; a is symbolic.
    """
    return _general_s_sides(n, s, _mono(a=1))


def _general_s_sides(n: int, s: int, a: MultiLaurentPoly) -> tuple:
    """``general_s_sides`` at a bound ``a``; at -q^{-n}, (a;q)_s (q/a;q)_s has factors 1 + q^e."""
    tails = _range_tails(n, s)
    # each prefix (y;q)_k over k >= s is (y;q)_s (yq^s;q)_{k-s}: index k - s
    pqn = poch_prefixes(_mono(q=s - n), n - s)
    pa = poch_prefixes(a * _mono(q=s), n - s)
    pqa = poch_prefixes(_mono(q=s + 1) * a ** -1, n - s)
    pqn1 = poch_prefixes(_mono(q=n + s + 1), n - s)
    px = poch_prefixes(_mono(x=1), n)
    pqx = poch_prefixes(_mono(q=1, x=-1), n)
    e2tail = poch_suffixes(Q, 2 * n)

    ks = range(s, n + 1)
    s1 = sum_of_products((pqn[k - s], _mono(q=k), tails[k], pa[k - s], px[k]) for k in ks)
    s2 = sum_of_products((pqn[k - s], _mono(q=k), tails[k], pa[k - s], pqx[k]) for k in ks)
    rhs_sum = sum_of_products((pqn[k - s], _mono(q=k), tails[k], pqn1[k - s], pa[k - s],
                               pqa[k - s], px[k], pqx[k], e2tail[2 * k]) for k in ks)
    return (s1 * s2 * qbinomial(2 * n, n - s),
            a ** (n - s) * _mono(q=(n + 1) * s - s * s) * rhs_sum)



def q2_product_sides(n: int, s: int) -> tuple:
    """Cleared sides of the (q^{-2n};q^2)-weighted product identity, coded from its own display.

    This is the a = -q^{-n} instance of the shifted product formula, verified
    independently; the specialization consistency is a separate check.  Clearing
    by D^2 E (q^2;q^2)_{n-s}^2 (q^2;q^2)_{n+s} (D, E of general_s_sides) leaves P^2 D
    (q^2;q^2)_{n-s}^2 (q^2;q^2)_{n+s} on both sides, P = (q^{-2n};q^2)_s being carried
    by every series term and (q^2;q^2)_{n+s} by every rhs summand's (q^2;q^2)_{n+k}.
    It is never multiplied in: the clearing factor is D E / P^2, as for general_s_sides
    at a = -q^{-n}.  P has the factors 1 - q^{2(j-n)}, j < s <= n, so it is nonzero.
    """
    tails = _range_tails(n, s)
    # (q^{-2n};q^2)_k and (q^2;q^2)_{n+k} over k >= s, each less its s-prefix: index k - s
    pq2n = poch_prefixes(_mono(q=2 * (s - n)), n - s, base=_Q2)
    q2up = poch_prefixes(_mono(q=2 * (n + s + 1)), n - s, base=_Q2)
    px = poch_prefixes(_mono(x=1), n)
    pqx = poch_prefixes(_mono(q=1, x=-1), n)
    q2down = poch_suffixes(_Q2, n - s, base=_Q2)  # index n - k
    e2tail = poch_suffixes(Q, 2 * n)

    ks = range(s, n + 1)
    s1 = sum_of_products((pq2n[k - s], _mono(q=k), tails[k], px[k]) for k in ks)
    s2 = sum_of_products((pq2n[k - s], _mono(q=k), tails[k], pqx[k]) for k in ks)
    # (q^2;q^2)_{n-s} / (q^2;q^2)_{n-k} = (q^{2(n-k)+2}; q^2)_{k-s}
    rhs_sum = sum_of_products((_mono((-1) ** k, q=k * k - 2 * n * k), q2up[k - s], px[k],
                               pqx[k], q2down[n - k], tails[k], e2tail[2 * k]) for k in ks)
    return (s1 * s2 * qbinomial(2 * n, n - s),
            _mono((-1) ** n, q=4 * n * s - n * n - 2 * s * (s - 1)) * rhs_sum)



def general_s_specialization_difference(n: int, s: int) -> MultiLaurentPoly:
    """Cross-check: the a = -q^{-n} image of the shifted formula is the q^2 display.

    There (a;q)_k (q^{-n};q)_k = (q^{-2n};q^2)_k, and both builders clear by the
    same factor, so the cleared pairs are equal; else the first unequal side's difference.
    """
    gl, gr = _general_s_sides(n, s, _mono(-1, q=-n))
    il, ir = q2_product_sides(n, s)
    return gl - il if gl != il else gr - ir


def special3_shifted_sides(n: int, s: int) -> tuple:
    """Cleared sides of the shifted (x;q^2)-weighted product formula.

    Clearing by D^2 E (of general_s_sides) leaves (q;q)_n S on both sides: (q;q)_n from
    E = (q;q)_n (q^{n+1};q)_n and the rhs (q;q)_n^2, and S = (q^{-n};q)_s (x;q^2)_s^2
    (q^2/x;q^2)_s (q^{n+1};q)_s from the summands (k >= s) and the explicit factors.
    It is never multiplied in.  (q^{-n};q)_s has the factors 1 - q^{j-n}, j < s <= n.
    """
    tails = _range_tails(n, s)
    # each prefix over k >= s less its s-prefix, as in general_s_sides: index k - s
    pqn = poch_prefixes(_mono(q=s - n), n - s)
    px2 = poch_prefixes(_mono(x=1, q=2 * s), n - s, base=_Q2)
    pq2x = poch_prefixes(_mono(q=2 * s + 2, x=-1), n - s, base=_Q2)
    pqn1 = poch_prefixes(_mono(q=n + s + 1), n - s)
    e2tail = poch_suffixes(Q, 2 * n)

    ks = range(s, n + 1)
    s1 = sum_of_products((pqn[k - s], px2[k - s], tails[k], _mono(q=k)) for k in ks)
    s2 = sum_of_products((pqn[k - s], px2[k - s], tails[k],
                          _mono(q=(n + 1) * k - choose2(k), x=-k)) for k in ks)
    rhs_sum = sum_of_products((pqn[k - s], pqn1[k - s], px2[k - s], pq2x[k - s], _mono(q=k),
                               tails[k], e2tail[2 * k]) for k in ks)
    # the lhs keeps one of its two (q^{-n};q)_s, and (q^{n+s+1};q)_{n-s} of E
    return (s1 * s2 * (qpochhammer(_mono(q=-n), s) * e2tail[n + s]),
            _mono((-1) ** s, q=s, x=-s) * qpochhammer(Q, n) * rhs_sum)



# ---------------------------------------------------------------------------
# Double-sum lemmas with the antisymmetric (1 - q^{k-j}) kernel.
# ---------------------------------------------------------------------------

def lemma_last_sides(n: int, m: int, h: int) -> tuple:
    """Cleared sides of the double-sum evaluation with (x;q)_j (x;q)_k weights.

    Constraints: n, h >= 1, m >= 0, h <= n - m.  Clearing factor (c;q)_m (c;q)_n.
    """
    if n < 1 or h < 1 or m < 0 or h > n - m:
        raise ValueError("need n, h >= 1, m >= 0 and h <= n - m")
    px = poch_prefixes(_mono(x=1), max(n, m + h))
    cm_tail = poch_suffixes(_mono(c=1), m)
    cn_tail = poch_suffixes(_mono(c=1), n)
    gate = [qpochhammer(_mono(q=i - m - h + 1), h - 1) for i in range(n + 1)]

    lhs = sum_of_products((terminating_weight(n, j), terminating_weight(n, k), px[j], px[k],
                           gate[j], gate[k], one_minus_q(k - j), _mono(q=2 * j + k),
                           cm_tail[j], cn_tail[k])
                          for j in range(m + 1) for k in range(n + 1) if k != j)
    sign = -1 if (m - 1) % 2 else 1
    exp = (m * m + 3 * m) // 2 - m * n - m * h - h * h + h
    # (q;q)_n (q;q)_{h-1} / ((q;q)_m (q;q)_{n-m-h})
    rhs = qbinomial(n, m) * qbinomial(n - m, h) * qpochhammer(Q, h) * qpochhammer(Q, h - 1)
    rhs = rhs * px[m + h] * poch_prefixes(_mono(c=1), n - h, lead=_mono(x=1))[n - h]
    rhs = rhs * _mono(sign, q=exp)
    return lhs, rhs



def lemma_am2_sides(n: int, m: int, h: int) -> tuple:
    """Cleared sides of the double-sum evaluation with binomial gates and (a;q) weights."""
    if n < 1 or h < 1 or m < 0 or h > n - m:
        raise ValueError("need n, h >= 1, m >= 0 and h <= n - m")
    pa = poch_prefixes(_mono(a=1), max(n, m + h))
    cm_tail = poch_suffixes(_mono(c=1), m)
    cn_tail = poch_suffixes(_mono(c=1), n)

    lhs = sum_of_products((terminating_weight(n, j), terminating_weight(n, k), pa[j], pa[k],
                           one_minus_q(k - j), _mono(q=j + k + j * h),
                           qbinomial(k - m - 1, h - 1), qbinomial(m + h - j - 1, h - 1),
                           cm_tail[j], cn_tail[k])
                          for j in range(m + 1) for k in range(m + h, n + 1))
    sign = -1 if (m - h) % 2 else 1
    exp = (m * m + m - h * h + h) // 2 - m * n
    # (q;q)_n / ((q;q)_m (q;q)_{h-1} (q;q)_{n-m-h})
    rhs = qbinomial(n, m) * qbinomial(n - m, h) * one_minus_q(h)
    rhs = rhs * pa[m + h] * poch_prefixes(_mono(c=1), n - h, lead=_mono(a=1))[n - h]
    rhs = rhs * _mono(sign, q=exp)
    return lhs, rhs



def b_poly(n: int, k: int, a: MultiLaurentPoly = _mono(a=1)) -> MultiLaurentPoly:
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
        out = out + quot * (a ** h * _mono(sign, q=choose2(h) + k * h))
    return out


def lem_important2_sides(n: int) -> tuple:
    """Sides of (x;q)_n + (a/x;q)_n = (x;q)_n (a/x;q)_n + (a;q)_n + sum_k (x;q)_k (a/x;q)_k B_{n,k}(a)."""
    if n < 1:
        raise ValueError("need n >= 1")
    px = poch_prefixes(_mono(x=1), n)
    pax = poch_prefixes(_mono(a=1, x=-1), n)
    pa = poch_prefixes(_mono(a=1), n)
    lhs = px[n] + pax[n]
    rhs = sum_of_products([(px[n], pax[n]), (pa[n],)]
                          + [(px[k], pax[k], b_poly(n, k)) for k in range(1, n)])
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
    pa = poch_prefixes(_mono(a=1), n)
    ctail_n = poch_suffixes(_mono(c=1), n)
    ctail_m = poch_suffixes(_mono(c=1), m)
    aca = poch_prefixes(_mono(c=1), n, lead=_mono(a=1))
    sign_m = -1 if m % 2 else 1
    qexp = _mono(sign_m, q=(m * m + m) // 2 - m * n)

    # Single-sum part of the defining expression, summed in closed form by
    # q-Chu-Vandermonde, which the qchu_vandermonde row checks on the engine.
    a1 = qexp * qbinomial(n, m) * pa[m] * aca[n]

    # Kernel part: j <= m < k <= n with B_{k-j, m-j} evaluated at c q^{2j}.
    a2 = sum_of_products((terminating_weight(n, j), terminating_weight(n, k), pa[j], pa[k],
                          _mono(q=j + k), b_poly(k - j, m - j, _mono(c=1, q=2 * j)),
                          ctail_m[j], ctail_n[k])
                         for j in range(m + 1) for k in range(m + 1, n + 1))
    am0 = a1 + a2

    # Intermediate single sum over h.
    fin1 = qexp * qbinomial(n, m) * sum_of_products(
        (pa[m + h], aca[n - h], _mono(q=m * h, c=h), qbinomial(n - m, h)) for h in range(n - m + 1))

    # Fully summed product form.
    fin2 = qexp * qbinomial(n, m) * pa[m] * aca[m] * _mono(a=n - m) \
        * qpochhammer(_mono(c=1, q=2 * m), n - m)

    diffs = [am0 - fin1, fin1 - fin2]
    return next((d for d in diffs if not d.is_zero()), MultiLaurentPoly.zero())


verify_clausen_orr = CaseKind("clausen_orr", __name__, ("q", "a", "x", "c"))
verify_final_square = CaseKind("final_square", __name__, ("q", "a", "x"))
verify_sqrt_corollary = CaseKind("sqrt_corollary", __name__, ("t", "a", "x"))
verify_special3 = CaseKind("special3", __name__, ("q", "x", "c"))
verify_special1 = CaseKind("special1", __name__, ("q", "x", "c"))
verify_special222 = CaseKind("special222", __name__, ("q", "x", "y", "c"))
verify_special2 = CaseKind("special2", __name__, ("q", "x", "c"))
verify_general_s = CaseKind("general_s", __name__, ("q", "a", "x"))
verify_q2_product = CaseKind("q2_product", __name__, ("q", "x"))
verify_general_s_specialization = CaseKind(
    "general_s_specialization", __name__, ("q", "x"),
    difference="general_s_specialization_difference")
verify_special3_shifted = CaseKind("special3_shifted", __name__, ("q", "x"))
verify_lemma_last = CaseKind("lemma_last", __name__, ("q", "x", "c"))
verify_lemma_am2 = CaseKind("lemma_am2", __name__, ("q", "a", "c"))
verify_lem_important2 = CaseKind("lem_important2", __name__, ("q", "a", "x"))
connection_coefficients = CaseKind(
    "connection_coefficients", __name__, ("q", "a", "c"),
    difference="connection_coefficients_difference")
