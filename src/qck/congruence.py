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
r = 1, w_k = q^{-k}, and positivity's thm3-2/3 at every r, one weight each.  A
single-sum term has [m;j], [m+j;j] as factors.  Row m (``_m_row``) owns every
table of m that the two routes read: D_q(m,k), [m;k] and [m+k;k], each entry one
``qkit.lattice_step`` from row m - 1, and the prefix sums of every (r, weight).
The store holds row m and row m - 1's tables, its sums dropped; the suites run a
kind's cases m-major, so each m costs one step and builds its sums once.  Any
other order steps up from the nearest held row, or from row 0, in a loop: the
polynomials are the same, and no m-by-k triangle is kept.  Each term mirrors
the row's D_q(m,k) into D_{1/q}(m,k) as it multiplies it.  The cached tables
``delannoy.dq``, ``dq_inverse_base`` and ``qkit.qbinomial`` serve the Delannoy
kinds (m, n <= 12), the factors free of m and the tests; these rows fill none of
them.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .exactalg import (MultiLaurentPoly, divrem_in_q, exact_div, exact_divide,
                       is_nonneg_integer_laurent, sum_of_products)
from .qkit import bracket, lattice_step, odd_sum, one_minus_q, qbinomial, qpochhammer
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


class _Row:
    """Row m: D_q(m,k), [m;k] and [m+k;k] for k below the row's size, and its sums S_r(m, n)."""

    __slots__ = ("dq", "binom", "binom_up", "sums")

    def __init__(self, dq: list, binom: list, binom_up: list):
        self.dq, self.binom, self.binom_up, self.sums = dq, binom, binom_up, {}


def _origin(size: int) -> _Row:
    """Row 0: D_q(0,k) = [k;k] = 1, and [0;k] = 0 past k = 0."""
    one = MultiLaurentPoly.const(1)
    return _Row([one] * size, [one] + [MultiLaurentPoly.zero()] * (size - 1), [one] * size)


def _step(row: _Row, m: int) -> _Row:
    """Row m from row m - 1: each entry is one ``lattice_step`` from its neighbours.

    D_q(m,k) and [m+k;k] = T(m,k) are lattice rows at i = m, with and without the diagonal;
    [m;k] = [m-1;k-1] + q^k [m-1;k] is the same step at i = k, read along the other axis.
    """
    one, size = MultiLaurentPoly.const(1), len(row.dq)
    dq, up = [one], [one]
    for k in range(1, size):
        dq.append(lattice_step(m, row.dq[k], dq[-1], row.dq[k - 1]))
        up.append(lattice_step(m, row.binom_up[k], up[-1]))
    binom = [one] + [lattice_step(k, row.binom[k - 1], row.binom[k]) for k in range(1, size)]
    return _Row(dq, binom, up)


_ROWS = {}  # m -> _Row: the row last asked for, and the one below it with its sums dropped


def _m_row(m: int, size: int) -> _Row:
    """Row m, its tables at least ``size`` long (at least 1).

    A held row that is long enough is returned as it is.  Otherwise row m is stepped up
    from the nearest held row below it that is long enough, or from row 0 at ``size``,
    one loop iteration per m, and keeps the sums of a shorter row m.  So every call
    order gives the same polynomials, and the store holds two rows, never the triangle.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    size = max(size, 1)
    row = _ROWS.get(m)
    if row is None or len(row.dq) < size:
        start = max((i for i, held in _ROWS.items() if i < m and len(held.dq) >= size),
                    default=None)
        prev, new = None, _origin(size) if start is None else _ROWS[start]
        for i in range((start or 0) + 1, m + 1):
            prev, new = new, _step(new, i)
        if row is not None:
            new.sums = row.sums
        _ROWS.clear()
        if prev is not None:
            _ROWS[m - 1] = prev
        _ROWS[m] = row = new
    for held in _ROWS.values():
        if held is not row:
            held.sums = {}
    return row


_m_row.cache_clear = _ROWS.clear


def odd_delannoy_sum(m: int, n: int, r: int = 1, alternating: bool = False) -> MultiLaurentPoly:
    """S_r(m, n) = sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r w_k, w_k as in ``odd_sum``.

    It extends row m's largest S_r(m, n'), n' < n (if alternating, times (-1)^{n-n'}), by
    ``odd_sum`` over n' <= k < n, whose terms take r copies of the row's D_q(m,k) and of
    its mirror D_{1/q}(m,k), made as the term multiplies it.
    """
    row = _m_row(m, n)
    sums = row.sums.setdefault((r, alternating), {0: MultiLaurentPoly.zero()})
    if n not in sums:
        lo = max(k for k in sums if k < n)
        head = -sums[lo] if alternating and (n - lo) % 2 else sums[lo]
        sums[n] = head + odd_sum([(d, d.invert_variables()) * r for d in row.dq[lo:n]],
                                 alternating, start=lo)
    return sums[n]


def _thm2_lhs_single_sum(p: int, m: int) -> MultiLaurentPoly:
    row = _m_row(m, p)
    return sum_of_products((_single_sum_factor(p, j), row.binom[j], row.binom_up[j],
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
