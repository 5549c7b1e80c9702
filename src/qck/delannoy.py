"""Classical and q-Delannoy numbers and their product formula.

D(m,n) counts lattice paths from (0,0) to (n,m) built from east (1,0),
north (0,1) and diagonal (1,1) steps.  Two q-analogues are used:

    D_q(m,n)  = sum_k q^{C(k,2)}   [n;k] [n+m-k; n]
    D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n]        (= q^{mn} D_{1/q}(m,n))

Both admit alternative expansions with (-1;q)_k and (-q;q)_k weights, and
their product collapses to a single sum (``product_expansion_rhs``); all of it
is verified exactly over polynomials in q, and symbolically in x for the
(x;q)_k form that both expansions and the product specialize from.

D_q has one builder, the m-rows (``_m_row``): row m holds D_q(m,k), [m;k] and
[m+k;k] for k below its size, each entry one ``qkit.lattice_step`` from row
m - 1, and the prefix sums of ``odd_delannoy_sum``, which Theorem 2 and the
thm3 families read; ``dq`` caches entry n of row m.  The store holds row m and
row m - 1, its sums dropped: the suites run a kind's cases m-major, so each m
costs one step.  Any other order steps up from the nearest held row below (a far
one cut to the width asked for), or from row 0, in a loop, to the same
polynomials.  D_{1/q} is D_q's mirror image.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .exactalg import MultiLaurentPoly, sum_of_products
from .qkit import Q, choose2, lattice_step, odd_sum, poch_prefixes, qbinomial
from .report import CaseKind


class DelannoyMismatchError(RuntimeError):
    """The two closed forms for D(m,n) disagreed; arithmetic is broken."""


def delannoy(m: int, n: int) -> int:
    """D(m,n) computed by both binomial sums, which must agree."""
    if m < 0 or n < 0:
        raise ValueError("Delannoy indices must be non-negative")
    s1 = sum(comb(n, k) * comb(n + m - k, n) for k in range(n + 1))
    s2 = sum(comb(n, k) * comb(m, k) * 2 ** k for k in range(n + 1))
    if s1 != s2:
        raise DelannoyMismatchError(
            f"closed forms disagree at ({m},{n}): {s1} != {s2}")
    return s1


def _dq_sum(m: int, n: int, w: MultiLaurentPoly) -> MultiLaurentPoly:
    """sum_{k<=n} q^{C(k,2)} w^k [n;k] [n+m-k; n]: D_q(m,n) at w = 1, D*_q(m,n) at w = q."""
    return sum_of_products((qbinomial(n, k), qbinomial(n + m - k, n),
                            MultiLaurentPoly.var("q", choose2(k)), w ** k) for k in range(n + 1))


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
    from the nearest held row i below it that is long enough, or from row 0 at ``size``,
    one loop iteration per m, and keeps the sums of a shorter row m.  Row i keeps its
    width (the m-major order reads row m as wide as row m - 1) while the m - i rows
    stepped at it are at most one more than the i rows that built it; a farther row is
    cut to ``size``, so a long climb is never made wider than asked for.  So every call
    order gives the same polynomials, and the store holds two rows, never the triangle.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    size = max(size, 1)
    row = _ROWS.get(m)
    if row is None or len(row.dq) < size:
        start, new = max(((i, held) for i, held in _ROWS.items()
                          if i < m and len(held.dq) >= size),
                         key=lambda held: held[0], default=(0, _origin(size)))
        if m - start > start + 1:
            new = _Row(new.dq[:size], new.binom[:size], new.binom_up[:size])
        prev = None
        for i in range(start + 1, m + 1):
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


def row_binomials(m: int, size: int) -> list:
    """([m;j], [m+j;j]) for j < size, from row m: a Theorem 2 single-sum term's m-factors."""
    row = _m_row(m, size)
    return list(zip(row.binom[:size], row.binom_up[:size]))


@lru_cache(maxsize=None)
def dq(m: int, n: int) -> MultiLaurentPoly:
    """D_q(m,n) = sum_k q^{C(k,2)} [n;k] [n+m-k; n], entry n of row m."""
    if m < 0 or n < 0:
        return MultiLaurentPoly.zero()
    return _m_row(m, n + 1).dq[n]


@lru_cache(maxsize=None)
def dq_star(m: int, n: int) -> MultiLaurentPoly:
    """D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n], by the sum: it checks the recurrence."""
    return _dq_sum(m, n, Q)


@lru_cache(maxsize=None)
def dq_inverse_base(m: int, n: int) -> MultiLaurentPoly:
    """D_{1/q}(m,n): D_q(m,n) under q -> q^{-1}, its mirror image."""
    return dq(m, n).invert_variables()


def odd_delannoy_sum(m: int, n: int, r: int = 1, alternating: bool = False) -> MultiLaurentPoly:
    """S_r(m, n) = sum_{k<n} (1-q^{2k+1}) (D_q(m,k) D_{1/q}(m,k))^r w_k, w_k as in ``odd_sum``.

    Theorem 2's sum at r = 1, w_k = q^{-k}, and the thm3-2/3 numerators at every r.  It
    extends row m's largest S_r(m, n'), n' < n (if alternating, times (-1)^{n-n'}), by
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


def dq_alt(m: int, n: int) -> MultiLaurentPoly:
    """The (-1;q)_k expansion: sum_k q^{(m-k)(n-k)} [m;k][n;k] (-1;q)_k == D_q(m,n)."""
    return _alt_sum(m, n, MultiLaurentPoly.const(-1))


def dq_star_alt(m: int, n: int) -> MultiLaurentPoly:
    """The (-q;q)_k expansion: sum_k q^{(m-k)(n-k)} [m;k][n;k] (-q;q)_k == D*_q(n,m).

    Note the swapped arguments on the right-hand side: the sum over k <= m
    with these weights produces D*_q(n, m).
    """
    return _alt_sum(m, n, -Q)


def _alt_sum(m: int, n: int, weight_param: MultiLaurentPoly) -> MultiLaurentPoly:
    """sum_{k<=m} q^{(m-k)(n-k)} [m;k][n;k] (w;q)_k for the weight parameter w."""
    weights = poch_prefixes(weight_param, m)
    return sum_of_products((qbinomial(m, k), qbinomial(n, k), weights[k],
                            MultiLaurentPoly.var("q", (m - k) * (n - k))) for k in range(m + 1))


def _product_sum(m: int, n: int, w: MultiLaurentPoly) -> MultiLaurentPoly:
    """sum_{k<=n} q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (w;q)_k (q/w;q)_k."""
    w1 = poch_prefixes(w, n)
    w2 = poch_prefixes(Q * w ** -1, n)
    return sum_of_products((qbinomial(n + k, 2 * k), qbinomial(m, k), qbinomial(m + k, k),
                            w1[k], w2[k], MultiLaurentPoly.var("q", (m - k) * (n - k)))
                           for k in range(n + 1))


def product_expansion_rhs(m: int, n: int) -> MultiLaurentPoly:
    """sum_k q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (-1;q)_k (-q;q)_k."""
    return _product_sum(m, n, MultiLaurentPoly.const(-1))


def delannoy_product_sides(m: int, n: int) -> tuple:
    """D_q(m,n) D*_q(m,n) and the single-sum expansion it must equal."""
    if m < 0 or n < 0:  # both sides vanish there: a pass would check nothing
        raise ValueError("Delannoy indices must be non-negative")
    return dq(m, n) * dq_star(m, n), product_expansion_rhs(m, n)


def product_x_difference(m: int, n: int) -> MultiLaurentPoly:
    """The x-parametrized product identity, then the x-form of D_q it rests on.

    With f(x) = sum_k q^{(m-k)(n-k)} [m;k][n;k] (x;q)_k, checks
        f(x) f(q/x) == sum_k q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (x;q)_k (q/x;q)_k
    and f(x) == sum_i q^{C(i,2)} [n;i][n+m-i;n] (-x)^i, the D_q sum with weight
    w = -x, whose terms past min(m, n) vanish.  At x = -1 and x = -q the x-form
    gives the two alternative expansions, and the product gives the single-sum
    expansion of D_q D*_q.
    """
    x = MultiLaurentPoly.var("x")
    f1 = _alt_sum(m, n, x)
    diffs = [f1 * _alt_sum(m, n, Q * x ** -1) - _product_sum(m, n, x),
             f1 - _dq_sum(m, n, -x)]
    return next((d for d in diffs if not d.is_zero()), MultiLaurentPoly.zero())


def relations_difference(m: int, n: int) -> MultiLaurentPoly:
    """Cross-relations at one (m,n): alternative expansions, q = 1, and the q -> 1/q twin.

    Checks the defining sum == the recurrence for D_q(m,n), dq_alt == D_q(m,n),
    dq_star_alt == D*_q(n,m) (note the swap), D*_q(m,n) == q^{mn} D_{1/q}(m,n)
    (the defining sum against the recurrence's mirror image), and that both
    q-analogues collapse to D(m,n) at q = 1.
    """
    d_plain = MultiLaurentPoly.const(delannoy(m, n))
    diffs = [
        _dq_sum(m, n, MultiLaurentPoly.const(1)) - dq(m, n),
        dq_alt(m, n) - dq(m, n),
        dq_star_alt(m, n) - dq_star(n, m),
        dq_star(m, n) - dq_inverse_base(m, n) * MultiLaurentPoly.monomial(1, {"q": m * n}),
        dq(m, n).substitute({"q": 1}) - d_plain,
        dq_star(m, n).substitute({"q": 1}) - d_plain,
    ]
    return next((d for d in diffs if not d.is_zero()), MultiLaurentPoly.zero())


product_expansion = CaseKind("delannoy_product", __name__, ("q",))
product_x_identity = CaseKind("delannoy_product_x", __name__, ("q", "x"),
                              difference="product_x_difference")
verify_relations = CaseKind("delannoy_relations", __name__, ("q",),
                            difference="relations_difference")
