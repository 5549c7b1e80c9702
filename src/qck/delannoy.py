"""Classical and q-Delannoy numbers and their product formula.

D(m,n) counts lattice paths from (0,0) to (n,m) built from east (1,0),
north (0,1) and diagonal (1,1) steps.  Two q-analogues are used:

    D_q(m,n)  = sum_k q^{C(k,2)}   [n;k] [n+m-k; n]
    D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n]        (= q^{mn} D_{1/q}(m,n))

Both admit alternative expansions with (-1;q)_k and (-q;q)_k weights, and
their product collapses to a single sum (``product_expansion_rhs``); all of it
is verified exactly over polynomials in q, and symbolically in x for the
(x;q)_k form that both expansions and the product specialize from.

D_q is built by ``qkit.lattice`` (q-Pascal on both Gaussian binomials of its
sum), each entry by addition from cached neighbours, in whatever order cases
ask for entries: the suites run cases in an order that differs from report
order, and no entry depends on it.  D_{1/q} is D_q's mirror image, q -> 1/q.
These cached tables serve this module's kinds (m, n <= 12) and the tests.
Theorem 2's sums and the thm3 families read D_q from ``congruence``'s rows,
which take the same ``qkit.lattice_step`` one m-row at a time and keep two.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .exactalg import MultiLaurentPoly, sum_of_products
from .qkit import Q, choose2, lattice, poch_prefixes, qbinomial
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


@lru_cache(maxsize=None)
def dq(m: int, n: int) -> MultiLaurentPoly:
    """D_q(m,n) = sum_k q^{C(k,2)} [n;k] [n+m-k; n], built by ``qkit.lattice`` with its diagonal."""
    if m < 0 or n < 0:
        return MultiLaurentPoly.zero()
    return lattice(dq, True, m, n)


@lru_cache(maxsize=None)
def dq_star(m: int, n: int) -> MultiLaurentPoly:
    """D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n], by the sum: it checks the recurrence."""
    return _dq_sum(m, n, Q)


@lru_cache(maxsize=None)
def dq_inverse_base(m: int, n: int) -> MultiLaurentPoly:
    """D_{1/q}(m,n): D_q(m,n) under q -> q^{-1}, its mirror image."""
    return dq(m, n).invert_variables()


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


_TABLES = {"plain": delannoy, "dq": dq, "dqstar": dq_star, "product-rhs": product_expansion_rhs}


def build_table(kind: str, max_m: int, max_n: int) -> list:
    """Rows m = 0..max_m of D, D_q, D*_q, or the product-formula right side at n = 0..max_n."""
    if kind not in _TABLES:
        raise ValueError(f"unknown table kind {kind!r}; expected one of {tuple(_TABLES)}")
    fn = _TABLES[kind]
    return [[fn(m, n) for n in range(max_n + 1)] for m in range(max_m + 1)]


product_expansion = CaseKind("delannoy_product", __name__, ("q",))
product_x_identity = CaseKind("delannoy_product_x", __name__, ("q", "x"),
                              difference="product_x_difference")
verify_relations = CaseKind("delannoy_relations", __name__, ("q",),
                            difference="relations_difference")
