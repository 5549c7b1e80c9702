"""Classical and q-Delannoy numbers and their product formula.

D(m,n) counts lattice paths from (0,0) to (n,m) built from east (1,0),
north (0,1) and diagonal (1,1) steps.  Two q-analogues are used:

    D_q(m,n)  = sum_k q^{C(k,2)}   [n;k] [n+m-k; n]
    D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n]        (= q^{mn} D_{1/q}(m,n))

Both admit alternative expansions with (-1;q)_k and (-q;q)_k weights, and
their product collapses to a single sum (``product_expansion_rhs``); all of it
is verified exactly over polynomials in q (and symbolically in x for the
parametrized form the alternative expansions specialize from).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .exactalg import MultiLaurentPoly
from .qkit import Q, ParamExpr, choose2, poch_prefixes, qbinomial
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


def _dq_sum(m: int, n: int, w: ParamExpr) -> MultiLaurentPoly:
    """sum_{k<=n} q^{C(k,2)} w^k [n;k] [n+m-k; n]: D_q(m,n) at w = 1, D*_q(m,n) at w = q."""
    out = MultiLaurentPoly.zero()
    for k in range(n + 1):
        term = qbinomial(n, k) * qbinomial(n + m - k, n)
        out = out + term * (Q.power(choose2(k)) * w.power(k)).as_poly()
    return out


@lru_cache(maxsize=None)
def dq(m: int, n: int) -> MultiLaurentPoly:
    """D_q(m,n) = sum_k q^{C(k,2)} [n;k] [n+m-k; n]."""
    return _dq_sum(m, n, ParamExpr.of(1))


@lru_cache(maxsize=None)
def dq_star(m: int, n: int) -> MultiLaurentPoly:
    """D*_q(m,n) = sum_k q^{C(k+1,2)} [n;k] [n+m-k; n]."""
    return _dq_sum(m, n, Q)


@lru_cache(maxsize=None)
def dq_inverse_base(m: int, n: int) -> MultiLaurentPoly:
    """D_{1/q}(m,n): the image of D_q(m,n) under q -> q^{-1} (Laurent)."""
    return dq(m, n).substitute({"q": ParamExpr.q_power(-1)})


def dq_alt(m: int, n: int) -> MultiLaurentPoly:
    """The (-1;q)_k expansion: sum_k q^{(m-k)(n-k)} [m;k][n;k] (-1;q)_k == D_q(m,n)."""
    return _alt_sum(m, n, ParamExpr.of(-1))


def dq_star_alt(m: int, n: int) -> MultiLaurentPoly:
    """The (-q;q)_k expansion: sum_k q^{(m-k)(n-k)} [m;k][n;k] (-q;q)_k == D*_q(n,m).

    Note the swapped arguments on the right-hand side: the sum over k <= m
    with these weights produces D*_q(n, m).
    """
    return _alt_sum(m, n, ParamExpr.of(-1, {"q": 1}))


def _alt_sum(m: int, n: int, weight_param: ParamExpr) -> MultiLaurentPoly:
    """sum_{k<=m} q^{(m-k)(n-k)} [m;k][n;k] (w;q)_k for the weight parameter w."""
    weights = poch_prefixes(weight_param, m)
    out = MultiLaurentPoly.zero()
    for k in range(m + 1):
        term = qbinomial(m, k) * qbinomial(n, k) * weights[k]
        out = out + term * MultiLaurentPoly.monomial(1, {"q": (m - k) * (n - k)})
    return out


def general_x_expansion(m: int, n: int) -> tuple:
    """Both sides of sum_k q^{(m-k)(n-k)} [m;k][n;k] (x;q)_k == sum_i q^{C(i,2)} [n;i][n+m-i;n] (-x)^i.

    Specializing x to -1 and -q recovers the two alternative expansions.  The
    right side is the D_q sum with weight w = -x; its terms past min(m, n) vanish.
    """
    return _alt_sum(m, n, ParamExpr.var("x")), _dq_sum(m, n, ParamExpr.of(-1, {"x": 1}))


def _product_sum(m: int, n: int, w: ParamExpr) -> MultiLaurentPoly:
    """sum_{k<=n} q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (w;q)_k (q/w;q)_k."""
    w1 = poch_prefixes(w, n)
    w2 = poch_prefixes(Q * w.power(-1), n)
    out = MultiLaurentPoly.zero()
    for k in range(n + 1):
        term = qbinomial(n + k, 2 * k) * qbinomial(m, k) * qbinomial(m + k, k)
        term = term * w1[k] * w2[k]
        out = out + term * MultiLaurentPoly.monomial(1, {"q": (m - k) * (n - k)})
    return out


def product_expansion_rhs(m: int, n: int) -> MultiLaurentPoly:
    """sum_k q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (-1;q)_k (-q;q)_k."""
    return _product_sum(m, n, ParamExpr.of(-1))


def delannoy_product_sides(m: int, n: int) -> tuple:
    """D_q(m,n) D*_q(m,n) and the single-sum expansion it must equal."""
    return dq(m, n) * dq_star(m, n), product_expansion_rhs(m, n)


def delannoy_product_x_sides(m: int, n: int) -> tuple:
    """The x-parametrized product identity the single-sum expansion specializes from.

    (sum_k q^{(m-k)(n-k)} [m;k][n;k] (x;q)_k)(same with x -> q/x)
        == sum_k q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (x;q)_k (q/x;q)_k
    """
    x = ParamExpr.var("x")
    f1 = _alt_sum(m, n, x)
    f2 = _alt_sum(m, n, ParamExpr.of(1, {"q": 1, "x": -1}))
    return f1 * f2, _product_sum(m, n, x)


def relations_difference(m: int, n: int) -> MultiLaurentPoly:
    """Cross-relations at one (m,n): alternative expansions, q = 1, and the q -> 1/q twin.

    Checks dq_alt == D_q(m,n), dq_star_alt == D*_q(n,m) (note the swap),
    D*_q(m,n) == q^{mn} D_{1/q}(m,n), and that both q-analogues collapse to
    D(m,n) at q = 1.
    """
    d_plain = MultiLaurentPoly.const(delannoy(m, n))
    diffs = [
        dq_alt(m, n) - dq(m, n),
        dq_star_alt(m, n) - dq_star(n, m),
        dq_star(m, n) - dq_inverse_base(m, n) * MultiLaurentPoly.monomial(1, {"q": m * n}),
        dq(m, n).substitute({"q": 1}) - d_plain,
        dq_star(m, n).substitute({"q": 1}) - d_plain,
    ]
    return next((d for d in diffs if not d.is_zero()), MultiLaurentPoly.zero())


@dataclass
class DelannoyTable:
    """A rectangle of Delannoy values; entries[m][n] covers 0..max_m x 0..max_n."""

    kind: str
    max_m: int
    max_n: int
    entries: list

    def cell(self, m: int, n: int):
        return self.entries[m][n]


_TABLE_KINDS = ("plain", "dq", "dqstar", "product-rhs")


def build_table(kind: str, max_m: int, max_n: int) -> DelannoyTable:
    """Tabulate D, D_q, D*_q, or the product-formula right side."""
    if kind not in _TABLE_KINDS:
        raise ValueError(f"unknown table kind {kind!r}; expected one of {_TABLE_KINDS}")
    fns = {"plain": delannoy, "dq": dq, "dqstar": dq_star,
           "product-rhs": product_expansion_rhs}
    fn = fns[kind]
    entries = [[fn(m, n) for n in range(max_n + 1)] for m in range(max_m + 1)]
    return DelannoyTable(kind, max_m, max_n, entries)


product_expansion = CaseKind("delannoy_product", __name__, ("m", "n"), ("q",))
product_x_identity = CaseKind("delannoy_product_x", __name__, ("m", "n"), ("q", "x"))
verify_relations = CaseKind("delannoy_relations", __name__, ("m", "n"), ("q",),
                            difference="relations_difference")
