"""q-combinatorics layer: Pochhammer symbols, Gaussian binomials, brackets.

Conventions:

    (a; q)_n = (1 - a)(1 - aq) ... (1 - aq^{n-1}),      (a; q)_0 = 1
    [n; k]   = (q;q)_n / ((q;q)_k (q;q)_{n-k})  for n >= k >= 0, else 0
    [p]      = 1 + q + ... + q^{p-1}

Pochhammer arguments are Laurent monomials (ParamExpr), e.g. q^{-n}, c*q^n or
c/x, so every symbol expands to an exact MultiLaurentPoly.  The classical
q-binomial theorem and q-Chu-Vandermonde summation are verified here as exact
polynomial identities; both are used as proof engines by the identity suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import MultiLaurentPoly, _INDEX, _from_dense, _dense_mul, _dense_divrem
from .report import CaseKind


@dataclass(frozen=True)
class ParamExpr:
    """A Laurent monomial used as a series parameter: coeff * prod(var^exp)."""

    coeff: "int | Fraction"
    powers: tuple  # sorted ((var, exp), ...) with nonzero exps

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("ParamExpr coefficient must be nonzero")
        for name, e in self.powers:
            if name not in _INDEX:
                raise ValueError(f"unknown variable {name!r}")
            if e == 0:
                raise ValueError("ParamExpr powers must omit zero exponents")

    @classmethod
    def of(cls, coeff, powers: dict = None, **kw) -> "ParamExpr":
        powers = dict(powers or {})
        powers.update(kw)
        if isinstance(coeff, Fraction) and coeff.denominator == 1:
            coeff = coeff.numerator
        items = tuple(sorted(((v, e) for v, e in powers.items() if e),
                             key=lambda p: _INDEX[p[0]]))
        return cls(coeff, items)

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "ParamExpr":
        return cls.of(1, {name: exp})

    @classmethod
    def q_power(cls, exp: int) -> "ParamExpr":
        return cls.of(1, {"q": exp}) if exp else cls.of(1)

    def as_poly(self) -> MultiLaurentPoly:
        return MultiLaurentPoly.monomial(self.coeff, dict(self.powers))

    def __mul__(self, other: "ParamExpr") -> "ParamExpr":
        powers = dict(self.powers)
        for v, e in other.powers:
            powers[v] = powers.get(v, 0) + e
        return ParamExpr.of(self.coeff * other.coeff, powers)

    def __neg__(self) -> "ParamExpr":
        return ParamExpr(-self.coeff, self.powers)

    def power(self, e: int) -> "ParamExpr":
        coeff = self.coeff ** e if e >= 0 or isinstance(self.coeff, Fraction) \
            else Fraction(1, self.coeff ** (-e))
        return ParamExpr.of(coeff, {v: p * e for v, p in self.powers})

    def is_q_power(self):
        """The exponent e when this equals q^e, else None."""
        if self.coeff != 1:
            return None
        if not self.powers:
            return 0
        if len(self.powers) == 1 and self.powers[0][0] == "q":
            return self.powers[0][1]
        return None


Q = ParamExpr.var("q")


def _as_param(a) -> ParamExpr:
    if isinstance(a, ParamExpr):
        return a
    if isinstance(a, (int, Fraction)):
        return ParamExpr.of(a)
    raise TypeError(f"expected a ParamExpr or rational, got {a!r}")


def qpochhammer(a, n: int, base: ParamExpr = Q) -> MultiLaurentPoly:
    """(a; base)_n as an exact Laurent polynomial; requires n >= 0."""
    return poch_prefixes(a, n, base)[n]


def poch_prefixes(a, nmax: int, base: ParamExpr = Q, lead: MultiLaurentPoly = None,
                  reverse: bool = False) -> list:
    """[(a;base)_0, (a;base)_1, ..., (a;base)_nmax], sharing the partial products.

    This is the one running-product loop of the package.  With ``lead`` the
    factors are (lead - a*base^i) instead of (1 - a*base^i); lead = x gives
    x^k (a/x;base)_k.  With ``reverse`` the factors are taken from the last one
    down, each multiplied on the left, so entry j is the product of the last j.
    """
    if nmax < 0:
        raise ValueError("q-Pochhammer order must be non-negative")
    a = _as_param(a)
    lead = MultiLaurentPoly.const(1) if lead is None else lead
    factors = [lead - (a * base.power(i)).as_poly() for i in range(nmax)]
    out = [MultiLaurentPoly.const(1)]
    for f in (reversed(factors) if reverse else factors):
        out.append(f * out[-1] if reverse else out[-1] * f)
    return out


def poch_suffixes(a, n: int, base: ParamExpr = Q) -> list:
    """out[k] = (a * base^k; base)_{n-k} for k = 0..n, i.e. (a;base)_n / (a;base)_k."""
    return poch_prefixes(a, n, base, reverse=True)[::-1]


def choose2(k: int) -> int:
    return k * (k - 1) // 2


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> MultiLaurentPoly:
    """Gaussian binomial [n; k]; the zero polynomial outside n >= k >= 0."""
    if not (n >= k >= 0):
        return MultiLaurentPoly.zero()
    k = min(k, n - k)
    # prod_{i=1..k} (1 - q^{n-k+i}) / (1 - q^i), dense in q throughout.
    num = [1]
    for i in range(1, k + 1):
        step = [0] * (n - k + i + 1)
        step[0], step[-1] = 1, -1
        num = _dense_mul(num, step)
    for i in range(1, k + 1):
        step = [0] * (i + 1)
        step[0], step[-1] = 1, -1
        num, rem = _dense_divrem(num, step)
        assert not rem
    return _from_dense(0, 0, num)


def terminating_weight(n: int, k: int) -> MultiLaurentPoly:
    """(q^{-n}; q)_k / (q; q)_k = (-1)^k q^{C(k,2) - nk} [n; k], for 0 <= k <= n."""
    sign = -1 if k % 2 else 1
    return qbinomial(n, k) * MultiLaurentPoly.monomial(sign, {"q": choose2(k) - n * k})


@dataclass(frozen=True)
class QBracket:
    """The bracket [p] = 1 + q + ... + q^{p-1} attached to a positive integer p."""

    p: int
    poly: MultiLaurentPoly

    @classmethod
    def of(cls, p: int) -> "QBracket":
        if p < 1:
            raise ValueError("bracket order must be positive")
        return cls(p, _from_dense(0, 0, [1] * p))


def bracket(p: int) -> MultiLaurentPoly:
    """[p] = 1 + q + ... + q^{p-1} as a polynomial."""
    return QBracket.of(p).poly


def qbinomial_theorem_sides(n: int) -> tuple:
    """sum_k (-1)^k [n;k] q^{C(k,2)} x^k == (x; q)_n, exactly in q and x."""
    lhs = MultiLaurentPoly.zero()
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        lhs = lhs + qbinomial(n, k) * MultiLaurentPoly.monomial(sign, {"q": choose2(k), "x": k})
    return lhs, qpochhammer(ParamExpr.var("x"), n)


def qchu_vandermonde_sides(n: int) -> tuple:
    """2phi1(a, q^{-n}; c; q, q) == (c/a;q)_n a^n / (c;q)_n, in cleared polynomial form.

    Both sides are multiplied by (c; q)_n: the k-th summand's (c;q)_k divisor
    cancels into (c q^k; q)_{n-k}, and the right side becomes the polynomial
    prod_{i<n} (a - c q^i).
    """
    a = ParamExpr.var("a")
    lhs = MultiLaurentPoly.zero()
    pa = poch_prefixes(a, n)
    for k in range(n + 1):
        tail = qpochhammer(ParamExpr.of(1, {"c": 1, "q": k}), n - k)
        term = terminating_weight(n, k) * MultiLaurentPoly.monomial(1, {"q": k}) * pa[k]
        lhs = lhs + term * tail
    rhs = poch_prefixes(ParamExpr.var("c"), n, lead=a.as_poly())[n]
    return lhs, rhs


check_qbinomial_theorem = CaseKind("qbinomial_theorem", __name__, ("n",), ("q", "x"))
check_qchu_vandermonde = CaseKind("qchu_vandermonde", __name__, ("n",), ("q", "a", "c"))
