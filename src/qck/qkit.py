"""q-combinatorics layer: Pochhammer symbols, Gaussian binomials, brackets.

Conventions:

    (a; q)_n = (1 - a)(1 - aq) ... (1 - aq^{n-1}),      (a; q)_0 = 1
    [n; k]   = (q;q)_n / ((q;q)_k (q;q)_{n-k})  for n >= k >= 0, else 0
    [p]      = 1 + q + ... + q^{p-1}

Pochhammer arguments and series parameters are Laurent monomials, e.g. q^{-n},
c*q^n or c/x: single-term MultiLaurentPolys of the kernel, multiplied, raised
to powers and substituted by the kernel itself, so every symbol expands to an
exact MultiLaurentPoly.  ``ParamExpr`` only names two constructors of such
monomials.  ``lattice_step`` is the one lattice-path recurrence: q-Pascal for
[n; k] in ``qbinomial`` and, with a diagonal step, D_q in ``delannoy``'s rows.
``odd_sum`` is the odd-weighted sum sum_k (1-q^{2k+1}) f_k w_k: Theorem 2's sum
cleared by 1-q (see ``congruence`` for why that is the same congruence), its
two lemmas and the positivity families.
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import MultiLaurentPoly, sum_of_products


class ParamExpr:
    """Constructors of series parameters, each returning a kernel monomial."""

    @staticmethod
    def of(coeff, powers: dict = None, **kw) -> MultiLaurentPoly:
        return MultiLaurentPoly.monomial(coeff, {**(powers or {}), **kw})

    var = staticmethod(MultiLaurentPoly.var)


Q = MultiLaurentPoly.var("q")


def qpochhammer(a, n: int, base: MultiLaurentPoly = Q) -> MultiLaurentPoly:
    """(a; base)_n as an exact Laurent polynomial; requires n >= 0."""
    return poch_prefixes(a, n, base)[n]


def poch_prefixes(a, nmax: int, base: MultiLaurentPoly = Q, lead: MultiLaurentPoly = None,
                  reverse: bool = False) -> list:
    """[(a;base)_0, (a;base)_1, ..., (a;base)_nmax], sharing the partial products.

    This is the one running-product loop of the package.  With ``lead`` the
    factors are (lead - a*base^i) instead of (1 - a*base^i); lead = x gives
    x^k (a/x;base)_k.  With ``reverse`` the factors are taken from the last one
    down, each multiplied on the left, so entry j is the product of the last j.
    """
    if nmax < 0:
        raise ValueError("q-Pochhammer order must be non-negative")
    lead = MultiLaurentPoly.const(1) if lead is None else lead
    steps = [a]  # a * base^i, one kernel product each
    while len(steps) < nmax:
        steps.append(steps[-1] * base)
    factors = [lead - step for step in steps[:nmax]]
    out = [MultiLaurentPoly.const(1)]
    for f in (reversed(factors) if reverse else factors):
        out.append(f * out[-1] if reverse else out[-1] * f)
    return out


def poch_suffixes(a, n: int, base: MultiLaurentPoly = Q, lead: MultiLaurentPoly = None) -> list:
    """out[k] = (a * base^k; base)_{n-k} for k = 0..n, i.e. (a;base)_n / (a;base)_k."""
    return poch_prefixes(a, n, base, lead, reverse=True)[::-1]


def choose2(k: int) -> int:
    return k * (k - 1) // 2


def lattice_step(i: int, up: MultiLaurentPoly, left: MultiLaurentPoly,
                 corner: MultiLaurentPoly = None) -> MultiLaurentPoly:
    """T(i,j) = T(i-1,j) + q^i T(i,j-1) [+ q^{i-1} T(i-1,j-1), the ``corner``]: the one step.

    Without a corner it is q-Pascal for T(i,j) = [i+j; i], which read along the other axis
    is [n; i] = [n-1; i-1] + q^i [n-1; i]; with the corner it is D_q(i,j).
    """
    out = up + Q ** i * left
    return out if corner is None else out + Q ** (i - 1) * corner


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> MultiLaurentPoly:
    """Gaussian binomial [n; k]; the zero polynomial outside n >= k >= 0.

    Built by q-Pascal, [n; k] = [n-1; k-1] + q^k [n-1; k], the lattice without its diagonal.
    A cold entry past n = 32 (safe for plain recursion) first fills its column [n-k+i; i],
    then its diagonal [k+j; k], each entry finding its neighbours cached.
    """
    if not (n >= k >= 0):
        return MultiLaurentPoly.zero()
    if k > n - k:
        return qbinomial(n, n - k)
    if not k:
        return MultiLaurentPoly.const(1)
    if n > 32:
        for i in range(1, k):
            qbinomial(n - k + i, i)
        for j in range(1, n - k):
            qbinomial(k + j, k)
    return lattice_step(k, qbinomial(n - 1, k - 1), qbinomial(n - 1, k))


def terminating_weight(n: int, k: int) -> MultiLaurentPoly:
    """(q^{-n}; q)_k / (q; q)_k = (-1)^k q^{C(k,2) - nk} [n; k], for 0 <= k <= n."""
    sign = -1 if k % 2 else 1
    return qbinomial(n, k) * MultiLaurentPoly.monomial(sign, {"q": choose2(k) - n * k})


def bracket(p: int) -> MultiLaurentPoly:
    """[p] = 1 + q + ... + q^{p-1} as a polynomial, for a positive integer p."""
    if p < 1:
        raise ValueError("bracket order must be positive")
    return qbinomial(p, 1)


def one_minus_q(e: int) -> MultiLaurentPoly:
    """1 - q^e."""
    return MultiLaurentPoly.const(1) - MultiLaurentPoly.monomial(1, {"q": e})


def odd_sum(terms, alternating: bool = False, start: int = 0) -> MultiLaurentPoly:
    """sum_{start<=k<n} (1-q^{2k+1}) f_k w_k, with n = start + len(terms) and f_k the product
    of terms[k - start].

    The weight w_k is q^{-k}, or (-1)^{n-k-1} q^{C(k,2)} when ``alternating``.
    """
    n = start + len(terms)
    return sum_of_products(
        (one_minus_q(2 * k + 1), *factors,
         MultiLaurentPoly.monomial((-1) ** (n - k - 1), {"q": choose2(k)}) if alternating
         else MultiLaurentPoly.var("q", -k))
        for k, factors in enumerate(terms, start))
