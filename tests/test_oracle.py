"""Differential tests against an independent computer-algebra oracle.

A small sample of the checked displays is recomputed with sympy from the
uncleared series, as rational functions, then cleared and cancelled there.
The resulting Laurent polynomials are compared coefficient by coefficient
with the cleared sides that qck builds with its own kernel.  sympy is not a
dependency of qck: without it these tests are skipped.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from qck.congruence import BracketModulus, congruence_witness, thm2_lhs, thm2_witness
from qck.exactalg import MultiLaurentPoly
from qck.identities import (_general_s_sides, clausen_orr_sides,
                            general_s_specialization_difference, q2_product_sides)
from qck.qkit import ParamExpr, qchu_vandermonde_sides

pytestmark = pytest.mark.slow

q, a, x, c = sp.symbols("q a x c")


def poch(z, n, base=q):
    """(z; base)_n."""
    return sp.prod([1 - z * base ** i for i in range(n)])


def sympy_terms(expr, gens) -> dict:
    """{exponents over gens: coefficient} of a Laurent polynomial given as any sympy expression."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    (dexp, dcoeff), = sp.Poly(den, *gens).terms()  # a Laurent polynomial has a monomial denominator
    out = {}
    for exp, coeff in sp.Poly(num, *gens).terms():
        if coeff:
            ratio = sp.Rational(coeff, dcoeff)
            out[tuple(e - d for e, d in zip(exp, dexp))] = Fraction(int(ratio.p), int(ratio.q))
    return out


def qck_terms(poly: MultiLaurentPoly, gens) -> dict:
    names = [str(g) for g in gens]
    assert set(poly.variables()) <= set(names)
    return {tuple(powers.get(n, 0) for n in names): Fraction(coeff)
            for powers, coeff in poly.sorted_terms()}


def assert_same(poly: MultiLaurentPoly, expr, gens):
    assert qck_terms(poly, gens) == sympy_terms(expr, gens)


@pytest.mark.parametrize("n", range(4))
def test_qchu_vandermonde_against_sympy(n):
    # 2phi1(a, q^-n; c; q, q) = (c/a;q)_n a^n / (c;q)_n, both sides times (c;q)_n
    series = sum(poch(a, k) * poch(q ** -n, k) * q ** k / (poch(q, k) * poch(c, k))
                 for k in range(n + 1))
    lhs, rhs = qchu_vandermonde_sides(n)
    assert_same(lhs, series * poch(c, n), (q, a, c))
    assert_same(rhs, poch(c / a, n) * a ** n, (q, a, c))


@pytest.mark.parametrize("n", range(3))
def test_clausen_orr_against_sympy(n):
    # 3phi2(q^-n, a, x; c, 0) 3phi2(q^-n, a, c/x; c, 0)
    #   = a^n sum_k (q^-n, cq^n, a, c/a, x, c/x; q)_k q^k / ((q, c; q)_k (c;q)_{2k}),
    # both sides times (c;q)_n^2 (c;q)_{2n}
    def phi32(y):
        return sum(poch(q ** -n, k) * poch(a, k) * poch(y, k) * q ** k
                   / (poch(q, k) * poch(c, k)) for k in range(n + 1))

    product = a ** n * sum(
        poch(q ** -n, k) * poch(c * q ** n, k) * poch(a, k) * poch(c / a, k)
        * poch(x, k) * poch(c / x, k) * q ** k / (poch(q, k) * poch(c, k) * poch(c, 2 * k))
        for k in range(n + 1))
    clearing = poch(c, n) ** 2 * poch(c, 2 * n)
    lhs, rhs = clausen_orr_sides(n)
    assert_same(lhs, phi32(x) * phi32(c / x) * clearing, (q, a, x, c))
    assert_same(rhs, product * clearing, (q, a, x, c))


def test_thm2_remainder_against_sympy():
    # sum_{k<p} [2k+1] D_q(m,k) D_{1/q}(m,k) q^-k at p = 5, m = 4 (the m = -1 mod p case)
    p, m = 5, 4

    def qbin(n, k):
        return poch(q, n) / (poch(q, k) * poch(q, n - k))

    def dq(m, n):
        return sum(q ** (k * (k - 1) // 2) * qbin(n, k) * qbin(n + m - k, n) for k in range(n + 1))

    total = sp.cancel(sum((1 - q ** (2 * k + 1)) / (1 - q) * dq(m, k) * dq(m, k).subs(q, 1 / q)
                          * q ** -k for k in range(p)))
    target = (q - q ** (2 * m + 3)) / (1 - q ** 2)
    bracket_sq = sp.cancel((1 - q ** p) / (1 - q)) ** 2

    def remainder(expr):
        # clear the lowest negative power of q, then reduce modulo [p]^2
        low = min(0, min(e for (e,) in sympy_terms(expr, (q,))))
        return sp.rem(sp.cancel(expr * q ** -low), bracket_sq, q)

    lhs = thm2_lhs(p, m)
    assert_same(lhs, total, (q,))
    witness = congruence_witness(lhs, MultiLaurentPoly.zero(), BracketModulus.of(p), square=True)
    assert not witness.is_zero()
    assert_same(witness, remainder(total), (q,))
    assert_same(thm2_witness(p, m), remainder(total - target), (q,))
    assert thm2_witness(p, m).is_zero()


def test_general_s_specialization_cell_against_sympy():
    # the shifted product formula (c = q^{2s+1}) at a = -q^-n against the q^2 display
    n, s = 3, 1
    bound = -q ** -n
    d = poch(q, n - s) * poch(q, n + s)
    e = poch(q, 2 * n)
    q2 = q ** 2

    def shifted(y, weight):
        return sum(weight(k) * poch(y, k) * q ** k / (poch(q, k - s) * poch(q, k + s))
                   for k in range(s, n + 1))

    def sides_in_a(av):
        s1 = shifted(x, lambda k: poch(q ** -n, k) * poch(av, k))
        s2 = shifted(q / x, lambda k: poch(q ** -n, k) * poch(av, k))
        g = poch(q ** (n + 1), s) * poch(q / av, s)
        r = sum(poch(q ** -n, k) * poch(q ** (n + 1), k) * poch(av, k) * poch(q / av, k)
                * poch(x, k) * poch(q / x, k) * q ** k
                / (poch(q, k - s) * poch(q, k + s) * poch(q, 2 * k)) for k in range(s, n + 1))
        lead = poch(q ** -n, s) * poch(av, s) * av ** (n - s) * q ** ((n + 1) * s - s * s)
        return s1 * s2 * d ** 2 * g * e, lead * d ** 2 * e * r

    t1 = shifted(x, lambda k: poch(q ** (-2 * n), k, q2))
    t2 = shifted(q / x, lambda k: poch(q ** (-2 * n), k, q2))
    r2 = sum((-1) ** k * q ** (k * k - 2 * n * k) * poch(q2, n + k, q2) * poch(q2, n - s, q2)
             / poch(q2, n - k, q2) * poch(x, k) * poch(q / x, k)
             / (poch(q, k - s) * poch(q, k + s) * poch(q, 2 * k)) for k in range(s, n + 1))
    q2_lhs = t1 * t2 * d ** 2 * e * poch(q2, n + s, q2) * poch(q2, n - s, q2) ** 2
    q2_rhs = (-1) ** n * q ** (-n * n) * poch(q2, n, q2) ** 2 * d ** 2 * e * r2

    # sympy substitutes into the symbolic sides; qck builds them with a bound
    gen_lhs, gen_rhs = (side.subs(a, bound) for side in sides_in_a(a))
    for poly, expr in zip(_general_s_sides(n, s, ParamExpr.of(-1, {"q": -n})),
                          (gen_lhs, gen_rhs)):
        assert_same(poly, expr, (q, x))
    for poly, expr in zip(q2_product_sides(n, s), (q2_lhs, q2_rhs)):
        assert_same(poly, expr, (q, x))

    g_at = poch(q ** (n + 1), s) * poch(q / bound, s)
    scale = poch(q2, n + s, q2) * poch(q2, n - s, q2) ** 2
    assert_same(general_s_specialization_difference(n, s), gen_lhs * scale - q2_lhs * g_at,
                (q, x))
    assert sp.cancel(gen_rhs * scale - q2_rhs * g_at) == 0
