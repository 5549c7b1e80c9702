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
from qck.delannoy import delannoy_product_sides, dq, dq_star
from qck.exactalg import MultiLaurentPoly, exact_divide
from qck.identities import (_general_s_sides, clausen_orr_sides,
                            general_s_specialization_difference, lemma_last_sides,
                            q2_product_sides)
from qck.positivity import _poly1_parts, verify_thm3
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


def qbin(n, k):
    """[n; k] as a rational function of q; zero outside 0 <= k <= n."""
    return poch(q, n) / (poch(q, k) * poch(q, n - k)) if 0 <= k <= n else 0


def sympy_dq(m, n, star=False):
    """D_q(m,n), or D*_q(m,n) with q^{C(k+1,2)}, from the Gaussian binomials."""
    return sum(q ** (k * (k + 1 if star else k - 1) // 2) * qbin(n, k) * qbin(n + m - k, n)
               for k in range(n + 1))


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (4, 3), (2, 5)])
def test_dq_against_sympy(m, n):
    assert_same(dq(m, n), sympy_dq(m, n), (q,))
    assert_same(dq_star(m, n), sympy_dq(m, n, star=True), (q,))


def test_delannoy_product_against_sympy():
    # D_q(m,n) D*_q(m,n) = sum_k q^{(m-k)(n-k)} [n+k;2k][m;k][m+k;k] (-1;q)_k (-q;q)_k
    m, n = 3, 2
    single = sum(q ** ((m - k) * (n - k)) * qbin(n + k, 2 * k) * qbin(m, k) * qbin(m + k, k)
                 * poch(-1, k) * poch(-q, k) for k in range(n + 1))
    lhs, rhs = delannoy_product_sides(m, n)
    assert_same(lhs, sympy_dq(m, n) * sympy_dq(m, n, star=True), (q,))
    assert_same(rhs, single, (q,))


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

    total = sp.cancel(sum((1 - q ** (2 * k + 1)) / (1 - q) * sympy_dq(m, k)
                          * sympy_dq(m, k).subs(q, 1 / q) * q ** -k for k in range(p)))
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


def test_lemma_last_cell_against_sympy():
    # sum_{j<=m} sum_{k<=n} (q^-n, x; q)_j (q^-n, x; q)_k (q^{j-m-h+1}; q)_{h-1}
    #   (q^{k-m-h+1}; q)_{h-1} (1 - q^{k-j}) q^{2j+k} / ((q, c; q)_j (q, c; q)_k)
    #   = (-1)^{m-1} q^{(m^2+3m)/2-mn-mh-h^2+h} (q;q)_n (q;q)_{h-1} (x;q)_{m+h}
    #     x^{n-h} (c/x;q)_{n-h} / ((q;q)_m (q;q)_{n-m-h} (c;q)_m (c;q)_n),
    # both sides times (c;q)_m (c;q)_n; the weights bring negative powers of q
    n, m, h = 3, 1, 2

    def weight(i):
        return (poch(q ** -n, i) * poch(x, i) * poch(q ** (i - m - h + 1), h - 1)
                / (poch(q, i) * poch(c, i)))

    double = sum(weight(j) * weight(k) * (1 - q ** (k - j)) * q ** (2 * j + k)
                 for j in range(m + 1) for k in range(n + 1))
    closed = ((-1) ** (m - 1) * q ** ((m * m + 3 * m) // 2 - m * n - m * h - h * h + h)
              * poch(q, n) * poch(q, h - 1) * poch(x, m + h) * x ** (n - h) * poch(c / x, n - h)
              / (poch(q, m) * poch(q, n - m - h) * poch(c, m) * poch(c, n)))
    clearing = poch(c, m) * poch(c, n)
    lhs, rhs = lemma_last_sides(n, m, h)
    assert min(powers.get("q", 0) for powers, _ in lhs.sorted_terms()) < 0
    assert_same(lhs, double * clearing, (q, x, c))
    assert_same(rhs, closed * clearing, (q, x, c))


def test_thm3_1_cell_against_sympy():
    # sum_{k<n} (1-q^m)(1-q^{m+1})(1-q^{2k+1}) D_q(m,k) D_{1/q}(m,k) q^-k / ((1-q^2)(1-q^n)^2)
    # is a Laurent polynomial in q with non-negative integer coefficients
    m, n = 2, 3
    total = sum((1 - q ** m) * (1 - q ** (m + 1)) * (1 - q ** (2 * k + 1)) * sympy_dq(m, k)
                * sympy_dq(m, k).subs(q, 1 / q) * q ** -k for k in range(n))
    expected = sympy_terms(total / ((1 - q ** 2) * (1 - q ** n) ** 2), (q,))
    quotient = exact_divide(*_poly1_parts(m, n))
    assert qck_terms(quotient, (q,)) == expected
    assert all(coeff > 0 and coeff.denominator == 1 for coeff in expected.values())
    assert verify_thm3("thm3-1", m, n).passed
