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

from qck.congruence import congruence_witness, thm2_lhs, thm2_witness
from qck.delannoy import delannoy_product_sides, dq, dq_inverse_base, dq_star
from qck.exactalg import MultiLaurentPoly, exact_divide
from qck.hyperg import PhiSpec, phi_sum_cleared, qbinomial_theorem_sides, qchu_vandermonde_sides
from qck.identities import (_general_s_sides, clausen_orr_sides, general_s_sides,
                            general_s_specialization_difference, lemma_last_sides,
                            q2_product_sides, special1_sides, special3_shifted_sides,
                            special3_sides, sqrt_corollary_sides)
from qck.positivity import _CLAIM_PARTS, verify_thm3
from qck.qkit import ParamExpr

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
    # D_q and D_{1/q} are built by their recurrence, D*_q by its sum
    assert_same(dq(m, n), sympy_dq(m, n), (q,))
    assert_same(dq_inverse_base(m, n), sympy_dq(m, n).subs(q, 1 / q), (q,))
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
def test_qbinomial_theorem_against_sympy(n):
    # 1phi0(q^-n; -; q, x q^n) = sum_k (-1)^k [n;k] q^{C(k,2)} x^k = (x;q)_n
    series = sum((-1) ** k * qbin(n, k) * q ** (k * (k - 1) // 2) * x ** k for k in range(n + 1))
    lhs, rhs = qbinomial_theorem_sides(n)
    assert_same(lhs, series, (q, x))
    assert_same(rhs, poch(x, n), (q, x))


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
    # both sides times (c;q)_n^2 (c;q)_{2n} / (c;q)_n: the builder never multiplies
    # in the (c;q)_n that both sides share
    def phi32(y):
        return sum(poch(q ** -n, k) * poch(a, k) * poch(y, k) * q ** k
                   / (poch(q, k) * poch(c, k)) for k in range(n + 1))

    product = a ** n * sum(
        poch(q ** -n, k) * poch(c * q ** n, k) * poch(a, k) * poch(c / a, k)
        * poch(x, k) * poch(c / x, k) * q ** k / (poch(q, k) * poch(c, k) * poch(c, 2 * k))
        for k in range(n + 1))
    clearing = poch(c, n) ** 2 * poch(c, 2 * n) / poch(c, n)
    lhs, rhs = clausen_orr_sides(n)
    assert_same(lhs, phi32(x) * phi32(c / x) * clearing, (q, a, x, c))
    assert_same(rhs, product * clearing, (q, a, x, c))


@pytest.mark.parametrize("n", range(3))
def test_special3_against_sympy(n):
    # sum_k (q^-n;q)_k (x;q^2)_k q^k / (q, c;q)_k
    #   * sum_k (q^-n;q)_k (x;q^2)_k (cq^n/x)^k q^-C(k,2) / (q, c;q)_k
    #   = sum_k (q^-n, cq^n;q)_k (x, c^2/x;q^2)_k q^k / ((q, c;q)_k (c;q)_{2k}),
    # both sides times (c;q)_n^2 (c;q)_{2n} / (c;q)_n
    q2 = q ** 2
    first = sum(poch(q ** -n, k) * poch(x, k, q2) * q ** k / (poch(q, k) * poch(c, k))
                for k in range(n + 1))
    second = sum(poch(q ** -n, k) * poch(x, k, q2) * (c * q ** n / x) ** k
                 * q ** -(k * (k - 1) // 2) / (poch(q, k) * poch(c, k)) for k in range(n + 1))
    product = sum(poch(q ** -n, k) * poch(c * q ** n, k) * poch(x, k, q2) * poch(c ** 2 / x, k, q2)
                  * q ** k / (poch(q, k) * poch(c, k) * poch(c, 2 * k)) for k in range(n + 1))
    clearing = poch(c, n) ** 2 * poch(c, 2 * n) / poch(c, n)
    lhs, rhs = special3_sides(n)
    assert_same(lhs, first * second * clearing, (q, x, c))
    assert_same(rhs, product * clearing, (q, x, c))


@pytest.mark.parametrize("n", range(3))
def test_special1_against_sympy(n):
    # the product formula at a = -x:
    # sum_k (q^-n;q)_k (x^2;q^2)_k q^k / (q, c;q)_k * 3phi2(q^-n, -x, c/x; c, 0; q, q)
    #   = (-x)^n sum_k (q^-n, cq^n;q)_k (x^2, c^2/x^2;q^2)_k q^k / ((q, c;q)_k (c;q)_{2k}),
    # both sides times (c;q)_n^2 (c;q)_{2n} / (c;q)_n
    q2 = q ** 2
    first = sum(poch(q ** -n, k) * poch(x ** 2, k, q2) * q ** k / (poch(q, k) * poch(c, k))
                for k in range(n + 1))
    second = sum(poch(q ** -n, k) * poch(-x, k) * poch(c / x, k) * q ** k
                 / (poch(q, k) * poch(c, k)) for k in range(n + 1))
    product = (-x) ** n * sum(
        poch(q ** -n, k) * poch(c * q ** n, k) * poch(x ** 2, k, q2) * poch(c ** 2 / x ** 2, k, q2)
        * q ** k / (poch(q, k) * poch(c, k) * poch(c, 2 * k)) for k in range(n + 1))
    clearing = poch(c, n) ** 2 * poch(c, 2 * n) / poch(c, n)
    lhs, rhs = special1_sides(n)
    assert_same(lhs, first * second * clearing, (q, x, c))
    assert_same(rhs, product * clearing, (q, x, c))


@pytest.mark.parametrize("m", [1, 2])
def test_sqrt_corollary_against_sympy(m):
    # with t = q^{1/2}:
    # 3phi2(q^-2m, a, x; x^2, 0; q, q)
    #   = a^m sum_k (q^-m, xq^m, a, x^2/a; q)_k q^k / (q, xt, -xt, -x; q)_k,
    # both sides times (x^2;t^2)_{2m} (xt;t^2)_m (-xt;t^2)_m (-x;t^2)_m.  qck builds
    # the display under q -> q^2, so its q is read as t
    t = sp.Symbol("t")
    base = t ** 2
    series = sum(poch(base ** (-2 * m), k, base) * poch(a, k, base) * poch(x, k, base) * base ** k
                 / (poch(base, k, base) * poch(x ** 2, k, base)) for k in range(2 * m + 1))
    product = a ** m * sum(
        poch(base ** -m, k, base) * poch(x * base ** m, k, base) * poch(a, k, base)
        * poch(x ** 2 / a, k, base) * base ** k
        / (poch(base, k, base) * poch(x * t, k, base) * poch(-x * t, k, base) * poch(-x, k, base))
        for k in range(m + 1))
    clearing = (poch(x ** 2, 2 * m, base) * poch(x * t, m, base) * poch(-x * t, m, base)
                * poch(-x, m, base))
    lhs, rhs = sqrt_corollary_sides(m)
    assert qck_terms(lhs, (q, a, x)) == sympy_terms(series * clearing, (t, a, x))
    assert qck_terms(rhs, (q, a, x)) == sympy_terms(product * clearing, (t, a, x))


def test_thm2_remainder_against_sympy():
    # sum_{k<p} [2k+1] D_q(m,k) D_{1/q}(m,k) q^-k at p = 5, m = 4 (the m = -1 mod p case),
    # and its target, both cleared by 1 - q as qck checks them
    p, m = 5, 4

    total = sp.cancel((1 - q) * sum((1 - q ** (2 * k + 1)) / (1 - q) * sympy_dq(m, k)
                                    * sympy_dq(m, k).subs(q, 1 / q) * q ** -k for k in range(p)))
    target = (1 - q) * (q - q ** (2 * m + 3)) / (1 - q ** 2)
    bracket_sq = sp.cancel((1 - q ** p) / (1 - q)) ** 2

    def remainder(expr):
        # clear the lowest negative power of q, then reduce modulo [p]^2
        low = min(0, min(e for (e,) in sympy_terms(expr, (q,))))
        return sp.rem(sp.cancel(expr * q ** -low), bracket_sq, q)

    lhs = thm2_lhs(p, m)
    assert_same(lhs, total, (q,))
    witness = congruence_witness(lhs, MultiLaurentPoly.zero(), p, square=True)
    assert not witness.is_zero()
    assert_same(witness, remainder(total), (q,))
    assert_same(thm2_witness(p, m), remainder(total - target), (q,))
    assert thm2_witness(p, m).is_zero()


def test_general_s_specialization_cell_against_sympy():
    # the shifted product formula (c = q^{2s+1}) in symbolic a and at a = -q^-n, against
    # the q^2 display; each cleared side divided by the product its builder never multiplies in
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
        cancelled = (poch(q ** -n, s) * poch(av, s)) ** 2 * d * g  # P^2 D G, never multiplied in
        return s1 * s2 * d ** 2 * g * e / cancelled, lead * d ** 2 * e * r / cancelled

    t1 = shifted(x, lambda k: poch(q ** (-2 * n), k, q2))
    t2 = shifted(q / x, lambda k: poch(q ** (-2 * n), k, q2))
    r2 = sum((-1) ** k * q ** (k * k - 2 * n * k) * poch(q2, n + k, q2) * poch(q2, n - s, q2)
             / poch(q2, n - k, q2) * poch(x, k) * poch(q / x, k)
             / (poch(q, k - s) * poch(q, k + s) * poch(q, 2 * k)) for k in range(s, n + 1))
    q2_cancelled = (poch(q ** (-2 * n), s, q2) ** 2 * d * poch(q2, n - s, q2) ** 2
                    * poch(q2, n + s, q2))
    q2_lhs = t1 * t2 * d ** 2 * e * poch(q2, n + s, q2) * poch(q2, n - s, q2) ** 2 / q2_cancelled
    q2_rhs = (-1) ** n * q ** (-n * n) * poch(q2, n, q2) ** 2 * d ** 2 * e * r2 / q2_cancelled

    # the symbolic sides, then the sides bound before building against sympy's
    # substitution into the symbolic ones
    gen_sides = sides_in_a(a)
    for poly, expr in zip(general_s_sides(n, s), gen_sides):
        assert_same(poly, expr, (q, a, x))
    gen_lhs, gen_rhs = (side.subs(a, bound) for side in gen_sides)
    for poly, expr in zip(_general_s_sides(n, s, ParamExpr.of(-1, {"q": -n})),
                          (gen_lhs, gen_rhs)):
        assert_same(poly, expr, (q, x))
    for poly, expr in zip(q2_product_sides(n, s), (q2_lhs, q2_rhs)):
        assert_same(poly, expr, (q, x))

    # both clear by the same factor, so the cleared pairs are equal
    assert sp.cancel(gen_lhs - q2_lhs) == 0
    assert sp.cancel(gen_rhs - q2_rhs) == 0
    assert general_s_specialization_difference(n, s).is_zero()


def test_special3_shifted_cell_against_sympy():
    # sum_{k>=s} (q^-n;q)_k (x;q^2)_k q^k / ((q;q)_{k-s} (q;q)_{k+s})
    #   * sum_{k>=s} (q^-n;q)_k (x;q^2)_k q^{(n+1)k-C(k,2)} x^-k / ((q;q)_{k-s} (q;q)_{k+s})
    #   * (q^2/x;q^2)_s
    #   = (-1)^s q^s x^-s (q;q)_n^2 (x;q^2)_s / ((q;q)_{n-s} (q;q)_{n+s})
    #     * sum_{k>=s} (q^-n, q^{n+1};q)_k (x, q^2/x;q^2)_k q^k
    #                  / ((q;q)_{k-s} (q;q)_{k+s} (q;q)_{2k}),
    # both sides times D^2 E / ((q;q)_n S), S = (q^-n;q)_s (x;q^2)_s^2 (q^2/x;q^2)_s (q^{n+1};q)_s
    n, s = 3, 1
    q2 = q ** 2
    d = poch(q, n - s) * poch(q, n + s)
    e = poch(q, 2 * n)

    def shifted(term):
        return sum(term(k) / (poch(q, k - s) * poch(q, k + s)) for k in range(s, n + 1))

    first = shifted(lambda k: poch(q ** -n, k) * poch(x, k, q2) * q ** k)
    second = shifted(lambda k: poch(q ** -n, k) * poch(x, k, q2)
                     * q ** ((n + 1) * k - k * (k - 1) // 2) * x ** -k)
    product = shifted(lambda k: poch(q ** -n, k) * poch(q ** (n + 1), k) * poch(x, k, q2)
                      * poch(q2 / x, k, q2) * q ** k / poch(q, 2 * k))
    lead = (-1) ** s * q ** s * x ** -s * poch(q, n) ** 2 * poch(x, s, q2) / d
    cancelled = (poch(q, n) * poch(q ** -n, s) * poch(x, s, q2) ** 2 * poch(q2 / x, s, q2)
                 * poch(q ** (n + 1), s))
    clearing = d ** 2 * e / cancelled
    lhs, rhs = special3_shifted_sides(n, s)
    assert_same(lhs, first * second * poch(q2 / x, s, q2) * clearing, (q, x))
    assert_same(rhs, lead * product * clearing, (q, x))


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
    quotient = exact_divide(*_CLAIM_PARTS["thm3-1"](m, n, 1))
    assert qck_terms(quotient, (q,)) == expected
    assert all(coeff > 0 and coeff.denominator == 1 for coeff in expected.values())
    assert verify_thm3("thm3-1", m, n).passed


_PA, _PC, _PQ, _PQ_2 = (ParamExpr.var(v, e) for v, e in [("a", 1), ("c", 1), ("q", 1), ("q", -2)])


@pytest.mark.parametrize("upper, lower, z", [
    ([ParamExpr.of(3, {"a": 1}), _PQ_2], [_PC], _PQ),
    ([_PA, _PQ_2], [ParamExpr.of(3)], _PQ),
    ([_PA, _PQ_2], [_PC], ParamExpr.of(-2, {"q": 1})),
], ids=["three-a", "three-lower", "minus-two-q-argument"])
def test_rational_phi_against_sympy(upper, lower, z):
    # the integer num/den pair of phi_sum_cleared against the series summed from its
    # definition, (-1)^k q^C(k,2) raised to 1 + s - r, up to the termination order 2
    e = 1 + len(lower) - len(upper)
    su, sl, sz = [sympy_of(u) for u in upper], [sympy_of(b) for b in lower], sympy_of(z)
    series = sum(sp.prod([poch(u, k) for u in su]) * ((-1) ** k * q ** (k * (k - 1) // 2)) ** e
                 * sz ** k / (poch(q, k) * sp.prod([poch(b, k) for b in sl])) for k in range(3))
    want_num, want_den = sp.fraction(sp.cancel(sp.together(series)))
    num, den = phi_sum_cleared(PhiSpec.of(upper, lower, z))
    assert sp.expand(sympy_of(num) * want_den - want_num * sympy_of(den)) == 0


_KQ, _KA, _KC, _KX = (MultiLaurentPoly.var(v) for v in "qacx")
_COFACTOR = 1 + _KA * _KQ - _KX * _KQ ** -2 + 3 * _KA * _KC


def sympy_of(poly: MultiLaurentPoly):
    return sum(coeff * sp.prod([sp.Symbol(v) ** e for v, e in powers.items()])
               for powers, coeff in poly.sorted_terms())


@pytest.mark.parametrize("d", [1 - _KQ ** 2, 2 + _KQ ** -1, 1 - _KC * _KX, _KA - _KQ,
                               2 * _KX - _KA * _KQ ** -1],
                         ids=["1-q^2", "2+1/q", "1-cx", "a-q", "2x-a/q"])
def test_exact_divide_against_sympy(d):
    # None exactly when sympy's quotient is not a Laurent polynomial with integer
    # coefficients; (1 + q^200) makes q-groups too sparse for the dense q path
    gens = (q, a, c, x)
    for p, divisor in [(_COFACTOR * d, d), (_COFACTOR * d + _KQ * _KA, d),
                       (_COFACTOR * (1 + _KQ ** 200) * d, d), (_COFACTOR * d, 2 * d)]:
        ratio = sp.cancel(sp.together(sympy_of(p) / sympy_of(divisor)))
        laurent = len(sp.Poly(sp.fraction(ratio)[1], *gens).terms()) == 1
        want = sympy_terms(ratio, gens) if laurent else None
        got = exact_divide(p, divisor)
        if want is None or any(coeff.denominator != 1 for coeff in want.values()):
            assert got is None, (p, divisor)
        else:
            assert qck_terms(got, gens) == want, (p, divisor)
