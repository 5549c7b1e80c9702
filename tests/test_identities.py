"""Identity-suite tests: small cases, cross-identity substitution consistency."""

import pytest

from qck.exactalg import MultiLaurentPoly as P, exact_divide
from qck.identities import (_general_s_sides, b_poly, clausen_orr_sides,
                            connection_coefficients,
                            final_square_sides, general_s_sides,
                            lem_important2_sides, lemma_am2_sides,
                            lemma_last_sides, special1_sides, special2_sides,
                            special222_sides, special3_shifted_sides,
                            special3_sides, sqrt_corollary_sides,
                            verify_clausen_orr, verify_final_square,
                            verify_general_s, verify_general_s_specialization,
                            verify_lem_important2, verify_lemma_am2,
                            verify_lemma_last, verify_q2_product,
                            verify_special1, verify_special2, verify_special222,
                            verify_special3, verify_special3_shifted,
                            verify_sqrt_corollary)
from qck.qkit import ParamExpr, Q, qbinomial, qpochhammer

q = P.var("q")
_Q2 = ParamExpr.of(1, {"q": 2})
_T2 = ParamExpr.of(1, {"t": 2})


def test_clausen_orr_base_cases():
    assert verify_clausen_orr(0).passed
    assert verify_clausen_orr(1).passed
    assert verify_clausen_orr(3).passed


def test_final_square_base_cases():
    assert verify_final_square(0).passed
    assert verify_final_square(2).passed


def test_sqrt_corollary_base_cases():
    assert verify_sqrt_corollary(0).passed
    assert verify_sqrt_corollary(1).passed


def test_final_square_consistency_with_clausen():
    # substituting c -> x^2 in the cleared product-formula sides reproduces the
    # squared-series sides up to the (x;q)_n regrouping factor
    for n in range(4):
        col, cor = clausen_orr_sides(n)
        fsl, fsr = final_square_sides(n)
        scale = qpochhammer(ParamExpr.var("x"), n)
        binding = {"c": ParamExpr.of(1, {"x": 2})}
        assert col.substitute(binding) == fsl * scale
        assert cor.substitute(binding) == fsr * scale
        assert (col - cor).substitute(binding) == (fsl - fsr) * scale


def test_special1_is_clausen_at_minus_x():
    for n in range(4):
        col, cor = clausen_orr_sides(n)
        s1l, s1r = special1_sides(n)
        binding = {"a": ParamExpr.of(-1, {"x": 1})}
        assert col.substitute(binding) == s1l
        assert cor.substitute(binding) == s1r


def test_special3_small():
    for n in range(3):
        assert verify_special3(n).passed


def test_special222_small():
    for n in range(3):
        assert verify_special222(n).passed


def test_special222_binding_gives_special2():
    binding = {"x": ParamExpr.of(-1, {"x": 1}), "y": ParamExpr.of(1, {"c": 1, "x": -1})}
    for n in range(4):
        l222, r222 = special222_sides(n)
        l2, r2 = special2_sides(n)
        assert l222.substitute(binding) == l2
        assert r222.substitute(binding) == r2
        assert verify_special2(n).passed


def test_general_s_small_grid():
    for n in range(4):
        for s in range(n + 1):
            assert verify_general_s(n, s).passed
            assert verify_q2_product(n, s).passed
            assert verify_general_s_specialization(n, s).passed


def test_general_s_zero_shift_is_clausen_at_c_q():
    # with no shift the cleared sides equal the product-formula sides at c = q,
    # rescaled by (q;q)_n^2
    for n in range(4):
        gl, gr = general_s_sides(n, 0)
        col, cor = clausen_orr_sides(n)
        scale = qpochhammer(Q, n) ** 2
        binding = {"c": ParamExpr.q_power(1)}
        assert gl == col.substitute(binding) * scale
        assert gr == cor.substitute(binding) * scale


def test_general_s_bound_before_building_is_the_substituted_sides():
    # the specialization check builds its sides with a = -q^{-n} already bound;
    # that is the image of the symbolic sides under the substitution
    for n in range(5):
        a = ParamExpr.of(-1, {"q": -n})
        for s in range(n + 1):
            bound = _general_s_sides(n, s, a)
            assert bound == tuple(side.substitute({"a": a}) for side in general_s_sides(n, s))


def test_general_s_single_term_boundary():
    # s = n collapses both sums to the k = n term
    assert verify_general_s(3, 3).passed


def test_special3_shifted_small_grid():
    for n in range(4):
        for s in range(n + 1):
            assert verify_special3_shifted(n, s).passed


def test_special3_shifted_zero_is_special3_at_c_q():
    for n in range(4):
        shl, shr = special3_shifted_sides(n, 0)
        s3l, s3r = special3_sides(n)
        scale = qpochhammer(Q, n) ** 2
        binding = {"c": ParamExpr.q_power(1)}
        assert shl == s3l.substitute(binding) * scale
        assert shr == s3r.substitute(binding) * scale


def test_sqrt_corollary_square_consistency():
    # squaring the even-order square-root form reproduces the squared-series
    # form at n = 2m (after q -> t^2), up to the two clearing factors
    xp = ParamExpr.var("x")
    for m in (1, 2):
        n = 2 * m
        scl, scr = sqrt_corollary_sides(m)
        fsl, fsr = final_square_sides(n)
        to_t = {"q": _T2}
        f_sc = (qpochhammer(ParamExpr.of(1, {"x": 2}), 2 * m, base=_T2)
                * qpochhammer(ParamExpr.of(1, {"x": 1, "t": 1}), m, base=_T2)
                * qpochhammer(ParamExpr.of(-1, {"x": 1, "t": 1}), m, base=_T2)
                * qpochhammer(ParamExpr.of(-1, {"x": 1}), m, base=_T2))
        f_fs = (qpochhammer(ParamExpr.of(1, {"x": 2}), n) ** 2
                * qpochhammer(ParamExpr.of(-1, {"x": 1}), n)
                * qpochhammer(ParamExpr.of(1, {"x": 2, "q": 1}), n, base=_Q2)
                ).substitute(to_t)
        assert scl * scl * f_fs == fsl.substitute(to_t) * f_sc * f_sc
        assert scr * scr * f_fs == fsr.substitute(to_t) * f_sc * f_sc


def test_lemma_last_smallest():
    assert verify_lemma_last(1, 0, 1).passed


def test_lemma_last_examples():
    assert verify_lemma_last(3, 1, 1).passed
    assert verify_lemma_last(4, 1, 2).passed


def test_lemma_last_rejects_bad_constraints():
    with pytest.raises(ValueError):
        verify_lemma_last(2, 2, 1)   # h > n - m
    with pytest.raises(ValueError):
        verify_lemma_last(2, 0, 0)   # h < 1


def test_lemma_last_degree_audit():
    # both cleared sides are polynomials in x of degree m + n with the same
    # leading coefficient
    for (n, m, h) in [(2, 0, 1), (3, 1, 2), (4, 2, 1)]:
        lhs, rhs = lemma_last_sides(n, m, h)
        assert lhs.degree_range("x")[1] == m + n
        assert rhs.degree_range("x")[1] == m + n
        lead_l = lhs.coefficients_by(("x",))[(("x", m + n),)]
        lead_r = rhs.coefficients_by(("x",))[(("x", m + n),)]
        assert lead_l == lead_r


def test_lemma_am2_examples():
    assert verify_lemma_am2(1, 0, 1).passed
    assert verify_lemma_am2(3, 1, 2).passed
    assert verify_lemma_am2(4, 2, 1).passed


def test_b_poly_empty_range():
    assert b_poly(2, 2).is_zero()
    assert b_poly(3, 5).is_zero()


def test_b_poly_frozen_values():
    # single h = 1 term: -(1-q^2)/(1-q) q a = -(1+q) q a
    assert b_poly(2, 1) == P.monomial(-1, {"q": 1, "a": 1}) + P.monomial(-1, {"q": 2, "a": 1})
    assert b_poly(1, 0) == P.monomial(-1, {"a": 1})


def test_b_poly_bound_before_building_is_the_substituted_kernel():
    # the connection check evaluates the kernel at a = c q^{2j} directly
    for n in range(1, 5):
        for k in range(n + 1):
            for j in range(3):
                a = ParamExpr.of(1, {"c": 1, "q": 2 * j})
                assert b_poly(n, k, a) == b_poly(n, k).substitute({"a": a})


def test_b_poly_sign_and_divisibility():
    one = P.const(1)
    for n in range(1, 7):
        for k in range(0, n):
            poly = b_poly(n, k)
            groups = poly.coefficients_by(("a",))
            for h in range(1, n - k + 1):
                num = (one - P.monomial(1, {"q": n})) \
                    * qbinomial(n - k - 1, h - 1) * qbinomial(k + h - 1, h - 1)
                quot = exact_divide(num, one - P.monomial(1, {"q": h}))
                assert quot is not None
                coeff = groups.get((("a", h),), P.zero())
                sign = -1 if h % 2 else 1
                expected = quot * P.monomial(sign, {"q": h * (h - 1) // 2 + k * h})
                assert coeff == expected


def test_lem_important2_hand_case():
    # n = 1: 2 - x - a/x == (1-x)(1-a/x) + (1-a)
    lhs, rhs = lem_important2_sides(1)
    expected = 2 - P.var("x") - P.monomial(1, {"a": 1, "x": -1})
    assert lhs == expected
    assert rhs == expected


def test_lem_important2_small():
    for n in (2, 3, 4):
        assert verify_lem_important2(n).passed


def test_connection_coefficients_small():
    for n in range(4):
        for m in range(n + 1):
            assert connection_coefficients(n, m).passed


def test_failed_report_carries_witness():
    report = verify_clausen_orr(2)
    assert report.passed and report.difference.is_zero()
    assert report.case.meta_params == {"n": 2}
    assert "q" in report.case.free_vars
