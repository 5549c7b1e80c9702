"""Terminating basic hypergeometric series: exact cleared sums from a spec.

A series description (PhiSpec) lists the upper and lower parameters and the
argument, each a kernel monomial, and the termination order n (the least n
with an upper parameter equal to q^{-n}).  The k-th summand is

    prod_u (u;q)_k / ((q;q)_k prod_b (b;q)_k) * ((-1)^k q^{C(k,2)})^{1+s-r} * z^k

with the literal lower parameter 0 contributing (0;q)_k = 1.

A sum is rational in general.  ``phi_sum_cleared`` returns it as an exact
integer (numerator, denominator) pair, and identity verification works on
these cleared forms only.

The two classical summations the identity sides rest on are checked on this
engine itself, each against its closed form: the q-binomial theorem as
1phi0(q^{-n}; -; q, x q^n) = (x;q)_n, and q-Chu-Vandermonde as
2phi1(a, q^{-n}; c; q, q) = (c/a;q)_n a^n / (c;q)_n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import prod

from .exactalg import MultiLaurentPoly, sum_of_products
from .qkit import Q, choose2, poch_prefixes, poch_suffixes, qpochhammer, terminating_weight
from .report import CaseKind


class PhiSpecError(ValueError):
    """Structurally invalid series description."""


@dataclass(frozen=True)
class PhiSpec:
    """A terminating r-phi-s series: upper/lower parameters, argument, termination order."""

    upper: tuple          # monomials
    lower: tuple          # monomials, or the literal int 0
    argument: MultiLaurentPoly
    termination: int

    @classmethod
    def of(cls, upper, lower, argument) -> "PhiSpec":
        """The spec of kernel monomials, with 0 allowed among the lower ones."""
        upper, lower = tuple(upper), tuple(lower)
        for u in upper:
            if not _is_monomial(u):
                raise PhiSpecError(f"upper parameter {u!r} is not a monomial")
        if not _is_monomial(argument):
            raise PhiSpecError("argument must be a monomial")
        orders = [-e for u in upper if (e := _q_exponent(u)) is not None and e <= 0]
        if not orders:
            raise PhiSpecError("no upper parameter of the form q^-n; series does not terminate")
        n = min(orders)
        for b in lower:
            if b == 0:
                continue
            if not _is_monomial(b):
                raise PhiSpecError(f"lower parameter {b!r} is neither 0 nor a monomial")
            e = _q_exponent(b)
            if e is not None and -n < e <= 0:
                raise PhiSpecError(
                    f"lower parameter q^{e} vanishes inside the summation range")
        return cls(upper, lower, argument, n)

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


def _is_monomial(m) -> bool:
    return isinstance(m, MultiLaurentPoly) and len(m) == 1


def _q_exponent(m):
    """e when the monomial m is q^e, else None."""
    e = m.degree_range("q")[0]
    return e if m == Q ** e else None


def _sign_factor(spec: PhiSpec, k: int) -> MultiLaurentPoly:
    """((-1)^k q^{C(k,2)})^{1+s-r}."""
    e = 1 + spec.s - spec.r
    return MultiLaurentPoly.monomial(-1 if (k * e) % 2 else 1, {"q": choose2(k) * e})


def phi_sum_cleared(spec: PhiSpec) -> tuple:
    """Exact (numerator, denominator) of the full sum over a common denominator.

    The common denominator is prod_{b != 0} (b;q)_n with n the termination
    order; each summand's lower Pochhammers cancel into (b q^k; q)_{n-k}
    factors, and the terminating upper parameter is paired with (q;q)_k.
    """
    n = spec.termination
    uppers = list(spec.upper)
    uppers.remove(Q ** -n)  # pairing (q^{-n};q)_k / (q;q)_k
    z = spec.argument
    prefix_lists = [poch_prefixes(m, n) for m in uppers]
    suffix_lists = [poch_suffixes(b, n) for b in spec.lower if b != 0]
    total = sum_of_products((terminating_weight(n, k), _sign_factor(spec, k), z ** k,
                             *(pl[k] for pl in prefix_lists), *(sl[k] for sl in suffix_lists))
                            for k in range(n + 1))
    return total, prod((sl[0] for sl in suffix_lists), start=MultiLaurentPoly.const(1))


def qbinomial_theorem_sides(n: int) -> tuple:
    """1phi0(q^{-n}; -; q, x q^n) = sum_k (-1)^k [n;k] q^{C(k,2)} x^k == (x;q)_n, in q and x.

    With no lower parameter the engine's denominator is 1.
    """
    x = MultiLaurentPoly.var("x")
    lhs, _ = phi_sum_cleared(PhiSpec.of([Q ** -n], [], x * Q ** n))
    return lhs, qpochhammer(x, n)


def qchu_vandermonde_sides(n: int) -> tuple:
    """2phi1(a, q^{-n}; c; q, q) == (c/a;q)_n a^n / (c;q)_n, in cleared polynomial form.

    The engine clears the sum by (c;q)_n, its denominator, which turns the right
    side into the polynomial prod_{i<n} (a - c q^i).
    """
    a, c = MultiLaurentPoly.var("a"), MultiLaurentPoly.var("c")
    lhs, _ = phi_sum_cleared(PhiSpec.of([a, Q ** -n], [c], Q))
    return lhs, poch_prefixes(c, n, lead=a)[n]


def phi_permutation_difference(seed: int, trials: int) -> MultiLaurentPoly:
    """Parameter-order invariance of the cleared sum, on seeded shuffles of three specs.

    Zero when every shuffle reproduces the cleared (numerator, denominator) pair
    exactly, else the difference of the first unequal part.
    """
    if trials < 1:  # no shuffle would be compared
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    a, c, d, x, y = (MultiLaurentPoly.var(v) for v in "acdxy")
    specs = [
        PhiSpec.of([Q ** -3, a, x], [c, 0], Q),
        PhiSpec.of([a, Q ** -2], [c], Q),
        PhiSpec.of([Q ** -2, a, x, y], [c, d, 0], Q),
    ]
    for spec in specs:
        num, den = phi_sum_cleared(spec)
        for _ in range(trials):
            upper = list(spec.upper)
            lower = list(spec.lower)
            rng.shuffle(upper)
            rng.shuffle(lower)
            num2, den2 = phi_sum_cleared(PhiSpec.of(upper, lower, spec.argument))
            if (num2, den2) != (num, den):
                return num - num2 if num != num2 else den - den2
    return MultiLaurentPoly.zero()


check_qbinomial_theorem = CaseKind("qbinomial_theorem", __name__, ("q", "x"))
check_qchu_vandermonde = CaseKind("qchu_vandermonde", __name__, ("q", "a", "c"))
phi_permutation = CaseKind("phi_permutation", __name__, ("q",),
                           difference="phi_permutation_difference")
