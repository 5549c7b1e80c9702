"""Terminating basic hypergeometric series: exact terms and sums from a spec.

A series description (PhiSpec) lists the upper and lower parameters and the
argument, each u*m/v held as a pair (u*m, v) of a kernel monomial and a
positive int with u/v in lowest terms, and the termination order n (the least
n with an upper parameter equal to q^{-n}).  The k-th summand is

    prod_u (u;q)_k / ((q;q)_k prod_b (b;q)_k) * ((-1)^k q^{C(k,2)})^{1+s-r} * z^k

with the literal lower parameter 0 contributing (0;q)_k = 1.

Individual summands and full sums are rational in general.  ``phi_term`` and
``phi_sum`` return exact integer Laurent polynomials and raise
NotDivisibleError when the value is not one; the ``*_cleared`` variants return
an exact integer (numerator, denominator) pair and always succeed: v^k
(u*m/v;q)_k is the running product with lead v.  Identity verification works
on cleared forms only.

The two classical summations the identity sides rest on are checked on this
engine itself, each against its closed form: the q-binomial theorem as
1phi0(q^{-n}; -; q, x q^n) = (x;q)_n, and q-Chu-Vandermonde as
2phi1(a, q^{-n}; c; q, q) = (c/a;q)_n a^n / (c;q)_n.

The text grammar (whitespace insensitive)::

    spec   := "phi[" INT "," INT "]{" params ";" params ";" mono "}"
    params := item ("," item)*      item := mono | "0" (lower list only)
    mono   := ["-"] [RAT "*"] factor ("*" factor)*
    factor := VAR ["^" SINT]        VAR in {q, a, b, c, x, y, d}
    INT    := ASCII digits 0-9; SINT signed; RAT := INT ["/" INT]
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, prod

from .exactalg import MultiLaurentPoly, exact_div, sum_of_products
from .qkit import Q, choose2, poch_prefixes, poch_suffixes, qpochhammer, terminating_weight
from .report import CaseKind

_GRAMMAR_VARS = ("q", "a", "b", "c", "x", "y", "d")
_DIGITS = frozenset("0123456789")  # INT is ASCII; str.isdigit also takes "²" and "٣"


class PhiParseError(ValueError):
    """Syntax error with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PhiSpecError(ValueError):
    """Structurally invalid series description."""


@dataclass(frozen=True)
class PhiSpec:
    """A terminating r-phi-s series: upper/lower parameters, argument, termination order."""

    upper: tuple          # (monomial, v) pairs
    lower: tuple          # (monomial, v) pairs, or the literal int 0
    argument: tuple       # a (monomial, v) pair
    termination: int

    @classmethod
    def of(cls, upper, lower, argument) -> "PhiSpec":
        """The spec of kernel monomials or (monomial, v) pairs, and 0 among the lower ones."""
        upper = tuple(map(_param, upper))
        lower = tuple(0 if b == 0 else _param(b) for b in lower)
        argument = _param(argument)
        orders = [-e for u in upper if (e := _q_exponent(u)) is not None and e <= 0]
        if not orders:
            raise PhiSpecError("no upper parameter of the form q^-n; series does not terminate")
        n = min(orders)
        for u in upper:
            if not _is_monomial(u[0]):
                raise PhiSpecError(f"upper parameter {u!r} is not a monomial")
        for b in lower:
            if b == 0:
                continue
            if not _is_monomial(b[0]):
                raise PhiSpecError(f"lower parameter {b!r} is neither 0 nor a monomial")
            e = _q_exponent(b)
            if e is not None and -n < e <= 0:
                raise PhiSpecError(
                    f"lower parameter q^{e} vanishes inside the summation range")
        if not _is_monomial(argument[0]):
            raise PhiSpecError("argument must be a monomial")
        return cls(upper, lower, argument, n)

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


def _is_monomial(m) -> bool:
    return isinstance(m, MultiLaurentPoly) and len(m) == 1


def _param(p) -> tuple:
    return p if isinstance(p, tuple) else (p, 1)


def _q_exponent(p):
    """e when the parameter pair p is q^e, else None."""
    m, v = p
    if v != 1 or not _is_monomial(m):
        return None
    e = m.degree_range("q")[0]
    return e if m == Q ** e else None


def _sign_factor(spec: PhiSpec, k: int, scale: int) -> MultiLaurentPoly:
    """scale * ((-1)^k q^{C(k,2)})^{1+s-r}."""
    e = 1 + spec.s - spec.r
    sign = -1 if (k * e) % 2 else 1
    return MultiLaurentPoly.monomial(sign * scale, {"q": choose2(k) * e})


def phi_term_cleared(spec: PhiSpec, k: int) -> tuple:
    """Exact (numerator, denominator) of the k-th summand, without cancellation."""
    if k < 0:
        raise ValueError("summation index must be non-negative")
    z, vz = spec.argument
    lowers = [b for b in spec.lower if b != 0]
    num = _sign_factor(spec, k, prod(v for _, v in lowers) ** k) * z ** k
    den = qpochhammer(Q, k) * (prod(v for _, v in spec.upper) * vz) ** k
    for m, v in spec.upper:
        num = num * poch_prefixes(m, k, lead=MultiLaurentPoly.const(v))[k]
    for m, v in lowers:
        den = den * poch_prefixes(m, k, lead=MultiLaurentPoly.const(v))[k]
    return num, den


def phi_term(spec: PhiSpec, k: int) -> MultiLaurentPoly:
    """The k-th summand when it is a Laurent polynomial; NotDivisibleError otherwise."""
    if k > spec.termination:
        return MultiLaurentPoly.zero()
    num, den = phi_term_cleared(spec, k)
    return exact_div(num, den)


def phi_sum_cleared(spec: PhiSpec) -> tuple:
    """Exact (numerator, denominator) of the full sum over a common denominator.

    The common denominator is prod_{b != 0} (b;q)_n with n the termination
    order; each summand's lower Pochhammers cancel into (b q^k; q)_{n-k}
    factors, and the terminating upper parameter is paired with (q;q)_k.
    Clearing the pairs (u*m, v) scales summand k by v^{n-k} for the upper ones
    and the argument and by v^k for the lower ones, and the denominator by v^n.
    """
    n = spec.termination
    uppers = list(spec.upper)
    uppers.remove((Q ** -n, 1))  # pairing (q^{-n};q)_k / (q;q)_k
    z, vz = spec.argument
    lowers = [b for b in spec.lower if b != 0]
    top, low = prod(v for _, v in uppers) * vz, prod(v for _, v in lowers)
    prefix_lists = [poch_prefixes(m, n, lead=MultiLaurentPoly.const(v)) for m, v in uppers]
    suffix_lists = [poch_suffixes(m, n, lead=MultiLaurentPoly.const(v)) for m, v in lowers]
    total = sum_of_products((terminating_weight(n, k),
                             _sign_factor(spec, k, top ** (n - k) * low ** k), z ** k,
                             *(pl[k] for pl in prefix_lists), *(sl[k] for sl in suffix_lists))
                            for k in range(n + 1))
    den = MultiLaurentPoly.const(top ** n)
    for sl in suffix_lists:
        den = den * sl[0]
    return total, den


def phi_sum(spec: PhiSpec) -> MultiLaurentPoly:
    """The exact value of the terminating sum; NotDivisibleError if not polynomial."""
    num, den = phi_sum_cleared(spec)
    return exact_div(num, den)


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


# -- parsing and printing ---------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise PhiParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise PhiParseError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise PhiParseError("integer too long", start) from None


def _parse_mono(sc: _Scanner) -> tuple:
    """The monomial u*m/v at the scanner, as the pair (u*m, v)."""
    sc.skip_ws()
    sign, num, den, g = 1, 1, 1, 1
    if sc.peek() == "-":
        sc.expect("-")
        sign = -1
    sc.skip_ws()
    if sc.peek() in _DIGITS:
        num = sc.integer()
        if sc.peek() == "/":
            sc.expect("/")
            den = sc.integer()
            if den == 0:
                raise PhiParseError("zero denominator in coefficient", sc.pos)
        g = gcd(num, den)
        if sc.peek() == "*":
            sc.expect("*")
        else:
            if num == 0:
                raise PhiParseError("zero is not a monomial here", sc.pos)
            return MultiLaurentPoly.const(sign * num // g), den // g
    powers = {}
    while True:
        sc.skip_ws()
        start = sc.pos
        name = ""
        while sc.pos < len(sc.text) and sc.text[sc.pos].isalpha():
            name += sc.text[sc.pos]
            sc.pos += 1
        if name not in _GRAMMAR_VARS:
            raise PhiParseError(f"expected a variable from {_GRAMMAR_VARS}", start)
        exp = 1
        if sc.peek() == "^":
            sc.expect("^")
            exp = sc.integer(signed=True)
        powers[name] = powers.get(name, 0) + exp
        if sc.peek() == "*":
            sc.expect("*")
        else:
            break
    if num == 0:
        raise PhiParseError("zero coefficient", sc.pos)
    try:
        return MultiLaurentPoly.monomial(sign * num // g, powers), den // g
    except ValueError as exc:  # an exponent outside the kernel's range
        raise PhiParseError(str(exc), start) from None


def _parse_params(sc: _Scanner, allow_zero: bool) -> list:
    out = []
    if sc.peek() in (";", "}"):  # empty list (an r-phi-0 series)
        return out
    while True:
        sc.skip_ws()
        if allow_zero and sc.peek() == "0":
            sc.expect("0")
            out.append(0)
        else:
            out.append(_parse_mono(sc))
        if sc.peek() == ",":
            sc.expect(",")
        else:
            return out


def parse_phi(text: str) -> PhiSpec:
    """Parse the phi[r,s]{...} grammar into a validated PhiSpec."""
    sc = _Scanner(text)
    sc.expect("phi")
    sc.expect("[")
    r = sc.integer()
    sc.expect(",")
    s = sc.integer()
    sc.expect("]")
    sc.expect("{")
    upper = _parse_params(sc, allow_zero=False)
    sc.expect(";")
    lower = _parse_params(sc, allow_zero=True)
    sc.expect(";")
    arg = _parse_mono(sc)
    sc.expect("}")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise PhiParseError("trailing input after spec", sc.pos)
    if len(upper) != r:
        raise PhiSpecError(f"declared {r} upper parameters, found {len(upper)}")
    if len(lower) != s:
        raise PhiSpecError(f"declared {s} lower parameters, found {len(lower)}")
    return PhiSpec.of(upper, lower, arg)


def print_phi(spec: PhiSpec) -> str:
    """Canonical text form; parse_phi(print_phi(s)) reproduces s."""
    upper = ", ".join(map(_print_param, spec.upper))
    lower = ", ".join(map(_print_param, spec.lower))
    return f"phi[{spec.r},{spec.s}]{{{upper} ; {lower} ; {_print_param(spec.argument)}}}"


def _print_param(p) -> str:
    """u*m/v printed as the kernel prints u*m, with u/v in place of u when v > 1."""
    m, v = (p, 1) if p == 0 else p
    if v == 1:
        return str(m)
    (powers, u), = m.sorted_terms()
    return f"{u}/{v}*{MultiLaurentPoly.monomial(1, powers)}" if powers else f"{u}/{v}"


def phi_permutation_difference(seed: int, trials: int) -> MultiLaurentPoly:
    """Parameter-order invariance of the cleared sum, on seeded shuffles of three specs.

    Zero when every shuffle reproduces the cleared (numerator, denominator) pair
    exactly, else the difference of the first unequal part.
    """
    if trials < 1:  # no shuffle would be compared
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    specs = [
        "phi[3,2]{q^-3, a, x ; c, 0 ; q}",
        "phi[2,1]{a, q^-2 ; c ; q}",
        "phi[4,3]{q^-2, a, x, y ; c, d, 0 ; q}",
    ]
    for text in specs:
        spec = parse_phi(text)
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
