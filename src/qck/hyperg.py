"""Terminating basic hypergeometric series: exact terms and sums from a spec.

A series description (PhiSpec) lists the upper and lower Laurent-monomial
parameters, the argument, and the termination order n (the least n with an
upper parameter equal to q^{-n}).  The k-th summand is

    prod_u (u;q)_k / ((q;q)_k prod_b (b;q)_k) * ((-1)^k q^{C(k,2)})^{1+s-r} * z^k

with the literal lower parameter 0 contributing (0;q)_k = 1.

Individual summands and full sums are rational in general.  ``phi_term`` and
``phi_sum`` return exact Laurent polynomials and raise NotDivisibleError when
the value is not polynomial; the ``*_cleared`` variants return an exact
(numerator, denominator) pair and always succeed.  Identity verification works
on cleared forms only.

The text grammar (whitespace insensitive)::

    spec   := "phi[" INT "," INT "]{" params ";" params ";" mono "}"
    params := item ("," item)*      item := mono | "0" (lower list only)
    mono   := ["-"] [RAT "*"] factor ("*" factor)*
    factor := VAR ["^" SINT]        VAR in {q, a, b, c, x, y, d}
    INT    := non-negative integer; SINT signed; RAT := INT ["/" INT]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import MultiLaurentPoly, exact_div
from .qkit import (ParamExpr, Q, choose2, poch_prefixes, poch_suffixes,
                   qpochhammer, terminating_weight)

_GRAMMAR_VARS = ("q", "a", "b", "c", "x", "y", "d")


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

    upper: tuple          # ParamExpr entries
    lower: tuple          # ParamExpr entries, or the literal int 0
    argument: "ParamExpr"
    termination: int

    @classmethod
    def of(cls, upper, lower, argument) -> "PhiSpec":
        upper = tuple(upper)
        lower = tuple(lower)
        orders = [-e for u in upper
                  if isinstance(u, ParamExpr) and (e := u.is_q_power()) is not None and e <= 0]
        if not orders:
            raise PhiSpecError("no upper parameter of the form q^-n; series does not terminate")
        n = min(orders)
        for b in lower:
            if b == 0:
                continue
            if not isinstance(b, ParamExpr):
                raise PhiSpecError(f"lower parameter {b!r} is neither 0 nor a monomial")
            e = b.is_q_power()
            if e is not None and -n < e <= 0:
                raise PhiSpecError(
                    f"lower parameter q^{e} vanishes inside the summation range")
        if not isinstance(argument, ParamExpr):
            raise PhiSpecError("argument must be a monomial")
        return cls(upper, lower, argument, n)

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


def _sign_factor(spec: PhiSpec, k: int) -> MultiLaurentPoly:
    e = 1 + spec.s - spec.r
    sign = -1 if (k * e) % 2 else 1
    return MultiLaurentPoly.monomial(sign, {"q": choose2(k) * e})


def phi_term_cleared(spec: PhiSpec, k: int) -> tuple:
    """Exact (numerator, denominator) of the k-th summand, without cancellation."""
    if k < 0:
        raise ValueError("summation index must be non-negative")
    num = _sign_factor(spec, k) * spec.argument.power(k).as_poly()
    for u in spec.upper:
        num = num * qpochhammer(u, k)
    den = qpochhammer(Q, k)
    for b in spec.lower:
        if b != 0:
            den = den * qpochhammer(b, k)
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
    """
    n = spec.termination
    term_param = ParamExpr.q_power(-n)
    uppers = list(spec.upper)
    uppers.remove(term_param)  # pairing (q^{-n};q)_k / (q;q)_k
    prefix_lists = [poch_prefixes(u, n) for u in uppers]
    suffix_lists = [poch_suffixes(b, n) for b in spec.lower if b != 0]
    total = MultiLaurentPoly.zero()
    for k in range(n + 1):
        term = terminating_weight(n, k) * _sign_factor(spec, k) \
            * spec.argument.power(k).as_poly()
        for pl in prefix_lists:
            term = term * pl[k]
        for sl in suffix_lists:
            term = term * sl[k]
        total = total + term
    den = MultiLaurentPoly.const(1)
    for sl in suffix_lists:
        den = den * sl[0]
    return total, den


def phi_sum(spec: PhiSpec) -> MultiLaurentPoly:
    """The exact value of the terminating sum; NotDivisibleError if not polynomial."""
    num, den = phi_sum_cleared(spec)
    return exact_div(num, den)


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise PhiParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_mono(sc: _Scanner) -> ParamExpr:
    coeff = Fraction(1)
    if sc.peek() == "-":
        sc.expect("-")
        coeff = -coeff
    sc.skip_ws()
    if sc.peek().isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.expect("/")
            den = sc.integer()
            if den == 0:
                raise PhiParseError("zero denominator in coefficient", sc.pos)
            coeff *= Fraction(num, den)
        else:
            coeff *= num
        if sc.peek() == "*":
            sc.expect("*")
        else:
            if coeff == 0:
                raise PhiParseError("zero is not a monomial here", sc.pos)
            return ParamExpr.of(coeff)
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
    if coeff == 0:
        raise PhiParseError("zero coefficient", sc.pos)
    return ParamExpr.of(coeff, powers)


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


def _print_mono(p) -> str:
    if p == 0:
        return "0"
    coeff = p.coeff
    parts = []
    for v, e in p.powers:
        parts.append(v if e == 1 else f"{v}^{e}")
    body = "*".join(parts)
    if not parts:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def print_phi(spec: PhiSpec) -> str:
    """Canonical text form; parse_phi(print_phi(s)) reproduces s."""
    upper = ", ".join(_print_mono(u) for u in spec.upper)
    lower = ", ".join(_print_mono(b) for b in spec.lower)
    return f"phi[{spec.r},{spec.s}]{{{upper} ; {lower} ; {_print_mono(spec.argument)}}}"
