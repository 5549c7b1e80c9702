"""Exact arithmetic kernel: big rationals and sparse multivariate Laurent polynomials.

Every value in this package is a Laurent polynomial with exact rational
coefficients over a fixed variable universe

    q < t < a < b < c < d < x < y < x0 < x1 < ... < x9

(q is the series base, t is an auxiliary base with q = t^2 where half-integer
powers of q would otherwise appear, x0..x9 are weight slots for linearization
arguments).  Coefficients are Python ints where possible and ``fractions.Fraction``
otherwise; both are arbitrary precision and always reduced.

Representation
--------------
A polynomial is a dict mapping a *packed exponent key* to a nonzero coefficient.
Each variable owns a 24-bit field of one signed integer, a balanced digit:

    key = sum_i e_i * 2**(24*i)        (i the variable's place, e_i signed)

so the empty monomial is the key 0, q^e is the int e, and monomial
multiplication is a single integer addition:

    key(m1 * m2) = key(m1) + key(m2)

A key in q alone is a small int, and any key is only as wide as the field of
its highest variable (a key in q, a, x and c has at most 168 bits).  Exponents
must stay below 2**20 in absolute value, which leaves three bits of headroom
per field: a sum of two valid exponents cannot carry into the next field.
Every operation that makes new keys (products, powers, substitution, the
quotient of exact division) checks its result and raises ValueError for an
exponent outside that range, before a field can wrap.  The grids exercised by
this package stay in the low thousands.

Balanced digits are unique while every |e_i| < 2**23, and key + _BIAS (a bias
of 2**23 in every field) holds e_i + 2**23 in field i: plain non-negative
24-bit fields.  Code that reads one field adds _BIAS once and masks.  Since
adding a constant keeps order, keys sort like their exponent vectors read
lexicographically from the top field (x9) down to q.

The canonical form is unique: no zero coefficients are stored, Fractions with
denominator 1 are normalized to int, and the printing order (graded
lexicographic over the fixed variable order) is deterministic.  All values are
immutable after construction and safe to share across threads.

Products
--------
A product with a one-term side shifts the other side's keys (an int
monomial times int coefficients is a plain product, no normalization).  A
product of two polynomials of two or more terms takes one of two paths:

* grouped Kronecker, for int coefficients: each operand is grouped by its
  monomial in the variables other than q, each group's dense q-list is
  packed into one big integer, and every pair of groups is one big-integer
  multiply in C, added into a packed accumulator for its output monomial.
  An operand in q alone is one group, found by two C-level scans of its
  keys (min and max);
* generic, term by term into a dict, for Fraction coefficients and for
  operands too small or too sparse in q to pay for packing.  A product in a
  single variable other than q lands here too: each of its terms is a q-group
  of its own, which the grouped path refuses.

The cut-overs are stated and measured next to the packing helpers below.

Sums of products
----------------
``sum_of_products(terms)`` is the sum over terms of the product of each
term's factors, and the grouped product is its one-term, two-factor case.
Monomial factors fold into the term's key shift and int scale.  The other
factors are grouped by their non-q monomial as above, and each term's factors
are packed once, at the one limb width of the whole sum, with no repack
between partial products (a factor shared by several terms is packed again
for each): each term is multiplied factor by factor as packed accumulators,
one per non-q monomial, and every term adds into one accumulator per output
monomial, which is unpacked once at the end.
Packing sends q to 2^w, a ring homomorphism, so a partial product or a partial
sum may overflow its limbs freely: only the final coefficients have to fit.
They are below

    (number of terms) * max over terms of |scale| * prod_i max|f_i| * (prod_i len_i / max_i len_i)

since an output coefficient of a product sums one product of coefficients per
choice of a term from every factor but the longest.  The limb holds the bits
of that bound plus a sign bit.  A term with a Fraction coefficient, or with a
factor the grouped product would refuse, is multiplied out with ``*`` and
added in.

Exact division
--------------
``exact_divide`` takes one of two paths, chosen from the divisor:

* divisor in q alone: the dividend is grouped by its non-q monomial exactly as
  the grouped product groups an operand, and each group's dense q-list is
  divided by the divisor's dense q-list.  Sparse groups are not refused here:
  the other path is quadratic in the number of terms;
* any other divisor, one in a single variable other than q included: graded
  long division term by term, after the least exponent vector of each operand
  is divided out.

Either way the quotient's exponents are checked against the limit, and
``exact_divide`` multiplies the quotient back before it returns it.
"""

from __future__ import annotations

import os
import re
import sys
from array import array
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import compress, groupby, repeat
from math import prod
from operator import add, and_, mul, or_, sub

VAR_NAMES = ("q", "t", "a", "b", "c", "d", "x", "y",
             "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9")

_W = 24
_OFF = 1 << 23
_MASK = (1 << _W) - 1
_NVARS = len(VAR_NAMES)
_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
_SHIFT = {name: _W * i for name, i in _INDEX.items()}
_BIAS = sum(_OFF << (_W * i) for i in range(_NVARS))
_BASE = 0  # the key of the empty monomial (perfbench/tracing.py reads this name)
_EXP_LIMIT = 1 << 20
# key + _CENTER holds e + 2^23 - 2^20 in each field and _CENTER - key holds
# 2^23 - 2^20 - e, so a field's top bit (a bit of _BIAS) is set in their OR
# exactly when |e| >= _EXP_LIMIT.  Exact while every |e| < 2^22: no field borrows.
_CENTER = _BIAS - sum(_EXP_LIMIT << (_W * i) for i in range(_NVARS))


class NotDivisibleError(ArithmeticError):
    """Raised by exact_div when the requested exact division has a remainder."""


class TermBudgetExceeded(RuntimeError):
    """Raised when a result would exceed the QCK_MAX_TERMS term cap."""


def term_cap() -> int:
    """Maximum number of stored terms allowed in any single polynomial."""
    return int(os.environ.get("QCK_MAX_TERMS", "10000000"))


def _norm_coeff(c):
    # Fractions that collapse to integers are stored as int (faster arithmetic).
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _encode(powers) -> int:
    key = 0
    for name, e in powers.items():
        if e:
            if name not in _INDEX:
                raise ValueError(f"unknown variable {name!r}; ring has {VAR_NAMES}")
            if not -_EXP_LIMIT < e < _EXP_LIMIT:
                raise ValueError(f"exponent {e} for {name!r} out of supported range")
            key += e << _SHIFT[name]
    return key


def _decode(key) -> tuple:
    # Exponent tuple in fixed variable order (length _NVARS).
    key += _BIAS
    return tuple(((key >> (_W * i)) & _MASK) - _OFF for i in range(_NVARS))


def _grade(key) -> int:
    key += _BIAS
    g = 0
    for i in range(_NVARS):
        g += ((key >> (_W * i)) & _MASK)
    return g - _NVARS * _OFF


class MultiLaurentPoly:
    """A sparse multivariate Laurent polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self):
        """The zero polynomial; build others with ``const``, ``var`` and ``monomial``."""
        self._terms = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def _raw(terms: dict) -> "MultiLaurentPoly":
        p = MultiLaurentPoly.__new__(MultiLaurentPoly)
        p._terms = terms
        return p

    @staticmethod
    def _checked(terms: dict) -> "MultiLaurentPoly":
        """_raw for new keys, which must hold every exponent inside the supported range."""
        _check_keys(terms)
        return MultiLaurentPoly._raw(terms)

    @classmethod
    def zero(cls) -> "MultiLaurentPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MultiLaurentPoly":
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._raw({0: c} if c else {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MultiLaurentPoly":
        return cls.monomial(1, {name: exp})

    @classmethod
    def monomial(cls, coeff, powers: dict) -> "MultiLaurentPoly":
        coeff = _norm_coeff(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
        if not coeff:
            return cls.zero()
        return cls._raw({_encode(powers): coeff})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> tuple:
        """Names of the variables that actually occur, in canonical order."""
        seen = [False] * _NVARS
        for k in self._terms:
            k += _BIAS
            for i in range(_NVARS):
                if ((k >> (_W * i)) & _MASK) != _OFF:
                    seen[i] = True
        return tuple(VAR_NAMES[i] for i in range(_NVARS) if seen[i])

    def sorted_terms(self):
        """Terms as (exponents-dict, coeff), graded-lexicographically sorted."""
        decorated = []
        for k, c in self._terms.items():
            exps = _decode(k)
            decorated.append((sum(exps), exps, c))
        decorated.sort(key=lambda t: (t[0], t[1]))
        return [({VAR_NAMES[i]: e for i, e in enumerate(exps) if e}, c)
                for _, exps, c in decorated]

    def degree_range(self, name: str) -> tuple:
        """(min, max) exponent of ``name`` across all terms; (0, 0) for 0."""
        if not self._terms:
            return (0, 0)
        sh = _SHIFT[name]
        es = [(((k + _BIAS) >> sh) & _MASK) - _OFF for k in self._terms]
        return (min(es), max(es))

    def coefficients_by(self, names) -> dict:
        """Group terms by their monomial in ``names``.

        Returns {powers-dict-over-names (as sorted tuple of pairs): polynomial
        in the remaining variables}.
        """
        idxs = [_INDEX[n] for n in names]
        buckets = {}
        for k, c in self._terms.items():
            sel = []
            rest = k
            kb = k + _BIAS
            for i in idxs:
                e = ((kb >> (_W * i)) & _MASK) - _OFF
                if e:
                    sel.append((VAR_NAMES[i], e))
                    rest -= e << (_W * i)
            sel = tuple(sorted(sel, key=lambda pair: _INDEX[pair[0]]))
            buckets.setdefault(sel, {})[rest] = c
        return {sel: MultiLaurentPoly._raw(d) for sel, d in buckets.items()}

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MultiLaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MultiLaurentPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return MultiLaurentPoly._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiLaurentPoly.const(other)
        elif not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        _add_into(out, b)
        return MultiLaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiLaurentPoly.const(other)
        elif not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            nc = get(k, 0) - c
            if nc:
                out[k] = nc if type(nc) is int else _norm_coeff(nc)
            elif k in out:
                del out[k]
        return MultiLaurentPoly._raw(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if not other:
                return MultiLaurentPoly.zero()
            return MultiLaurentPoly._raw(
                {k: _norm_coeff(c * other) for k, c in self._terms.items()})
        if not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiLaurentPoly.zero()
        if len(a) == 1:
            (k1, c1), = a.items()
            if type(c1) is int and _all_int(b.values()):
                return MultiLaurentPoly._checked(
                    dict(zip(map(add, b, repeat(k1)), map(mul, b.values(), repeat(c1)))))
            return MultiLaurentPoly._checked(
                {k1 + k: _norm_coeff(c1 * c) for k, c in b.items()})
        if len(b) == 1:
            return other.__mul__(self)
        if _all_int(a.values()) and _all_int(b.values()):
            product = _mul_grouped(a, b)
            if product is not None:
                return product
        return _mul_generic(a, b)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for an integer n; a negative n needs a monomial (q/a is q * a**-1)."""
        if not isinstance(n, int):
            raise ValueError("polynomial powers must be integers")
        if len(self._terms) == 1:
            (k, c), = self._terms.items()
            powers = {name: e * n for name, e in zip(VAR_NAMES, _decode(k)) if e}
            return MultiLaurentPoly.monomial(Fraction(c) ** n, powers)
        if n < 0:
            raise ValueError("only a monomial has negative powers")
        result = MultiLaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for powers, c in self.sorted_terms():
            mono = "*".join(v if e == 1 else f"{v}^{e}"
                            for v, e in sorted(powers.items(), key=lambda p: _INDEX[p[0]]))
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        s = str(self)
        return f"MultiLaurentPoly({s if len(s) <= 60 else s[:57] + '...'})"

    @classmethod
    def from_canonical(cls, text: str) -> "MultiLaurentPoly":
        """Inverse of str() on canonical output."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        acc = {}
        for part in text.split(" + "):
            part = part.strip()
            coeff = Fraction(1)
            if part.startswith("-"):
                coeff = -coeff
                part = part[1:]
            powers = {}
            for factor in part.split("*"):
                factor = factor.strip()
                if re.fullmatch(r"\d+(/\d+)?", factor):
                    coeff *= Fraction(factor)
                else:
                    m = re.fullmatch(r"([a-z][a-z0-9]*)(\^(-?\d+))?", factor)
                    if m is None:
                        raise ValueError(f"cannot parse polynomial factor {factor!r}")
                    name, _, e = m.groups()
                    powers[name] = powers.get(name, 0) + (int(e) if e else 1)
            k = _encode(powers)
            acc[k] = acc.get(k, 0) + coeff
        return cls._raw({k: _norm_coeff(c) for k, c in acc.items() if c})

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: dict) -> "MultiLaurentPoly":
        """Apply the ring homomorphism sending each bound variable to a monomial or rational.

        Binding values may be int, Fraction or a single-term MultiLaurentPoly.
        Unbound variables pass through.  Substituting 0 for a variable that
        occurs with a negative exponent raises ZeroDivisionError.  ValueError
        is raised when an exponent of the image reaches the supported limit,
        and also, before any key is built, when the bound exponents times the
        bindings' exponents could reach twice that limit.
        """
        norm = {}
        reach = 0
        for name, val in bindings.items():
            if name not in _INDEX:
                raise ValueError(f"unknown variable {name!r}")
            norm[name] = _as_monomial(val)
            lo, hi = self.degree_range(name)
            reach += max(-lo, hi) * max(map(abs, _decode(norm[name][1])))
        if reach >= 2 * _EXP_LIMIT:
            raise ValueError(f"substitution could take an exponent past {_EXP_LIMIT}")
        acc = {}
        for k, c in self._terms.items():
            nk = k
            nc = c
            dead = False
            kb = k + _BIAS
            for name, (bc, bkey) in norm.items():
                sh = _SHIFT[name]
                e = ((kb >> sh) & _MASK) - _OFF
                if e == 0:
                    continue
                nk -= e << sh
                if bc == 0:
                    if e < 0:
                        raise ZeroDivisionError(
                            f"substituting 0 for {name!r}, which occurs with exponent {e}")
                    dead = True
                    break
                if e >= 0 or isinstance(bc, Fraction):
                    nc = nc * bc ** e
                else:
                    nc = nc * Fraction(1, bc ** (-e))
                nk += bkey * e
            if not dead:
                acc[nk] = acc.get(nk, 0) + nc
        return MultiLaurentPoly._checked({k: _norm_coeff(c) for k, c in acc.items() if c})


def _as_monomial(val):
    """Normalize a binding value to (coeff, packed-key)."""
    if isinstance(val, (int, Fraction)):
        return (_norm_coeff(val), 0)
    if isinstance(val, MultiLaurentPoly):
        if len(val._terms) != 1:
            raise ValueError("substitution values must be single Laurent monomials")
        (k, c), = val._terms.items()
        return (c, k)
    raise TypeError(f"cannot interpret {val!r} as a substitution value")


def _add_into(out: dict, terms: dict) -> None:
    """Add the terms into the term dict ``out``, dropping the coefficients that cancel."""
    get = out.get
    for k, c in terms.items():
        nc = get(k, 0) + c
        if nc:
            out[k] = nc if type(nc) is int else _norm_coeff(nc)
        elif k in out:
            del out[k]


def _check_budget(n: int, cap: int) -> None:
    if n > cap:
        raise TermBudgetExceeded(f"result would hold {n} terms, above QCK_MAX_TERMS={cap}")


def _check_pairs(n1: int, n2: int, cap: int) -> None:
    """Refuse a product of n1 x n2 terms before anything is allocated for it."""
    if n1 * n2 > 50 * cap:
        raise TermBudgetExceeded(
            f"product of {n1} x {n2} terms is far above QCK_MAX_TERMS={cap}")


def _check_keys(keys) -> None:
    """Raise ValueError when a key of ``keys`` (iterated twice) holds |e| >= _EXP_LIMIT."""
    if any(map(and_, map(or_, map(add, keys, repeat(_CENTER)),
                         map(sub, repeat(_CENTER), keys)), repeat(_BIAS))):
        raise ValueError(f"an exponent reaches the supported limit {_EXP_LIMIT}")


def _q_range(terms: dict):
    """(least, greatest) key of nonempty ``terms`` when every term lives in q alone, else None.

    q is the lowest field, so a stored key in q alone is its exponent e, with
    |e| < _EXP_LIMIT, and the least and greatest keys are the lowest and highest
    powers of q.  Any other key is e + 2^24 * M with |e| < _EXP_LIMIT and M a
    nonzero integer, at least 2^24 - 2^20 > 2^23 away from 0.  So two C-level
    scans, max and min, decide it for every stored key.
    """
    hi = max(terms)
    if hi < _EXP_LIMIT:
        lo = min(terms)
        if lo > -_EXP_LIMIT:
            return lo, hi
    return None


def _all_int(coeffs) -> bool:
    return set(map(type, coeffs)) == {int}


def _mul_generic(a: dict, b: dict) -> MultiLaurentPoly:
    if len(a) > len(b):
        a, b = b, a
    cap = term_cap()
    _check_pairs(len(a), len(b), cap)
    out = {}
    get = out.get
    bitems = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bitems:
            k = k1 + k2
            v = get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2
    out = {k: _norm_coeff(c) for k, c in out.items() if c}
    _check_budget(len(out), cap)
    return MultiLaurentPoly._checked(out)


# -- grouped Kronecker product ----------------------------------------------------
#
# The two product paths of the module docstring, and where __mul__ takes each:
#
# * grouped Kronecker (_mul_grouped): int coefficients, at least
#   _GROUPED_MIN_PAIRS term pairs per pair of q-groups on average, every
#   q-group passing _dense_pays, and no output accumulator spanning more than
#   the group products added into it, plus 64.  An operand in q alone is one
#   q-group, so two such operands make a single packed multiply.  Exact for any
#   operand sizes because the limb width is derived from the coefficient bounds.
# * generic (_mul_generic): everything else, Fraction coefficients and
#   operands in one variable other than q included (none of the suites
#   multiplies two such polynomials, or two q-polynomials with a Fraction).
#
# Both paths check the QCK_MAX_TERMS budget and the exponent range of their result.

# Taken from timing both paths on the products of clausen_orr_sides(5) and the
# general_s/q2_product sides for n = 5: below this the grouping costs more
# than the term-by-term loop it replaces.
_GROUPED_MIN_PAIRS = 16

# Machine formats of a signed limb of 1, 2, 4 or 8 bytes (in that order), read
# and written in C by array and memoryview.  Packed limbs are little-endian, so
# only on such hosts; elsewhere limbs go through to_bytes one by one.
_LIMB_FORMAT = {array(f).itemsize: f for f in "bhiq"} if sys.byteorder == "little" else {}


def _dense_pays(span: int, terms: int) -> bool:
    """Whether a dense list over ``span`` exponents is worth it for ``terms`` terms."""
    return span <= 16 * terms + 64


def _limb_bytes(bits: int) -> int:
    """Bytes in a limb of at least ``bits`` bits, rounded up to a machine format."""
    nbytes = (bits + 7) // 8
    return next((n for n in _LIMB_FORMAT if n >= nbytes), nbytes)


def _bias(n: int, nbytes: int) -> int:
    """The top bit of each of n limbs."""
    return int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * n, "little")


def _pack(coeffs, nbytes: int) -> int:
    """sum_i c_i 2^(8*nbytes*i) for signed c_i below 2^(8*nbytes-1) in absolute value."""
    fmt = _LIMB_FORMAT.get(nbytes)
    if fmt:
        # Two's-complement limbs read as one unsigned integer overshoot by
        # 2^limb at each negative limb, which is exactly where a top bit is set.
        value = int.from_bytes(array(fmt, coeffs).tobytes(), "little")
        return value - ((value & _bias(len(coeffs), nbytes)) << 1)
    # Wider limbs: each c_i + 2^(limb-1) is an unsigned limb, written in C by
    # map, and the bias comes off the whole integer at once.
    top = 1 << (8 * nbytes - 1)
    raw = b"".join(map(int.to_bytes, map(add, coeffs, repeat(top)), repeat(nbytes),
                       repeat("little")))
    return int.from_bytes(raw, "little") - _bias(len(coeffs), nbytes)


def _unpack(value: int, n: int, nbytes: int) -> list:
    """The n signed limbs of ``value``, each below 2^(8*nbytes-1) in absolute value.

    Adding the bias h = 2^(limb-1) to every limb leaves each limb in [0, 2^limb)
    with no carry between limbs.  Flipping each limb's top bit again (an XOR
    with the bias) turns c + h into c in two's complement, read back as a
    signed limb.
    """
    bias = _bias(n, nbytes)
    raw = ((value + bias) ^ bias).to_bytes(nbytes * n, "little")
    fmt = _LIMB_FORMAT.get(nbytes)
    if fmt:
        return memoryview(raw).cast(fmt).tolist()
    return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
            for i in range(0, nbytes * n, nbytes)]


def _coeff_max(groups) -> int:
    """The largest coefficient magnitude in the groups' dense q-lists."""
    return max(max(max(A), -min(A)) for _, _, A in groups)


def _dense(terms: dict, lo: int, hi: int) -> list:
    """Coefficients at the keys lo..hi of ``terms``, all of them in q alone and in that range."""
    dense = [0] * (hi - lo + 1)
    for i, c in zip(map(sub, terms, repeat(lo)), terms.values()):
        dense[i] = c
    return dense


def _q_groups(terms: dict, sparse: bool = False):
    """[(g, lo, dense q-list)] of terms grouped by their monomial in the variables other than q.

    g is that monomial's key (0 in q alone), lo the group's least q exponent.
    Unless ``sparse`` is set, None when a group's q-span fails _dense_pays,
    before its dense list is built.  Terms in q alone are one group, found
    without sorting.  Otherwise each key's q exponent is its signed low digit,
    and the keys are sorted: q is the lowest field, so the keys of a group are
    adjacent, in q order.
    """
    span = _q_range(terms)
    if span is not None:
        lo, hi = span
        if not (sparse or _dense_pays(hi - lo, len(terms))):
            return None
        return [(0, lo, _dense(terms, lo, hi))]
    keys = sorted(terms)
    qfields = [((k + _OFF) & _MASK) - _OFF for k in keys]
    coeffs = list(map(terms.__getitem__, keys))
    groups = []
    i = 0
    for m, run in groupby(map(sub, keys, qfields)):
        n = len(list(run))
        lo, hi = qfields[i], qfields[i + n - 1]
        if not (sparse or _dense_pays(hi - lo, n)):
            return None
        if hi - lo + 1 == n:
            dense = coeffs[i:i + n]
        else:
            dense = [0] * (hi - lo + 1)
            for f, c in zip(qfields[i:i + n], coeffs[i:i + n]):
                dense[f - lo] = c
        groups.append((m, lo, dense))
        i += n
    return groups


def _spans(factors, lens, cap: int):
    """The output accumulators of each partial product of ``factors``, or None.

    ``factors`` are lists of q-groups and ``lens`` their term counts.  Entry i
    maps the key g of each output monomial of factors[0] * ... *
    factors[i] to [lo, hi, work]: its least and greatest q exponent and the
    summed spans of the group products added into it.  None, before anything
    is packed, when an accumulator spans more than its work plus 64.  Each
    step is held to the term budget, with the partial product's term count
    bounded by its dense span, and a partial product that is multiplied
    further must hold its monomials inside the exponent range.
    """
    spans = {g: [lo, lo + len(A) - 1, len(A) - 1] for g, lo, A in factors[0]}
    chain = [spans]
    n = lens[0]
    for groups, n2 in zip(factors[1:], lens[1:]):
        if len(chain) > 1:
            _check_keys(spans)
            n = min(n, sum(hi - lo + 1 for lo, hi, _ in spans.values()))
        _check_pairs(n, n2, cap)
        n *= n2
        nxt = {}
        for g1, (lo1, hi1, _) in spans.items():
            for g2, lo2, B in groups:
                g, lo, hi = g1 + g2, lo1 + lo2, hi1 + lo2 + len(B) - 1
                s = nxt.get(g)
                if s is None:
                    nxt[g] = [lo, hi, hi - lo]
                else:
                    s[0] = min(s[0], lo)
                    s[1] = max(s[1], hi)
                    s[2] += hi - lo
        if not all(hi - lo <= work + 64 for lo, hi, work in nxt.values()):
            return None
        chain.append(nxt)
        spans = nxt
    return chain


def _term_bound(factors, lens, scale: int = 1) -> int:
    """A bound on the coefficient magnitudes of scale * the product of ``factors``.

    An output coefficient sums one product of coefficients per choice of a
    term from every factor but the longest (that choice fixes the last term),
    so at most prod(lens) / max(lens) products of at most the factors' largest
    magnitudes.
    """
    return abs(scale) * prod(map(_coeff_max, factors)) * (prod(lens) // max(lens))


def _sum_limb_bytes(bound: int, nterms: int) -> int:
    """Limb bytes for a sum of ``nterms`` products with coefficients at most ``bound``.

    The sum's coefficients are below 2^(bits(bound) + bits(nterms)), and one
    more bit holds the sign.  Only these final coefficients are unpacked.
    """
    return _limb_bytes(bound.bit_length() + nterms.bit_length() + 1)


def _packed_product(factors, chain, nbytes: int) -> list:
    """[(g, lo, packed q-list)] of the product of ``factors``, each lo as in ``chain``[-1]."""
    bits = 8 * nbytes
    acc = [(g, lo, _pack(A, nbytes)) for g, lo, A in factors[0]]
    for groups, spans in zip(factors[1:], chain[1:]):
        packed = [(g2, lo2, _pack(B, nbytes)) for g2, lo2, B in groups]
        nxt = dict.fromkeys(spans, 0)
        for g1, lo1, v1 in acc:
            for g2, lo2, v2 in packed:
                g = g1 + g2
                nxt[g] += (v1 * v2) << (bits * (lo1 + lo2 - spans[g][0]))
        acc = [(g, spans[g][0], v) for g, v in nxt.items()]
    return acc


def _packed_sum(terms, nbytes: int) -> tuple:
    """The sum of packed products as (term dict, [term dicts still to add]).

    Each term is (shift, scale, factors, chain): scale times the monomial of
    key ``shift`` times the product of ``factors`` with its ``chain``
    from _spans.  Its accumulators add into one per output monomial, shifted
    to a common least exponent.  An accumulator that a term would stretch past
    the summed spans of its pieces plus 64 is unpacked on its own first.
    """
    bits = 8 * nbytes
    sums = {}
    flushed = []
    for shift, scale, factors, chain in terms:
        spans = chain[-1]
        e = ((shift + _OFF) & _MASK) - _OFF  # the q exponent of the shift
        for g, lo, v in _packed_product(factors, chain, nbytes):
            _, hi, work = spans[g]
            if shift:
                g += shift - e
                lo += e
                hi += e
            if scale != 1:
                v *= scale
            s = sums.get(g)
            if s is not None:
                slo, shi, swork, sv = s
                if max(hi, shi) - min(lo, slo) > work + swork + 64:
                    flushed.append(_unpacked({g: s}, nbytes))
                else:
                    if lo >= slo:
                        v = sv + (v << (bits * (lo - slo)))
                        lo = slo
                    else:
                        v += sv << (bits * (slo - lo))
                    hi = max(hi, shi)
                    work += swork
            sums[g] = (lo, hi, work, v)
    return _unpacked(sums, nbytes), flushed


def _unpacked(sums: dict, nbytes: int) -> dict:
    """The terms of the accumulators {g: (lo, hi, work, packed q-list)}, range-checked."""
    out = {}
    ends = []
    for g, (lo, hi, _, v) in sums.items():
        coeffs = _unpack(v, hi - lo + 1, nbytes)
        at = range(len(coeffs))
        first = next(compress(at, coeffs), None)
        if first is not None:
            last = next(compress(reversed(at), reversed(coeffs)))
            # q exponents add up as ints, outside any field, so they are checked
            # here.  The other fields of g stay below 2^22 (a product of two
            # checked keys, plus a checked shift), where _check_keys is exact.
            if not -_EXP_LIMIT < lo + first <= lo + last < _EXP_LIMIT:
                raise ValueError(f"an exponent reaches the supported limit {_EXP_LIMIT}")
            start = g + lo
            ends += start + first, start + last
            keys = range(start, start + len(coeffs))
            out.update(zip(compress(keys, coeffs), filter(None, coeffs)))
    # An accumulator's keys share their other fields and run in q between its
    # first and last stored key, so those two are all the range check needs.
    _check_keys(ends)
    return out


def _mul_grouped(a: dict, b: dict):
    """Product of int-coefficient term dicts, one packed multiply per pair of q-groups.

    The one-term, two-factor case of sum_of_products.  None, before any
    packing, when a cut-over listed above _GROUPED_MIN_PAIRS sends the product
    to the generic path.
    """
    if len(a) * len(b) < _GROUPED_MIN_PAIRS:  # below the mean-pair cut-over for any grouping
        return None
    cap = term_cap()
    _check_pairs(len(a), len(b), cap)
    ga = _q_groups(a)
    gb = _q_groups(b) if ga is not None else None
    if gb is None or len(a) * len(b) < _GROUPED_MIN_PAIRS * len(ga) * len(gb):
        return None
    factors, lens = [ga, gb], (len(a), len(b))
    chain = _spans(factors, lens, cap)
    if chain is None:
        return None
    nbytes = _sum_limb_bytes(_term_bound(factors, lens), 1)
    out, _ = _packed_sum([(0, 1, factors, chain)], nbytes)
    _check_budget(len(out), cap)
    return MultiLaurentPoly._raw(out)


# -- packed sums of products ------------------------------------------------------

def sum_of_products(terms) -> MultiLaurentPoly:
    """The sum over ``terms`` of the product of each term's factors (MultiLaurentPolys).

    One packed accumulator per output monomial holds the whole sum, unpacked
    once (see "Sums of products" in the module docstring).  A term with a
    Fraction coefficient, or with a factor whose q-groups the grouped product
    would refuse, is multiplied out with ``*`` and added in.
    """
    cap = term_cap()
    packed, chained = [], []
    bound = 0
    for factors in terms:
        factors = tuple(factors)
        shift, scale, polys = 0, 1, []
        for f in factors:
            if len(f._terms) == 1:  # a monomial folds into the shift and the scale
                (k, c), = f._terms.items()
                shift, scale = shift + k, scale * c
                if shift != k:  # two keys added: is it still a key in range?
                    _check_keys((shift,))
            else:
                polys.append(f._terms)
        if not all(polys):
            continue  # a zero factor
        chain = None
        if type(scale) is int and all(_all_int(p.values()) for p in polys):
            polys = polys or [{0: 1}]
            groups, lens = list(map(_q_groups, polys)), list(map(len, polys))
            if None not in groups:
                chain = _spans(groups, lens, cap)
        if chain is None:
            chained.append(factors)
            continue
        bound = max(bound, _term_bound(groups, lens, scale))
        packed.append((shift, scale, groups, chain))
    out, flushed = _packed_sum(packed, _sum_limb_bytes(bound, len(packed)))
    for factors in chained:
        flushed.append(reduce(mul, factors)._terms)
    for more in flushed:
        _add_into(out, more)
    _check_budget(len(out), cap)
    return MultiLaurentPoly._raw(out)


# -- exact division -----------------------------------------------------------

def _dense_divrem(A, B):
    """Quotient and remainder of dense coefficient lists (B's lead nonzero).

    Only the nonzero entries of B are walked: most divisors here are 1 - q^k or
    products of a few of them, sparse across their span.
    """
    r = list(A)
    if len(A) < len(B):
        return [], r
    top = len(B) - 1
    lead = B[top]
    unit = lead in (1, -1)
    tail = [(j, bj) for j, bj in enumerate(B[:top]) if bj]
    q = [0] * (len(A) - top)
    for i in reversed(range(len(q))):
        c = r[i + top]
        if c:
            if unit and type(c) is int:
                qc = c if lead == 1 else -c
            else:
                # c may be a Fraction even when the quotient coefficient is whole.
                qc = _norm_coeff(c * lead if unit else Fraction(c) / lead)
            q[i] = qc
            for j, bj in tail:
                r[i + j] -= qc * bj
    del r[top:]  # every entry from B's degree up has been cancelled
    while r and not r[-1]:
        r.pop()
    return q, r


def _from_dense(coeffs) -> MultiLaurentPoly:
    """The polynomial sum_i coeffs[i] q^i; coeffs are normalized.

    Callers pass a quotient or remainder of a stored polynomial, whose degrees
    stay below that polynomial's, so no exponent reaches the supported limit.
    """
    keys = range(len(coeffs))
    return MultiLaurentPoly._raw(dict(zip(compress(keys, coeffs), filter(None, coeffs))))


def exact_divide(p: MultiLaurentPoly, d: MultiLaurentPoly):
    """Quotient r with r*d == p, or None when d does not divide p exactly.

    A divisor in q alone divides each q-group of p (_divide_in_q); any other
    divisor takes the graded long division (_divide_graded).  Either way the
    quotient is verified by multiplying back.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiLaurentPoly.zero()
    span = _q_range(d._terms)
    q = _divide_graded(p, d) if span is None else _divide_in_q(p, d, *span)
    if q is None:
        return None
    if q * d != p:  # multiply-back guard; the division loops should never fail it
        raise AssertionError("exact_divide produced an incorrect quotient")
    return q


def exact_div(p: MultiLaurentPoly, d: MultiLaurentPoly) -> MultiLaurentPoly:
    """exact_divide that raises NotDivisibleError instead of returning None."""
    q = exact_divide(p, d)
    if q is None:
        raise NotDivisibleError(f"({p}) is not divisible by ({d})")
    return q


def _divide_in_q(p: MultiLaurentPoly, d: MultiLaurentPoly, lo: int, hi: int):
    """p / d for d in q alone with least and greatest keys lo and hi; None if inexact.

    Each q-group of p is m q^e A(q) with A(0) != 0, and d is q^lo B(q)
    with B(0) != 0, so d divides p exactly when B divides every A.  The groups
    are built even where they are sparse in q: the graded loop is quadratic.
    """
    B = _dense(d._terms, lo, hi)
    out = {}
    for g, e, A in _q_groups(p._terms, sparse=True):
        qd, r = _dense_divrem(A, B)
        if r:
            return None
        start = g + e - lo
        # small indices first: a sparse quotient need not build a packed key per entry
        out.update(zip(map(start.__add__, compress(range(len(qd)), qd)), filter(None, qd)))
    return MultiLaurentPoly._checked(out)


def _min_exponent_key(p: MultiLaurentPoly) -> int:
    """Packed key of the componentwise-minimal exponent vector of p's support."""
    mins = [None] * _NVARS
    for k in p._terms:
        k += _BIAS
        for i in range(_NVARS):
            e = ((k >> (_W * i)) & _MASK) - _OFF
            if mins[i] is None or e < mins[i]:
                mins[i] = e
    return sum(m << (_W * i) for i, m in enumerate(mins))


def _divide_graded(p: MultiLaurentPoly, d: MultiLaurentPoly):
    """p / d by graded long division for nonzero p; None if inexact.

    The minimal exponent vector of each operand is divided out first, so both
    are ordinary polynomials, and every quotient monomial must stay ordinary.
    The normalised exponents run up to an operand's span, below 2^21: the
    fields hold them exactly, so only the quotient's are checked against the
    limit.  Each leading term of the remainder is popped from a heap of
    (grade, key) pairs, largest first; a key whose term has cancelled since it
    was pushed is skipped.  Grades add up like keys, so a new key's grade
    comes from its quotient term and divisor term.
    """
    sp = _min_exponent_key(p)
    sd = _min_exponent_key(d)
    dterms = sorted(((_grade(k - sd), k - sd, c) for k, c in d._terms.items()), reverse=True)
    (dlead_grade, dlead_key, dlead_c), rest = dterms[0], dterms[1:]
    r = {k - sp: c for k, c in p._terms.items()}
    heap = [(-_grade(k), -k) for k in r]  # heapq pops the least: negate for the largest
    heapify(heap)
    q = {}
    while r:
        lt_grade, lt_key = heappop(heap)
        lt_c = r.pop(-lt_key, None)
        if lt_c is None:
            continue  # cancelled
        qk = -lt_key - dlead_key
        # Quotient monomial must be ordinary (componentwise >= 0).
        for i in range(_NVARS):
            if (((qk + _BIAS) >> (_W * i)) & _MASK) < _OFF:
                return None
        qgrade = -lt_grade - dlead_grade
        qc = _norm_coeff(Fraction(lt_c) / dlead_c)
        q[qk + sp - sd] = qc
        for g2, k2, c2 in rest:
            k = qk + k2
            c = r.get(k)
            if c is None:
                r[k] = -qc * c2
                heappush(heap, (-qgrade - g2, -k))
            elif c := c - qc * c2:
                r[k] = c
            else:
                del r[k]
    return MultiLaurentPoly._checked(q)


def divrem_in_q(p: MultiLaurentPoly, m: MultiLaurentPoly) -> tuple:
    """Long division of integer polynomials in q by a monic integer modulus.

    Requires p to have only non-negative q-exponents and integer coefficients.
    Returns (quotient, remainder) with deg(remainder) < deg(m), both exact.
    """
    for poly, label in ((p, "dividend"), (m, "modulus")):
        if poly and _q_range(poly._terms) is None:
            extra = [v for v in poly.variables() if v != "q"]
            if extra:
                raise ValueError(f"{label} must be univariate in q, found {extra}")
    lo_p = min(p._terms) if p else 0
    if lo_p < 0:
        raise ValueError("dividend has negative q-exponents; clear them first")
    if any(not isinstance(c, int) for c in p._terms.values()):
        raise ValueError("dividend must have integer coefficients")
    if m.is_zero():
        raise ZeroDivisionError("zero modulus")
    if any(not isinstance(c, int) for c in m._terms.values()):
        raise ValueError("modulus must have integer coefficients")
    if min(m._terms) < 0:
        raise ValueError("modulus has negative q-exponents")
    B = _dense(m._terms, 0, max(m._terms))
    if B[-1] != 1:
        raise ValueError("modulus must be monic")
    if p.is_zero():
        return MultiLaurentPoly.zero(), MultiLaurentPoly.zero()
    q, r = _dense_divrem(_dense(p._terms, 0, max(p._terms)), B)
    return _from_dense(q), _from_dense(r)


def non_positive_terms(p: MultiLaurentPoly) -> MultiLaurentPoly:
    """The terms of p whose coefficient is not a positive integer."""
    return MultiLaurentPoly._raw({k: c for k, c in p._terms.items()
                                  if not (isinstance(c, int) and c > 0)})


def is_nonneg_integer_laurent(p: MultiLaurentPoly) -> bool:
    """True iff p is univariate in q with non-negative integer coefficients."""
    extra = [v for v in p.variables() if v != "q"]
    if extra:
        raise ValueError(f"free variables besides q remain: {extra}")
    return non_positive_terms(p).is_zero()
