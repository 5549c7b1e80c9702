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
Each variable owns a 24-bit field inside one big integer; an exponent e is
stored as e + 2**23 in its field, so exponents may be negative (Laurent) and
monomial multiplication is a single integer addition:

    key(m1 * m2) = key(m1) + key(m2) - _BASE

where _BASE is the key of the empty monomial.  Exponents must stay below
2**20 in absolute value, which leaves three bits of headroom per field: a sum
of two valid exponents cannot wrap into the next field.  Every operation that
makes new keys (products, powers, substitution, the quotient of exact division)
checks its result and raises ValueError for an exponent outside that range,
before a field can wrap.  The grids exercised by this package stay in the low
thousands.

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
from itertools import compress, groupby, repeat
from operator import add, and_, mul, or_, sub

VAR_NAMES = ("q", "t", "a", "b", "c", "d", "x", "y",
             "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9")

_W = 24
_OFF = 1 << 23
_MASK = (1 << _W) - 1
_NVARS = len(VAR_NAMES)
_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}
_SHIFT = {name: _W * i for name, i in _INDEX.items()}
_BASE = sum(_OFF << (_W * i) for i in range(_NVARS))
_EXP_LIMIT = 1 << 20
# key - _LIMITS holds e + 2^23 - 2^20 in each field and _MIRROR - key holds
# 2^23 - 2^20 - e, so a field's top bit (a bit of _BASE) is set in their OR
# exactly when |e| >= _EXP_LIMIT.  Exact while every |e| < 2^22: no field borrows.
_LIMITS = sum(_EXP_LIMIT << (_W * i) for i in range(_NVARS))
_MIRROR = 2 * _BASE - _LIMITS


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
    key = _BASE
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
    return tuple(((key >> (_W * i)) & _MASK) - _OFF for i in range(_NVARS))


def _grade(key) -> int:
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
        return cls._raw({_BASE: c} if c else {})

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
        es = [((k >> sh) & _MASK) - _OFF for k in self._terms]
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
            for i in idxs:
                e = ((k >> (_W * i)) & _MASK) - _OFF
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
        get = out.get
        for k, c in b.items():
            nc = get(k, 0) + c
            if nc:
                out[k] = nc if type(nc) is int else _norm_coeff(nc)
            elif k in out:
                del out[k]
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
            k1 -= _BASE
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
            for name, (bc, bkey) in norm.items():
                sh = _SHIFT[name]
                e = ((k >> sh) & _MASK) - _OFF
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
                nk += (bkey - _BASE) * e
            if not dead:
                acc[nk] = acc.get(nk, 0) + nc
        return MultiLaurentPoly._checked({k: _norm_coeff(c) for k, c in acc.items() if c})


def _as_monomial(val):
    """Normalize a binding value to (coeff, packed-key)."""
    if isinstance(val, (int, Fraction)):
        return (_norm_coeff(val), _BASE)
    if isinstance(val, MultiLaurentPoly):
        if len(val._terms) != 1:
            raise ValueError("substitution values must be single Laurent monomials")
        (k, c), = val._terms.items()
        return (c, k)
    raise TypeError(f"cannot interpret {val!r} as a substitution value")


def _check_budget(n: int) -> None:
    if n > term_cap():
        raise TermBudgetExceeded(
            f"result would hold {n} terms, above QCK_MAX_TERMS={term_cap()}")


def _check_pairs(n1: int, n2: int) -> None:
    """Refuse a product of n1 x n2 terms before anything is allocated for it."""
    if n1 * n2 > 50 * term_cap():
        raise TermBudgetExceeded(
            f"product of {n1} x {n2} terms is far above QCK_MAX_TERMS={term_cap()}")


def _check_keys(keys) -> None:
    """Raise ValueError when a key of ``keys`` (iterated twice) holds |e| >= _EXP_LIMIT."""
    if any(map(and_, map(or_, map(sub, keys, repeat(_LIMITS)),
                         map(sub, repeat(_MIRROR), keys)), repeat(_BASE))):
        raise ValueError(f"an exponent reaches the supported limit {_EXP_LIMIT}")


def _q_range(terms: dict):
    """(least, greatest) key of nonempty ``terms`` when every term lives in q alone, else None.

    q is the lowest field, so a stored key in q alone is _BASE + e with
    |e| < _EXP_LIMIT, and the least and greatest keys are the lowest and highest
    powers of q.  Any other key is _BASE + e + 2^24 * M with |e| < 2^23 and M a
    nonzero integer, more than 2^23 away from _BASE.  So two C-level scans, max
    and min, decide it for every stored key.
    """
    hi = max(terms)
    if hi < _BASE + _EXP_LIMIT:
        lo = min(terms)
        if lo > _BASE - _EXP_LIMIT:
            return lo, hi
    return None


def _all_int(coeffs) -> bool:
    return set(map(type, coeffs)) == {int}


def _mul_generic(a: dict, b: dict) -> MultiLaurentPoly:
    if len(a) > len(b):
        a, b = b, a
    _check_pairs(len(a), len(b))
    out = {}
    get = out.get
    bitems = list(b.items())
    for k1, c1 in a.items():
        k1 -= _BASE
        for k2, c2 in bitems:
            k = k1 + k2
            v = get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2
    out = {k: _norm_coeff(c) for k, c in out.items() if c}
    _check_budget(len(out))
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
    pos = bytearray(nbytes * len(coeffs))
    neg = None
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * nbytes:(i + 1) * nbytes] = c.to_bytes(nbytes, "little")
        elif c < 0:
            if neg is None:
                neg = bytearray(len(pos))
            neg[i * nbytes:(i + 1) * nbytes] = (-c).to_bytes(nbytes, "little")
    value = int.from_bytes(pos, "little")
    return value if neg is None else value - int.from_bytes(neg, "little")


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


def _product_limb_bytes(bits1: int, bits2: int, n: int) -> int:
    """Limb bytes for a product of operands with coefficients of bits1 and bits2 bits.

    Each output coefficient is a sum of at most n products (n the smaller
    operand's length), so it stays below 2^(limb-1), partial sums included.
    """
    return _limb_bytes(bits1 + bits2 + n.bit_length() + 2)


def _coeff_bits(groups) -> int:
    """Bit length of the largest coefficient magnitude in the groups' dense q-lists."""
    return max(max(max(A), -min(A)) for _, _, A in groups).bit_length()


def _dense(terms: dict, lo: int, hi: int) -> list:
    """Coefficients at the keys lo..hi of ``terms``, all of them in q alone and in that range."""
    dense = [0] * (hi - lo + 1)
    for i, c in zip(map(sub, terms, repeat(lo)), terms.values()):
        dense[i] = c
    return dense


def _q_groups(terms: dict, sparse: bool = False):
    """[(m, lo, dense q-list)] of terms grouped by the key m of their non-q monomial.

    m is a term's key with the q field zeroed, lo the group's least q exponent.
    Unless ``sparse`` is set, None when a group's q-span fails _dense_pays,
    before its dense list is built.  Terms in q alone are one group, found
    without sorting.
    """
    span = _q_range(terms)
    if span is not None:
        lo, hi = span
        if not (sparse or _dense_pays(hi - lo, len(terms))):
            return None
        return [(_BASE - _OFF, lo - _BASE, _dense(terms, lo, hi))]
    keys = sorted(terms)  # q is the lowest field: a group's keys are adjacent, in q order
    qfields = [k & _MASK for k in keys]
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
        groups.append((m, lo - _OFF, dense))
        i += n
    return groups


def _mul_grouped(a: dict, b: dict):
    """Product of int-coefficient term dicts, one packed multiply per pair of q-groups.

    None, before any packing, when a cut-over listed above _GROUPED_MIN_PAIRS
    sends the product to the generic path.
    """
    _check_pairs(len(a), len(b))
    if len(a) * len(b) < _GROUPED_MIN_PAIRS:  # below the mean-pair cut-over for any grouping
        return None
    ga = _q_groups(a)
    gb = _q_groups(b) if ga is not None else None
    if gb is None or len(a) * len(b) < _GROUPED_MIN_PAIRS * len(ga) * len(gb):
        return None
    # The exponent span of each output monomial's accumulator, and the summed
    # spans of the group products that go into it.
    spans = {}
    for m1, lo1, A in ga:
        for m2, lo2, B in gb:
            lo, hi = lo1 + lo2, lo1 + lo2 + len(A) + len(B) - 2
            s = spans.get(m1 + m2)
            if s is None:
                spans[m1 + m2] = [lo, hi, hi - lo]
            else:
                s[0] = min(s[0], lo)
                s[1] = max(s[1], hi)
                s[2] += hi - lo
    if not all(hi - lo <= work + 64 for lo, hi, work in spans.values()):
        return None
    nbytes = _product_limb_bytes(_coeff_bits(ga), _coeff_bits(gb), min(len(a), len(b)))
    bits = 8 * nbytes
    pb = [(m2, lo2, _pack(B, nbytes)) for m2, lo2, B in gb]
    acc = dict.fromkeys(spans, 0)
    for m1, lo1, A in ga:
        v1 = _pack(A, nbytes)
        for m2, lo2, v2 in pb:
            m = m1 + m2
            acc[m] += (v1 * v2) << (bits * (lo1 + lo2 - spans[m][0]))
    out = {}
    ends = []
    for m, v in acc.items():
        lo, hi, _ = spans[m]
        coeffs = _unpack(v, hi - lo + 1, nbytes)
        # m is the sum of two keys with a zeroed q field: m - _BASE + 2 * _OFF
        # is the key of their product monomial, with q^0.
        start = m - _BASE + 2 * _OFF + lo
        keys = range(start, start + len(coeffs))
        first = next(compress(keys, coeffs), None)
        if first is not None:
            ends += first, next(compress(reversed(keys), reversed(coeffs)))
            out.update(zip(compress(keys, coeffs), filter(None, coeffs)))
    _check_budget(len(out))
    # An accumulator's keys share their other fields and run in q between its
    # first and last stored key, so those two are all the range check needs.
    _check_keys(ends)
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
    keys = range(_BASE, _BASE + len(coeffs))
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

    Each q-group of p is m q^e A(q) with A(0) != 0, and d is q^(lo - _BASE) B(q)
    with B(0) != 0, so d divides p exactly when B divides every A.  The groups
    are built even where they are sparse in q: the graded loop is quadratic.
    """
    B = _dense(d._terms, lo, hi)
    out = {}
    for m, e, A in _q_groups(p._terms, sparse=True):
        qd, r = _dense_divrem(A, B)
        if r:
            return None
        start = m + _OFF + e - (lo - _BASE)
        # small indices first: a sparse quotient need not build a packed key per entry
        out.update(zip(map(start.__add__, compress(range(len(qd)), qd)), filter(None, qd)))
    return MultiLaurentPoly._checked(out)


def _min_exponent_key(p: MultiLaurentPoly) -> int:
    """Packed key of the componentwise-minimal exponent vector of p's support."""
    mins = [None] * _NVARS
    for k in p._terms:
        for i in range(_NVARS):
            e = ((k >> (_W * i)) & _MASK) - _OFF
            if mins[i] is None or e < mins[i]:
                mins[i] = e
    return sum((m + _OFF) << (_W * i) for i, m in enumerate(mins))


def _divide_graded(p: MultiLaurentPoly, d: MultiLaurentPoly):
    """p / d by graded long division for nonzero p; None if inexact.

    The minimal exponent vector of each operand is divided out first, so both
    are ordinary polynomials, and every quotient monomial must stay ordinary.
    The normalised exponents run up to an operand's span, below 2^21: the
    fields hold them exactly, so only the quotient's are checked against the
    limit.
    """
    sp = _min_exponent_key(p) - _BASE
    sd = _min_exponent_key(d) - _BASE
    dterms = sorted(((k - sd, c) for k, c in d._terms.items()),
                    key=lambda kv: (_grade(kv[0]), kv[0]), reverse=True)
    dlead_key, dlead_c = dterms[0]
    rest = dterms[1:]
    r = {k - sp: c for k, c in p._terms.items()}
    q = {}
    while r:
        lt_key = max(r, key=lambda k: (_grade(k), k))
        lt_c = r[lt_key]
        qk = lt_key - dlead_key
        # Quotient monomial must be ordinary (componentwise >= 0).
        for i in range(_NVARS):
            if (((qk + _BASE) >> (_W * i)) & _MASK) < _OFF:
                return None
        qc = _norm_coeff(Fraction(lt_c) / dlead_c)
        q[qk + _BASE + sp - sd] = qc
        del r[lt_key]
        for k2, c2 in rest:
            k = qk + k2
            nc = r.get(k, 0) - qc * c2
            if nc:
                r[k] = nc
            elif k in r:
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
    lo_p = min(p._terms) - _BASE if p else 0
    if lo_p < 0:
        raise ValueError("dividend has negative q-exponents; clear them first")
    if any(not isinstance(c, int) for c in p._terms.values()):
        raise ValueError("dividend must have integer coefficients")
    if m.is_zero():
        raise ZeroDivisionError("zero modulus")
    if any(not isinstance(c, int) for c in m._terms.values()):
        raise ValueError("modulus must have integer coefficients")
    if min(m._terms) < _BASE:
        raise ValueError("modulus has negative q-exponents")
    B = _dense(m._terms, _BASE, max(m._terms))
    if B[-1] != 1:
        raise ValueError("modulus must be monic")
    if p.is_zero():
        return MultiLaurentPoly.zero(), MultiLaurentPoly.zero()
    q, r = _dense_divrem(_dense(p._terms, _BASE, max(p._terms)), B)
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
