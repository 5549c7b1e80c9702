"""Exact arithmetic kernel: sparse multivariate Laurent polynomials over the integers.

Every value in this package is a Laurent polynomial with integer coefficients
over a fixed variable universe

    q < a < b < c < d < x < y < x0 < x1 < ... < x9

(q is the series base, x0..x9 are weight slots for linearization arguments).
A coefficient is a Python int: ``const`` and ``monomial`` store the int a
coefficient equals (True is stored as 1) and raise TypeError for anything
else, and dividing one by other than +-1 (a negative power of a monomial, a
value substituted into a negative exponent) raises ValueError.

Representation
--------------
A polynomial is a dict mapping a *packed exponent key* to a nonzero coefficient.
Each variable owns a 24-bit field of one signed integer, a balanced digit:

    key = sum_i e_i * 2**(24*i)        (i the variable's place, e_i signed)

so the empty monomial is the key 0, q^e is the int e, and monomial
multiplication is a single integer addition:

    key(m1 * m2) = key(m1) + key(m2)

A key in q alone is a small int, and any key is only as wide as the field of
its highest variable (a key in q, a, x and c has at most 144 bits).  Exponents
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

The canonical form is unique: no zero coefficients are stored, and the
printing order (graded lexicographic over the fixed variable order) is
deterministic.  All values are immutable after construction and safe to share
across threads.

Products
--------
A product with a one-term side shifts the other side's keys and scales its
coefficients.  A product of two polynomials of two or more terms takes one of
two paths:

* grouped Kronecker: each operand is grouped by its monomial in the variables
  other than q, each group's dense q-list is packed into one big integer, and
  every pair of groups is one big-integer multiply in C, added into a packed
  accumulator for its output monomial.  An operand in q alone is one group,
  found by two C-level scans of its keys (min and max);
* generic, term by term into a dict, for operands too small or too sparse in
  q to pay for packing.  A product in a single variable other than q lands
  here too: each of its terms is a q-group of its own, which the grouped path
  refuses.

The cut-overs are stated and measured next to the packing helpers below.

Sums of products
----------------
``sum_of_products(terms)`` is the sum over terms of the product of each
term's factors, and the grouped product is its one-term, two-factor case: one
planner, ``_packed_sum``, serves both.  Monomial factors fold into the term's
key shift and int scale, and the other factors are grouped by their non-q
monomial as above.  Before anything is packed, the planner lays out the
accumulators (one per monomial in the other variables) of each partial
product of a term and of the sum, and refuses a term that would make one span
more than the products added into it, plus 64.  Each kept term's factors are
then packed once, at the one limb width of the whole sum (a factor shared by
several terms is packed again for each), multiplied factor by factor, and
added into the sum's accumulators, each unpacked once at the end.
Packing sends q to 2^w, a ring homomorphism, so a partial product or a partial
sum may overflow its limbs freely: only the final coefficients have to fit.
They are below

    (kept terms) * max over them of |scale| * prod_i max|f_i| * (prod_i len_i / max_i len_i)

since an output coefficient of a product sums one product of coefficients per
choice of a term from every factor but the longest.  The limb holds the bits
of that bound plus a sign bit.  A term with a factor the grouped product
would refuse, or refused by the planner, is multiplied out with ``*`` and
added in.

Exact division
--------------
``exact_divide`` takes one of two paths:

* divisor in q alone, dividend with q-groups the grouped product would take:
  each group's dense q-list is divided by the divisor's dense q-list;
* any other divisor (one in a single variable other than q included), or a
  dividend sparse in q: long division term by term in key order, with every
  quotient key held inside the box of exponent bounds the operands fix.

Either way each quotient coefficient is a divmod, and a remainder means "not
divisible": the quotient over the rationals is unique, so it is integral only
if every step of the long division is.  The quotient's exponents are checked
against the limit, and ``exact_divide`` multiplies the quotient back before it
returns it.
"""

from __future__ import annotations

import os
import sys
from array import array
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import compress, groupby, repeat
from math import prod
from operator import add, and_, mul, or_, sub

VAR_NAMES = ("q", "a", "b", "c", "d", "x", "y",
             "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9")

_W = 24
_OFF = 1 << 23
_MASK = (1 << _W) - 1
_NVARS = len(VAR_NAMES)
_SHIFT = {name: _W * i for i, name in enumerate(VAR_NAMES)}
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
    """Raised when a product would store or lay out over QCK_MAX_TERMS terms, or pair 50x that."""


_MAX_TERMS = None  # QCK_MAX_TERMS, parsed on the first budget check


def _max_terms() -> int:
    """QCK_MAX_TERMS (default 10000000), parsed once; ValueError naming it when malformed."""
    global _MAX_TERMS
    if _MAX_TERMS is None:
        raw = os.environ.get("QCK_MAX_TERMS", "10000000")
        if not raw.strip().isdecimal():
            raise ValueError(f"QCK_MAX_TERMS={raw!r} is not a non-negative integer")
        _MAX_TERMS = int(raw)
    return _MAX_TERMS


def _field(name) -> int:
    """The bit offset of the variable's field; ValueError for a name outside the ring."""
    if name not in _SHIFT:
        raise ValueError(f"unknown variable {name!r}; ring has {VAR_NAMES}")
    return _SHIFT[name]


def _encode(powers) -> int:
    key = 0
    for name, e in powers.items():
        if e:
            sh = _field(name)
            if not -_EXP_LIMIT < e < _EXP_LIMIT:
                raise ValueError(f"exponent {e} for {name!r} out of supported range")
            key += e << sh
    return key


def _decode(key) -> tuple:
    # Exponent tuple in fixed variable order (length _NVARS).
    key += _BIAS
    return tuple([(key >> sh & _MASK) - _OFF for sh in _SHIFT.values()])


class MultiLaurentPoly:
    """A sparse multivariate Laurent polynomial with integer coefficients."""

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
    def const(cls, c: int) -> "MultiLaurentPoly":
        return cls.monomial(c, {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MultiLaurentPoly":
        return cls.monomial(1, {name: exp})

    @classmethod
    def monomial(cls, coeff: int, powers: dict) -> "MultiLaurentPoly":
        if not isinstance(coeff, int):
            raise TypeError(f"coefficient {coeff!r} is not an integer")
        if not coeff:
            return cls.zero()
        return cls._raw({_encode(powers): int(coeff)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> tuple:
        """Names of the variables that actually occur, in canonical order."""
        return tuple(compress(VAR_NAMES, map(any, zip(*map(_decode, self._terms)))))

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
        """(min, max) exponent of ``name`` over all terms, (0, 0) for 0; ValueError off the ring."""
        sh = _field(name)
        if not self._terms:
            return (0, 0)
        es = [(((k + _BIAS) >> sh) & _MASK) - _OFF for k in self._terms]
        return (min(es), max(es))

    # -- ring operations ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, MultiLaurentPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == MultiLaurentPoly.const(other)._terms
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the int it equals, zero included
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return MultiLaurentPoly._raw({k: -c for k, c in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
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
        if isinstance(other, (int, MultiLaurentPoly)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return MultiLaurentPoly.zero()
            return MultiLaurentPoly._raw({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, MultiLaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiLaurentPoly.zero()
        if len(a) == 1:
            (k1, c1), = a.items()
            return MultiLaurentPoly._checked(
                dict(zip(map(add, b, repeat(k1)), map(mul, b.values(), repeat(c1)))))
        if len(b) == 1:
            return other.__mul__(self)
        product = _mul_grouped(a, b)
        return _mul_generic(a, b) if product is None else product

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for an integer n; a negative n needs a monomial with coefficient +-1."""
        if not isinstance(n, int):
            raise ValueError("polynomial powers must be integers")
        if len(self._terms) == 1:
            (k, c), = self._terms.items()
            if n < 0 and c not in (1, -1):
                raise ValueError(f"{c} has no inverse with integer coefficients")
            powers = {name: e * n for name, e in zip(VAR_NAMES, _decode(k)) if e}
            return MultiLaurentPoly.monomial(c ** abs(n), powers)
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
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers.items())
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

    # -- substitution ---------------------------------------------------------

    def substitute(self, bindings: dict) -> "MultiLaurentPoly":
        """Apply the ring homomorphism sending each bound variable to a monomial or an int.

        Binding values may be int or a single-term MultiLaurentPoly.  Unbound
        variables pass through.  Substituting 0 (or a coefficient other than
        +-1) for a variable with a negative exponent raises ZeroDivisionError
        (ValueError).  ValueError is also raised when an exponent of the image
        reaches the supported limit, and also, before any key is built, when
        the bound exponents times the bindings' exponents could reach twice
        that limit.
        """
        norm = {}
        reach = 0
        for name, val in bindings.items():
            _field(name)
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
                if e < 0 and bc not in (1, -1):
                    raise ValueError(
                        f"substituting {bc} for {name!r}, which occurs with exponent {e}")
                nc = nc * bc ** abs(e)
                nk += bkey * e
            if not dead:
                acc[nk] = acc.get(nk, 0) + nc
        return MultiLaurentPoly._checked({k: c for k, c in acc.items() if c})

    def invert_variables(self) -> "MultiLaurentPoly":
        """The image under every variable -> its inverse: key -> -key negates each exponent."""
        return MultiLaurentPoly._raw({-k: c for k, c in self._terms.items()})


def _as_monomial(val):
    """Normalize a binding value to (coeff, packed-key)."""
    if isinstance(val, int):
        return (val, 0)
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
            out[k] = nc
        elif k in out:
            del out[k]


def _check_budget(n: int) -> None:
    if n > _max_terms():
        raise TermBudgetExceeded(f"result would hold {n} terms, above QCK_MAX_TERMS={_MAX_TERMS}")


def _check_pairs(n1: int, n2: int) -> None:
    """Refuse n1 x n2 pairs of work before anything is allocated for it."""
    if n1 * n2 > 50 * _max_terms():
        raise TermBudgetExceeded(
            f"{n1} x {n2} pairs are far above QCK_MAX_TERMS={_MAX_TERMS}")


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


def _mul_generic(a: dict, b: dict) -> MultiLaurentPoly:
    if len(a) > len(b):
        a, b = b, a
    _check_pairs(len(a), len(b))
    out = {}
    get = out.get
    bitems = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in bitems:
            k = k1 + k2
            v = get(k)
            out[k] = c1 * c2 if v is None else v + c1 * c2
    out = {k: c for k, c in out.items() if c}
    _check_budget(len(out))
    return MultiLaurentPoly._checked(out)


# -- grouped Kronecker product ----------------------------------------------------
#
# The two product paths of the module docstring, and where __mul__ takes each:
#
# * grouped Kronecker (_mul_grouped): at least _GROUPED_MIN_PAIRS term pairs
#   per pair of q-groups on average, every q-group passing _dense_pays, and no
#   output accumulator spanning more than the group products added into it,
#   plus 64 (the planner _packed_sum decides that before anything is packed).
#   An operand in q alone is one q-group, so two such operands make a single
#   packed multiply.  Exact for any operand sizes because the limb width is
#   derived from the coefficient bounds.
# * generic (_mul_generic): everything else, operands in one variable other
#   than q included (none of the suites multiplies two such polynomials).
#
# Both paths check the exponent range of their result.  Against QCK_MAX_TERMS the
# generic path checks its term pairs (at 50x) and stored terms, the grouped path its layout.

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


def _q_groups(terms: dict):
    """[(g, lo, dense q-list)] of terms grouped by their monomial in the variables other than q.

    g is that monomial's key (0 in q alone), lo the group's least q exponent.
    None when a group's q-span fails _dense_pays, before its dense list is
    built.  Terms in q alone are one group, found without sorting.  Otherwise
    each key's q exponent is its signed low digit, and the keys are sorted: q is
    the lowest field, so the keys of a group are adjacent, in q order.
    """
    span = _q_range(terms)
    if span is not None:
        lo, hi = span
        if not _dense_pays(hi - lo, len(terms)):
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
        if not _dense_pays(hi - lo, n):
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


def _spans(factors):
    """The output accumulators of each partial product of ``factors``, or None.

    ``factors`` are lists of q-groups.  Entry i maps the key g of each output
    monomial of factors[0] * ... * factors[i] to [lo, hi, work]: its least and
    greatest q exponent and the summed spans of the group products added into
    it.  None, before anything is packed, when an accumulator spans more than
    its work plus 64.  Each step's pairs of q-groups, the work of this loop
    and of _packed_product, are held to the budget, and a partial product that
    is multiplied further must hold its monomials inside the exponent range.
    """
    spans = {g: [lo, lo + len(A) - 1, len(A) - 1] for g, lo, A in factors[0]}
    chain = [spans]
    for groups in factors[1:]:
        if len(chain) > 1:
            _check_keys(spans)
        _check_pairs(len(spans), len(groups))
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


def _packed_sum(terms) -> tuple:
    """The sum of the terms it keeps, as (term dict, [source of each term it refuses]).

    Each term is (shift, scale, factors, lens, source): scale times the
    monomial of key ``shift`` times the product of ``factors``, lists of
    q-groups with ``lens`` terms (None to refuse the term).  Every refusal,
    by _spans or by _laid_out, is decided before anything is packed.  The
    kept terms lay out the plan {g: (lo, hi, work)} of the sum's
    accumulators, and each term adds into them at its final offset.
    """
    plan, kept, refused = {}, [], []
    bound = 0
    for shift, scale, factors, lens, source in terms:
        chain = factors and _spans(factors)
        e = ((shift + _OFF) & _MASK) - _OFF  # the q exponent of the shift
        if not (chain and _laid_out(plan, chain[-1], shift, e)):
            refused.append(source)
            continue
        kept.append((shift - e, e, scale, factors, chain))
        # An output coefficient of a product sums one product of coefficients
        # per choice of a term from every factor but the longest (that choice
        # fixes the last term).
        bound = max(bound, abs(scale) * prod(map(_coeff_max, factors))
                    * (prod(lens) // max(lens)))
    # The plan's dense layout is what the accumulators store.  Adding one fixed
    # group monomial of each later factor maps a partial product's accumulators
    # one to one into the plan's, each at least as wide: it bounds every step too.
    _check_budget(sum(hi - lo + 1 for lo, hi, _ in plan.values()))
    # Packing sends q to 2^w, a ring homomorphism, so only the final
    # coefficients have to fit their limbs: they are below
    # 2^(bits(bound) + bits(len(kept))), and one more bit holds the sign.
    nbytes = _limb_bytes(bound.bit_length() + len(kept).bit_length() + 1)
    bits = 8 * nbytes
    sums = dict.fromkeys(plan)  # the plan's key objects, not one more copy of each
    for m, e, scale, factors, chain in kept:
        for g, lo, v in _packed_product(factors, chain, nbytes):
            if scale != 1:
                v *= scale
            g += m
            off = lo + e - plan[g][0]
            if off:  # a shift by 0 would still copy v
                v <<= bits * off
            s = sums[g]
            sums[g] = v if s is None else s + v
    return _unpacked(plan, sums, nbytes), refused


def _laid_out(plan: dict, spans: dict, shift: int, e: int) -> bool:
    """Add a term's accumulators, times the monomial of key ``shift`` (q^e in q), to ``plan``.

    False, with ``plan`` unchanged, when that would stretch an accumulator of
    the sum past the summed spans of the products added into it, plus 64.
    """
    if not (plan or shift):  # share an unshifted term's spans: nothing mutates them after _spans
        plan.update(spans)
        return True
    moved = {}
    for g, (lo, hi, work) in spans.items():
        if shift:
            g, lo, hi = g + shift - e, lo + e, hi + e
        s = plan.get(g)
        if s is not None:
            lo, hi, work = min(lo, s[0]), max(hi, s[1]), work + s[2]
            if hi - lo > work + 64:
                return False
        moved[g] = (lo, hi, work)
    plan.update(moved)
    return True


def _unpacked(plan: dict, sums: dict, nbytes: int) -> dict:
    """The terms of the accumulators {g: packed q-list} laid out by ``plan``, range-checked."""
    out = {}
    ends = []
    for g, (lo, hi, _) in plan.items():
        coeffs = _unpack(sums[g], hi - lo + 1, nbytes)
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
            out.update(_from_dense(coeffs, start))
    # An accumulator's keys share their other fields and run in q between its
    # first and last stored key, so those two are all the range check needs.
    _check_keys(ends)
    return out


def _mul_grouped(a: dict, b: dict):
    """Product of term dicts, one packed multiply per pair of q-groups.

    The one-term, two-factor case of sum_of_products.  None, before any
    packing, when a cut-over listed above _GROUPED_MIN_PAIRS, or the planner
    _packed_sum, sends the product to the generic path.
    """
    if len(a) * len(b) < _GROUPED_MIN_PAIRS:  # below the mean-pair cut-over for any grouping
        return None
    ga = _q_groups(a)
    gb = _q_groups(b) if ga is not None else None
    if gb is None or len(a) * len(b) < _GROUPED_MIN_PAIRS * len(ga) * len(gb):
        return None
    out, refused = _packed_sum([(0, 1, [ga, gb], (len(a), len(b)), None)])
    return None if refused else MultiLaurentPoly._raw(out)


# -- packed sums of products ------------------------------------------------------

def sum_of_products(terms) -> MultiLaurentPoly:
    """The sum over ``terms`` of the product of each term's factors (MultiLaurentPolys).

    One packed accumulator per output monomial holds the sum of the packed
    terms, unpacked once (see "Sums of products" in the module docstring).  A
    term with a factor whose q-groups the grouped product would refuse, or
    that the planner _packed_sum refuses, is multiplied out with ``*`` and
    added in.
    """
    out, refused = _packed_sum(_sum_terms(terms))
    for factors in refused:
        _add_into(out, reduce(mul, factors, MultiLaurentPoly.const(1))._terms)
    _check_budget(len(out))
    return MultiLaurentPoly._raw(out)


def _sum_terms(terms):
    """The nonzero terms of sum_of_products as _packed_sum takes them, one at a time.

    Their q-groups are None for a factor that _q_groups refuses.
    """
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
        polys = polys or [{0: 1}]
        groups = list(map(_q_groups, polys))
        yield shift, scale, None if None in groups else groups, list(map(len, polys)), factors


# -- exact division -----------------------------------------------------------

def _dense_divrem(A, B):
    """Quotient and remainder of dense int lists (B's lead nonzero); None if not integral.

    Only the nonzero entries of B are walked: most divisors here are 1 - q^k or
    products of a few of them, sparse across their span.
    """
    r = list(A)
    if len(A) < len(B):
        return [], r
    top = len(B) - 1
    lead = B[top]
    tail = [(j, bj) for j, bj in enumerate(B[:top]) if bj]
    q = [0] * (len(A) - top)
    for i in reversed(range(len(q))):
        c = r[i + top]
        if c:
            qc, rem = divmod(c, lead)
            if rem:
                return None
            q[i] = qc
            for j, bj in tail:
                r[i + j] -= qc * bj
    del r[top:]  # every entry from B's degree up has been cancelled
    while r and not r[-1]:
        r.pop()
    return q, r


def _from_dense(coeffs, start: int = 0):
    """(start + i, c) for each nonzero c = coeffs[i]: no key is built for a zero entry."""
    return zip(compress(range(start, start + len(coeffs)), coeffs), filter(None, coeffs))


def exact_divide(p: MultiLaurentPoly, d: MultiLaurentPoly):
    """Quotient r with r*d == p, or None when d does not divide p exactly.

    A divisor in q alone divides each dense q-group of p (_divide_in_q); any
    other divisor, or a p sparse in q, takes the long division in key order
    (_divide_terms).  Either way the quotient is verified by multiplying back.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return MultiLaurentPoly.zero()
    span = _q_range(d._terms)
    groups = span and _q_groups(p._terms)
    q = _divide_in_q(groups, d, *span) if groups else _divide_terms(p, d)
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


def _divide_in_q(groups, d: MultiLaurentPoly, lo: int, hi: int):
    """p / d for the q-groups of p and d in q alone with least and greatest keys lo and hi.

    None if inexact.  Each q-group of p is m q^e A(q) with A(0) != 0, and d
    is q^lo B(q) with B(0) != 0, so d divides p exactly when B divides every A.
    An A of lower degree than B is not divisible: None before B is built.
    """
    if any(len(A) <= hi - lo for _, _, A in groups):
        return None
    B = _dense(d._terms, lo, hi)
    out = {}
    for g, e, A in groups:
        qr = _dense_divrem(A, B)
        if qr is None or qr[1]:
            return None
        out.update(_from_dense(qr[0], g + e - lo))
    return MultiLaurentPoly._checked(out)


def _box(terms: dict) -> tuple:
    """(low, high): the packed keys of the fieldwise least and greatest exponents of ``terms``."""
    fields = list(zip(*map(_decode, terms)))
    return tuple(sum(e << (_W * i) for i, e in enumerate(map(bound, fields)))
                 for bound in (min, max))


def _divide_terms(p: MultiLaurentPoly, d: MultiLaurentPoly):
    """p / d by long division in key order for nonzero p; None if inexact.

    Each step divides the remainder's greatest term by d's.  In a domain each
    variable's least and greatest exponents add under products, so an exact
    quotient's keys lie in the box [low(p) - low(d), high(p) - high(d)]: a key
    outside it means None.  Quotient keys strictly decrease inside that box, so
    the loop ends, and every remainder key stays inside p's box: no field wraps.
    """
    (plow, phigh), (dlow, dhigh) = _box(p._terms), _box(d._terms)
    # qk - low and high - qk hold e - L + 2^23 and H - e + 2^23 in each field, below
    # 2^24 (every |e|, |L|, |H| < 2^21): all top bits are set exactly when L <= e <= H.
    low, high = plow - dlow - _BIAS, phigh - dhigh + _BIAS
    (dlead, dlead_c), *rest = sorted(d._terms.items(), reverse=True)
    r = dict(p._terms)
    heap = [-k for k in r]  # heapq pops the least: negate for the greatest
    heapify(heap)
    q = {}
    while r:
        k = -heappop(heap)
        c = r.pop(k, None)
        if c is None:
            continue  # cancelled
        qk = k - dlead
        qc, rem = divmod(c, dlead_c)
        if rem or (qk - low) & (high - qk) & _BIAS != _BIAS:
            return None
        q[qk] = qc
        for k2, c2 in rest:
            k2 += qk
            c = r.get(k2)
            if c is None:
                r[k2] = -qc * c2
                heappush(heap, -k2)
            elif c := c - qc * c2:
                r[k2] = c
            else:
                del r[k2]
    return MultiLaurentPoly._checked(q)


def divrem_in_q(p: MultiLaurentPoly, m: MultiLaurentPoly) -> tuple:
    """Long division of integer polynomials in q by a monic integer modulus.

    Requires p to have only non-negative q-exponents.  Returns (quotient,
    remainder) with deg(remainder) < deg(m), both exact.
    """
    for poly, label in ((p, "dividend"), (m, "modulus")):
        if poly and _q_range(poly._terms) is None:  # so some key has a variable besides q
            extra = [v for v in poly.variables() if v != "q"]
            raise ValueError(f"{label} must be univariate in q, found {extra}")
    lo_p = min(p._terms) if p else 0
    if lo_p < 0:
        raise ValueError("dividend has negative q-exponents; clear them first")
    if m.is_zero():
        raise ZeroDivisionError("zero modulus")
    if min(m._terms) < 0:
        raise ValueError("modulus has negative q-exponents")
    B = _dense(m._terms, 0, max(m._terms))
    if B[-1] != 1:
        raise ValueError("modulus must be monic")
    if p.is_zero():
        return MultiLaurentPoly.zero(), MultiLaurentPoly.zero()
    q, r = _dense_divrem(_dense(p._terms, 0, max(p._terms)), B)
    # both stay below p's degree, so no exponent reaches the supported limit
    return MultiLaurentPoly._raw(dict(_from_dense(q))), MultiLaurentPoly._raw(dict(_from_dense(r)))


def non_positive_terms(p: MultiLaurentPoly) -> MultiLaurentPoly:
    """The terms of p whose coefficient is negative (no stored coefficient is 0)."""
    return MultiLaurentPoly._raw({k: c for k, c in p._terms.items() if c < 0})


def is_nonneg_integer_laurent(p: MultiLaurentPoly) -> bool:
    """True iff p is univariate in q with non-negative integer coefficients."""
    extra = [v for v in p.variables() if v != "q"]
    if extra:
        raise ValueError(f"free variables besides q remain: {extra}")
    return non_positive_terms(p).is_zero()
