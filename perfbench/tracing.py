"""Span tracing of qck's layers from outside the package.

A `Tracer` replaces the public functions of each layer, and the arithmetic
methods of `MultiLaurentPoly`, with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Functions are patched
at every module binding that refers to them, because `identities`,
`congruence` and others import kernel functions by name.  `remove()` puts
every original object back.

Spans live in flat arrays and are written out once, at the end.  Per span
name the tracer also keeps the call count, the summed duration and the self
time (duration minus the time covered by direct child spans).  Per group of
names it keeps the inclusive time of the outermost spans only, so a layer
that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr = value`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def qck_modules():
    """The loaded modules of the qck package."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qck" or name.startswith("qck."))]


class Tracer:
    """Records spans and counts around the calls of qck's layers."""

    def __init__(self):
        self.names = []          # span name id -> name
        self.name_group = []     # span name id -> group id
        self._name_ids = {}
        self.groups = []         # group id -> group name
        self._group_ids = {}
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Per span name.
        self.calls = []
        self.total_s = []
        self.self_s = []
        # Per group.
        self.group_s = []
        self._group_depth = []
        # Open spans, innermost last, with the time their children covered.
        self._stack = []
        self._child_s = []
        self.counts = {}
        self.peak_terms = 0          # largest polynomial any traced kernel call returned
        self.sides_distinct = set()  # (function, arguments) of every *_sides call
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            gid = self._group_ids.get(group)
            if gid is None:
                gid = self._group_ids[group] = len(self.groups)
                self.groups.append(group)
                self.group_s.append(0.0)
                self._group_depth.append(0)
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_group.append(gid)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0.0)
        stack.append(len(self.span_start))
        self._child_s.append(0.0)
        self._group_depth[self.name_group[nid]] += 1
        self.span_start.append(perf_counter())

    def leave(self) -> None:
        end = perf_counter()
        idx = self._stack.pop()
        child = self._child_s.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        if self._child_s:
            self._child_s[-1] += duration
        gid = self.name_group[nid]
        self._group_depth[gid] -= 1
        if not self._group_depth[gid]:
            self.group_s[gid] += duration

    def inside(self, nids) -> bool:
        """True when the innermost open span has one of the given name ids."""
        return bool(self._stack) and self.span_name[self._stack[-1]] in nids

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def spanned(self, fn, name: str, group: str):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self.name_id(name, group)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, original, wrapper) -> None:
        """Replace ``original`` at every qck module binding that refers to it."""
        for module in qck_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch_attr(module, attr, wrapper)

    def remove(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def by_name(self, prefix: str) -> dict:
        """{name: (calls, total_s, self_s)} for span names starting with prefix."""
        return {n: (self.calls[i], self.total_s[i], self.self_s[i])
                for i, n in enumerate(self.names) if n.startswith(prefix)}

    def longest(self, prefix: str) -> float:
        """Duration of the longest single span whose name starts with prefix."""
        ids = {i for i, n in enumerate(self.names) if n.startswith(prefix)}
        return max((e - s for nid, s, e in zip(self.span_name, self.span_start, self.span_end)
                    if nid in ids), default=0.0)

    def group_time(self, group: str) -> float:
        gid = self._group_ids.get(group)
        return 0.0 if gid is None else self.group_s[gid]

    def group_calls(self, group: str) -> int:
        gid = self._group_ids.get(group)
        return sum(c for i, c in enumerate(self.calls) if self.name_group[i] == gid)

    def write(self, path_stem: str) -> None:
        """Write the span table: <stem>.json (names, layout) and <stem>.bin (arrays)."""
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(path_stem + ".json", "w") as fh:
            json.dump({"spans": len(self.span_start),
                       "layout": ["name:i32", "parent:i32", "start:f64", "end:f64"],
                       "names": self.names,
                       "groups": [self.groups[g] for g in self.name_group]}, fh)


# -- the kernel ----------------------------------------------------------------

def install_kernel(tracer: Tracer, exactalg) -> None:
    """Wrap the arithmetic of MultiLaurentPoly and the exact division routines.

    Products are split into multivariate (the operands together involve two or
    more variables) and univariate ones.  The split reads the packed exponent
    keys once per operand in C (`map`/`reduce`), never `variables()`, whose
    per-term Python loop would dominate the cost of small products.
    """
    poly = exactalg.MultiLaurentPoly
    width, base = exactalg._W, exactalg._BASE
    xor_base = base.__xor__
    or_ = operator.or_
    reduce = functools.reduce
    enter, leave, count = tracer.enter, tracer.leave, tracer.count

    multi = tracer.name_id("exactalg.mul_multi", "exactalg.mul")
    uni = tracer.name_id("exactalg.mul_uni", "exactalg.mul")
    scalar = tracer.name_id("exactalg.mul_scalar", "exactalg.mul")
    mul_ids = {multi, uni, scalar}

    def mul_wrapper(orig):
        @functools.wraps(orig)
        def wrapper(a, b):
            if tracer.inside(mul_ids):
                # The kernel delegating a product to itself (operand swap).
                return orig(a, b)
            if not isinstance(b, poly):
                enter(scalar)
                try:
                    return orig(a, b)
                finally:
                    leave()
            ta, tb = a._terms, b._terms
            fields = reduce(or_, map(xor_base, ta), 0) | reduce(or_, map(xor_base, tb), 0)
            low = (fields & -fields).bit_length() - 1
            is_multi = fields >> ((low // width + 1) * width) != 0
            pairs = len(ta) * len(tb)
            enter(multi if is_multi else uni)
            try:
                r = orig(a, b)
            finally:
                leave()
            n = len(r._terms)
            if n > tracer.peak_terms:
                tracer.peak_terms = n
            if is_multi:
                count("mul_multi.term_pairs", pairs)
                count("mul_multi.out_terms", n)
            else:
                count("mul_uni.coeff_pairs", pairs)
            return r
        return wrapper

    def result_wrapper(orig, nid):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                r = orig(*args, **kwargs)
            finally:
                leave()
            if isinstance(r, poly) and len(r._terms) > tracer.peak_terms:
                tracer.peak_terms = len(r._terms)
            return r
        return wrapper

    add = tracer.name_id("exactalg.add", "exactalg.add")
    for attr in ("__mul__", "__rmul__"):
        tracer.patch_attr(poly, attr, mul_wrapper(getattr(poly, attr)))
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
        tracer.patch_attr(poly, attr, result_wrapper(getattr(poly, attr), add))
    tracer.patch_attr(poly, "substitute", result_wrapper(
        poly.substitute, tracer.name_id("exactalg.substitute", "exactalg.substitute")))
    for fname in ("exact_divide", "divrem_in_q"):
        orig = getattr(exactalg, fname)
        nid = tracer.name_id(f"exactalg.{fname}", f"exactalg.{fname}")
        tracer.patch_function(orig, result_wrapper(orig, nid))


# -- the layers above the kernel --------------------------------------------------

def _public_callables(module):
    """Public functions defined in ``module`` itself (cached ones included)."""
    return [name for name, value in sorted(vars(module).items())
            if not name.startswith("_") and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__]


def install_layers(tracer: Tracer, qck) -> None:
    """Wrap the public calls of qkit, hyperg, delannoy, identities, congruence, positivity."""
    plan = [
        (qck.qkit, ("qpochhammer", "poch_prefixes", "poch_suffixes"), "qkit.poch"),
        (qck.hyperg, ("phi_sum_cleared",), "hyperg.phi_sum_cleared"),
        (qck.delannoy, _public_callables(qck.delannoy), "delannoy"),
        (qck.congruence, ("thm2_lhs",), "congruence.thm2_lhs"),
        (qck.congruence, ("congruence_witness",), "congruence.witness"),
        (qck.positivity, ("verify_thm3",), "positivity.thm3"),
    ]
    for module, names, group in plan:
        for name in names:
            orig = getattr(module, name)
            tracer.patch_function(
                orig, tracer.spanned(orig, f"{module.__name__[4:]}.{name}", group))

    for name in _public_callables(qck.identities):
        if not name.endswith("_sides"):
            continue
        orig = getattr(qck.identities, name)
        inner = tracer.spanned(orig, f"identities.{name}", "identities.sides")

        def sides(*args, _inner=inner, _name=name):
            tracer.sides_distinct.add((_name, args))
            return _inner(*args)
        tracer.patch_function(orig, functools.wraps(orig)(sides))


def install_cases(tracer: Tracer, suites) -> None:
    """Wrap suites.run_case with one span per case, named by its case kind."""
    orig = suites.run_case

    @functools.wraps(orig)
    def run_case(case):
        tracer.enter(tracer.name_id(f"suites.kind.{case[0]}", "suites.case"))
        try:
            return orig(case)
        finally:
            tracer.leave()
    tracer.patch_function(orig, run_case)
