"""Structured outcomes of identity, congruence, and positivity checks."""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass

from .exactalg import MultiLaurentPoly

_signature = functools.cache(inspect.signature)  # per builder object: a later wrapper is new


@dataclass
class VerificationReport:
    """Outcome of one check: its name, parameters, variables and difference polynomial."""

    name: str
    params: dict
    free_vars: tuple
    difference: MultiLaurentPoly

    @property
    def passed(self) -> bool:
        """A check passes exactly when its difference is the zero polynomial."""
        return self.difference.is_zero()

    def to_dict(self) -> dict:
        # No timings: reports must be byte-identical across reruns and
        # across parallel/serial execution.
        return {
            "name": self.name,
            "params": dict(sorted(self.params.items())),
            "free_vars": list(self.free_vars),
            "passed": self.passed,
            "difference": str(self.difference),
        }


@dataclass(frozen=True)
class CaseKind:
    """One case kind: calling it with the parameters builds the difference and reports it.

    The builder is the function ``<name>_sides`` of ``module``, which returns
    the cleared (lhs, rhs) pair, or the function named by ``difference``,
    which returns the difference itself.  It is looked up on the module at
    call time, so a wrapper installed on the module attribute (a tracer, say)
    sees every call the row makes.  The builder's signature (a wrapper's is
    its original's, through ``functools.wraps``) names the kind's parameters:
    a missing, unknown or surplus one is a TypeError before anything is built.
    """

    name: str
    module: str
    free_vars: tuple
    difference: str = None

    def builder(self):
        """The builder function, as bound on its module right now."""
        return getattr(sys.modules[self.module], self.difference or self.name + "_sides")

    def __call__(self, *args, **kwargs) -> VerificationReport:
        builder = self.builder()
        bound = _signature(builder).bind(*args, **kwargs)
        # Positionally: a wrapper on the builder may take positional arguments only.
        built = builder(*bound.args)
        if self.difference:
            diff = built
        else:  # equal sides need no subtraction: their difference is the zero polynomial
            lhs, rhs = built
            diff = MultiLaurentPoly.zero() if lhs == rhs else lhs - rhs
        return VerificationReport(self.name, bound.arguments, self.free_vars, diff)
