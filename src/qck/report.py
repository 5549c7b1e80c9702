"""Structured outcomes of identity, congruence, and positivity checks."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .exactalg import MultiLaurentPoly


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
    sees every call the row makes.
    """

    name: str
    module: str
    params: tuple
    free_vars: tuple
    difference: str = None

    def builder(self):
        """The builder function, as bound on its module right now."""
        return getattr(sys.modules[self.module], self.difference or self.name + "_sides")

    def __call__(self, *args, **kwargs) -> VerificationReport:
        # The builder's parameters are named as in ``params``, so once it has
        # accepted the call, args and kwargs name every parameter exactly once.
        built = self.builder()(*args, **kwargs)
        if self.difference:
            diff = built
        else:  # equal sides need no subtraction: their difference is the zero polynomial
            lhs, rhs = built
            diff = MultiLaurentPoly.zero() if lhs == rhs else lhs - rhs
        params = dict(zip(self.params, args), **kwargs)
        return VerificationReport(self.name, params, self.free_vars, diff)

    def run(self, params: dict) -> VerificationReport:
        """Run on a case's parameter dict; a missing parameter raises KeyError."""
        return self(*(params[p] for p in self.params))
