"""Structured outcomes of identity, congruence, and positivity checks."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .exactalg import MultiLaurentPoly


@dataclass
class IdentityCase:
    """One configured check: a name plus its integer parameters and symbolic variables."""

    name: str
    meta_params: dict
    free_vars: tuple = ()


@dataclass
class VerificationReport:
    """Outcome of one check; ``passed`` holds exactly when ``difference`` is zero."""

    case: IdentityCase
    passed: bool
    difference: MultiLaurentPoly

    def to_dict(self) -> dict:
        # No timings: reports must be byte-identical across reruns and
        # across parallel/serial execution.
        return {
            "name": self.case.name,
            "params": dict(sorted(self.case.meta_params.items())),
            "free_vars": list(self.case.free_vars),
            "passed": self.passed,
            "difference": str(self.difference),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        case = IdentityCase(d["name"], dict(d["params"]), tuple(d["free_vars"]))
        return cls(case, d["passed"], MultiLaurentPoly.from_canonical(d["difference"]))


def make_report(name: str, params: dict, free_vars,
                difference: MultiLaurentPoly) -> VerificationReport:
    """Package a computed difference polynomial into a report."""
    case = IdentityCase(name, dict(params), tuple(free_vars))
    return VerificationReport(case, difference.is_zero(), difference)


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
        diff = built if self.difference else built[0] - built[1]
        params = dict(zip(self.params, args), **kwargs)
        return make_report(self.name, params, self.free_vars, diff)

    def run(self, params: dict) -> VerificationReport:
        """Run on a case's parameter dict; a missing parameter raises KeyError."""
        return self(*(params[p] for p in self.params))
