"""qck: exact q-series computation and mechanical identity verification.

Sparse multivariate Laurent polynomials with integer coefficients,
q-Pochhammer / Gaussian-binomial combinatorics, terminating basic
hypergeometric series, q-Delannoy numbers, and verification suites for the
product formulas, bracket congruences, and coefficient-positivity claims
built on them.
"""

from .exactalg import (MultiLaurentPoly, NotDivisibleError, TermBudgetExceeded,
                       divrem_in_q, exact_divide, is_nonneg_integer_laurent)
from .qkit import ParamExpr, bracket, qbinomial, qpochhammer
from .hyperg import PhiSpec
from .delannoy import dq, dq_star
from .report import VerificationReport

__version__ = "1.0.0"

__all__ = [
    "MultiLaurentPoly", "NotDivisibleError", "TermBudgetExceeded",
    "exact_divide", "divrem_in_q",
    "is_nonneg_integer_laurent",
    "ParamExpr", "bracket", "qbinomial", "qpochhammer",
    "PhiSpec",
    "dq", "dq_star",
    "VerificationReport",
    "__version__",
]
