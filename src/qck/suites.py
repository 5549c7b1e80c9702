"""Named verification suites: deterministic case grids over the check registry.

A case is (registry name, integer-parameter dict); the registry maps each name
to a callable that takes the case's parameters as keywords and returns a
VerificationReport, so a parameter the callable does not take, or one it
lacks, is a TypeError.  Suites expand bounds into ordered case lists; the
runner executes them (optionally in a process pool), buffers the outcomes, and
always emits them in case order, so a report is byte-identical no matter how
it was scheduled.  Every grid runs to its bound but for three caps, marked
below (sqrt_corollary, the D_q grids, the shifted transforms grid).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from . import congruence, delannoy, hyperg, identities, positivity, qkit
from .exactalg import MultiLaurentPoly
from .report import CaseKind, VerificationReport

HARD_CAPS = {"nmax": 10, "pmax": 13, "rmax": 3, "mmax": 40, "m": 12, "n": 12}

DEFAULT_BOUNDS = {
    "nmax": 4,      # symbolic identity grids
    "mmax": 6,      # congruence m-range and delannoy/positivity m-range
    "pmax": 7,      # congruence primes up to this bound
    "rmax": 2,      # positivity power bound
    "p": None,      # run congruence at a single prime instead of all p <= pmax
    "seed": 0,
}


def corrupted_fixture_sides() -> tuple:
    """Intentionally wrong identity used by failure-path tests: (1-q)(1+q) != 1-q^3."""
    q = MultiLaurentPoly.var("q")
    one = MultiLaurentPoly.const(1)
    return (one - q) * (one + q), one - q ** 3


corrupted_fixture = CaseKind("corrupted_fixture", __name__, ("q",))

CASE_REGISTRY = {row.name: row
                 for module in (identities, qkit, hyperg, delannoy, congruence, positivity)
                 for row in vars(module).values() if isinstance(row, CaseKind)}
CASE_REGISTRY.update({
    "thm3-1": lambda m, n: positivity.verify_thm3("thm3-1", m, n),
    "thm3-2": lambda m, n, r: positivity.verify_thm3("thm3-2", m, n, r),
    "thm3-3": lambda m, n, r: positivity.verify_thm3("thm3-3", m, n, r),
    "lemma41": positivity.lemma41_generic,
    "corrupted_fixture": corrupted_fixture,
})


def _clausen_cases(b):
    for n in range(b["nmax"] + 1):
        yield ("clausen_orr", {"n": n})
    for n in range(b["nmax"] + 1):
        yield ("final_square", {"n": n})
    for m in range(min(3, b["nmax"]) + 1):  # each step of m costs about 3x the last
        yield ("sqrt_corollary", {"m": m})


def _lemmas_cases(b):
    for n in range(1, b["nmax"] + 1):
        for m in range(0, n):
            for h in range(1, n - m + 1):
                yield ("lemma_last", {"n": n, "m": m, "h": h})
                yield ("lemma_am2", {"n": n, "m": m, "h": h})
    for n in range(1, b["nmax"] + 1):
        yield ("lem_important2", {"n": n})
    for n in range(b["nmax"] + 1):
        for m in range(n + 1):
            yield ("connection_coefficients", {"n": n, "m": m})


def _transforms_cases(b):
    for name in ("special3", "special1", "special2", "special222"):
        for n in range(b["nmax"] + 1):
            yield (name, {"n": n})
    for n in range(min(b["nmax"], 5) + 1):  # pinned by the benchmark's `symbolic` grid
        for s in range(n + 1):
            for name in ("general_s", "q2_product", "general_s_specialization",
                         "special3_shifted"):
                yield (name, {"n": n, "s": s})
    for n in range(b["nmax"] + 3):
        yield ("qbinomial_theorem", {"n": n})
        yield ("qchu_vandermonde", {"n": n})
    yield ("phi_permutation", {"seed": b.get("seed", 0), "trials": 4})


def _delannoy_cases(b):
    top = min(b["mmax"], HARD_CAPS["m"])  # the D_q tables stop where `qck delannoy` does
    for m in range(top + 1):
        for n in range(top + 1):
            yield ("delannoy_product", {"m": m, "n": n})
            yield ("delannoy_relations", {"m": m, "n": n})
    for m in range(top + 1):
        for n in range(top + 1):
            yield ("delannoy_product_x", {"m": m, "n": n})


def _congruence_cases(b):
    primes = [b["p"]] if b["p"] is not None else \
        [p for p in range(b["pmax"] + 1) if congruence.odd_prime(p)]
    for p in primes:
        yield ("minus_q_pochhammer", {"p": p})
    for n in range(1, b["nmax"] + 2):
        for j in range(n):
            yield ("qidentity", {"n": n, "j": j})
    for p in primes:
        for m in range(1, b["mmax"] + 1):
            yield ("thm2", {"p": p, "m": m})


def thm3_cases(mmax: int, nmax: int, rmax: int):
    """thm3-1 at each (m, n), each followed by thm3-2 and thm3-3 at each r <= rmax."""
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            yield ("thm3-1", {"m": m, "n": n})
            for r in range(1, rmax + 1):
                yield ("thm3-2", {"m": m, "n": n, "r": r})
                yield ("thm3-3", {"m": m, "n": n, "r": r})


def _positivity_cases(b):
    top = min(b["mmax"], HARD_CAPS["m"])  # the D_q tables stop where `qck delannoy` does
    yield from thm3_cases(top, top, b["rmax"])
    for k in range(b["nmax"] + 3):
        for i in range(k + 1):
            for j in range(k + 1):
                yield ("schmidt", {"k": k, "i": i, "j": j})
    for n in range(1, b["nmax"] + 2):
        for s in range(n):
            yield ("alternating_sum", {"n": n, "s": s})
    for n in range(1, b["nmax"] + 1):
        for r in range(1, b["rmax"] + 1):
            yield ("lemma41", {"n": n, "r": r})


_SUITE_BUILDERS = {
    "clausen": _clausen_cases,
    "lemmas": _lemmas_cases,
    "transforms": _transforms_cases,
    "delannoy": _delannoy_cases,
    "congruence": _congruence_cases,
    "positivity": _positivity_cases,
}

SUITE_NAMES = ("all", *_SUITE_BUILDERS)


def suite_cases(suite: str, bounds: dict) -> list:
    """Expand a suite name and bounds into the ordered case list."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    b = dict(DEFAULT_BOUNDS)
    b.update({k: v for k, v in bounds.items() if v is not None})
    cases = []
    for name in _SUITE_BUILDERS if suite == "all" else [suite]:
        cases.extend(_SUITE_BUILDERS[name](b))
    return cases


def run_case(case) -> dict:
    """Execute one (name, params) case; an exception becomes a failed record with ``error``."""
    name, params = case
    try:
        return CASE_REGISTRY[name](**params).to_dict()
    except Exception as exc:  # reported as an error, never as a verdict
        record = VerificationReport(name, params, (), MultiLaurentPoly.const(1)).to_dict()
        return dict(record, error=f"{type(exc).__name__}: {exc}")


def run_cases(cases, parallel: bool = False) -> list:
    """Run cases, preserving case order in the returned records."""
    if parallel and len(cases) > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(run_case, cases))
    return [run_case(c) for c in cases]


def manifest_cases(manifest: list) -> list:
    """Validate a manifest (list of {name, params, ...}) into a case list, or raise ValueError."""
    if not isinstance(manifest, list):
        raise ValueError("a manifest must be a JSON list of case objects")
    cases = []
    for entry in manifest:
        if not isinstance(entry, dict):
            raise ValueError(f"manifest entry {entry!r} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or name not in CASE_REGISTRY:
            raise ValueError(f"unknown case name {name!r} in manifest")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params of manifest entry {name!r} is not an object")
        for key, value in params.items():
            if type(value) is not int:  # bool is an int subclass, and is refused too
                raise ValueError(f"parameter {key!r} of manifest entry {name!r} is not an "
                                 f"integer: {value!r}")
        cases.append((name, dict(params)))
    return cases
