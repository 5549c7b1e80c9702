"""Named verification suites: deterministic case grids over the check registry.

A case is (registry name, integer-parameter dict); the registry maps each name
to a function of the parameter dict returning a VerificationReport, derived
from the CaseKind rows of the check modules.  Suites expand bounds into ordered
case lists; the runner executes them (optionally in a process pool), buffers
the outcomes, and always emits them in case order, so a report is
byte-identical no matter how it was scheduled.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor

from . import congruence, delannoy, hyperg, identities, positivity, qkit
from .exactalg import MultiLaurentPoly
from .report import CaseKind, VerificationReport, make_report

SUITE_NAMES = ("all", "clausen", "lemmas", "transforms", "delannoy",
               "congruence", "positivity")

HARD_CAPS = {"nmax": 10, "pmax": 13, "rmax": 3, "mmax": 40, "m": 12, "n": 12}

DEFAULT_BOUNDS = {
    "nmax": 4,      # symbolic identity grids
    "mmax": 6,      # congruence m-range and delannoy/positivity m-range
    "pmax": 7,      # congruence primes up to this bound
    "rmax": 2,      # positivity power bound
    "p": None,      # run congruence at a single prime instead of all p <= pmax
    "seed": 0,
}

_PRIMES = (3, 5, 7, 11, 13)


def _corrupted_fixture(_params) -> VerificationReport:
    """Intentionally wrong identity used by failure-path tests: (1-q)(1+q) != 1-q^3."""
    q = MultiLaurentPoly.var("q")
    one = MultiLaurentPoly.const(1)
    diff = (one - q) * (one + q) - (one - q ** 3)
    return make_report("corrupted_fixture", {}, ("q",), diff)


def _phi_permutation(params) -> VerificationReport:
    """Parameter-order invariance of the cleared series sum, on seeded samples."""
    rng = random.Random(params.get("seed", 0))
    specs = [
        "phi[3,2]{q^-3, a, x ; c, 0 ; q}",
        "phi[2,1]{a, q^-2 ; c ; q}",
        "phi[4,3]{q^-2, a, x, y ; c, d, 0 ; q}",
    ]
    diff = MultiLaurentPoly.zero()
    for text in specs:
        spec = hyperg.parse_phi(text)
        num, den = hyperg.phi_sum_cleared(spec)
        for _ in range(params.get("trials", 4)):
            upper = list(spec.upper)
            lower = list(spec.lower)
            rng.shuffle(upper)
            rng.shuffle(lower)
            shuffled = hyperg.PhiSpec.of(upper, lower, spec.argument)
            num2, den2 = hyperg.phi_sum_cleared(shuffled)
            d = num * den2 - num2 * den
            if not d.is_zero():
                diff = d
                break
    return make_report("phi_permutation", dict(params), ("q",), diff)


CASE_REGISTRY = {row.name: row.run
                 for module in (identities, qkit, delannoy, congruence, positivity)
                 for row in vars(module).values() if isinstance(row, CaseKind)}
CASE_REGISTRY.update({
    "thm3-1": lambda p: positivity.verify_thm3("thm3-1", p["m"], p["n"]),
    "thm3-2": lambda p: positivity.verify_thm3("thm3-2", p["m"], p["n"], p["r"]),
    "thm3-3": lambda p: positivity.verify_thm3("thm3-3", p["m"], p["n"], p["r"]),
    "lemma41": lambda p: positivity.lemma41_generic(p["n"], p["r"]),
    "phi_permutation": _phi_permutation,
    "corrupted_fixture": _corrupted_fixture,
})


def _clausen_cases(b):
    for n in range(b["nmax"] + 1):
        yield ("clausen_orr", {"n": n})
    for n in range(b["nmax"] + 1):
        yield ("final_square", {"n": n})
    for m in range(min(3, b["nmax"]) + 1):
        yield ("sqrt_corollary", {"m": m})


def _lemmas_cases(b):
    nmax = min(b["nmax"], 5)
    for n in range(1, nmax + 1):
        for m in range(0, n):
            for h in range(1, n - m + 1):
                yield ("lemma_last", {"n": n, "m": m, "h": h})
                yield ("lemma_am2", {"n": n, "m": m, "h": h})
    for n in range(1, b["nmax"] + 1):
        yield ("lem_important2", {"n": n})
    for n in range(min(b["nmax"], 4) + 1):
        for m in range(n + 1):
            yield ("connection_coefficients", {"n": n, "m": m})


def _transforms_cases(b):
    for name in ("special3", "special1", "special2", "special222"):
        for n in range(b["nmax"] + 1):
            yield (name, {"n": n})
    smax = min(b["nmax"], 5)
    for n in range(smax + 1):
        for s in range(n + 1):
            for name in ("general_s", "q2_product", "general_s_specialization",
                         "special3_shifted"):
                yield (name, {"n": n, "s": s})
    for n in range(b["nmax"] + 3):
        yield ("qbinomial_theorem", {"n": n})
        yield ("qchu_vandermonde", {"n": n})
    yield ("phi_permutation", {"seed": b.get("seed", 0), "trials": 4})


def _delannoy_cases(b):
    top = min(b["mmax"], 8)
    for m in range(top + 1):
        for n in range(top + 1):
            yield ("delannoy_product", {"m": m, "n": n})
            yield ("delannoy_relations", {"m": m, "n": n})
    for m in range(min(top, 6) + 1):
        for n in range(min(top, 6) + 1):
            yield ("delannoy_product_x", {"m": m, "n": n})


def _congruence_cases(b):
    primes = [b["p"]] if b["p"] is not None else [p for p in _PRIMES if p <= b["pmax"]]
    for p in primes:
        yield ("minus_q_pochhammer", {"p": p})
    for n in range(1, min(b["nmax"] + 2, 7)):
        for j in range(n):
            yield ("qidentity", {"n": n, "j": j})
    for p in primes:
        for m in range(1, b["mmax"] + 1):
            yield ("thm2", {"p": p, "m": m})


def _positivity_cases(b):
    top = min(b["mmax"], 6)
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            yield ("thm3-1", {"m": m, "n": n})
            for r in range(1, b["rmax"] + 1):
                if r == 3 and (m > 4 or n > 4):
                    continue
                yield ("thm3-2", {"m": m, "n": n, "r": r})
                yield ("thm3-3", {"m": m, "n": n, "r": r})
    kmax = min(b["nmax"] + 2, 6)
    for k in range(kmax + 1):
        for i in range(k + 1):
            for j in range(k + 1):
                yield ("schmidt", {"k": k, "i": i, "j": j})
    for n in range(1, min(b["nmax"] + 2, 7)):
        for s in range(n):
            yield ("alternating_sum", {"n": n, "s": s})
    for n in range(1, min(b["nmax"], 4) + 1):
        for r in range(1, min(b["rmax"], 2) + 1):
            yield ("lemma41", {"n": n, "r": r})


_SUITE_BUILDERS = {
    "clausen": _clausen_cases,
    "lemmas": _lemmas_cases,
    "transforms": _transforms_cases,
    "delannoy": _delannoy_cases,
    "congruence": _congruence_cases,
    "positivity": _positivity_cases,
}


def suite_cases(suite: str, bounds: dict) -> list:
    """Expand a suite name and bounds into the ordered case list."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    b = dict(DEFAULT_BOUNDS)
    b.update({k: v for k, v in bounds.items() if v is not None})
    names = [s for s in SUITE_NAMES if s != "all"] if suite == "all" else [suite]
    cases = []
    for name in names:
        cases.extend(_SUITE_BUILDERS[name](b))
    if os.environ.get("QCK_INJECT_FAILURE"):
        cases.append(("corrupted_fixture", {}))
    return cases


def run_case(case) -> dict:
    """Execute one (name, params) case; an exception becomes a failed record with ``error``."""
    name, params = case
    try:
        return CASE_REGISTRY[name](params).to_dict()
    except Exception as exc:  # reported as an error, never as a verdict
        return {
            "name": name,
            "params": dict(sorted(params.items())),
            "free_vars": [],
            "passed": False,
            "difference": "1",
            "error": f"{type(exc).__name__}: {exc}",
        }


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
        if name not in CASE_REGISTRY:
            raise ValueError(f"unknown case name {name!r} in manifest")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"params of manifest entry {name!r} is not an object")
        cases.append((name, dict(params)))
    return cases
