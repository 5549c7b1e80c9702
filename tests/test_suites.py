"""The suite grids: how far each kind reaches at given bounds, and the benchmark's grids.

These tests only build case lists; nothing is computed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qck.suites import suite_cases

ROOT = Path(__file__).resolve().parents[1]


def _reach(cases) -> dict:
    """Each kind's largest value of each of its parameters."""
    reach = {}
    for name, params in cases:
        top = reach.setdefault(name, {})
        for key, value in params.items():
            top[key] = max(top.get(key, value), value)
    return reach


def test_every_grid_reaches_its_bound():
    """Below the three named caps, every kind runs to --nmax, --mmax and --rmax."""
    cases = suite_cases("all", {"nmax": 7, "mmax": 10, "rmax": 3})
    shifted = {"n": 5, "s": 5}  # the transforms shifted grid stops at n = 5
    assert _reach(cases) == {
        "clausen_orr": {"n": 7}, "final_square": {"n": 7},
        "sqrt_corollary": {"m": 3},
        "lemma_last": {"n": 7, "m": 6, "h": 7}, "lemma_am2": {"n": 7, "m": 6, "h": 7},
        "lem_important2": {"n": 7}, "connection_coefficients": {"n": 7, "m": 7},
        "special3": {"n": 7}, "special1": {"n": 7}, "special2": {"n": 7},
        "special222": {"n": 7},
        "general_s": shifted, "q2_product": shifted, "general_s_specialization": shifted,
        "special3_shifted": shifted,
        "qbinomial_theorem": {"n": 9}, "qchu_vandermonde": {"n": 9},
        "phi_permutation": {"seed": 0, "trials": 4},
        "delannoy_product": {"m": 10, "n": 10}, "delannoy_relations": {"m": 10, "n": 10},
        "delannoy_product_x": {"m": 10, "n": 10},
        "minus_q_pochhammer": {"p": 7}, "qidentity": {"n": 8, "j": 7},
        "thm2": {"p": 7, "m": 10},
        "thm3-1": {"m": 10, "n": 10}, "thm3-2": {"m": 10, "n": 10, "r": 3},
        "thm3-3": {"m": 10, "n": 10, "r": 3},
        "schmidt": {"k": 9, "i": 9, "j": 9}, "alternating_sum": {"n": 8, "s": 7},
        "lemma41": {"n": 7, "r": 3},
    }
    for corner in (("thm3-2", {"m": 10, "n": 10, "r": 3}),
                   ("thm3-3", {"m": 10, "n": 10, "r": 3}),
                   ("lemma41", {"n": 7, "r": 3}),
                   ("delannoy_product_x", {"m": 10, "n": 10})):
        assert corner in cases


def test_named_caps_hold_at_the_hard_caps():
    """At --mmax 40 the D_q grids stop at 12; sqrt_corollary and the shifted grid keep theirs."""
    reach = _reach(suite_cases("all", {"nmax": 10, "mmax": 40, "rmax": 3}))
    for name in ("delannoy_product", "delannoy_relations", "delannoy_product_x", "thm3-1"):
        assert reach[name] == {"m": 12, "n": 12}, name
    for name in ("thm3-2", "thm3-3"):
        assert reach[name] == {"m": 12, "n": 12, "r": 3}, name
    assert reach["thm2"]["m"] == 40  # --mmax still sets the congruence m-range
    assert reach["sqrt_corollary"] == {"m": 3}
    assert reach["general_s"] == {"n": 5, "s": 5}
    assert reach["lemma_last"]["n"] == 10


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its path: the benchmark's own workload table."""
    name = "perfbench_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", ["symbolic", "univariate"])
def test_suite_grid_matches_the_benchmark_golden(name):
    """A grid change shows here, not as a failed benchmark run."""
    workload = _benchmark_workloads()[name]
    bounds = {flag.lstrip("-"): value for flag, value in workload.bounds}
    golden = [tuple(entry["case"]) for entry in workload.golden()["entries"]]
    assert suite_cases(workload.suite, dict(bounds, seed=0)) == golden
