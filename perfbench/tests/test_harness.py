"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import qck  # noqa: E402
import qck.cli  # noqa: E402
from qck import exactalg, suites  # noqa: E402

import run  # noqa: E402
import traced  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small_cases():
    """Cheap cases of every kind in the all-parallel workload (all parameters <= 2)."""
    entries = workloads.WORKLOADS["all-parallel"].golden()["entries"]
    picked = [e for e in entries
              if all(v <= 2 for k, v in e["case"][1].items() if k != "seed")]
    return [tuple(e["case"]) for e in picked], [e["record"] for e in picked]


def bindings():
    """Every name bound in a qck module or on MultiLaurentPoly, with its object."""
    out = {}
    for module in tracing.qck_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for attr, value in vars(exactalg.MultiLaurentPoly).items():
        out[("MultiLaurentPoly", attr)] = value
    return out


def traced_pass(cases):
    tracer = tracing.Tracer()
    tracing.install_kernel(tracer, exactalg)
    tracing.install_layers(tracer, qck)
    tracing.install_cases(tracer, suites)
    try:
        records, _ = traced.serial_pass(suites, cases)
    finally:
        tracer.remove()
    return tracer, records


def test_traced_report_is_byte_identical_to_untraced():
    cases, expected = small_cases()
    untraced, _ = traced.serial_pass(suites, cases)
    _, with_tracing = traced_pass(cases)
    assert workloads.report_text(with_tracing) == workloads.report_text(untraced)
    assert workloads.report_text(untraced) == workloads.report_text(expected)


def test_every_wrapper_is_removed():
    before = bindings()
    tracer, _ = traced_pass(small_cases()[0][:20])
    assert tracer.calls and max(tracer.calls) > 0  # the wrappers did run
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_counts_repeat_exactly():
    cases = small_cases()[0]

    def counts():
        tracer, _ = traced_pass(cases)
        calls = dict(zip(tracer.names, tracer.calls))
        return (calls, dict(tracer.counts), len(tracer.sides_distinct),
                tracer.group_calls("identities.sides"),
                qck.qkit.qbinomial.cache_info(),
                traced.hit_ratio(qck.delannoy.dq, qck.delannoy.dq_star,
                                 qck.delannoy.dq_inverse_base))
    first, second = counts(), counts()
    assert first == second
    assert first[1]["mul_multi.term_pairs"] > 0


def test_metric_names_and_predictions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as fh:
        predictions = json.load(fh)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [{k: p[k] for k in ("name", "unit", "better")} for p in predictions] \
        == spec["per_layer"]
    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_report_matches_stored_digest(name):
    workload = workloads.WORKLOADS[name]
    golden = workload.golden()
    stored = [e["record"] for e in golden["entries"]]
    assert workloads.digest(workloads.report_text(stored)) == golden["digest"]
    cases, records = workload.expected(0)
    assert len(cases) == len(records)
    if workload.parallel:
        assert records != stored
        assert sorted(map(json.dumps, records)) == sorted(map(json.dumps, stored))
    else:
        assert records == stored


def test_count_failed():
    _, expected = small_cases()
    text = workloads.report_text(expected)
    assert workloads.count_failed(text, expected) == 0
    assert workloads.count_failed(None, expected) == len(expected)
    assert workloads.count_failed("not json", expected) == len(expected)
    broken = [dict(r) for r in expected]
    broken[3] = dict(broken[3], passed=False, difference="1")
    assert workloads.count_failed(workloads.report_text(broken), expected) == 1
    assert workloads.count_failed(workloads.report_text(expected[1:]), expected) \
        == len(expected)


@pytest.mark.parametrize("parallel", [False, True])
def test_cli_report_is_the_assembled_serial_report(tmp_path, monkeypatch, parallel):
    """The command line, serial or on the pool, reproduces the expected bytes."""
    monkeypatch.chdir(ROOT)
    cases, expected = small_cases()
    manifest, out = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    workloads.write_manifest(cases[::-1], manifest)
    argv = ["verify", "--manifest", manifest, "--format", "json", "--out", out]
    inv = run.Invocation(argv + (["--parallel"] if parallel else []),
                         run.clean_env(), str(tmp_path), 120)
    assert inv.returncode == 0 and inv.cpu_s > 0 and inv.peak_rss_mb > 0
    with open(out) as fh:
        assert fh.read() == workloads.report_text(expected[::-1])
