"""CLI contract tests: exit codes, determinism, report round-trips."""

import hashlib
import inspect
import json
import subprocess
import sys

import pytest

from qck.identities import verify_clausen_orr
from qck.report import CaseKind, VerificationReport
from qck.suites import CASE_REGISTRY, manifest_cases, run_cases, suite_cases


def run_cli(*args, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "qck.cli", *args],
                          capture_output=True, text=True, env=env)


def test_exit_zero_on_pass():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "2")
    assert result.returncode == 0
    assert "0 failed" in result.stdout


def test_exit_one_on_corrupted_fixture():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "1",
                     env_extra={"QCK_INJECT_FAILURE": "1"})
    assert result.returncode == 1
    assert "corrupted_fixture" in result.stdout
    # the nonzero difference polynomial is printed with the failing case
    assert "difference=" in result.stdout
    assert "q" in result.stderr


def test_exit_two_on_usage_error():
    result = run_cli("verify", "--suite", "nonsense")
    assert result.returncode == 2


def test_exit_two_on_bad_phi():
    result = run_cli("phi", "phi[2,1]{a, q^- ; c ; q}")
    assert result.returncode == 2
    assert "column" in result.stderr


def test_exit_two_on_hard_cap():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "99")
    assert result.returncode == 2
    assert "hard cap" in result.stderr


def test_phi_examples():
    result = run_cli("phi", "phi[2,1]{a, q^-0 ; c ; q}")
    assert result.returncode == 0
    assert result.stdout.strip() == "1"
    result = run_cli("phi", "phi[2,1]{a, q^-2 ; c ; q}")
    assert result.returncode == 0
    assert "/" in result.stdout  # cleared numerator over denominator


def test_delannoy_examples():
    assert run_cli("delannoy", "--m", "2", "--n", "2").stdout.strip() == "13"
    assert run_cli("delannoy", "--m", "1", "--n", "1",
                   "--q-analogue", "dq").stdout.strip() == "2 + q"
    assert run_cli("delannoy", "--m", "0", "--n", "5",
                   "--q-analogue", "dqstar").stdout.strip() == "1"
    assert run_cli("delannoy", "--m", "2", "--n", "-1").returncode == 2


def test_congruence_subcommand():
    result = run_cli("congruence", "--p", "3", "--mmax", "9", "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert len(records) == 9
    assert {r["case"] for r in records} == {"zero", "minus_one", "other"}
    assert all(r["passed"] for r in records)


def test_positivity_subcommand():
    result = run_cli("positivity", "--mmax", "2", "--nmax", "2", "--rmax", "1",
                     "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert all(r["divisible"] and r["nonneg"] for r in records)
    assert {"m", "n", "r", "claim", "divisible", "nonneg", "min_coeff",
            "degree_range"} <= set(records[0])


def test_json_report_roundtrip():
    cases = suite_cases("clausen", {"nmax": 1})
    records = run_cases(cases)
    for record in records:
        report = VerificationReport.from_dict(record)
        assert report.to_dict() == {k: v for k, v in record.items() if k != "error"}


def test_parallel_determinism():
    args = ("verify", "--suite", "lemmas", "--nmax", "3", "--format", "json")
    serial = run_cli(*args)
    parallel = run_cli(*args, "--parallel")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    rerun = run_cli(*args)
    assert rerun.stdout == serial.stdout


def test_report_out_path(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "--suite", "clausen", "--nmax", "1",
                     "--format", "json", "--out", str(out))
    assert result.returncode == 0
    records = json.loads(out.read_text())
    assert all(r["passed"] for r in records)


def test_manifest_run(tmp_path):
    manifest = [
        {"name": "clausen_orr", "params": {"n": 2}, "free_vars": ["q", "a", "x", "c"]},
        {"name": "thm2", "params": {"p": 3, "m": 4}},
        {"name": "schmidt", "params": {"k": 3, "i": 1, "j": 2}},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    result = run_cli("verify", "--manifest", str(path), "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert [r["name"] for r in records] == ["clausen_orr", "thm2", "schmidt"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "no_such_case"}]))
    assert run_cli("verify", "--manifest", str(bad)).returncode == 2


def test_manifest_corrupted_case_fails(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "corrupted_fixture", "params": {}}]))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 1


def test_term_budget_abort():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "4",
                     env_extra={"QCK_MAX_TERMS": "10"})
    assert result.returncode == 2  # an abort is an error, not a verdict
    assert "error: clausen_orr(n=1): TermBudgetExceeded" in result.stderr
    assert "Traceback" not in result.stderr


def test_manifest_missing_parameter_is_an_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "clausen_orr", "params": {}}]))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 2
    assert "error: clausen_orr(): KeyError" in result.stderr
    assert "FAILED" not in result.stderr


def test_subcommands_reject_flags_they_would_ignore():
    for args in (("delannoy", "--m", "1", "--n", "1", "--parallel"),
                 ("congruence", "--p", "3", "--mmax", "1", "--seed", "3"),
                 ("positivity", "--mmax", "1", "--nmax", "1", "--parallel"),
                 ("congruence", "--p", "3", "--mmax", "1", "--format", "csv"),
                 ("positivity", "--mmax", "1", "--nmax", "1", "--format", "csv")):
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert result.stdout == "", args


def test_subcommands_share_the_hard_caps():
    result = run_cli("positivity", "--mmax", "1", "--nmax", "1", "--rmax", "4")
    assert result.returncode == 2
    assert "hard cap" in result.stderr
    result = run_cli("congruence", "--p", "3", "--mmax", "41")
    assert result.returncode == 2
    assert "hard cap" in result.stderr


def test_csv_format():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "1", "--format", "csv")
    assert result.returncode == 0
    header = result.stdout.splitlines()[0]
    assert header == "name,params,passed,difference"


def test_registry_covers_manifest_names():
    cases = manifest_cases([{"name": name, "params": {}} for name in CASE_REGISTRY])
    assert len(cases) == len(CASE_REGISTRY)


def test_rows_match_their_builders():
    rows = [fn.__self__ for fn in CASE_REGISTRY.values()
            if isinstance(getattr(fn, "__self__", None), CaseKind)]
    assert len(rows) == len(CASE_REGISTRY) - 6  # thm3-1/2/3, lemma41, phi, fixture
    for row in rows:
        assert tuple(inspect.signature(row.builder()).parameters) == row.params, row.name
    by_keyword = verify_clausen_orr(n=1)
    assert by_keyword.passed and by_keyword.case.meta_params == {"n": 1}


def test_default_report_bytes():
    """The full default report is pinned byte for byte (694 cases)."""
    result = run_cli("verify", "--suite", "all", "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == \
        "e95bfb246eb9106618e626b0227133d7408f5d48eb7ca5333cbc1828a769c098"
