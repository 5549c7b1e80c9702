"""CLI contract tests: exit codes, determinism, report round-trips."""

import hashlib
import inspect
import json
import subprocess
import sys

import pytest

from qck import cli, congruence, exactalg, identities, positivity, qkit
from qck.exactalg import MultiLaurentPoly, NotDivisibleError
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
    assert [(r["name"], r["params"]) for r in records] == \
        [("thm2", {"m": m, "p": 3}) for m in range(1, 10)]
    assert all(r["passed"] and r["difference"] == "0" for r in records)
    text = run_cli("congruence", "--p", "3", "--mmax", "2").stdout
    assert text == "PASS thm2(m=1,p=3)\nPASS thm2(m=2,p=3)\n2 cases, 0 failed\n"


def test_positivity_subcommand():
    result = run_cli("positivity", "--mmax", "2", "--nmax", "2", "--rmax", "1",
                     "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert [r["name"] for r in records] == ["thm3-1", "thm3-2", "thm3-3"] * 4
    assert [(r["params"]["m"], r["params"]["n"]) for r in records[::3]] == \
        [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(r["passed"] and r["difference"] == "0" for r in records)
    assert set(records[0]) == {"name", "params", "free_vars", "passed", "difference"}


@pytest.mark.parametrize("args, cases", [
    (("congruence", "--p", "3", "--mmax", "9"),
     [c for c in suite_cases("congruence", {"p": 3, "mmax": 9}) if c[0] == "thm2"]),
    (("positivity", "--mmax", "2", "--nmax", "2", "--rmax", "1"),
     [(name, dict({"m": m, "n": n}, **extra)) for m in (1, 2) for n in (1, 2)
      for name, extra in (("thm3-1", {}), ("thm3-2", {"r": 1}), ("thm3-3", {"r": 1}))]),
])
def test_subcommands_print_the_verify_records(args, cases):
    result = run_cli(*args, "--format", "json")
    assert result.returncode == 0
    assert result.stdout == json.dumps(run_cases(cases), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [["positivity", "--mmax", "2", "--nmax", "3"],
                                  ["congruence", "--p", "3", "--mmax", "2"]])
def test_subcommand_case_error_exits_two(monkeypatch, capsys, argv):
    right = congruence._thm2_lhs_single_sum
    monkeypatch.setattr(congruence, "_thm2_lhs_single_sum",
                        lambda p, m: right(p, m) + MultiLaurentPoly.var("q"))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: thm")


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


@pytest.mark.parametrize("manifest", [{"a": 1}, [1],
                                      [{"name": "thm2", "params": [1, 2]}]])
def test_malformed_manifest_is_an_error(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_thm3_1_runs_both_routes_of_the_thm2_sum(tmp_path, monkeypatch, capsys):
    right = congruence._thm2_lhs_single_sum
    monkeypatch.setattr(congruence, "_thm2_lhs_single_sum",
                        lambda p, m: right(p, m) + MultiLaurentPoly.var("q"))
    with pytest.raises(congruence.Thm2MismatchError):
        positivity.verify_thm3("thm3-1", 2, 3)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "thm3-1", "params": {"m": 2, "n": 3}}]))
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    assert "error: thm3-1(m=2,n=3): Thm2MismatchError" in capsys.readouterr().err


def test_inner_not_divisible_is_an_error(tmp_path, monkeypatch, capsys):
    def broken(p, m):
        raise NotDivisibleError("inner division")
    monkeypatch.setattr(congruence, "_thm2_lhs_single_sum", broken)
    with pytest.raises(NotDivisibleError):
        positivity.verify_thm3("thm3-1", 2, 3)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "thm3-1", "params": {"m": 2, "n": 3}}]))
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    assert "error: thm3-1(m=2,n=3): NotDivisibleError" in capsys.readouterr().err


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
    result = run_cli("delannoy", "--m", "13", "--n", "1")
    assert result.returncode == 2
    assert "hard cap" in result.stderr
    result = run_cli("delannoy", "--n", "13", "--m", "0", "--unsafe-bounds")
    assert result.returncode == 0
    assert result.stdout == "1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "congruence", "--p", "0"],
    ["verify", "--suite", "clausen", "--nmax", "-1"],
    ["positivity", "--mmax", "-1"],
    ["positivity", "--nmax", "-1", "--unsafe-bounds"],
    ["congruence", "--p", "9", "--unsafe-bounds"],
    ["delannoy", "--m", "13", "--n", "1"],
    ["delannoy", "--m", "-1", "--n", "1"],
])
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_tracer_micro_benchmark_attributes(tmp_path):
    """The calls of the benchmark tracer's kernel micro-benchmarks, at small sizes."""
    lhs, rhs = identities.clausen_orr_sides(1)
    assert lhs == rhs
    binding = {"a": qkit.ParamExpr.of(-1, {"q": -1})}
    assert [s.substitute(binding) for s in identities.general_s_sides(1, 1)]
    assert congruence.verify_thm2(3, 1).passed
    u, v = lhs, MultiLaurentPoly.var("q") + 2
    assert exactalg.exact_divide(u * v, v) == u
    out = tmp_path / "report.json"
    records = run_cases([("thm2", {"p": 3, "m": 1})])
    cli._emit(records, "json", str(out))
    assert json.loads(out.read_text()) == records


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
