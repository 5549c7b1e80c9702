"""CLI contract tests: exit codes, determinism, report round-trips."""

import ast
import functools
import hashlib
import importlib
import inspect
import json
import random
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from functools import reduce
from operator import add, mul
from pathlib import Path

import pytest

from qck import (cli, congruence, delannoy, exactalg, identities, positivity, qkit,
                 suites)
from qck.exactalg import MultiLaurentPoly, NotDivisibleError
from qck.identities import verify_clausen_orr
from qck.report import CaseKind, VerificationReport
from qck.suites import CASE_REGISTRY, manifest_cases, run_case, run_cases, suite_cases


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


def test_exit_one_on_corrupted_fixture(tmp_path):
    path = tmp_path / "manifest.json"
    cases = suite_cases("clausen", {"nmax": 1}) + [("corrupted_fixture", {})]
    path.write_text(json.dumps([{"name": n, "params": p} for n, p in cases]))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 1
    assert "corrupted_fixture" in result.stdout
    # the nonzero difference polynomial is printed with the failing case
    assert "difference=" in result.stdout
    assert "q" in result.stderr


def test_exit_two_on_usage_error():
    result = run_cli("verify", "--suite", "nonsense")
    assert result.returncode == 2


def test_exit_two_on_bad_phi():
    # qck has no series evaluator: "phi" is argparse's invalid choice, a usage error
    result = run_cli("phi", "phi[2,1]{a, q^-2 ; c ; q}")
    assert result.returncode == 2
    assert result.stderr.startswith("usage: qck")
    assert "invalid choice: 'phi'" in result.stderr
    assert result.stdout == ""


def test_exit_two_on_hard_cap():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "99")
    assert result.returncode == 2
    assert "hard cap" in result.stderr


def test_delannoy_examples():
    assert run_cli("delannoy", "--m", "2", "--n", "2").stdout.strip() == "13"
    assert run_cli("delannoy", "--m", "1", "--n", "1",
                   "--q-analogue", "dq").stdout.strip() == "2 + q"
    assert run_cli("delannoy", "--m", "0", "--n", "5",
                   "--q-analogue", "dqstar").stdout.strip() == "1"
    assert run_cli("delannoy", "--m", "2", "--n", "-1").returncode == 2
    assert run_cli("delannoy", "--m", "2", "--n", "2", "--q-analogue", "dq",
                   "--format", "csv").stdout == (
        "m\\n,0,1,2\n0,1,1,1\n1,1,2 + q,2 + 2*q + q^2\n"
        "2,1,2 + 2*q + q^2,2 + 4*q + 4*q^2 + 2*q^3 + q^4\n")


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


@pytest.mark.parametrize("parallel", [False, True])
def test_records_do_not_depend_on_execution_order(parallel):
    # cases run in canonical order; each record goes back to its case's slot
    cases = suite_cases("congruence", {"pmax": 7, "mmax": 3, "nmax": 1}) \
        + suite_cases("delannoy", {"mmax": 1}) \
        + [("corrupted_fixture", {}), ("thm2", {"p": 9, "m": 1})]  # a FAIL and a case error
    random.Random(3).shuffle(cases)
    records = run_cases(cases, parallel=parallel)
    assert records == [run_case(c) for c in cases]
    raised = cases.index(("thm2", {"p": 9, "m": 1}))
    assert records[raised]["params"] == {"p": 9, "m": 1}
    assert records[raised]["error"] == "ValueError: 9 is not an odd prime <= 10000"
    assert [i for i, r in enumerate(records) if not r["passed"]] == sorted(
        [raised, cases.index(("corrupted_fixture", {}))])


def test_json_report_roundtrip():
    cases = suite_cases("clausen", {"nmax": 1})
    records = run_cases(cases)
    assert json.loads(json.dumps(records)) == records
    for (name, params), record in zip(cases, records):
        assert record == CASE_REGISTRY[name](**params).to_dict()
        assert list(record) == ["name", "params", "free_vars", "passed", "difference"]
        assert record["params"] == params and record["passed"] is True
        assert record["difference"] == "0" and record["free_vars"]


def test_passed_is_derived_from_the_difference():
    q = MultiLaurentPoly.var("q")
    failing = VerificationReport("clausen_orr", {"n": 1}, ("q",), q - q ** 2)
    assert not failing.passed and failing.to_dict()["passed"] is False
    assert VerificationReport("clausen_orr", {"n": 1}, ("q",), q - q).passed
    with pytest.raises(AttributeError):
        failing.passed = True


def test_error_record_is_a_verdict_record_plus_error():
    record = run_case(("clausen_orr", {"n": -1}))
    verdict = VerificationReport("clausen_orr", {"n": -1}, (), MultiLaurentPoly.const(1))
    assert record == dict(verdict.to_dict(), error=record["error"])
    assert record == {"name": "clausen_orr", "params": {"n": -1}, "free_vars": [],
                      "passed": False, "difference": "1", "error": record["error"]}
    assert record["error"].startswith("PhiSpecError: ")


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


@pytest.mark.parametrize("flag", ["--nmax", "--mmax", "--pmax", "--rmax", "--p"])
def test_manifest_rejects_grid_bounds(tmp_path, capsys, flag):
    # a manifest's cases carry their own parameters; a bound would be ignored
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "thm2", "params": {"p": 3, "m": 4}}]))
    assert cli.main(["verify", "--manifest", str(path), flag, "3"]) == 2
    assert f"error: {flag} with --manifest" in capsys.readouterr().err
    assert cli.main(["verify", "--manifest", str(path), "--seed", "3"]) == 0


@pytest.mark.parametrize("suite", ["all", "clausen"])
def test_manifest_rejects_suite(tmp_path, capsys, monkeypatch, suite):
    # without --manifest a missing --suite is read as "all"; beside one it would be ignored
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "thm2", "params": {"p": 3, "m": 4}}]))
    assert cli.main(["verify", "--manifest", str(path), "--suite", suite]) == 2
    assert "error: --suite with --manifest" in capsys.readouterr().err
    ran = []
    monkeypatch.setattr(suites, "run_cases", lambda cases, parallel: ran.append(cases) or [])
    assert cli.main(["verify", "--nmax", "1"]) == 0
    assert ran == [suite_cases("all", {"nmax": 1})]


def test_manifest_corrupted_case_fails(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "corrupted_fixture", "params": {}}]))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 1


@pytest.mark.parametrize("manifest", [{"a": 1}, [1],
                                      [{"name": "thm2", "params": [1, 2]}],
                                      [{"name": ["thm2"]}], [{"name": {"thm2": 1}}],
                                      [{"name": "clausen_orr", "params": {"n": True}}],
                                      [{"name": "clausen_orr", "params": {"n": 1.0}}],
                                      [{"name": "clausen_orr", "params": {"n": "1"}}]])
def test_malformed_manifest_is_an_error(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("data", [b"", b'[{"name": "thm2", "params": {"p": 3, "m": 4}}',
                                  b"\xff["])
def test_a_manifest_that_is_not_json_is_named(tmp_path, capsys, data):
    # empty, a truncated list, not UTF-8: the message names the file, not only the parser
    path = tmp_path / "manifest.json"
    path.write_bytes(data)
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest {path} is not JSON: "), err
    assert "Traceback" not in err


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


def test_malformed_term_budget_is_an_error():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "1",
                     env_extra={"QCK_MAX_TERMS": "abc"})
    assert result.returncode == 2  # a configuration error, not a verdict
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: ") and "QCK_MAX_TERMS='abc'" in result.stderr


def test_unwritable_out_is_an_error(tmp_path):
    out = str(tmp_path / "missing" / "r.json")
    for args in (("verify", "--suite", "clausen", "--nmax", "0"),
                 ("delannoy", "--m", "1", "--n", "1")):
        result = run_cli(*args, "--out", out)
        assert result.returncode == 2, args  # the checks ran; the report could not be written
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), args


LADDER = [
    (exactalg.TermBudgetExceeded("product needs 11 terms"), "aborted: "),
    (ValueError("a bad value"), "error: "),
    (OSError("an unwritable path"), "error: "),
    (delannoy.DelannoyMismatchError("closed forms disagree"), "error: "),
]


@pytest.mark.parametrize("exc, prefix", LADDER, ids=[type(exc).__name__ for exc, _ in LADDER])
def test_one_ladder_maps_each_error_to_exit_two(monkeypatch, capsys, exc, prefix):
    def raising(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_delannoy", raising)
    assert cli.main(["delannoy", "--m", "1", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}{exc}\n"
    assert captured.out == ""


def test_a_bug_propagates_out_of_main(monkeypatch):
    def raising(args):
        raise RuntimeError("a bug, not a usage error")
    monkeypatch.setattr(cli, "cmd_delannoy", raising)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["delannoy", "--m", "1", "--n", "1"])


def test_a_broken_pool_is_an_error_not_a_failed_check(monkeypatch, capsys):
    """A worker killed from outside (the OOM killer, say) breaks the pool: exit 2, one line."""
    class BrokenPool:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, cases, chunksize):
            raise BrokenProcessPool("a worker was terminated abruptly")
    monkeypatch.setattr(suites, "ProcessPoolExecutor", BrokenPool)
    assert cli.main(["verify", "--suite", "clausen", "--nmax", "1", "--parallel"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a worker was terminated abruptly\n"
    assert captured.out == ""


def test_no_command_catches_its_own_errors():
    """The ladder in ``main`` is the only one: no ``cmd_*`` function holds a ``try``."""
    tree = ast.parse(Path(inspect.getsourcefile(cli)).read_text())
    commands = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert {f.name for f in commands} == {"cmd_verify", "cmd_delannoy", "cmd_congruence",
                                          "cmd_positivity"}
    for function in commands:
        assert not any(isinstance(node, ast.Try) for node in ast.walk(function)), function.name


def test_delannoy_term_budget_abort():
    # a budget abort outside any case: the dqstar table builds a 4-term result
    result = run_cli("delannoy", "--m", "4", "--n", "4", "--q-analogue", "dqstar",
                     env_extra={"QCK_MAX_TERMS": "3"})
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("aborted: ")
    assert result.stdout == ""


def test_delannoy_malformed_term_budget_is_an_error():
    result = run_cli("delannoy", "--m", "4", "--n", "4", "--q-analogue", "dqstar",
                     env_extra={"QCK_MAX_TERMS": "abc"})
    assert result.returncode == 2
    assert result.stderr == "error: QCK_MAX_TERMS='abc' is not a non-negative integer\n"
    assert result.stdout == ""


def test_text_report_prints_case_errors_as_errors():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "1",
                     env_extra={"QCK_MAX_TERMS": "abc"})
    assert result.returncode == 2
    lines = result.stdout.splitlines()
    assert len(lines) == 7 and lines[-1] == "6 cases, 0 failed, 6 errors"
    assert all(line.startswith("ERROR ") and "QCK_MAX_TERMS='abc'" in line
               for line in lines[:-1])


def test_text_report_tells_a_failure_from_an_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "corrupted_fixture", "params": {}},
                                {"name": "thm2", "params": {"p": 9, "m": 1}}]))
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    fail, error, summary = capsys.readouterr().out.splitlines()
    assert fail.startswith("FAIL corrupted_fixture() difference=")
    assert error.startswith("ERROR thm2(m=1,p=9) ValueError: ")
    assert summary == "2 cases, 1 failed, 1 errors"


def test_csv_report_tells_a_failure_from_an_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "corrupted_fixture", "params": {}},
                                {"name": "thm2", "params": {"p": 4, "m": 1}}]))
    assert cli.main(["verify", "--manifest", str(path), "--format", "csv"]) == 2
    header, fail, error = capsys.readouterr().out.splitlines()
    assert header == "name,params,passed,difference"
    assert fail == "corrupted_fixture,,False,-q^2 + q^3"
    assert error == "thm2,m=1;p=4,error,ValueError: 4 is not an odd prime <= 10000"


@pytest.mark.parametrize("argv, manifest", [
    (["congruence", "--p", "3", "--mmax", "0"], None),
    (["positivity", "--mmax", "0"], None),
    (["verify", "--format", "csv"], []),
], ids=["congruence", "positivity", "verify-manifest"])
def test_a_run_with_no_cases_is_an_error(tmp_path, capsys, argv, manifest):
    """A run that checks nothing is not a PASS."""
    if manifest is not None:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = [*argv, "--manifest", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: no cases to run\n")


@pytest.mark.parametrize("argv, named", [
    (["positivity", "--rmax", "0", "--mmax", "1", "--nmax", "1"],
     "--rmax 0 leaves thm3-2, thm3-3"),
    (["verify", "--suite", "congruence", "--mmax", "0", "--pmax", "0"],
     "--pmax 0 leaves minus_q_pochhammer"),  # with --pmax 3, --mmax 0 would name thm2
    (["verify", "--suite", "congruence", "--pmax", "2"],
     "--pmax 2 leaves minus_q_pochhammer, thm2"),
    (["verify", "--suite", "congruence", "--mmax", "0"], "--mmax 0 leaves thm2"),
    (["verify", "--suite", "lemmas", "--nmax", "0"],
     "--nmax 0 leaves lem_important2, lemma_am2, lemma_last"),
    (["verify", "--rmax", "0", "--parallel"], "--rmax 0 leaves lemma41, thm3-2, thm3-3"),
], ids=["positivity-rmax", "congruence-mmax-pmax", "congruence-pmax", "congruence-mmax",
        "lemmas-nmax", "all-rmax"])
def test_a_bound_that_empties_a_family_is_an_error(monkeypatch, capsys, argv, named):
    """A grid that drops a whole family of cases is not a PASS, and nothing runs."""
    monkeypatch.setattr(suites, "run_cases", None)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {named} with no cases\n")


def test_a_low_bound_that_empties_no_family_runs(capsys):
    # every clausen family has its n = 0 case, and --p replaces --pmax
    for argv in (["verify", "--suite", "clausen", "--nmax", "0"],
                 ["verify", "--suite", "congruence", "--p", "3", "--pmax", "0", "--mmax", "1",
                  "--nmax", "0"]):
        assert cli.main(argv) == 0, argv
    assert capsys.readouterr().out.count("0 failed") == 2


@pytest.mark.parametrize("grid", [*suites.SUITE_NAMES, "positivity-subcommand"])
def test_the_default_bounds_hold_every_family(grid):
    """A bound below its default that empties a family is an error: the check raises it to its
    default, so every family that any bound up to the hard caps reaches must have cases there."""
    def kinds(b):
        if grid == "positivity-subcommand":
            return {name for name, _ in suites.thm3_cases(b["mmax"], b["nmax"], b["rmax"])}
        return {name for name, _ in suite_cases(grid, b)}
    caps = {k: suites.HARD_CAPS[k] for k in suites.DEFAULT_BOUNDS if k in suites.HARD_CAPS}
    assert kinds(suites.DEFAULT_BOUNDS) == kinds(caps)
    verify = cli.build_parser().parse_args(["verify"])
    assert set(suites.DEFAULT_BOUNDS) <= set(vars(verify))  # each bound has its verify flag


def test_a_report_replays_as_its_own_manifest(tmp_path, capsys):
    # the smallest bounds at which every family has cases
    assert cli.main(["verify", "--nmax", "1", "--mmax", "1", "--pmax", "3", "--rmax", "1",
                     "--format", "json"]) == 0
    # lemma41's records are named lemma41_generic, no registry name: ROADMAP item 1
    records = [r for r in json.loads(capsys.readouterr().out) if r["name"] != "lemma41_generic"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(records))
    assert cli.main(["verify", "--manifest", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(records, indent=2, sort_keys=True) + "\n"


def _first_case_of_each_kind() -> dict:
    first = {}
    for name, params in suite_cases("all", {"nmax": 2, "mmax": 2, "pmax": 3, "rmax": 1}):
        first.setdefault(name, params)
    return first


@pytest.mark.parametrize("name, params, key", [
    pytest.param(name, params, key, id=f"{name}-{key}")
    for name, params in _first_case_of_each_kind().items() for key in params if key != "seed"])
def test_a_negative_parameter_is_a_case_error(name, params, key):
    """Below its range no kind reaches a verdict: a vacuous PASS would check nothing."""
    record = run_case((name, dict(params, **{key: -1})))
    assert "error" in record, record


def test_vacuous_manifest_cases_are_errors(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"name": "delannoy_product", "params": {"m": -3, "n": 2}},
                                {"name": "phi_permutation", "params": {"seed": 0, "trials": 0}},
                                {"name": "phi_permutation", "params": {"seed": 0, "trials": -2}}]))
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["ERROR"] * 3
    assert lines[-1] == "3 cases, 0 failed, 3 errors"


def test_manifest_missing_parameter_is_an_error(tmp_path):
    path = tmp_path / "manifest.json"
    for name in ("clausen_orr", "phi_permutation"):  # phi_permutation has no defaults
        path.write_text(json.dumps([{"name": name, "params": {}}]))
        result = run_cli("verify", "--manifest", str(path))
        assert result.returncode == 2
        assert f"error: {name}(): TypeError" in result.stderr
        assert "FAILED" not in result.stderr


@pytest.mark.parametrize("entry, param", [
    ({"name": "thm3-1", "params": {"m": 1, "n": 2, "r": 3}}, "'r'"),
    ({"name": "clausen_orr", "params": {"n": 1, "m": 5}}, "'m'"),
])
def test_manifest_unknown_parameter_is_an_error(tmp_path, entry, param):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([entry]))
    result = run_cli("verify", "--manifest", str(path))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and param in result.stderr
    assert "PASS" not in result.stdout


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
    ["verify", "--suite", "congruence", "--p", "15", "--unsafe-bounds"],
    ["congruence", "--p", "15", "--unsafe-bounds"],
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


def test_rows_match_their_builders(monkeypatch):
    rows = [fn for fn in CASE_REGISTRY.values() if isinstance(fn, CaseKind)]
    assert len(rows) == len(CASE_REGISTRY) - 4  # thm3-1/2/3, lemma41
    for row in rows:  # a default would let a manifest leave its parameter out
        assert all(param.default is param.empty
                   for param in inspect.signature(row.builder()).parameters.values()), row.name
    by_keyword = verify_clausen_orr(n=1)
    assert by_keyword.passed and by_keyword.params == {"n": 1}

    original = identities.clausen_orr_sides

    @functools.wraps(original)
    def positional_only(*args):  # the benchmark tracer's wrappers take no keywords
        return original(*args)
    monkeypatch.setattr(identities, "clausen_orr_sides", positional_only)
    by_keyword = verify_clausen_orr(n=1)
    assert by_keyword.passed and by_keyword.params == {"n": 1}

    def unreachable(n):
        raise AssertionError("the builder ran on a call its signature refuses")
    monkeypatch.setattr(identities, "clausen_orr_sides", unreachable)
    for args, kwargs in (((1, 2), {}), ((), {"n": 1, "m": 5}), ((), {})):
        with pytest.raises(TypeError):
            verify_clausen_orr(*args, **kwargs)


def test_a_builder_installed_later_is_bound_by_its_own_signature(monkeypatch):
    """Signatures are cached per builder object, not per row."""
    original = identities.clausen_orr_sides
    assert verify_clausen_orr(n=1).params == {"n": 1}
    monkeypatch.setattr(identities, "clausen_orr_sides", lambda k: original(k))
    assert verify_clausen_orr(k=1).params == {"k": 1}
    with pytest.raises(TypeError):
        verify_clausen_orr(n=1)


def test_equal_sides_are_not_subtracted(monkeypatch):
    lhs, rhs = identities.clausen_orr_sides(2)

    def subtract(*args):
        raise AssertionError("equal sides were subtracted")
    monkeypatch.setattr(identities, "clausen_orr_sides", lambda n: (lhs, rhs))
    monkeypatch.setattr(MultiLaurentPoly, "__sub__", subtract)
    record = verify_clausen_orr(2)
    assert record.passed and record.to_dict()["difference"] == "0"
    monkeypatch.undo()
    monkeypatch.setattr(identities, "clausen_orr_sides", lambda n: (lhs + n, rhs))
    assert verify_clausen_orr(2).to_dict()["difference"] == "2"


DEFAULT_REPORT_SHA256 = "0c59dede02218c6709969e5fd6503d349645a0150f00f44a090a8628e014adda"


def test_default_report_bytes():
    """The full default report is pinned byte for byte (695 cases)."""
    result = run_cli("verify", "--suite", "all", "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEFAULT_REPORT_SHA256


ACCEPTANCE_REPORT_SHA256 = "f6436906adf7d8a9d20f1f639ee1a748a4e9df3700730361f9a3deb4d7fbee03"


def test_acceptance_report_bytes(capsys):
    """The report at the acceptance bounds is pinned byte for byte (1574 cases)."""
    argv = ["verify", "--suite", "all", "--nmax", "6", "--mmax", "9", "--pmax", "13",
            "--rmax", "3", "--format", "json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ACCEPTANCE_REPORT_SHA256


POSITIVITY_GRID_SHA256 = "b334547600d9959c6934735a6de40e82548d666bb1e9202daa86ac17409a646d"


def test_positivity_grid_report_bytes(capsys):
    """The thm3 grid at its hard caps is pinned byte for byte: the only pin of m, n = 10-12."""
    argv = ["positivity", "--mmax", "12", "--nmax", "10", "--rmax", "3", "--format", "json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == POSITIVITY_GRID_SHA256


def _qck_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "qck"]


def _clear_every_cache() -> None:
    for value in (v for m in _qck_modules() for v in vars(m).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_cache_sweeps_reach_the_theorem_2_rows(monkeypatch):
    # the sweeps that start a run from nothing, this file's and the traced benchmark
    # run's, empty the rows' store too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced = importlib.import_module("traced")
    for sweep in (_clear_every_cache, traced.clear_caches):
        congruence.thm2_lhs(5, 3)
        assert congruence._ROWS
        sweep()
        assert not congruence._ROWS


def _default_report_in_process(capsys) -> str:
    _clear_every_cache()  # nothing computed by the other kernel is reused
    assert cli.main(["verify", "--suite", "all", "--format", "json"]) == 0
    return capsys.readouterr().out


def test_plain_kernel_reproduces_the_default_report(monkeypatch, capsys):
    """The packed paths are held to the schoolbook ones on every row of the default report."""
    fast = _default_report_in_process(capsys)
    monkeypatch.setattr(exactalg, "_mul_grouped", lambda a, b: None)  # every product term by term
    one, zero = MultiLaurentPoly.const(1), MultiLaurentPoly.zero()

    def folded(terms):
        return reduce(add, (reduce(mul, factors, one) for factors in terms), zero)
    packed = exactalg.sum_of_products
    for module in _qck_modules():
        if getattr(module, "sum_of_products", None) is packed:
            monkeypatch.setattr(module, "sum_of_products", folded)
    # With products and sums unpacked, only exact_divide groups by q: no groups
    # sends every division through the long division in key order.
    monkeypatch.setattr(exactalg, "_q_groups", lambda terms: None)
    monkeypatch.setattr(exactalg, "_divide_in_q", None)
    plain = _default_report_in_process(capsys)
    assert plain == fast
    assert hashlib.sha256(fast.encode()).hexdigest() == DEFAULT_REPORT_SHA256
