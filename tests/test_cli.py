"""CLI contract tests: exit codes, determinism, report round-trips."""

import functools
import hashlib
import inspect
import json
import subprocess
import sys
from functools import reduce
from operator import add, mul

import pytest

from qck import cli, congruence, exactalg, identities, positivity, qkit
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
    result = run_cli("phi", "phi[2,1]{a, q^- ; c ; q}")
    assert result.returncode == 2
    assert "column" in result.stderr


def test_exit_two_on_out_of_range_phi_literal():
    result = run_cli("phi", "phi[1,0]{q^-1 ; ; q^2000000}")
    assert result.returncode == 2
    assert "column 19" in result.stderr
    assert "Traceback" not in result.stderr


def test_exit_two_on_phi_exponent_overflow():
    # q^600000 is in range, but the k = 2 summand needs q^1200000
    result = run_cli("phi", "phi[2,1]{q^-2, a ; c ; q^600000}")
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_exit_two_on_hard_cap():
    result = run_cli("verify", "--suite", "clausen", "--nmax", "99")
    assert result.returncode == 2
    assert "hard cap" in result.stderr


def test_phi_examples():
    for spec, printed in [
        ("phi[2,1]{a, q^-0 ; c ; q}", "1"),
        # the README example: its denominator (c;q)_2 is in q and c, so graded division
        ("phi[2,1]{a, q^-2 ; c ; q}",
         "(-a*c + a^2 + q*c^2 + -q*a*c) / (1 + -c + -q*c + q*c^2)"),
        # a denominator in q alone that does not divide the numerator
        ("phi[2,1]{a, q^-2 ; q^3 ; q}",
         "(a^2 + -q^3*a + -q^4*a + q^7) / (1 + -q^3 + -q^4 + q^7)"),
        ("phi[2,1]{c, q^-2 ; c ; q}", "0"),
    ]:
        result = run_cli("phi", spec)
        assert result.returncode == 0, spec
        assert result.stdout == printed + "\n", spec


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


DEFAULT_REPORT_SHA256 = "e95bfb246eb9106618e626b0227133d7408f5d48eb7ca5333cbc1828a769c098"


def test_default_report_bytes():
    """The full default report is pinned byte for byte (694 cases)."""
    result = run_cli("verify", "--suite", "all", "--format", "json")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DEFAULT_REPORT_SHA256


ACCEPTANCE_REPORT_SHA256 = "27580344bb5da5e3f88bb30e0ce47409b84e30a34ca983778dfbbb91b893a3d2"


def test_acceptance_report_bytes(capsys):
    """The report at the acceptance bounds is pinned byte for byte (1571 cases)."""
    argv = ["verify", "--suite", "all", "--nmax", "6", "--mmax", "9", "--pmax", "13",
            "--rmax", "3", "--format", "json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ACCEPTANCE_REPORT_SHA256


def _qck_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "qck"]


def _default_report_in_process(capsys) -> str:
    for value in (v for m in _qck_modules() for v in vars(m).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()  # nothing computed by the other kernel is reused
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
    # sends every division through the graded long division.
    monkeypatch.setattr(exactalg, "_q_groups", lambda terms: None)
    monkeypatch.setattr(exactalg, "_divide_in_q", None)
    plain = _default_report_in_process(capsys)
    assert plain == fast
    assert hashlib.sha256(fast.encode()).hexdigest() == DEFAULT_REPORT_SHA256
