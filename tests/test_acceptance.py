"""Acceptance criteria, one test per criterion, at the full stated bounds.

All checks are exact (equality to zero in the Laurent ring); there is no
numerical tolerance anywhere.  Each test prints one PASS/FAIL line.
"""

import json
import subprocess
import sys
import time

import pytest

from qck import congruence, delannoy, hyperg, identities, positivity, suites


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


def _finish(announce, number, label, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({failures})"
    announce(f"ACCEPTANCE {number:>2} {status} {label} [{elapsed:.1f}s]")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_01_clausen_orr_core(announce):
    started = time.perf_counter()
    failures = [n for n in range(7) if not identities.verify_clausen_orr(n).passed]
    elapsed = time.perf_counter() - started
    assert elapsed <= 60, f"runtime budget exceeded: {elapsed:.1f}s"
    _finish(announce, 1, "product formula, symbolic a,x,c, n <= 6", failures, started)


def test_criterion_02_corollaries(announce):
    started = time.perf_counter()
    failures = []
    failures += [("final_square", n) for n in range(7)
                 if not identities.verify_final_square(n).passed]
    failures += [("sqrt_corollary", m) for m in range(7)
                 if not identities.verify_sqrt_corollary(m).passed]
    _finish(announce, 2, "squared form n <= 6, root-free split m <= 6", failures, started)


def test_criterion_03_companion_products(announce):
    started = time.perf_counter()
    failures = []
    failures += [("special3", n) for n in range(7)
                 if not identities.verify_special3(n).passed]
    failures += [("special222", n) for n in range(7)
                 if not identities.verify_special222(n).passed]
    _finish(announce, 3, "(x;q^2) product and two-variable transform, n <= 6",
            failures, started)


def test_criterion_04_shifted_forms(announce):
    started = time.perf_counter()
    failures = []
    for n in range(8):  # past the suite's shifted cap n <= 5
        for s in range(n + 1):
            if not identities.verify_general_s(n, s).passed:
                failures.append(("general_s", n, s))
            if not identities.verify_q2_product(n, s).passed:
                failures.append(("q2_product", n, s))
            if not identities.verify_general_s_specialization(n, s).passed:
                failures.append(("specialization", n, s))
            if not identities.verify_special3_shifted(n, s).passed:
                failures.append(("special3_shifted", n, s))
    _finish(announce, 4, "shifted forms with a = -q^-n cross-check, s <= n <= 7",
            failures, started)


def test_criterion_05_lemmas(announce):
    started = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for m in range(0, n):
            for h in range(1, n - m + 1):
                if not identities.verify_lemma_last(n, m, h).passed:
                    failures.append(("lemma_last", n, m, h))
                if not identities.verify_lemma_am2(n, m, h).passed:
                    failures.append(("lemma_am2", n, m, h))
    for n in range(1, 7):
        if not identities.verify_lem_important2(n).passed:
            failures.append(("lem_important2", n))
    for n in range(5):
        for m in range(n + 1):
            if not identities.connection_coefficients(n, m).passed:
                failures.append(("connection", n, m))
    _finish(announce, 5, "double-sum lemmas and connection coefficients", failures, started)


def test_criterion_06_q_delannoy(announce):
    started = time.perf_counter()
    failures = []
    for m in range(9):
        for n in range(9):
            if delannoy.dq_alt(m, n) != delannoy.dq(m, n):
                failures.append(("alt", m, n))
            if delannoy.dq_star_alt(m, n) != delannoy.dq_star(n, m):
                failures.append(("star_alt", m, n))
            if not delannoy.product_expansion(m, n).passed:
                failures.append(("product", m, n))
            d = delannoy.delannoy(m, n)
            if delannoy.dq(m, n).substitute({"q": 1}) != d:
                failures.append(("q1", m, n))
            if delannoy.dq_star(m, n).substitute({"q": 1}) != d:
                failures.append(("q1*", m, n))
    if delannoy.delannoy(2, 2) != 13 or delannoy.delannoy(3, 3) != 63:
        failures.append("recurrence-oracle values")
    _finish(announce, 6, "q-Delannoy expansions and product formula, m,n <= 8",
            failures, started)


def test_criterion_07_congruences(announce):
    started = time.perf_counter()
    failures = []
    cases_seen = set()
    for p in (3, 5, 7, 11, 13):
        if not congruence.verify_minus_q_pochhammer(p).passed:
            failures.append(("minus_q", p))
        for m in range(1, 3 * p + 1):
            cases_seen.add(congruence.thm2_case(p, m))
            if not congruence.verify_thm2(p, m).passed:
                failures.append(("thm2", p, m))
    if cases_seen != {"zero", "minus_one", "other"}:
        failures.append(("cases", cases_seen))
    for p in (3, 5, 7):
        for m in range(1, 11):
            try:
                congruence.thm2_lhs(p, m)
            except congruence.Thm2MismatchError:
                failures.append(("routes", p, m))
    elapsed = time.perf_counter() - started
    assert elapsed <= 300, f"runtime budget exceeded: {elapsed:.1f}s"
    _finish(announce, 7, "bracket congruences p in {3..13}, m <= 3p", failures, started)


def test_criterion_08_positivity(announce):
    started = time.perf_counter()
    failures = []
    for m in range(1, 7):
        for n in range(1, 7):
            grid = [("thm3-1", 1)] + [(c, r) for c in ("thm3-2", "thm3-3")
                                      for r in (1, 2)]
            if m <= 4 and n <= 4:
                grid += [(c, 3) for c in ("thm3-2", "thm3-3")]
            for claim, r in grid:
                if not positivity.verify_thm3(claim, m, n, r).passed:
                    failures.append((claim, m, n, r))
    for k in range(7):
        for i in range(k + 1):
            for j in range(k + 1):
                if not positivity.verify_schmidt(k, i, j).passed:
                    failures.append(("schmidt", k, i, j))
    for n in range(1, 7):
        for s in range(n):
            if not positivity.verify_alternating_sum(n, s).passed:
                failures.append(("alternating", n, s))
    for n in range(1, 5):
        for r in (1, 2):
            if not positivity.lemma41_generic(n, r).passed:
                failures.append(("lemma41", n, r))
    _finish(announce, 8, "positivity certificates and linearization machinery",
            failures, started)


def test_criterion_09_classical_summations(announce):
    started = time.perf_counter()
    failures = []
    for n in range(9):
        if not hyperg.check_qbinomial_theorem(n).passed:
            failures.append(("qbinomial", n))
        if not hyperg.check_qchu_vandermonde(n).passed:
            failures.append(("qchu", n))
    _finish(announce, 9, "q-binomial theorem and q-Chu-Vandermonde, n <= 8",
            failures, started)


def test_criterion_10_cli_contract(announce, tmp_path):
    import os
    started = time.perf_counter()
    failures = []

    def cli(*args, **env_extra):
        env = dict(os.environ)
        env.update(env_extra)
        return subprocess.run([sys.executable, "-m", "qck.cli", *args],
                              capture_output=True, text=True, env=env)

    if cli("verify", "--suite", "clausen", "--nmax", "2").returncode != 0:
        failures.append("exit-0")
    manifest = tmp_path / "corrupted.json"
    cases = suites.suite_cases("clausen", {"nmax": 1}) + [("corrupted_fixture", {})]
    manifest.write_text(json.dumps([{"name": n, "params": p} for n, p in cases]))
    corrupted = cli("verify", "--manifest", str(manifest))
    if corrupted.returncode != 1 or "difference=" not in corrupted.stdout:
        failures.append("exit-1-with-difference")
    if cli("verify", "--suite", "wrong").returncode != 2:
        failures.append("exit-2")
    args = ("verify", "--suite", "transforms", "--nmax", "3", "--format", "json")
    serial = cli(*args)
    parallel = cli(*args, "--parallel")
    if serial.stdout != parallel.stdout or serial.returncode != 0:
        failures.append("parallel-determinism")
    records = json.loads(serial.stdout)
    if not all(r["passed"] for r in records):
        failures.append("transform-suite")
    _finish(announce, 10, "CLI exit codes and deterministic reports", failures, started)
