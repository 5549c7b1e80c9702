"""The benchmark's workloads and the check of every report they produce.

Each workload is one `qck verify` invocation.  Its expected report is stored in
`golden/<workload>.json`: the case list and serial report at seed 0, one case
and its record per line, with the digest of that report.
For another seed the expected report is assembled from those records: the
seed enters the parameters of the seeded cases, and for `all-parallel` it
shuffles the case order of the manifest.  A report passes the check only when
it is byte-identical to the expected one; each record that differs, or that is
not `passed: true` with difference `0`, counts as one failed case.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# Width of the process pool for parallel workloads, capped by the core count.
POOL_WORKERS = min(2, os.cpu_count() or 1)


def pin_pool(suites):
    """`suites.ProcessPoolExecutor` with the pool width pinned to POOL_WORKERS."""
    return functools.partial(suites.ProcessPoolExecutor, max_workers=POOL_WORKERS)


def clean_env() -> dict:
    """The caller's environment without QCK_* settings, with src on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QCK_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


@dataclass(frozen=True)
class Workload:
    """One `qck verify` invocation; BENCHMARK.json says why each was chosen."""

    name: str
    suite: str
    bounds: tuple          # (flag, value) pairs passed to `qck verify`
    parallel: bool

    def golden_path(self) -> str:
        return os.path.join(GOLDEN_DIR, f"{self.name}.json")

    def golden(self) -> dict:
        with open(self.golden_path()) as fh:
            return json.load(fh)

    def expected(self, seed: int) -> tuple:
        """(cases, records): the case list for this seed and its serial report.

        A case is a [registry name, params] pair; the record of a case can
        carry another name (lemma41 reports as lemma41_generic).
        """
        entries = []
        for entry in self.golden()["entries"]:
            (name, params), record = entry["case"], dict(entry["record"])
            if "seed" in params:
                params = dict(params, seed=seed)
                record["params"] = dict(record["params"], seed=seed)
            entries.append(((name, params), record))
        if self.parallel:
            random.Random(seed).shuffle(entries)
        return [c for c, _ in entries], [r for _, r in entries]

    def verify_argv(self, seed: int, manifest: str, out: str) -> list:
        """Arguments of `qck verify` for this workload."""
        argv = ["verify"]
        if self.parallel:
            argv += ["--manifest", manifest, "--parallel"]
        else:
            argv += ["--suite", self.suite]
            for flag, value in self.bounds:
                argv += [flag, str(value)]
        return argv + ["--seed", str(seed), "--format", "json", "--out", out]

    def setup_argv(self, seed: int, trivial_manifest: str, out: str) -> list:
        """The same command and flags over a trivial manifest (set-up cost only)."""
        argv = ["verify", "--manifest", trivial_manifest]
        if self.parallel:
            argv.append("--parallel")
        return argv + ["--seed", str(seed), "--format", "json", "--out", out]


WORKLOADS = {w.name: w for w in (
    Workload("symbolic", "transforms", (("--nmax", 6),), False),
    Workload("univariate", "congruence", (("--pmax", 13), ("--mmax", 39)), False),
    Workload("all-parallel", "all",
             (("--nmax", 5), ("--mmax", 8), ("--pmax", 13), ("--rmax", 3)), True),
)}

# Two cheap cases and their report: enough for `--parallel` to start its pool.
TRIVIAL_CASES = [("qbinomial_theorem", {"n": n}) for n in (0, 1)]
TRIVIAL_RECORDS = [
    {"name": name, "params": params, "free_vars": ["q", "x"],
     "passed": True, "difference": "0"} for name, params in TRIVIAL_CASES]


def report_text(records) -> str:
    """A report serialized as `qck verify --format json` writes it."""
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(cases, path: str) -> None:
    with open(path, "w") as fh:
        json.dump([{"name": name, "params": params} for name, params in cases], fh)


def count_failed(actual_text, expected: list) -> int:
    """Cases of the expected report that the actual report does not reproduce.

    ``actual_text`` is None when the run crashed or wrote no report; then every
    case counts as failed, as it does when the report does not parse or has the
    wrong length.
    """
    if actual_text is None:
        return len(expected)
    if actual_text == report_text(expected):
        return 0
    try:
        actual = json.loads(actual_text)
    except json.JSONDecodeError:
        return len(expected)
    if not isinstance(actual, list) or len(actual) != len(expected):
        return len(expected)
    bad = sum(1 for a, e in zip(actual, expected)
              if a != e or a.get("passed") is not True or a.get("difference") != "0")
    # Equal records that still serialize differently are a byte-level failure.
    return bad or len(expected)
