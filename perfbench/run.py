"""The qck benchmark: `qck verify` on three workloads, end to end and per layer.

One run, from the root of a source checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

With `--trace 0` it starts the real command line (`perfbench/qck_cli.py`) as a
child process, over and over until `--seconds` have passed, and reports the
medians of wall time, CPU time (the process and its pool workers), peak RSS and
set-up time, plus the share of cases that passed.  Set-up time is the same
command over a trivial manifest.  Every report is checked against the expected
one (see `workloads.py`).

With `--trace 1` it runs the workload in-process with every layer wrapped (see
`traced.py`) and reports the per-layer metrics named in BENCHMARK.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

`--all` runs every workload `--runs` times untraced and `--traced-runs` times
traced, each in a fresh process with its own seed, prints the median and
quartiles of every metric by name and unit, and with `--out` writes them with
a record of the machine.  `--write-golden` regenerates `golden/*.json` from
serial runs at seed 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads
from workloads import WORKLOADS, clean_env, count_failed, write_manifest

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "qck_cli.py")
RUNS_DIR = ".perfbench_runs"
# Set-up is timed SETUP_REPEATS times, half before and half after the timed
# invocations, so that its median spans the whole run.
SETUP_REPEATS = 16
# A run must end within 180 s; no single invocation may run past this.
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "pass_share": "ratio"}


def benchmark_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def source_present() -> bool:
    return os.path.isfile(os.path.join("src", "qck", "cli.py"))


class Invocation:
    """One child process: its exit code, wall and CPU seconds, peak RSS in MB."""

    def __init__(self, argv, env, workdir, timeout):
        log = os.path.join(workdir, "stderr.log")
        with open(log, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, LAUNCHER] + argv, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - started
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crash, if any
        # wait4 reports the child together with the descendants it waited for.
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _read_report(path, invocation):
    if invocation.returncode != 0 or not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    started = time.perf_counter()
    env = clean_env()
    cases, expected = workload.expected(seed)
    manifest = os.path.join(workdir, "manifest.json")
    write_manifest(cases, manifest)
    trivial = os.path.join(workdir, "trivial.json")
    write_manifest(workloads.TRIVIAL_CASES, trivial)
    out = os.path.join(workdir, "report.json")

    def invoke(argv, expected_records):
        if os.path.exists(out):
            os.remove(out)
        timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started))
        inv = Invocation(argv, env, workdir, timeout)
        return inv, count_failed(_read_report(out, inv), expected_records)

    attempted = failed = 0
    setup = []

    def time_setup(count):
        nonlocal attempted, failed
        for _ in range(count):
            inv, bad = invoke(workload.setup_argv(seed, trivial, out),
                              workloads.TRIVIAL_RECORDS)
            setup.append(inv.wall_s)
            attempted += len(workloads.TRIVIAL_RECORDS)
            failed += bad

    time_setup(SETUP_REPEATS // 2)
    runs = []
    timed_from = time.perf_counter()
    while not runs or time.perf_counter() - timed_from < seconds:
        inv, bad = invoke(workload.verify_argv(seed, manifest, out), expected)
        runs.append(inv)
        attempted += len(expected)
        failed += bad
        if bad:
            break
    time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    return {
        "attempted": attempted, "failed": failed,
        "invocations": len(runs),
        "metrics": {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "pass_share": 1.0 - failed / attempted,
        },
    }


def per_layer_units(spec) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def traced_run(workload, seed: int, workdir: str, spec) -> dict:
    sys.path.insert(0, os.path.abspath("src"))
    import traced
    units = per_layer_units(spec)
    kinds = [n[len("suites.kind."):-len(".s")] for n in units if n.startswith("suites.kind.")]
    cases, expected = workload.expected(seed)
    metrics, attempted, failed, info = traced.run(workload, cases, expected, workdir, kinds)
    if set(metrics) != set(units):
        raise RuntimeError(f"traced metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def one_run(args) -> int:
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    os.makedirs(RUNS_DIR, exist_ok=True)
    label = f"{'trace' if args.trace else 'run'}-{workload.name}-{args.seed}"
    workdir = os.path.join(RUNS_DIR, label)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(machine_record(), seed=args.seed, seconds=args.seconds)
    if args.trace:
        result = traced_run(workload, args.seed, workdir, spec)
        units = per_layer_units(spec)
    else:
        result = measure(workload, args.seed, args.seconds, workdir)
        env["invocations"] = result["invocations"]
        env["setup_repeats"] = SETUP_REPEATS
        units = E2E_UNITS
        shutil.rmtree(workdir)  # keep only traced runs, whose spans are written there
    env["loadavg_end"] = _loadavg()
    for name, value in result["metrics"].items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name} failed_share {result['failed'] / result['attempted']:.6g} ratio")
    else:
        print("info " + json.dumps(result["info"]))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))
    return 0


def _loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def machine_record() -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "pool_workers": workloads.POOL_WORKERS, "loadavg_start": _loadavg()}


# -- every workload ---------------------------------------------------------------

def quartiles(values) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def _child(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("info "):
            result["info"] = json.loads(line[len("info "):])
    return result


def shape_checks(entries) -> dict:
    """The shape the per-layer metrics must have, where the workload was traced."""
    def layer(workload, metric):
        return entries[workload]["per_layer"][metric]["median"]
    checks = {}
    if entries.get("univariate", {}).get("per_layer"):
        checks["univariate: exactalg.mul_multi.calls is 0"] = \
            layer("univariate", "exactalg.mul_multi.calls") == 0
    if entries.get("symbolic", {}).get("per_layer"):
        checks["symbolic: exactalg.mul_multi has the largest self time"] = all(
            info["top_self_s"][0][0] == "exactalg.mul_multi"
            for info in entries["symbolic"]["traced_info"])
        checks["symbolic: identities.sides.calls > identities.sides.distinct"] = \
            layer("symbolic", "identities.sides.calls") \
            > layer("symbolic", "identities.sides.distinct")
    for name, entry in entries.items():
        checks[f"{name}: failed_share is 0"] = entry["failed"] == 0
    return checks


def run_all(args) -> int:
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    record = {
        "env": dict(machine_record(), runs=args.runs, traced_runs=args.traced_runs,
                    seconds=seconds, setup_repeats=SETUP_REPEATS),
        "workloads": {},
    }
    all_correct = True
    seeds = list(range(1, args.runs + 1))
    for name in WORKLOADS:
        entry = {"seeds": seeds, "end_to_end": {}, "per_layer": {}, "failed": 0,
                 "attempted": 0}
        for trace, count, key in ((0, args.runs, "end_to_end"),
                                  (1, args.traced_runs, "per_layer")):
            results = [_child(name, s, seconds, trace) for s in seeds[:count]]
            for r in results:
                all_correct &= r["correct"]
                entry["failed"] += r["failed"]
                entry["attempted"] += r["attempted"]
            if trace:
                entry["traced_info"] = [r["info"] for r in results]
            for metric in (results[0]["metrics"] if results else {}):
                values = [r["metrics"][metric]["value"] for r in results]
                stats = quartiles(values)
                stats["values"] = values
                stats["unit"] = results[0]["metrics"][metric]["unit"]
                if metric in bounds:
                    stats["bound"] = bounds[metric]
                    stats["unresolved"] = stats["spread"] > bounds[metric]
                entry[key][metric] = stats
        entry["failed_share"] = entry["failed"] / max(entry["attempted"], 1)
        record["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = " UNRESOLVED" if s.get("unresolved") else ""
            print(f"{name} {metric} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']} n {s['n']}{flag}")
        print(f"{name} failed_share {entry['failed_share']:.6g} ratio")
        for metric, s in entry["per_layer"].items():
            print(f"{name} {metric} median {s['median']:.6g} {s['unit']} n {s['n']}")
    record["checks"] = shape_checks(record["workloads"])
    for text, ok in record["checks"].items():
        print(f"check {text}: {'PASS' if ok else 'FAIL'}")
    record["env"]["loadavg_end"] = _loadavg()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"all reports correct: {all_correct}")
    return 0 if all_correct and all(record["checks"].values()) else 1


def write_golden() -> int:
    """Store the serial report of every workload at seed 0 as its expected report."""
    env = clean_env()
    os.makedirs(RUNS_DIR, exist_ok=True)
    out = os.path.join(RUNS_DIR, "golden-report.json")
    sys.path.insert(0, os.path.abspath("src"))
    from qck import suites
    for workload in WORKLOADS.values():
        bounds = {flag[2:]: value for flag, value in workload.bounds}
        cases = suites.suite_cases(workload.suite, dict(bounds, seed=0))
        serial = dataclasses.replace(workload, parallel=False)
        inv = Invocation(serial.verify_argv(0, None, out), env, RUNS_DIR, 3600)
        with open(out) as fh:
            text = fh.read()
        records = json.loads(text)
        if inv.returncode != 0 or len(records) != len(cases) or any(
                not r["passed"] or r["difference"] != "0" for r in records):
            print(f"{workload.name}: the seed-0 report has failures", file=sys.stderr)
            return 1
        with open(workload.golden_path(), "w") as fh:
            fh.write('{"digest": "%s",\n "entries": [\n' % workloads.digest(text))
            fh.write(",\n".join("  " + json.dumps({"case": c, "record": r}, sort_keys=True)
                                 for c, r in zip(cases, records)))
            fh.write("\n]}\n")
        print(f"{workload.name}: {len(records)} records, serial {inv.wall_s:.1f} s")
    os.remove(out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=2)
    parser.add_argument("--out", default=None, help="with --all: write the results here")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not source_present():
        print("error: run from the root of a qck checkout (src/qck not found)",
              file=sys.stderr)
        return 2
    if args.write_golden:
        return write_golden()
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required for one run")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
