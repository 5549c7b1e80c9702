"""The traced run: per-layer metrics of one workload, measured in-process.

The run times `import qck.cli` in fresh interpreters, then executes the workload's case
list serially three times through `suites.run_case`, each time with the
package's caches cleared, as in a fresh process:

1. untraced, for the wall time the tracing overhead is measured against;
2. traced, with the wrappers of `tracing` installed, for every layer metric;
3. for a parallel workload, on the process pool, where each worker records a
   span around every `run_case` for the pool metrics.

Both serial reports must be byte-identical to each other and to the expected
report; the pool report must be byte-identical to the expected report.  The
kernel micro-benchmarks run last, on operands captured from real cases.
"""

from __future__ import annotations

import functools
import glob
import os
import statistics
import subprocess
import sys
import time

import tracing
from workloads import POOL_WORKERS, clean_env, count_failed, pin_pool, report_text

# Micro-benchmark repetitions: at least MICRO_MIN_S of calls, and at least
# MICRO_REPEATS calls unless they would take longer than MICRO_MAX_S.
MICRO_REPEATS = 3
MICRO_MIN_S = 0.5
MICRO_MAX_S = 2.0

# `import qck.cli` is timed in this many fresh interpreters.
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qck.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time of `import qck.cli` in a fresh interpreter, clean environment."""
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=clean_env(),
                                  capture_output=True, text=True, check=True).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def clear_caches():
    """Empty every function cache in the qck package, behind wrappers too."""
    for module in tracing.qck_modules():
        for value in vars(module).values():
            while value is not None:
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
                value = getattr(value, "__wrapped__", None)


def hit_ratio(*cached) -> float:
    hits = sum(f.cache_info().hits for f in cached)
    misses = sum(f.cache_info().misses for f in cached)
    return hits / (hits + misses) if hits + misses else 0.0


def serial_pass(suites, cases):
    clear_caches()
    started = time.perf_counter()
    records = [suites.run_case(c) for c in cases]
    return records, time.perf_counter() - started


def pool_pass(suites, cases, span_dir):
    """Run the cases on the pool; each worker appends `start end` per case to a file."""
    clear_caches()
    orig = suites.run_case

    @functools.wraps(orig)
    def run_case(case):
        start = time.perf_counter()
        try:
            return orig(case)
        finally:
            end = time.perf_counter()
            with open(os.path.join(span_dir, f"worker-{os.getpid()}.tsv"), "a") as fh:
                fh.write(f"{start!r}\t{end!r}\t{case[0]}\n")

    with tracing.patched(suites, "run_case", run_case), \
            tracing.patched(suites, "ProcessPoolExecutor", pin_pool(suites)):
        started = time.perf_counter()
        records = suites.run_cases(cases, parallel=True)
        ended = time.perf_counter()
    busy = 0.0
    last_ends = []
    for path in glob.glob(os.path.join(span_dir, "worker-*.tsv")):
        with open(path) as fh:
            spans = [line.split("\t") for line in fh]
        busy += sum(float(e) - float(s) for s, e, _ in spans)
        last_ends.append(max(float(e) for _, e, _ in spans))
    wall = ended - started
    return records, {
        "suites.pool.busy_share": busy / (POOL_WORKERS * wall),
        "suites.pool.tail_s": ended - min(last_ends),
    }


def _timed(fn) -> float:
    """Median seconds of fn() over the repetitions set above."""
    times = []
    while (not times or sum(times) < MICRO_MIN_S
           or (len(times) < MICRO_REPEATS and sum(times) < MICRO_MAX_S)):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _largest_product(qck, build, want_multi):
    """Operands of the largest product (by term pairs) made while build() runs."""
    poly = qck.exactalg.MultiLaurentPoly
    best = [0, None, None]
    orig = poly.__mul__

    def capture(a, b):
        if isinstance(b, poly) and len(a) * len(b) > best[0]:
            if (len(set(a.variables()) | set(b.variables())) > 1) == want_multi:
                best[:] = [len(a) * len(b), a, b]
        return orig(a, b)
    with tracing.patched(poly, "__mul__", capture), \
            tracing.patched(poly, "__rmul__", capture):
        build()
    return best[1], best[2]


def micro_benchmarks(qck) -> dict:
    """Kernel timings on fixed operands captured through the public API."""
    clear_caches()
    exactalg = qck.exactalg
    a, b = _largest_product(qck, lambda: qck.identities.clausen_orr_sides(6), True)
    u, v = _largest_product(qck, lambda: qck.congruence.verify_thm2(13, 39), False)
    uv = u * v
    sides = qck.identities.general_s_sides(5, 5)
    binding = {"a": qck.qkit.ParamExpr.of(-1, {"q": -5})}
    return {
        "exactalg.micro.mul_multi_s": _timed(lambda: a * b),
        "exactalg.micro.mul_uni_s": _timed(lambda: u * v),
        "exactalg.micro.exact_divide_s": _timed(lambda: exactalg.exact_divide(uv, v)),
        "exactalg.micro.substitute_s": _timed(
            lambda: [s.substitute(binding) for s in sides]),
    }


def run(workload, cases, records_expected, workdir, kinds) -> tuple:
    """Traced run of one workload.  Returns (metrics, attempted, failed, info)."""
    import_s = import_seconds()
    import qck.cli
    from qck import delannoy, exactalg, qkit, suites
    import qck

    cases = [tuple(c) for c in cases]

    untraced, wall_untraced = serial_pass(suites, cases)

    tracer = tracing.Tracer()
    tracing.install_kernel(tracer, exactalg)
    tracing.install_layers(tracer, qck)
    tracing.install_cases(tracer, suites)
    try:
        traced, wall_traced = serial_pass(suites, cases)
    finally:
        tracer.remove()
    qbinomial_ratio = hit_ratio(qkit.qbinomial)
    qbinomial_misses = qkit.qbinomial.cache_info().misses
    dq_ratio = hit_ratio(delannoy.dq, delannoy.dq_star, delannoy.dq_inverse_base)

    report = os.path.join(workdir, "traced-report.json")
    emit_started = time.perf_counter()
    qck.cli._emit(traced, "json", report)
    emit_s = time.perf_counter() - emit_started
    with open(report) as fh:
        traced_text = fh.read()
    failed = count_failed(traced_text, records_expected)
    if report_text(untraced) != traced_text:
        failed = len(cases)

    by_name = tracer.by_name("")

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    pairs = tracer.counts.get("mul_multi.term_pairs", 0)
    metrics = {
        "exactalg.mul_multi.calls": calls("exactalg.mul_multi"),
        "exactalg.mul_multi.term_pairs": pairs,
        "exactalg.mul_multi.fill":
            tracer.counts.get("mul_multi.out_terms", 0) / pairs if pairs else 0.0,
        "exactalg.mul_multi.s": seconds("exactalg.mul_multi"),
        "exactalg.mul_uni.calls": calls("exactalg.mul_uni"),
        "exactalg.mul_uni.coeff_pairs": tracer.counts.get("mul_uni.coeff_pairs", 0),
        "exactalg.mul_uni.s": seconds("exactalg.mul_uni"),
    }
    for group in ("exactalg.add", "exactalg.exact_divide", "exactalg.substitute",
                  "exactalg.divrem_in_q", "qkit.poch", "identities.sides"):
        metrics[f"{group}.calls"] = tracer.group_calls(group)
        metrics[f"{group}.s"] = tracer.group_time(group)
    for group in ("hyperg.phi_sum_cleared", "delannoy", "congruence.thm2_lhs",
                  "congruence.witness", "positivity.thm3"):
        metrics[f"{group}.s"] = tracer.group_time(group)
    metrics.update({
        "exactalg.peak_terms": tracer.peak_terms,
        "qkit.qbinomial.hit_ratio": qbinomial_ratio,
        "qkit.qbinomial.misses": qbinomial_misses,
        "delannoy.dq.hit_ratio": dq_ratio,
        "identities.sides.distinct": len(tracer.sides_distinct),
    })
    for kind in kinds:
        metrics[f"suites.kind.{kind}.s"] = seconds(f"suites.kind.{kind}")
    metrics.update({
        "suites.slowest_case_s": tracer.longest("suites.kind."),
        "suites.cases": len(cases),
        "suites.failed": sum(1 for r in traced if not r["passed"]),
        "suites.pool.busy_share": 0.0,
        "suites.pool.tail_s": 0.0,
        "cli.import_s": import_s,
        "cli.emit_s": emit_s,
        "trace.overhead_share": (wall_traced - wall_untraced) / wall_untraced,
    })
    tracer.write(os.path.join(workdir, "spans"))
    self_times = sorted(((v[2], n) for n, v in by_name.items()), reverse=True)
    info = {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
            "spans": len(tracer.span_start),
            "top_self_s": [[n, s] for s, n in self_times[:8]]}
    del tracer

    if workload.parallel:
        pooled, pool_metrics = pool_pass(suites, cases, workdir)
        metrics.update(pool_metrics)
        failed = max(failed, count_failed(report_text(pooled), records_expected))
    metrics.update(micro_benchmarks(qck))
    return metrics, len(cases), failed, info
