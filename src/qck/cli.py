"""Command line front end.

Subcommands: verify (run suites or a manifest), delannoy (tables), congruence
(the thm2 cases at one prime) and positivity (the thm3 claims over an m, n, r
grid).  congruence and positivity run their cases through the same runner and
report as verify.  Exit codes: 0 all checks passed, 1 at least one mathematical
check failed, 2 usage or configuration error, a run with no cases or a grid
bound that empties one family of cases, a --parallel pool broken by a worker
killed from outside (the OOM killer, say), or a case that raised (a term-budget
abort, say) instead of a verdict: an ERROR line, or ``error`` in a CSV row's
passed cell.  A subcommand
raises on error; the one except ladder in ``main`` maps each error it knows to
one stderr line and exit 2, and lets any other exception (a bug) propagate.
Reports list their records in case order, whatever order the cases ran in, and
are byte-identical for identical configurations, with or without --parallel.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import BrokenExecutor

from . import congruence, delannoy, suites
from .exactalg import TermBudgetExceeded

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _write(text: str, out_path) -> None:
    """Write text to out_path, or to stdout when no path is given."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _label(record) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(record["params"].items()))
    return f"{record['name']}({params})"


def _csv(header, rows) -> str:
    """The header and then each row as one CSV line."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _emit(records, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _csv(["name", "params", "passed", "difference"], (
            [r["name"], ";".join(f"{k}={v}" for k, v in sorted(r["params"].items())),
             "error" if "error" in r else r["passed"], r.get("error", r["difference"])]
            for r in records))
    else:
        lines = [f"ERROR {_label(r)} {r['error']}" if "error" in r
                 else f"PASS {_label(r)}" if r["passed"]
                 else f"FAIL {_label(r)} difference={r['difference']}" for r in records]
        errors = sum("error" in r for r in records)
        failed = sum(not r["passed"] for r in records) - errors
        lines.append(f"{len(records)} cases, {failed} failed"
                     + (f", {errors} errors" if errors else ""))
        text = "\n".join(lines) + "\n"
    _write(text, out_path)


def _run(cases, args, parallel=False) -> int:
    """Run and report the cases; no case at all, or one that raised, is an error (exit 2)."""
    if not cases:
        raise ValueError("no cases to run")
    records = suites.run_cases(cases, parallel=parallel)
    _emit(records, args.format, args.out)
    errors = [r for r in records if "error" in r]
    if errors:
        print(f"error: {_label(errors[0])}: {errors[0]['error']}", file=sys.stderr)
        return EXIT_USAGE
    failures = [r for r in records if not r["passed"]]
    if failures:
        print(f"FAILED: {_label(failures[0])} difference={failures[0]['difference']}",
              file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _check_bounds(args) -> None:
    """Raise ValueError for --suite or a grid bound beside --manifest, or a bound out of range.

    A negative bound is always an error, a bound above its hard cap only
    without --unsafe-bounds.  --p must also pass the congruence cases' own
    rule, ``congruence.odd_prime``, so a value they would reject never runs.
    """
    manifest = getattr(args, "manifest", None)
    if manifest and getattr(args, "suite", None) is not None:
        raise ValueError("--suite with --manifest: a manifest names its own cases")
    for key, cap in dict(suites.HARD_CAPS, p=suites.HARD_CAPS["pmax"]).items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if manifest:
            raise ValueError(f"--{key} with --manifest: a manifest's cases carry their own "
                             "parameters")
        if value < 0:
            raise ValueError(f"--{key} {value} is negative")
        if value > cap and not args.unsafe_bounds:
            raise ValueError(f"--{key} {value} above hard cap {cap}; pass --unsafe-bounds to "
                             "override")
    p = getattr(args, "p", None)
    if p is not None and not congruence.odd_prime(p):
        raise ValueError(f"--p {p} is not an odd prime <= {congruence.PRIME_CAP}")


def _whole_grid(grid, bounds: dict) -> list:
    """grid(bounds); ValueError for a bound below its ``suites.DEFAULT_BOUNDS`` value that,
    raised to it, adds a family: every family has cases there, and grids grow with a bound."""
    cases = list(grid(bounds))  # an empty grid is _run's "no cases" error
    ref = suites.DEFAULT_BOUNDS
    for key in [k for k, v in ref.items() if cases and bounds.get(k) in range(v or 0)]:
        gone = {n for n, _ in grid(dict(bounds, **{key: ref[key]}))} - {n for n, _ in cases}
        if gone:
            raise ValueError(f"--{key} {bounds[key]} leaves {', '.join(sorted(gone))} "
                             "with no cases")
    return cases


def cmd_verify(args) -> int:
    bounds = {key: getattr(args, key) for key in suites.DEFAULT_BOUNDS}
    if args.manifest:
        with open(args.manifest) as fh:
            cases = suites.manifest_cases(json.load(fh))
    else:
        cases = _whole_grid(lambda b: suites.suite_cases(args.suite or "all", b), bounds)
    return _run(cases, args, args.parallel)


def cmd_delannoy(args) -> int:
    rows = delannoy.build_table(args.q_analogue, args.m, args.n)
    if args.format == "csv":
        text = _csv(["m\\n", *range(args.n + 1)],
                    ([m, *map(str, row)] for m, row in enumerate(rows)))
    elif args.format == "json":
        text = json.dumps({
            "kind": args.q_analogue, "max_m": args.m, "max_n": args.n,
            "entries": [[str(v) for v in row] for row in rows],
        }, indent=2, sort_keys=True) + "\n"
    else:
        text = f"{rows[args.m][args.n]}\n"
    _write(text, args.out)
    return EXIT_OK


def cmd_congruence(args) -> int:
    """The thm2 cases of the congruence suite at one prime."""
    cases = [c for c in suites.suite_cases("congruence", {"p": args.p, "mmax": args.mmax})
             if c[0] == "thm2"]
    return _run(cases, args)


def cmd_positivity(args) -> int:
    """The thm3 cases of the positivity suite over an m <= mmax, n <= nmax, r <= rmax grid."""
    cases = _whole_grid(lambda b: suites.thm3_cases(b["mmax"], b["nmax"], b["rmax"]), vars(args))
    return _run(cases, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qck",
        description="Exact verification of q-series identities, congruences, and positivity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--unsafe-bounds", action="store_true",
                       help="lift the hard caps on grid bounds")

    pv = sub.add_parser("verify", help="run a verification suite or manifest")
    pv.add_argument("--suite", choices=suites.SUITE_NAMES, default=None,
                    help="suite to run (default: all)")
    pv.add_argument("--manifest", default=None, help="JSON case list to run instead")
    pv.add_argument("--nmax", type=int, default=None)
    pv.add_argument("--mmax", type=int, default=None)
    pv.add_argument("--pmax", type=int, default=None)
    pv.add_argument("--rmax", type=int, default=None)
    pv.add_argument("--p", type=int, default=None,
                    help="restrict the congruence suite to a single prime")
    pv.add_argument("--parallel", action="store_true",
                    help="fan cases out to a process pool (report unchanged)")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property sampling")
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    pd = sub.add_parser("delannoy", help="Delannoy tables and q-analogues")
    pd.add_argument("--m", type=int, required=True)
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--q-analogue", dest="q_analogue", default="plain",
                    choices=("plain", "dq", "dqstar", "product-rhs"))
    common(pd)
    pd.set_defaults(fn=cmd_delannoy)

    pc = sub.add_parser("congruence", help="bracket congruences for one prime")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--mmax", type=int, default=9)
    common(pc, formats=("text", "json"))
    pc.set_defaults(fn=cmd_congruence)

    pq = sub.add_parser("positivity", help="positivity certificates over a grid")
    pq.add_argument("--mmax", type=int, default=3)
    pq.add_argument("--nmax", type=int, default=3)
    pq.add_argument("--rmax", type=int, default=1)
    common(pq, formats=("text", "json"))
    pq.set_defaults(fn=cmd_positivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _check_bounds(args)
        return args.fn(args)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # only --manifest reads a file
        message = f"error: manifest {args.manifest} is not JSON: {exc}"
    except TermBudgetExceeded as exc:
        message = f"aborted: {exc}"
    except (ValueError, OSError, delannoy.DelannoyMismatchError, BrokenExecutor) as exc:
        message = f"error: {exc}"  # an unwritable --out, a killed worker: errors, not verdicts
    print(message, file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
