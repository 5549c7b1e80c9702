"""Command line front end.

Subcommands: verify (run suites or a manifest), phi (evaluate a terminating
series spec), delannoy (tables), congruence (the thm2 cases at one prime) and
positivity (the thm3 claims over an m, n, r grid).  congruence and positivity
run their cases through the same runner and report as verify.  Exit codes:
0 all checks passed, 1 at least one mathematical check failed, 2 usage or
configuration error, or a case that raised (a term-budget abort, say) instead
of reaching a verdict.  Reports are emitted in canonical case order and are
byte-identical for identical configurations, with or without --parallel.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import congruence, delannoy, hyperg, suites
from .exactalg import TermBudgetExceeded, exact_divide

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


def _emit(records, fmt: str, out_path) -> str:
    if fmt == "json":
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "params", "passed", "difference"])
        for r in records:
            params = ";".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
            writer.writerow([r["name"], params, r["passed"], r["difference"]])
        text = buf.getvalue()
    else:
        lines = []
        for r in records:
            if r["passed"]:
                lines.append(f"PASS {_label(r)}")
            else:
                lines.append(f"FAIL {_label(r)} difference={r['difference']}")
        failed = sum(1 for r in records if not r["passed"])
        lines.append(f"{len(records)} cases, {failed} failed")
        text = "\n".join(lines) + "\n"
    _write(text, out_path)
    return text


def _finish(records, fmt, out) -> int:
    """Emit the report; a case that raised is an error (exit 2), not a verdict."""
    _emit(records, fmt, out)
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


def _bound_error(args):
    """The error for the first grid bound of args out of range, or None.

    A negative bound is always an error, a bound above its hard cap only
    without --unsafe-bounds.  --p must also pass the congruence cases' own
    rule, ``congruence.odd_prime``, so a value they would reject never runs.
    """
    for key, cap in dict(suites.HARD_CAPS, p=suites.HARD_CAPS["pmax"]).items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if value < 0:
            return f"--{key} {value} is negative"
        if value > cap and not args.unsafe_bounds:
            return f"--{key} {value} above hard cap {cap}; pass --unsafe-bounds to override"
    p = getattr(args, "p", None)
    if p is not None and not congruence.odd_prime(p):
        return f"--p {p} is not an odd prime <= {congruence.PRIME_CAP}"
    return None


def cmd_verify(args) -> int:
    bounds = {"nmax": args.nmax, "mmax": args.mmax, "pmax": args.pmax,
              "rmax": args.rmax, "p": args.p, "seed": args.seed}
    try:
        if args.manifest:
            with open(args.manifest) as fh:
                cases = suites.manifest_cases(json.load(fh))
        else:
            cases = suites.suite_cases(args.suite, bounds)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    records = suites.run_cases(cases, parallel=args.parallel)
    return _finish(records, args.format, args.out)


def cmd_phi(args) -> int:
    try:
        spec = hyperg.parse_phi(args.expr)
    except hyperg.PhiParseError as exc:
        print(f"parse error: line 1, column {exc.offset + 1}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except hyperg.PhiSpecError as exc:
        print(f"invalid series: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        num, den = hyperg.phi_sum_cleared(spec)
        whole = exact_divide(num, den)
    except ValueError as exc:  # an exponent leaving the kernel's range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if whole is not None:
        print(whole)
    else:
        print(f"({num}) / ({den})")
    return EXIT_OK


def cmd_delannoy(args) -> int:
    try:
        rows = delannoy.build_table(args.q_analogue, args.m, args.n)
    except (ValueError, delannoy.DelannoyMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m\\n"] + list(range(args.n + 1)))
        writer.writerows([m] + [str(v) for v in row] for m, row in enumerate(rows))
        text = buf.getvalue()
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
    return _finish(suites.run_cases(cases), args.format, args.out)


def cmd_positivity(args) -> int:
    """The thm3 cases of the positivity suite over an m <= mmax, n <= nmax, r <= rmax grid."""
    cases = list(suites.thm3_cases(args.mmax, args.nmax, args.rmax))
    return _finish(suites.run_cases(cases), args.format, args.out)


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
    pv.add_argument("--suite", choices=suites.SUITE_NAMES, default="all")
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

    pp = sub.add_parser("phi", help="evaluate a terminating series spec")
    pp.add_argument("expr", help='e.g. "phi[2,1]{a, q^-2 ; c ; q}"')
    pp.set_defaults(fn=cmd_phi)

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
    error = _bound_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except TermBudgetExceeded as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
