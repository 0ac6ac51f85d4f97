"""Command-line front end: ``hurmono sheets|report|verify FLAG...`` (see ``USAGE``).

Grammar: a command, then its flags in any order, each ``--flag value`` or
``--flag=value``.  A repeated flag keeps its last value, a token starting
with ``--`` is never a value, and long flags are spelled in full.  ``-h`` or
``--help`` anywhere prints ``USAGE`` and exits 0.  ``COMMANDS`` holds each
command's function, its flags with their defaults (``False`` for a switch)
and its required flags.  Spaces: ``--degrees 2,1 --genera 1,0 --profiles
"2,1;2,1;2,1;2,1"`` (``--profiles "2,1^4"`` is accepted sugar).  Exit codes:
0 success (including empty spaces), 1 verification failure, 2 usage or parse
error (or a ``verify`` that selects no rows), 3 enumeration guard exceeded.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from types import SimpleNamespace

from .golden import (
    GoldenParseError,
    default_rows,
    format_expect,
    load_golden_file,
    parse_int_csv,
    parse_profiles,
    spec_line,
    verify_all,
)
from .marked import (
    HurwitzSpec,
    SpecError,
    marked_fiber_str,
    marked_tuple_json,
    marked_tuple_str,
)
from .moves import BOUNDARY_LABELS, ComponentReport, build_sheet_graph, components
from .perms import TooLargeError, partition_str, perm_str
from .sheets import enumerate_sheets

SCHEMA_VERSION = 1


def _spec_from_args(args) -> HurwitzSpec:
    """Build the spec, naming the offending flag on parse errors."""
    fields = {}
    for name in ("degrees", "genera", "profiles"):
        text = getattr(args, name)
        try:
            fields[name] = parse_profiles(text) if name == "profiles" else parse_int_csv(text, name)
        except SpecError as exc:
            raise SpecError(f"--{name}: {exc}") from None
    try:
        return HurwitzSpec(**fields)
    except SpecError as exc:
        raise SpecError(f"--degrees/--genera/--profiles: {exc}") from None


def _spec_json(spec: HurwitzSpec) -> dict:
    return {
        "degrees": list(spec.degrees),
        "genera": list(spec.genera),
        "profiles": [list(mu) for mu in spec.profiles],
    }


# ---------------------------------------------------------------------------
# sheets


def cmd_sheets(args) -> int:
    spec = _spec_from_args(args)
    sheets = enumerate_sheets(spec)
    out = io.StringIO()
    if args.format == "text":
        for k, t in enumerate(sheets, start=1):
            out.write(f"sheet {k}: {marked_tuple_str(t)}\n")
        out.write(f"total {len(sheets)} sheets\n")
    elif args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_json(spec),
            "count": len(sheets),
            "sheets": [marked_tuple_json(t) for t in sheets],
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sheet", "fiber", "marking"])
        for k, t in enumerate(sheets, start=1):
            for i, (p, lab) in enumerate(zip(t.perms, t.labels), start=1):
                writer.writerow([k, i, marked_fiber_str(p, lab)])
    sys.stdout.write(out.getvalue())
    return 0


# ---------------------------------------------------------------------------
# report


def _nodes_str(nodes) -> str:
    return "".join("(" + partition_str(mu) + ")" for mu in nodes)


def _local_restriction(graph, report: ComponentReport, boundary: str):
    """The sheet permutation restricted to the component, on local indices."""
    order = {sheet: k for k, sheet in enumerate(report.sheet_indices)}
    s = graph.s[boundary]
    return tuple(order[s[sheet]] for sheet in report.sheet_indices)


def _boundary_line(name: str, value) -> str:
    """``  <name> zero=.. one=.. infty=..`` with value(boundary) per label."""
    return f"  {name} " + " ".join(f"{b}={value(b)}" for b in BOUNDARY_LABELS) + "\n"


def _report_json(graph, reports) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": _spec_json(graph.spec),
        "sheet_count": len(graph.perms),
        "boundary_product_is_identity": True,  # build_sheet_graph checks it
        "components": [
            {
                "degree": r.degree,
                "genus": r.genus,
                "ram": {b: list(r.ram[b]) for b in BOUNDARY_LABELS},
                "nodes": {b: [list(mu) for mu in r.nodes[b]] for b in BOUNDARY_LABELS},
                "sheets": [k + 1 for k in r.sheet_indices],
            }
            for r in reports
        ],
    }


def cmd_report(args) -> int:
    spec = _spec_from_args(args)
    graph = build_sheet_graph(spec)
    reports = components(graph)
    out = io.StringIO()
    if args.format == "text":
        for k, r in enumerate(reports, start=1):
            out.write(f"component {k}: degree {r.degree}, genus {r.genus}\n")
            out.write(_boundary_line("ram", lambda b: partition_str(r.ram[b])))
            out.write(_boundary_line("nodes", lambda b: _nodes_str(r.nodes[b])))
            if args.verbose:
                out.write("  sheets: " + ",".join(str(k + 1) for k in r.sheet_indices) + "\n")
                out.write(
                    _boundary_line("s", lambda b: perm_str(_local_restriction(graph, r, b)))
                )
        out.write(f"total {len(graph.perms)} sheets in {len(reports)} components\n")
        if args.verbose:
            # build_sheet_graph raises unless the relation holds
            out.write("s_zero*s_one*s_infty is identity: yes\n")
    elif args.format == "json":
        out.write(json.dumps(_report_json(graph, reports), indent=2, sort_keys=True) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            [
                "component",
                "degree",
                "genus",
                *(f"ram_{b}" for b in BOUNDARY_LABELS),
                *(f"nodes_{b}" for b in BOUNDARY_LABELS),
                "sheets",
            ]
        )
        for k, r in enumerate(reports, start=1):
            writer.writerow(
                [
                    k,
                    r.degree,
                    r.genus,
                    *(partition_str(r.ram[b]) for b in BOUNDARY_LABELS),
                    *(_nodes_str(r.nodes[b]) for b in BOUNDARY_LABELS),
                    " ".join(str(x + 1) for x in r.sheet_indices),
                ]
            )
    sys.stdout.write(out.getvalue())
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.goldens:
        rows = load_golden_file(args.goldens)
    else:
        rows = default_rows()
    summary = verify_all(rows, degree=args.degree)
    if not summary.verdicts:
        where = f" of total degree {args.degree}" if args.degree is not None else ""
        source = args.goldens or "the shipped golden table"
        print(f"error: no rows{where} in {source}", file=sys.stderr)
        return 2
    out = io.StringIO()
    if args.format == "text":
        for v in summary.verdicts:
            line = f"row {v.row.line_no} [{spec_line(v.row.spec)}]"
            if v.passed:
                out.write(f"{line}: PASS\n")
            else:
                out.write(f"{line}: FAIL\n")
                out.write(f"  expected {format_expect(v.row.expected)}\n")
                out.write(f"  computed {format_expect(v.computed) or '(empty)'}\n")
        out.write(f"{summary.n_pass}/{len(summary.verdicts)} pass\n")
    elif args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                {
                    "line": v.row.line_no,
                    "spec": _spec_json(v.row.spec),
                    "expected": [list(t) for t in v.row.expected],
                    "computed": [list(t) for t in v.computed],
                    "passed": v.passed,
                }
                for v in summary.verdicts
            ],
            "pass": summary.n_pass,
            "fail": summary.n_fail,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["line", "spec", "expected", "computed", "status"])
        for v in summary.verdicts:
            writer.writerow(
                [
                    v.row.line_no,
                    spec_line(v.row.spec),
                    format_expect(v.row.expected),
                    format_expect(v.computed) or "(empty)",
                    "pass" if v.passed else "fail",
                ]
            )
    sys.stdout.write(out.getvalue())
    return 0 if summary.all_passed else 1


# ---------------------------------------------------------------------------
# command line

USAGE = """\
usage: hurmono sheets --degrees D --genera G --profiles P [--format F]
       hurmono report --degrees D --genera G --profiles P [--format F] [-v]
       hurmono verify [--degree N] [--goldens FILE] [--format F]

Sheets and target-map monodromy of Hurwitz spaces of fully-marked admissible covers.

  sheets           enumerate canonical sheets
  report           connected components (m = 4)
  verify           check the golden tables
  --degrees D      source component degrees, e.g. 2,1
  --genera G       source component genera, e.g. 1,0
  --profiles P     ramification profiles, e.g. "2,1;2,1;2,1;2,1" or "2,1^4"
  --format F       text (default), json or csv
  -v, --verbose    also print each component's sheets and sheet permutations
  --degree N       only the rows of total degree N
  --goldens FILE   an alternate golden file
  -h, --help       print this text and exit
"""

_SPEC = ("--degrees", "--genera", "--profiles")
_SPEC_FLAGS = {**dict.fromkeys(_SPEC), "--format": "text"}
# command -> (function, {flag: default, False for a switch}, required flags)
COMMANDS = {
    "sheets": (cmd_sheets, _SPEC_FLAGS, _SPEC),
    "report": (cmd_report, {**_SPEC_FLAGS, "--verbose": False}, _SPEC),
    "verify": (cmd_verify, {"--format": "text", "--degree": None, "--goldens": None}, ()),
}


def _usage_error(message):
    sys.stderr.write(f"{USAGE}error: {message}\n")
    raise SystemExit(2)


def parse_args(argv):
    """``(function, args)`` for a command line; ``-h`` and usage errors exit."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"expected {', '.join(COMMANDS)} first, got {' '.join(argv[:1]) or 'nothing'}")
    command, *tokens = argv
    func, flags, required = COMMANDS[command]
    values = dict(flags)
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        flag = "--verbose" if flag == "-v" else flag
        if flag not in flags or flags[flag] is False and eq:
            _usage_error(f"{command} does not take {token}")
        if flags[flag] is False:
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                _usage_error(f"{flag} needs a value")
        if flag == "--format" and value not in ("text", "json", "csv"):
            _usage_error(f"--format must be text, json or csv, got {value}")
        if flag == "--degree":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"--degree must be an integer, got {value}")
        values[flag] = value
    missing = [flag for flag in required if values[flag] is None]
    if missing:
        _usage_error(f"{command} needs " + ", ".join(missing))
    return func, SimpleNamespace(**{flag[2:]: value for flag, value in values.items()})


def main(argv=None) -> int:
    func, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SpecError, GoldenParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
