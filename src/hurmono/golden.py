"""Golden result tables: parsing, formatting, and verification.

The package ships a plain-text table of expected component data for 52
Hurwitz spaces (``data/golden_tables.txt``).  Each data line reads

    degrees=<csv> genera=<csv> profiles=<p1;p2;...> expect=<count:genus:degree,...>

with '#' comment lines carrying row citations.  A profile segment may use the
exponent sugar ``2,1^4`` for four copies of the partition (2,1).  An expect
degree of ``?`` records a value that is reported but not asserted; such
entries are matched on (count, genus) only.

Verification recomputes every row from its unmarked classes
(moves.lifted_components: the prefix scan, the three moves once per class,
and the marking-group lift) without listing a marked sheet, and compares the
multiset of (component count, genus, target-map degree) triples exactly.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import NamedTuple

from .marked import HurwitzSpec, SpecError
# build_sheet_graph and components are not called here: the benchmark's tracer
# wraps these names until ROADMAP item 1.
from .moves import build_sheet_graph, component_multiset, components, lifted_components
from .perms import TooLargeError, check_degree, parse_partition, partition_str
from .sheets import check_fiber_count

DEFAULT_GOLDEN_RESOURCE = "data/golden_tables.txt"

ExpectTriple = tuple[int, int, int | None]  # (count, genus, degree or unasserted)


class GoldenParseError(ValueError):
    """A malformed golden file; carries the offending location."""

    def __init__(self, message: str, source: str, line_no: int):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


class GoldenRow(NamedTuple):
    spec: HurwitzSpec
    expected: tuple[ExpectTriple, ...]
    line_no: int = 0


class RowVerdict(NamedTuple):
    row: GoldenRow
    computed: tuple[tuple[int, int, int], ...]
    sheet_count: int
    passed: bool


class VerifySummary(NamedTuple):
    verdicts: tuple[RowVerdict, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for v in self.verdicts if v.passed)

    @property
    def n_fail(self) -> int:
        return len(self.verdicts) - self.n_pass

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0


# ---------------------------------------------------------------------------
# spec grammar (shared by the golden file and the CLI flags)


def parse_int_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"malformed {what}: {text!r}") from None
    if not values:
        raise SpecError(f"malformed {what}: {text!r}")
    return values


def parse_profiles(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse semicolon-separated profiles with optional ``^k`` repetition;
    the fibers are counted against the guard before ``^k`` is expanded."""
    parsed = []
    for segment in text.split(";"):
        segment = segment.strip()
        base, caret, reps = segment.partition("^")
        count = 1
        if caret:
            try:
                count = int(reps)
            except ValueError:
                raise SpecError(f"malformed profile repetition: {segment!r}") from None
            if count < 1:
                raise SpecError(f"malformed profile repetition: {segment!r}")
        try:
            mu = parse_partition(base)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        parsed.append((mu, count))
    check_fiber_count(sum(count for _, count in parsed))
    return tuple(mu for mu, count in parsed for _ in range(count))


def make_spec(degrees: str, genera: str, profiles: str) -> HurwitzSpec:
    return HurwitzSpec(
        degrees=parse_int_csv(degrees, "degrees"),
        genera=parse_int_csv(genera, "genera"),
        profiles=parse_profiles(profiles),
    )


def spec_line(spec: HurwitzSpec) -> str:
    """The spec in golden-file grammar (expanded, no sugar)."""
    return (
        f"degrees={','.join(str(x) for x in spec.degrees)}"
        f" genera={','.join(str(g) for g in spec.genera)}"
        f" profiles={';'.join(partition_str(mu) for mu in spec.profiles)}"
    )


# ---------------------------------------------------------------------------
# golden file parsing


def _parse_expect(text: str) -> tuple[ExpectTriple, ...]:
    triples = []
    for chunk in text.split(","):
        fields = chunk.split(":")
        if len(fields) != 3:
            raise ValueError(f"expect entry {chunk!r} is not count:genus:degree")
        count, genus = int(fields[0]), int(fields[1])
        degree = None if fields[2] == "?" else int(fields[2])
        if count < 1 or genus < 0 or (degree is not None and degree < 1):
            raise ValueError(f"expect entry {chunk!r} out of range")
        triples.append((count, genus, degree))
    return tuple(sorted(triples, key=lambda t: (t[0], t[1], t[2] if t[2] is not None else -1)))


def parse_golden(text: str, source: str = "<golden>") -> tuple[GoldenRow, ...]:
    """The rows of a golden file.  A row over a size guard raises
    TooLargeError, any other bad row GoldenParseError; both name the line."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            key, eq, value = token.partition("=")
            if not eq or key in fields:
                raise GoldenParseError(f"malformed token {token!r}", source, line_no)
            fields[key] = value
        missing = {"degrees", "genera", "profiles", "expect"} - set(fields)
        if missing:
            raise GoldenParseError(f"missing fields {sorted(missing)}", source, line_no)
        extra = set(fields) - {"degrees", "genera", "profiles", "expect"}
        if extra:
            raise GoldenParseError(f"unknown fields {sorted(extra)}", source, line_no)
        try:
            spec = make_spec(fields["degrees"], fields["genera"], fields["profiles"])
            check_degree(spec.d)
            expected = _parse_expect(fields["expect"])
        except TooLargeError as exc:  # exits 3 before any row runs
            raise TooLargeError(f"{source}:{line_no}: {exc}") from None
        except (SpecError, ValueError) as exc:
            raise GoldenParseError(str(exc), source, line_no) from None
        if spec.m != 4:
            raise GoldenParseError(
                f"verify needs exactly 4 marked fibers, got {spec.m}", source, line_no
            )
        rows.append(GoldenRow(spec=spec, expected=expected, line_no=line_no))
    return tuple(rows)


def format_expect(expected: tuple[ExpectTriple, ...]) -> str:
    """The ``count:genus:degree,...`` text of an expect field, ``?`` included."""
    return ",".join(f"{c}:{g}:{'?' if deg is None else deg}" for c, g, deg in expected)


def load_golden_file(path: str | os.PathLike) -> tuple[GoldenRow, ...]:
    """Parse a golden file; GoldenParseError names the line of a non-UTF-8 byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[: exc.start].count(b"\n") + 1
        raise GoldenParseError(f"not UTF-8: {exc.reason}", os.fspath(path), line_no) from None
    return parse_golden(text.removeprefix("\ufeff"), source=os.fspath(path))


def default_rows() -> tuple[GoldenRow, ...]:
    """The 52 rows shipped with the package."""
    text = resources.files("hurmono").joinpath(DEFAULT_GOLDEN_RESOURCE).read_text("utf-8")
    return parse_golden(text, source=DEFAULT_GOLDEN_RESOURCE)


# ---------------------------------------------------------------------------
# verification


def _matches(expected: tuple[ExpectTriple, ...], computed) -> bool:
    remaining = list(computed)
    wildcards = []
    for triple in expected:
        if triple[2] is None:
            wildcards.append(triple)
        elif triple in remaining:
            remaining.remove(triple)
        else:
            return False
    for count, genus, _ in wildcards:
        found = next((t for t in remaining if t[0] == count and t[1] == genus), None)
        if found is None:
            return False
        remaining.remove(found)
    return not remaining


def verify_row(row: GoldenRow) -> RowVerdict:
    """Recompute one row and compare the component multiset exactly.

    The verdict's sheet_count is sum(count * degree) over the computed
    multiset, so a fully-asserted row that matches also meets the
    bookkeeping identity sum(count * degree) == number of sheets.
    """
    lifted = lifted_components(row.spec)
    computed = component_multiset(lifted)
    # sum over unmarked classes U of |G|/|H_U|: each U contributes
    # |Gamma_C|/|H_U| sheets to each of the |G|/|Gamma_C| components over C
    sheet_count = sum(c.copies * c.degree for c in lifted)
    passed = _matches(row.expected, computed)
    return RowVerdict(row=row, computed=computed, sheet_count=sheet_count, passed=passed)


def verify_all(rows=None, degree: int | None = None) -> VerifySummary:
    """Verify rows (default: the shipped table), optionally filtered by total
    degree; row order of the input is preserved in the summary."""
    if rows is None:
        rows = default_rows()
    rows = [row for row in rows if degree is None or row.spec.d == degree]
    return VerifySummary(verdicts=tuple(verify_row(row) for row in rows))
