import pytest

from discrepancies import DISCREPANCIES

from hurmono import (
    GoldenParseError,
    default_rows,
    load_golden_file,
    make_spec,
    parse_golden,
    spec_line,
    verify_all,
    verify_row,
)
from hurmono.golden import format_expect, parse_profiles

# The two table rows whose transcribed counts disagree with recomputation,
# keyed by spec.  Each must fail verification with exactly its documented
# result; the independent oracle derives that result in test_oracle.py.
DISPUTED_SPECS = {make_spec(r.degrees, r.genera, r.profiles): r for r in DISCREPANCIES}


# ---------------------------------------------------------------------------
# parsing


def test_default_rows_shape(golden_rows, golden_rows_by_degree):
    assert len(golden_rows) == 52
    assert {d: len(rows) for d, rows in golden_rows_by_degree.items()} == {
        2: 3,
        3: 9,
        4: 39,
        5: 1,
    }
    line_nos = [row.line_no for row in golden_rows]
    assert line_nos == sorted(line_nos)
    assert len(set(spec_line(row.spec) for row in golden_rows)) == 52


def test_round_trip(golden_rows):
    for row in golden_rows:
        (back,) = parse_golden(f"{spec_line(row.spec)} expect={format_expect(row.expected)}")
        assert back.spec == row.spec
        assert back.expected == row.expected


def test_profile_sugar():
    assert parse_profiles("2,1^4") == ((2, 1),) * 4
    assert parse_profiles("3;2,1^2;1,1,1") == ((3,), (2, 1), (2, 1), (1, 1, 1))
    assert parse_profiles("2,1") == ((2, 1),)


def test_expect_wildcard_degree():
    (row,) = parse_golden("degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:?")
    assert row.expected == ((1, 0, None),)
    assert verify_row(row).passed
    (bad,) = parse_golden("degrees=2 genera=1 profiles=2;2;2;2 expect=1:1:?")
    assert not verify_row(bad).passed


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("degrees=2 genera=1 profiles=2;2;2;2", "missing fields"),
        ("degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1 extra=9", "unknown fields"),
        ("degrees=2 degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1", "malformed token"),
        ("degrees=x genera=1 profiles=2;2;2;2 expect=1:0:1", "malformed degrees"),
        ("degrees=2 genera=1 profiles=2;2;2;2 expect=1:0", "not count:genus:degree"),
        ("degrees=2 genera=1 profiles=2;2;2;2 expect=0:0:1", "out of range"),
        ("degrees=2 genera=1 profiles=2;3;2;2 expect=1:0:1", "weight"),
        (
            "degrees=2 genera=0 profiles=2;2;1,1 expect=1:0:1",
            "t.txt:3: verify needs exactly 4 marked fibers, got 3",
        ),
        (
            "degrees=2 genera=0 profiles=2;2;2;2;1,1 expect=1:0:1",
            "t.txt:3: verify needs exactly 4 marked fibers, got 5",
        ),
    ],
)
def test_parse_golden_rejects(line, fragment):
    with pytest.raises(GoldenParseError, match=fragment):
        parse_golden("# comment\n\n" + line, source="t.txt")


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("# fine\ndegrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\nnonsense\n")
    with pytest.raises(GoldenParseError) as err:
        load_golden_file(path)
    assert err.value.line_no == 3
    assert str(path) in str(err.value)
    assert ":3:" in str(err.value)


def test_load_golden_file(tmp_path, golden_rows):
    path = tmp_path / "rows.txt"
    lines = (f"{spec_line(r.spec)} expect={format_expect(r.expected)}\n" for r in golden_rows[:4])
    path.write_text("".join(lines))
    rows = load_golden_file(path)
    assert [r.spec for r in rows] == [r.spec for r in golden_rows[:4]]


# ---------------------------------------------------------------------------
# verification


def pytest_generate_tests(metafunc):
    if "verified_row" in metafunc.fixturenames:
        rows = default_rows()
        metafunc.parametrize(
            "verified_row", rows, ids=lambda row: f"line{row.line_no}-{spec_line(row.spec)}"
        )


def test_verify_row(verified_row):
    verdict = verify_row(verified_row)
    known = DISPUTED_SPECS.get(verified_row.spec)
    if known is not None:
        assert not verdict.passed
        assert (verdict.computed, verdict.sheet_count) == (known.recomputed, known.sheets)
        return
    assert verdict.passed, (
        f"expected {verified_row.expected}, computed {verdict.computed} "
        f"({verdict.sheet_count} sheets)"
    )


def test_verify_all_summary(golden_rows):
    summary = verify_all(golden_rows, degree=3)
    assert len(summary.verdicts) == 9
    assert summary.n_pass == 9
    assert summary.n_fail == 0
    assert summary.all_passed


def test_verify_all_full_tally(golden_rows):
    summary = verify_all(golden_rows)
    assert len(summary.verdicts) == 52
    assert summary.n_fail == sum(
        1 for row in golden_rows if row.spec in DISPUTED_SPECS
    )
    failing = {v.row.spec for v in summary.verdicts if not v.passed}
    assert failing == set(DISPUTED_SPECS)


def test_verdict_sheet_count_consistency(golden_rows):
    for v in verify_all(golden_rows, degree=2).verdicts:
        assert v.sheet_count == sum(c * deg for c, _, deg in v.computed)
