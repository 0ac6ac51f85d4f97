import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys

import pytest

from hurmono import (
    BOUNDARY_LABELS,
    ComponentReport,
    build_sheet_graph,
    components,
    count_sheets,
    default_rows,
    make_spec,
    partition_str,
)
from hurmono.cli import COMMANDS, USAGE, main


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "hurmono", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


# ---------------------------------------------------------------------------
# sheets


def test_sheets_counts_four():
    proc = run_cli(
        "sheets", "--degrees", "3", "--genera", "0", "--profiles", "2,1;2,1;2,1;2,1"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "total 4 sheets"
    assert len(proc.stdout.strip().splitlines()) == 5


def test_sheets_empty_is_success():
    proc = run_cli(
        "sheets", "--degrees", "2", "--genera", "0", "--profiles", "2;1,1;1,1;1,1"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "total 0 sheets"


def test_sheets_disconnected_trivial_covers():
    proc = run_cli(
        "sheets", "--degrees", "1,1", "--genera", "0,0", "--profiles", "1,1;1,1;1,1;1,1"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "total 8 sheets"


def test_sheets_json():
    proc = run_cli(
        "sheets",
        "--degrees", "2", "--genera", "1", "--profiles", "2^4",
        "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert payload["schema_version"] == 1
    assert payload["count"] == 1
    assert payload["spec"] == {
        "degrees": [2],
        "genera": [1],
        "profiles": [[2], [2], [2], [2]],
    }
    assert payload["sheets"][0][0] == [{"cycle": [1, 2], "label": 1}]


def test_sheets_csv():
    proc = run_cli(
        "sheets",
        "--degrees", "2", "--genera", "1", "--profiles", "2^4",
        "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["sheet", "fiber", "marking"]
    assert len(rows) == 5
    assert rows[1] == ["1", "1", "(1 2)^1"]


# ---------------------------------------------------------------------------
# report


def test_report_single_component_degree6():
    proc = run_cli(
        "report", "--degrees", "3", "--genera", "0", "--profiles", "3;2,1;2,1;1,1,1"
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "component 1: degree 6, genus 0"
    assert lines[-1] == "total 6 sheets in 1 components"


def test_report_positive_genus_row():
    proc = run_cli(
        "report", "--degrees", "4", "--genera", "0", "--profiles", "2,2;3,1;2,1,1;2,1,1"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "component 1: degree 24, genus 1"


def test_report_empty():
    proc = run_cli(
        "report", "--degrees", "2", "--genera", "0", "--profiles", "2;1,1;1,1;1,1"
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "total 0 sheets in 0 components"


def test_report_verbose_lists_sheet_permutations():
    proc = run_cli(
        "report", "--degrees", "2", "--genera", "1", "--profiles", "2^4", "-v"
    )
    assert "  sheets: 1" in proc.stdout
    assert "  s zero=() one=() infty=()" in proc.stdout
    assert "s_zero*s_one*s_infty is identity: yes" in proc.stdout


def report_from_json_obj(obj) -> tuple[ComponentReport, ...]:
    """Rebuild ComponentReport values from a parsed JSON report."""
    out = []
    for c in obj["components"]:
        out.append(
            ComponentReport(
                sheet_indices=tuple(k - 1 for k in c["sheets"]),
                degree=c["degree"],
                genus=c["genus"],
                ram={b: tuple(c["ram"][b]) for b in BOUNDARY_LABELS},
                nodes={b: tuple(tuple(mu) for mu in c["nodes"][b]) for b in BOUNDARY_LABELS},
            )
        )
    return tuple(out)


def test_report_json_round_trips():
    spec_args = ("--degrees", "4", "--genera", "2", "--profiles", "4;4;3,1;3,1")
    proc = run_cli("report", *spec_args, "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["schema_version"] == 1
    spec = make_spec("4", "2", "4;4;3,1;3,1")
    expected = components(build_sheet_graph(spec))
    assert report_from_json_obj(payload) == expected
    assert payload["sheet_count"] == 8


def test_report_csv():
    proc = run_cli(
        "report",
        "--degrees", "4", "--genera", "2", "--profiles", "4;4;3,1;3,1",
        "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0][:3] == ["component", "degree", "genus"]
    assert len(rows) == 3
    degrees = sorted(int(r[1]) for r in rows[1:])
    assert degrees == [2, 6]


def test_report_rejects_three_fibers():
    proc = run_cli("report", "--degrees", "2", "--genera", "0", "--profiles", "2;2;1,1")
    assert proc.returncode == 2
    assert "monodromy requires exactly 4 marked fibers" in proc.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_degree2():
    proc = run_cli("verify", "--degree", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "3/3 pass"


def test_verify_degree3_json():
    proc = run_cli("verify", "--degree", "3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema_version"] == 1
    assert payload["pass"] == 9
    assert payload["fail"] == 0
    assert all(r["passed"] for r in payload["rows"])


def test_verify_full_reports_known_misses():
    proc = run_cli("verify")
    assert proc.returncode == 1
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "50/52 pass"
    fails = [line for line in lines if line.endswith(": FAIL")]
    assert len(fails) == 2
    # pinned here, not in test_output_pinned: the disputed rows make verify exit 1
    assert (
        hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        == "12b928c5d378aa4373fcfe3c7c1e48128f824e0e0d5259ecfe6bcf9feea76651"
    )


@pytest.mark.parametrize(
    "fmt, sha256",
    [
        ("json", "4fc1d68c0814ed98e6203d401de03b30262a57b069c45cc58aebb435e1bf1229"),
        ("csv", "08545040fae35ac5b4226fb5c97562d8a2dda427e1060f14a8c2f89ab745ffc0"),
    ],
    ids=["json", "csv"],
)
def test_verify_full_pinned_formats(fmt, sha256):
    # recorded while verify still listed every marked sheet: the lift from the
    # unmarked classes must print the same bytes
    proc = run_cli("verify", "--format", fmt)
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == sha256


def test_verify_goldens_override(tmp_path):
    path = tmp_path / "mini.txt"
    path.write_text(
        "# one row\ndegrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\n"
    )
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "1/1 pass"


def test_verify_goldens_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfdegrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\n")
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "1/1 pass"


def test_verify_goldens_parse_error_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# c\ndegrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\nwat\n")
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 2
    assert f"{path}:3:" in proc.stderr


@pytest.mark.parametrize("profiles, m", [("2;2;1,1", 3), ("2;2;2;2;1,1", 5)])
def test_verify_goldens_row_without_four_fibers_is_a_parse_error(tmp_path, profiles, m):
    # refused while parsing, before the good first row runs
    path = tmp_path / "fibers.txt"
    path.write_text(
        "degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\n"
        f"degrees=2 genera=0 profiles={profiles} expect=1:0:1\n"
    )
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}:2: verify needs exactly 4 marked fibers, got {m}\n"


@pytest.mark.parametrize(
    "row, message",
    [
        (
            f"degrees=10 genera=0 profiles={','.join(['1'] * 10)}^4",
            "degree must be at most 9, got 10",
        ),
        ("degrees=2 genera=0 profiles=2^7", "enumeration supports m <= 6, got 7"),
    ],
    ids=["degree", "fibers"],
)
def test_verify_goldens_row_over_a_guard_is_refused_while_parsing(tmp_path, row, message):
    # exit 3 as for any instance too large, before the good first row runs
    path = tmp_path / "big.txt"
    path.write_text(f"degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\n{row} expect=1:0:1\n")
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path}:2: instance too large: {message}\n"


def test_verify_goldens_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(
        b"degrees=2 genera=1 profiles=2;2;2;2 expect=1:0:1\n# caf\xff\n"
    )
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {path}:2: ")
    assert "Traceback" not in proc.stderr


def test_verify_degree_filter_selecting_nothing_is_an_error():
    proc = run_cli("verify", "--degree", "42")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "total degree 42" in proc.stderr


def test_verify_goldens_file_without_rows_is_an_error(tmp_path):
    path = tmp_path / "comments.txt"
    path.write_text("# only a comment\n\n# and another\n")
    proc = run_cli("verify", "--goldens", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert str(path) in proc.stderr


def test_verify_missing_goldens_file():
    proc = run_cli("verify", "--goldens", "/no/such/file.txt")
    assert proc.returncode == 2


def test_verify_csv():
    proc = run_cli("verify", "--degree", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["line", "spec", "expected", "computed", "status"]
    assert [r[4] for r in rows[1:]] == ["pass", "pass", "pass"]


# ---------------------------------------------------------------------------
# flags, errors, determinism


@pytest.mark.parametrize(
    "flag, args, error",
    [
        (
            "--degrees",
            ["--degrees", "x", "--genera", "0", "--profiles", "2^4"],
            "malformed degrees: 'x'",
        ),
        (
            "--genera",
            ["--degrees", "2", "--genera", "y", "--profiles", "2^4"],
            "malformed genera: 'y'",
        ),
        (
            "--profiles",
            ["--degrees", "2", "--genera", "0", "--profiles", "2,?"],
            "malformed partition: '2,?'",
        ),
        # fields that parse alone but not together name all three flags
        (
            "--degrees/--genera/--profiles",
            ["--degrees", "2", "--genera", "0,0", "--profiles", "2^4"],
            "genera length 2 != degrees length 1",
        ),
        (
            "--degrees/--genera/--profiles",
            ["--degrees", "2", "--genera", "0", "--profiles", "3;2;2;2"],
            "profile (3,) has weight 3, expected 2",
        ),
    ],
)
def test_malformed_flag_named(flag, args, error):
    proc = run_cli("sheets", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {flag}: {error}\n")


def test_guard_exit_code():
    profile = ",".join(["1"] * 10)
    proc = run_cli(
        "sheets", "--degrees", "10", "--genera", "0", "--profiles", ";".join([profile] * 4)
    )
    assert proc.returncode == 3
    # the same text as every library entry point; see test_perms.test_one_degree_guard
    assert proc.stderr == "error: instance too large: degree must be at most 9, got 10\n"


def test_guard_exit_code_on_a_provably_empty_space():
    # no genus-0 cover has four 10-cycles; the degree guard still comes first
    proc = run_cli("report", "--degrees", "10", "--genera", "0", "--profiles", "10;10;10;10")
    assert proc.returncode == 3
    assert proc.stderr == "error: instance too large: degree must be at most 9, got 10\n"


def test_huge_profile_repetition_refused_before_expansion():
    # the fibers are counted before ``^k`` is expanded, so this fails fast
    args = ("sheets", "--degrees", "2", "--genera", "0", "--profiles", "2^1000000000")
    proc = subprocess.run(
        [sys.executable, "-m", "hurmono", *args], capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 3
    assert "m <= 6" in proc.stderr


def test_no_arguments_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


# the grammar, in-process: every flag, each parse error and help
EMPTY7 = ("--degrees", "6,1", "--genera", "6,0", "--profiles", "3,3,1;7;7;7")


def run_main(capsys, *args):
    """(exit code, stdout, stderr) of one in-process call; usage errors exit."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_flag_equals_value_matches_flag_space_value(capsys):
    spaced = run_main(capsys, "verify", "--degree", "2", "--format", "csv")
    assert spaced == run_main(capsys, "verify", "--degree=2", "--format=csv")
    assert spaced[0] == 0 and spaced[1].endswith("pass\n") and spaced[2] == ""


def test_repeated_flag_keeps_its_last_value(capsys):
    last = run_main(capsys, "verify", "--degree", "2")
    assert run_main(capsys, "verify", "--degree", "3", "--degree=2") == last
    assert run_main(capsys, "verify", "--format", "json", "--degree", "2", "--format", "text") == last


@pytest.mark.parametrize("command", ["sheets", "report"])
@pytest.mark.parametrize("kept", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
def test_missing_required_flags_are_named(capsys, command, kept):
    args = [token for k in kept for token in EMPTY7[2 * k : 2 * k + 2]]
    missing = [EMPTY7[2 * k] for k in range(3) if k not in kept]
    code, out, err = run_main(capsys, command, *args)
    assert (code, out) == (2, "")
    assert err == f"{USAGE}error: {command} needs {', '.join(missing)}\n"


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("frobnicate",),
        ("--degree", "2", "verify"),
        ("verify", "--frobnicate"),
        ("verify", "--deg", "2"),
        ("verify", "-v"),
        ("sheets", *EMPTY7, "--degree", "3"),
        ("sheets", *EMPTY7, "--verbose"),
        ("verify", "--format", "xml"),
        ("verify", "--format="),
        ("verify", "--degree", "x"),
        ("verify", "--goldens"),
        ("verify", "--goldens", "--degree", "2"),
        ("report", *EMPTY7, "--verbose=1"),
        ("report", *EMPTY7, "-v=1"),
        ("report", *EMPTY7, "extra"),
    ],
    ids=lambda args: " ".join(args) or "nothing",
)
def test_malformed_command_line_is_a_usage_error(capsys, args):
    code, out, err = run_main(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(USAGE + "error: ") and err.count("\n") == USAGE.count("\n") + 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize(
    "args", [(), ("sheets",), ("report",), ("verify",), ("report", *EMPTY7), ("verify", "--deg")]
)
def test_help_prints_usage_and_exits_0(capsys, args, flag):
    assert run_main(capsys, *args, flag) == (0, USAGE, "")


def test_usage_names_every_command_and_flag():
    flags = {flag for _, defaults, _ in COMMANDS.values() for flag in defaults}
    assert len(flags) == 7
    for name in (*COMMANDS, *flags, "-v", "-h", "--help"):
        assert re.search(re.escape(name) + r"\b(?!-)", USAGE), name


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_byte_identical_reruns(fmt):
    args = (
        "report",
        "--degrees", "3", "--genera", "0", "--profiles", "2,1^4",
        "--format", fmt,
    )
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout


# stdout sha256 of `sheets`, `report -v` and `verify` in every format.  Reruns
# only show determinism; these pin the bytes themselves, so a refactor of a
# writer or of the sheet order must keep them.  Record new values only for an
# intended change of output.
SHEETS4 = ("sheets", "--degrees", "4", "--genera", "1", "--profiles", "2,2^4")
SHEETS5 = ("sheets", "--degrees", "3", "--genera", "0", "--profiles", "3;3;1,1,1^3")
DEG4 = ("report", "--degrees", "4", "--genera", "2", "--profiles", "4;4;3,1;3,1")
DEG5 = ("report", "--degrees", "5", "--genera", "3", "--profiles", "5;5;4,1;4,1")
VERIFY3 = ("verify", "--degree", "3")
PINNED_OUTPUT = [
    (
        "sheets4-text",
        SHEETS4,
        "1e63c7fd4e2fd77784b568798d70b0c64a67ca5b7ab3d0f75f06abfc8ec4512e",
    ),
    (
        "sheets4-json",
        (*SHEETS4, "--format", "json"),
        "cfcea76d2b268e74c43891becff7e56d698ad4c80b9f2e95eafa31abf0d12987",
    ),
    (
        "sheets4-csv",
        (*SHEETS4, "--format", "csv"),
        "76de778be7aee03eacdb2629b574d438eed585f3b86c5e74ad37b6175ffb41fb",
    ),
    (
        "sheets5-text",
        SHEETS5,
        "19432032747e860c87d62a75f9bf87506298189254cc956dcb5ba9ed94b47c47",
    ),
    (
        "sheets5-json",
        (*SHEETS5, "--format", "json"),
        "26d777e6a902b3321f89e3193636daf321668eb9970d4cd82447e82baf78f319",
    ),
    (
        "sheets5-csv",
        (*SHEETS5, "--format", "csv"),
        "b01e7bc40c04a784cff1122285699551b538e2663424789f771d219196292892",
    ),
    (
        "deg4-text",
        (*DEG4, "-v"),
        "2aaf906466bb17dce846b13d97b5c01a9cd20978b0b61903c010b3decd86f70d",
    ),
    (
        "deg4-json",
        (*DEG4, "--format", "json"),
        "83762dfe0d5aa8c94270c6d78763ed6b8ade20bc792b5245b4953db76597703c",
    ),
    (
        "deg4-csv",
        (*DEG4, "--format", "csv"),
        "fee6a0d3e2e8ac3691707400e395d2a91f8940861eda5c13aab160324e8bec4d",
    ),
    (
        "deg5-text",
        (*DEG5, "-v"),
        "e580d6887b317c46ae98ffb0df84b7356f6f692e9ae59c8ff0be6bfeb8102ce8",
    ),
    (
        "deg5-json",
        (*DEG5, "--format", "json"),
        "20aa679c61b6630c40bbc710a57ae4dfd73acaeec1cc76472d6cf8b395e78fc4",
    ),
    (
        "deg5-csv",
        (*DEG5, "--format", "csv"),
        "41cbd3714e5a6532d051f429cd42d72e4e5624d3730640d1f8fbb316629f0c75",
    ),
    (
        "verify3-text",
        VERIFY3,
        "13886b0183512d70ed6c827aed4287c7482fd9cbce4b068f3dd96aece305c69a",
    ),
    (
        "verify3-json",
        (*VERIFY3, "--format", "json"),
        "8f2be21d24d6c409c9b3acccf06eba0d50a774ff87092eea8853477b242e8114",
    ),
    (
        "verify3-csv",
        (*VERIFY3, "--format", "csv"),
        "e8f7c0b4446bb3cdf8dd910687e2c9e8a702b01312436ed92aa2690cff7f740c",
    ),
]


@pytest.mark.parametrize(
    "args, sha256", [c[1:] for c in PINNED_OUTPUT], ids=[c[0] for c in PINNED_OUTPUT]
)
def test_output_pinned(args, sha256):
    proc = run_cli(*args, check=True)
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == sha256


def test_golden_rows_report_and_sheets_pinned():
    # `report --format json`, `report -v` and `sheets --format csv` of every
    # golden row below 2,000 sheets, run in-process and hashed together in row
    # order; recorded before the sheet graph became the derived graph of the
    # class graph.  Record a new value only for an intended change of output.
    digest = hashlib.sha256()
    rows = [row for row in default_rows() if count_sheets(row.spec) < 2000]
    assert len(rows) == 51
    for row in rows:
        spec = row.spec
        flags = (
            "--degrees", ",".join(map(str, spec.degrees)),
            "--genera", ",".join(map(str, spec.genera)),
            "--profiles", ";".join(partition_str(mu) for mu in spec.profiles),
        )
        for args in (
            ("report", *flags, "--format", "json"),
            ("report", *flags, "-v"),
            ("sheets", *flags, "--format", "csv"),
        ):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(args)) == 0
            digest.update(out.getvalue().encode("utf-8"))
    assert digest.hexdigest() == "b18216665c469d65266ed51d43fb941a17e342faee77351026c0320ab23f9f1c"
