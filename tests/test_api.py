import ast
import copy
import doctest
import importlib
import os
import pathlib
import pickle
import subprocess
import sys
import types

import pytest
from test_benchmark_contract import TARGETS

import hurmono
from hurmono import (
    ComponentReport,
    GoldenRow,
    HurwitzSpec,
    LiftedComponent,
    MarkedTuple,
    RowVerdict,
    SheetGraph,
    SpecError,
    VerifySummary,
    build_sheet_graph,
    components,
    default_rows,
    enumerate_sheets,
    make_spec,
    verify_all,
)


def test_all_lists_every_public_name():
    # ``from hurmono import *`` binds exactly the names the package exports
    public = {
        name
        for name, value in vars(hurmono).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(hurmono.__all__) == public
    assert len(hurmono.__all__) == len(public)


def _read_names(node):
    """Every name and attribute that the code under ``node`` reads."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_function_in_src_has_a_caller():
    # every top-level function of a module is called from src/ outside its own
    # definition (the __init__ re-export does not count), shown in a README or
    # doctest example, or wrapped by the benchmark's tracer; a helper that only
    # tests call belongs in tests/
    package = pathlib.Path(hurmono.__file__).resolve().parent
    readme = (package.parents[1] / "README.md").read_text()
    examples = doctest.DocTestParser().get_examples(readme)
    defined = {}
    reached = {name for e in examples for name in _read_names(ast.parse(e.source))}
    reached |= {attr for _, attr, _ in TARGETS}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)
            if isinstance(node, ast.FunctionDef):
                defined[name] = path.stem
            reached |= _read_names(node) - {name}
        for test in doctest.DocTestFinder().find(importlib.import_module(f"hurmono.{path.stem}")):
            reached |= {name for e in test.examples for name in _read_names(ast.parse(e.source))}
    orphans = sorted(f"{module}.{name}" for name, module in defined.items() if name not in reached)
    assert orphans == []


# Caches whose key domain is finite, named in a comment on the decorator's line:
# (cycle type, d), at most 96 entries for d <= 9.
UNBOUNDED_CACHES = {"marked._least_of_class", "perms.conjugacy_class"}


def test_every_cache_is_bounded():
    # ROADMAP: caches must be bounded.  Every lru_cache (and functools.cache)
    # in src/ has a literal finite maxsize, but for UNBOUNDED_CACHES
    package = pathlib.Path(hurmono.__file__).resolve().parent
    unbounded = set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                func = call.func if call else dec
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cache":
                    maxsize = None
                elif name == "lru_cache":
                    args = [*call.args, *(k.value for k in call.keywords)] if call else []
                    maxsize = ast.literal_eval(args[0]) if args else 128
                else:
                    continue
                if not isinstance(maxsize, int):
                    assert "keyed by" in lines[dec.lineno - 1], f"{path.stem}.{node.name}"
                    unbounded.add(f"{path.stem}.{node.name}")
    assert unbounded <= UNBOUNDED_CACHES


def test_moved_names_keep_their_old_imports():
    # TooLargeError lives in perms, next to the one degree guard; marked re-exports it
    from hurmono import marked, moves, perms

    assert hurmono.TooLargeError is marked.TooLargeError is perms.TooLargeError
    assert hurmono.BOUNDARY_LABELS is moves.BOUNDARY_LABELS
    assert moves.BOUNDARY_LABELS == tuple(moves.COLLIDING) == ("zero", "one", "infty")


def test_cli_import_loads_no_introspection_modules():
    # the records are named tuples, so startup skips dataclasses and what it
    # pulls in, and a flag table parses the command line, so a whole call skips
    # argparse and the gettext and locale its first parser loads.
    # importlib.resources may load inspect by itself (3.12's files() inspects
    # its caller), so what it loads alone is the baseline
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")
    probe = (
        "import contextlib, io, sys\n"
        "def loaded(): return {m for m in %r if m in sys.modules}\n"
        "import importlib.resources\n"
        "before = loaded()\n"
        "import hurmono.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hurmono.cli.main(%r)\n"
        "print(code, sorted(loaded() - before))\n"
    ) % (heavy, ["report", "--degrees", "6,1", "--genera", "6,0", "--profiles", "3,3,1;7;7;7"])
    src = str(pathlib.Path(hurmono.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "0 []\n"


# ---------------------------------------------------------------------------
# the eight records

SPEC_FIELDS = ((2, 1), (1, 0), ((2, 1), (2, 1), (3,), (3,)))
RAW_SPEC = ((1, 2), (0, 1), ((1, 2), (2, 1), (3,), (3,)))  # unsorted pairs and profiles


@pytest.mark.parametrize(
    "construct",
    [
        lambda: HurwitzSpec(*RAW_SPEC),
        lambda: HurwitzSpec(degrees=RAW_SPEC[0], genera=RAW_SPEC[1], profiles=RAW_SPEC[2]),
        lambda: HurwitzSpec(*SPEC_FIELDS)._replace(degrees=(1, 2), genera=(0, 1)),
        lambda: HurwitzSpec._make(RAW_SPEC),
        # tuple.__new__ skips validation; copy and pickle must not
        lambda: copy.copy(tuple.__new__(HurwitzSpec, RAW_SPEC)),
        lambda: pickle.loads(pickle.dumps(tuple.__new__(HurwitzSpec, RAW_SPEC))),
    ],
    ids=["positional", "keyword", "_replace", "_make", "copy", "pickle"],
)
def test_spec_normalizes_on_every_construction_path(construct):
    spec = construct()
    assert type(spec) is HurwitzSpec
    assert spec == SPEC_FIELDS
    assert (spec.degrees, spec.genera, spec.profiles) == SPEC_FIELDS
    # a frozen dataclass hashed the tuple of its fields, so the hash is unchanged
    assert hash(spec) == hash(SPEC_FIELDS)


@pytest.mark.parametrize(
    "construct",
    [
        lambda spec: spec._replace(degrees=(0,)),
        lambda spec: spec._replace(profiles=((3,), (3,))),
        lambda spec: HurwitzSpec._make(((2, 1), (1,), spec.profiles)),
        lambda spec: copy.copy(tuple.__new__(HurwitzSpec, ((0,), (0,), spec.profiles))),
        lambda spec: pickle.loads(pickle.dumps(tuple.__new__(HurwitzSpec, ((3,), (0,), ((3,),))))),
    ],
    ids=["_replace-degrees", "_replace-profiles", "_make", "copy", "pickle"],
)
def test_spec_validates_on_every_construction_path(construct):
    with pytest.raises(SpecError):
        construct(HurwitzSpec(*SPEC_FIELDS))


def test_records_are_immutable():
    graph = build_sheet_graph(make_spec("2,1", "0,0", "2,1;2,1;1,1,1;1,1,1"))
    summary = verify_all(default_rows()[:1])
    records = [
        (MarkedTuple, enumerate_sheets(graph.spec)[0], "perms"),
        (HurwitzSpec, graph.spec, "degrees"),
        (GoldenRow, summary.verdicts[0].row, "line_no"),
        (RowVerdict, summary.verdicts[0], "passed"),
        (VerifySummary, summary, "verdicts"),
        (LiftedComponent, graph.lifted[0], "copies"),
        (SheetGraph, graph, "s"),
        (ComponentReport, components(graph)[0], "genus"),
    ]
    for cls, record, field in records:
        assert type(record) is cls
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = None


def test_record_reprs_unchanged():
    spec = HurwitzSpec(*RAW_SPEC)
    assert repr(spec) == (
        "HurwitzSpec(degrees=(2, 1), genera=(1, 0), profiles=((2, 1), (2, 1), (3,), (3,)))"
    )
    t = MarkedTuple(perms=((1, 0, 2), (0, 1, 2)), labels=((1, 1, 2), (1, 2, 3)))
    assert repr(t) == "MarkedTuple(perms=((1, 0, 2), (0, 1, 2)), labels=((1, 1, 2), (1, 2, 3)))"
    assert repr(GoldenRow(spec=spec, expected=((1, 0, 1),))).endswith(
        "expected=((1, 0, 1),), line_no=0)"
    )
