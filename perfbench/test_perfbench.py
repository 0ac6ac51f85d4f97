"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hurmono.moves  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from hurmono.golden import default_rows, make_spec  # noqa: E402
from workloads import WORKLOADS, space_id, spaces  # noqa: E402

MODULES = ("cli", "golden", "marked", "moves", "perms", "sheets")
SMALL = [
    ["report", "--degrees", "2", "--genera", "1", "--profiles", "2^4"],
    ["verify", "--degree", "2"],
]


def _specs(argv):
    if argv[0] == "verify":
        return [row.spec for row in default_rows()]
    flags = dict(zip(argv[1::2], argv[2::2]))
    return [make_spec(flags["--degrees"], flags["--genera"], flags["--profiles"])]


@pytest.mark.parametrize(
    "workload, n_spaces, n_specs, metrics",
    [
        ("golden", 1, 52, {"sheets.sheets": 16121}),
        (
            "scan-7",
            1,
            1,
            {"sheets.sheets": 0, "sheets.prefixes": 518400, "sheets.cycle_type_pass": 147744},
        ),
    ],
)
def test_workload_sizes(workload, n_spaces, n_specs, metrics):
    argvs = spaces(workload, 0)
    specs = [spec for argv in argvs for spec in _specs(argv)]
    assert (len(argvs), len(specs)) == (n_spaces, n_specs)
    with tracing.Tracer() as tracer:
        for spec in specs:
            hurmono.moves.enumerate_sheets(spec)
    got = tracer.metrics()
    assert {k: got[k] for k in metrics} == metrics


def test_expected_outputs_cover_every_space():
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected) == set(WORKLOADS)
    for workload in WORKLOADS:
        assert set(expected[workload]) == {space_id(a) for a in spaces(workload, 0)}
    assert expected["golden"]["verify"]["exit"] == 1


def _attributes():
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"hurmono.{name}")
        out.update({(name, k): v for k, v in vars(module).items()})
    return out


def test_untraced_pass_leaves_every_attribute_alone():
    before = _attributes()
    _, records = worker.run_pass(SMALL)
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert [r["error"] for r in records] == [None, None]


def test_traced_pass_restores_attributes_and_output():
    before = _attributes()
    _, plain = worker.run_pass(SMALL)
    tracer = tracing.Tracer()
    _, traced = worker.run_pass(SMALL, tracer)
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert [(r["exit"], r["sha256"]) for r in traced] == [(r["exit"], r["sha256"]) for r in plain]
    assert tracer.metrics()["moves.moves_applied"] > 0


def test_spreading_over_cpus_changes_no_output_and_ends():
    cpus = os.sched_getaffinity(0)
    _, plain = worker.run_pass(SMALL)
    with worker.spread_over_cpus(0.001):
        _, spread = worker.run_pass(SMALL)
    assert [(r["exit"], r["sha256"]) for r in spread] == [(r["exit"], r["sha256"]) for r in plain]
    assert all(t.name != "spread_over_cpus" for t in threading.enumerate())
    assert os.sched_getaffinity(0) == cpus


def test_wrappers_pass_arguments_and_results_through():
    seen = []
    sentinel = object()

    def fn(*args, **kwargs):
        seen.append((args, kwargs))
        return sentinel

    tracer = tracing.Tracer()
    arg = [1, 2]
    wrapped = tracer.wrap_function(fn, tracing.CLASS_GEN)
    assert wrapped(arg, key=arg) is sentinel
    assert seen[0][0][0] is arg and seen[0][1]["key"] is arg

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap_function(boom, tracing.COMPOSE)()


def test_missing_name_makes_its_metrics_absent(monkeypatch):
    import hurmono.marked
    import hurmono.sheets

    monkeypatch.delattr(hurmono.sheets, "_unmarked_minimum")
    monkeypatch.delattr(hurmono.marked, "_unmarked_minimum")
    with tracing.Tracer() as tracer:
        pass
    got = tracer.metrics()
    for name in (
        "sheets.signature_pass",
        "sheets.filter_yield",
        "marked.unmarked_min_s",
        "marked.unmarked_min_calls",
        "marked.unmarked_min_misses",
    ):
        assert name not in got
    assert "sheets.prefixes" in got and "moves.move_s" in got
    assert not hasattr(hurmono.sheets, "_unmarked_minimum")


def test_counts_repeat_across_traced_passes():
    expected = json.loads(run.EXPECTED.read_text())["golden"]
    argvs = spaces("golden", 0)
    passes = [run.run_pass("golden", 0, True, 150) for _ in range(2)]
    for p in passes:
        assert run.count_failures(expected, argvs, p) == 0
    assert passes[0]["done"]["counts"] == passes[1]["done"]["counts"]
    assert passes[0]["done"]["counts"]["calls:golden.verify_row"] == 52


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layer = [(n, u, b) for n, u, b, _, _ in tracing.LAYER_METRICS] + list(tracing.RUN_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
