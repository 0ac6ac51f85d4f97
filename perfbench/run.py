"""Benchmark of the `hurmono` sheet pipeline through its CLI entry point.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (`worker.py`), as every `hurmono` invocation does, so the
package's `lru_cache`s start empty each time; passes run one after another,
so the only load is that one process and `verify`'s default thread pool.
The worker spreads its threads evenly over the CPUs during a pass, so that
a pass does not read the speed of the one CPU it happened to start on.
A pass starts only if one as long as the longest so far still ends within
`--seconds`, so a run ends on time; the medians over the passes are
reported.

Each space's stdout sha256 and exit code are checked against
`expected.json`, recorded at the seed commit; a space that differs, raises
or outlives the per-run timeout counts as failed.

`--trace 0` prints the end-to-end metrics:
  wall_s           first CLI call to last output, per pass
  slowest_space_s  the longest single CLI call: each space's median over the
                   passes, for the slowest space
  peak_rss_mb      peak resident memory of the pass's process
  setup_s          interpreter start to ready (import hurmono, build argvs),
                   over extra set-up-only launches and every pass

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of `tracing.py`, `cli.output_bytes` and `trace.overhead_frac`
(traced over untraced median wall time, minus 1).  Call counts must repeat
exactly across traced passes, or the run is not correct.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"

SETUP_LAUNCHES = 8
RUN_LIMIT_S = 165.0  # every pass is killed by then, so a run ends within 180 s
READY_TIMEOUT_S = 30.0

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, RUN_METRICS  # noqa: E402
from workloads import WORKLOADS, space_id, spaces  # noqa: E402


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _spawn(workload: str, seed: int, *flags: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for `ready`; returns it and its set-up time."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), *flags],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} did not get ready (exit {proc.returncode})")
    return proc, setup


def setup_only(workload: str, seed: int) -> float:
    proc, setup = _spawn(workload, seed, "--setup-only")
    proc.communicate()
    return setup


def run_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One pass in a fresh worker; per-space records plus its `done` line."""
    proc, setup = _spawn(workload, seed, *(["--trace"] if trace else []))
    try:
        out, _ = proc.communicate("go\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        _log(f"pass killed after {timeout:.0f} s")
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    done = next((x for x in lines if x.get("done")), None)
    return {
        "setup_s": setup,
        "spaces": [x for x in lines if "space" in x],
        "done": done,
        "exit": proc.returncode,
    }


def count_failures(expected: dict, argvs: list[list[str]], p: dict) -> int:
    """Spaces of the pass whose output, exit code or completion is wrong."""
    got = {r["space"]: r for r in p["spaces"]}
    failed = 0
    for argv in argvs:
        key = space_id(argv)
        r, want = got.get(key), expected.get(key)
        ok = (
            r is not None
            and want is not None
            and r["error"] is None
            and r["exit"] == want["exit"]
            and r["sha256"] == want["sha256"]
        )
        if not ok:
            failed += 1
            _log(f"FAILED: {key}: got {r and {k: r[k] for k in ('exit', 'sha256', 'error')}}")
    if p["done"] is None or p["exit"] != 0:
        failed = max(failed, 1)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hurmono" / "cli.py").is_file():
        _log(f"error: no hurmono sources under {ROOT / 'src'}; run from a checkout")
        return 2
    expected = json.loads(EXPECTED.read_text())[args.workload]
    argvs = spaces(args.workload, args.seed)
    run_start = perf_counter()

    try:
        setups = [setup_only(args.workload, args.seed) for _ in range(SETUP_LAUNCHES)]
    except RuntimeError as exc:
        _log(f"error: {exc}")
        return 2

    kinds = [False, True] if args.trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    i = 0
    longest = 0.0
    while i < len(kinds) or perf_counter() - start + longest <= args.seconds:
        traced = kinds[i % len(kinds)]
        timeout = RUN_LIMIT_S - (perf_counter() - run_start)
        if timeout <= 0:
            break
        pass_start = perf_counter()
        try:
            p = run_pass(args.workload, args.seed, traced, timeout)
        except RuntimeError as exc:
            _log(f"error: {exc}")
            return 2
        attempted += len(argvs)
        n_failed = count_failures(expected, argvs, p)
        failed += n_failed
        passes[traced].append(p)
        setups.append(p["setup_s"])
        longest = max(longest, perf_counter() - pass_start)
        wall = p["done"]["wall_s"] if p["done"] else float("nan")
        _log(f"{args.workload} pass {i + 1} {'traced' if traced else 'plain'}: "
             f"wall {wall:.3f} s, setup {p['setup_s']:.4f} s, failed {n_failed}")
        i += 1

    correct = failed == 0
    plain = [p["done"] for p in passes[False] if p["done"]]
    traced_done = [p["done"] for p in passes[True] if p["done"]]
    metrics: dict[str, dict] = {}
    if not args.trace:
        if plain:
            per_space: dict[str, list[float]] = {}
            for p in passes[False]:
                for r in p["spaces"]:
                    per_space.setdefault(r["space"], []).append(r["seconds"])
            metrics = {
                "wall_s": (statistics.median(d["wall_s"] for d in plain), "s"),
                "slowest_space_s": (max(map(statistics.median, per_space.values())), "s"),
                "peak_rss_mb": (statistics.median(d["rss_kb"] / 1024 for d in plain), "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
    elif plain and traced_done:
        counts = [d["counts"] for d in traced_done]
        if any(c != counts[0] for c in counts):
            _log("counts differ between traced passes")
            correct = False
        for name, unit, _, _, _ in LAYER_METRICS:
            if name in traced_done[0]["metrics"]:
                # median_low picks a measured value, so counts stay whole numbers
                values = [d["metrics"][name] for d in traced_done]
                metrics[name] = (statistics.median_low(values), unit)
            else:
                _log(f"absent: {name} (a name it wraps is gone)")
        units = {name: unit for name, unit, _ in RUN_METRICS}
        out_bytes = [sum(r["bytes"] for r in p["spaces"]) for p in passes[True]]
        metrics["cli.output_bytes"] = (statistics.median(out_bytes), units["cli.output_bytes"])
        overhead = (
            statistics.median(d["wall_s"] for d in traced_done)
            / statistics.median(d["wall_s"] for d in plain)
            - 1
        )
        metrics["trace.overhead_frac"] = (overhead, units["trace.overhead_frac"])
    if not metrics:
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
