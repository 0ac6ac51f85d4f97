"""One pass of a workload in a fresh interpreter, driven by `run.py`.

    python3 perfbench/worker.py WORKLOAD SEED [--trace] [--setup-only]

The worker imports `hurmono`, builds the workload's argv lists and prints
`ready`; that is the end of set-up.  `--setup-only` exits there.  Otherwise
it waits for `go` on stdin, calls `hurmono.cli.main(argv)` once per space
with stdout captured, and prints one JSON line per space followed by a final
`{"done": ...}` line with the pass wall time and peak RSS (and, with
`--trace`, the per-layer metrics and counts).

During the pass a helper thread moves the process's other threads from CPU
to CPU every `ROTATE_S` seconds (`spread_over_cpus`).  On a shared host the
CPUs of one virtual machine can run at lastingly different speeds, and a
single-threaded pass stays on the CPU it starts on, so its time reads that
CPU's speed.  On a 2-vCPU Xeon VM with Python 3.11, one CPU ran the scan-7
pass in about 5.8 s and the other in about 8 s; spread over both, the pass
time varied 4% from pass to pass instead of 12-15%, at a cost of about 7%
in migrations.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import threading
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hurmono.cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import space_id, spaces  # noqa: E402

ROTATE_S = 0.1


def run_pass(argvs, tracer=None, emit=None):
    """Call the CLI once per argv; returns (wall seconds, per-space records).

    ``wall`` runs from the first call to the last output.  With a tracer,
    its wrappers are installed for the pass only and `main` is looked up
    after installing them, so the traced pass goes through them too.
    """
    records = []
    with tracer if tracer is not None else contextlib.nullcontext():
        main = hurmono.cli.main
        t0 = perf_counter()
        for argv in argvs:
            buf = io.StringIO()
            error = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(list(argv))
            except SystemExit as exc:
                code, error = exc.code, f"SystemExit({exc.code!r})"
            except Exception as exc:  # reported as a failed space, never fatal
                code, error = None, repr(exc)
            seconds = perf_counter() - start
            text = buf.getvalue()
            out = text.encode("utf-8")
            record = {
                "space": space_id(argv),
                "exit": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "bytes": len(out),
                "last_line": text.rstrip("\n").rpartition("\n")[2],
                "seconds": seconds,
                "error": error,
            }
            records.append(record)
            if emit is not None:
                emit(record)
        wall = perf_counter() - t0
    return wall, records


@contextlib.contextmanager
def spread_over_cpus(period=ROTATE_S):
    """Rotate the other threads of the process over its CPUs while inside.

    Every `period` seconds thread i is pinned to CPU (i + shift) mod n and
    `shift` moves on, so each thread spends an equal share of the time on
    every CPU and threads that run together stay on different CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    stop = threading.Event()

    def rotate():
        shift = 0
        while not stop.is_set():
            others = [t for t in threading.enumerate() if t is not threading.current_thread()]
            for i, t in enumerate(others):
                with contextlib.suppress(OSError):  # the thread has just ended
                    os.sched_setaffinity(t.native_id, {cpus[(i + shift) % len(cpus)]})
            shift += 1
            stop.wait(period)

    rotator = threading.Thread(target=rotate, name="spread_over_cpus", daemon=True)
    if len(cpus) > 1:
        rotator.start()
    try:
        yield
    finally:
        stop.set()
        if rotator.is_alive():
            rotator.join()
        for t in threading.enumerate():
            with contextlib.suppress(OSError):
                os.sched_setaffinity(t.native_id, cpus)


def main(argv):
    argvs = spaces(argv[0], int(argv[1]))
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if "--setup-only" in argv or sys.stdin.readline().strip() != "go":
        return 0

    tracer = Tracer() if "--trace" in argv else None

    def emit(record):
        proto.write(json.dumps(record) + "\n")
        proto.flush()

    with spread_over_cpus():
        wall, _ = run_pass(argvs, tracer, emit)
    done = {
        "done": True,
        "wall_s": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        done["metrics"] = tracer.metrics()
        done["counts"] = tracer.counts()
    proto.write(json.dumps(done) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
