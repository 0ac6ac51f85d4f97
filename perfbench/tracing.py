"""Per-layer tracing from outside the program.

A `Tracer` replaces the module-level names through which each `hurmono`
layer is called by timing wrappers, and puts the originals back on exit.
Nothing under `src/` knows about it.  Each wrapper records a span: its call
count, its total time and its self time (the total minus the time of the
wrapped calls it made itself).  Spans nest per thread, so self time is
computed within one thread even when `verify` runs rows on two.

A name that is missing from its module (say a later version drops
`_unmarked_minimum`) is skipped; every metric that needs it is then absent
from `Tracer.metrics()` instead of failing the run.  Wrappers pass
arguments and return values through unchanged.
"""

from __future__ import annotations

import importlib
import threading
from time import perf_counter

# Spans, named after the layer they time.  Where a name is called from two
# modules, both are wrapped into one span.
MAIN = "cli.main"
VERIFY_ALL = "golden.verify_all"
VERIFY_ROW = "golden.verify_row"
GRAPH = "moves.build_sheet_graph"
COMPONENTS = "moves.components"
MOVE = "moves.move"
INDEX_KEY = "moves.tuple_key"
CANON = "moves.canonicalize"
ENUMERATE = "sheets.enumerate_sheets"
CLASS_GEN = "sheets.conjugacy_class"
COMPOSE = "sheets.compose_all"
SIGNATURE = "sheets.signature_of_perms"
UNMARKED_SHEETS = "sheets._unmarked_minimum"
UNMARKED_MARKED = "marked._unmarked_minimum"
SWEEP = "sheets._sheets_of_unmarked_class"
MARKINGS = "sheets.enumerate_markings"
SORT_KEY = "sheets.tuple_key"
# Not a span: the `cache_info()` of the `_unmarked_minimum` cache.
UNMARKED_CACHE = "marked._unmarked_minimum.cache_info"

# (module, attribute, span) for every wrapped name.
TARGETS = (
    ("cli", "main", MAIN),
    ("cli", "verify_all", VERIFY_ALL),
    ("cli", "build_sheet_graph", GRAPH),
    ("cli", "components", COMPONENTS),
    ("cli", "enumerate_sheets", ENUMERATE),
    ("golden", "verify_row", VERIFY_ROW),
    ("golden", "build_sheet_graph", GRAPH),
    ("golden", "components", COMPONENTS),
    ("moves", "enumerate_sheets", ENUMERATE),
    ("moves", "tuple_key", INDEX_KEY),
    ("moves", "canonicalize", CANON),
    ("sheets", "conjugacy_class", CLASS_GEN),
    ("sheets", "compose_all", COMPOSE),
    ("sheets", "signature_of_perms", SIGNATURE),
    ("sheets", "_unmarked_minimum", UNMARKED_SHEETS),
    ("sheets", "_sheets_of_unmarked_class", SWEEP),
    ("sheets", "enumerate_markings", MARKINGS),
    ("sheets", "tuple_key", SORT_KEY),
    ("marked", "_unmarked_minimum", UNMARKED_MARKED),
)


class _Frame:
    __slots__ = ("span", "start", "child", "product")

    def __init__(self, span: str):
        self.span = span
        self.child = 0.0
        self.product = 1  # marking vectors of one unmarked class (SWEEP only)


class _ThreadStats:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


# Hooks derive counters from a finished call: (thread stats, its frame, the
# calling frame or None, the return value).


def _count_signature_pass(st, frame, parent, result):
    # _unmarked_minimum is also called once per class by the sweep; only the
    # calls made by the prefix scan itself are prefixes that passed the filters.
    if parent is not None and parent.span == ENUMERATE:
        st.bump("signature_pass")


def _count_marking_vectors(st, frame, parent, result):
    if parent is not None and parent.span == SWEEP:
        parent.product *= len(result)


def _count_sweep(st, frame, parent, result):
    st.bump("marking_vectors", frame.product)


def _count_sheets(st, frame, parent, result):
    st.bump("sheets", len(result))


def _count_components(st, frame, parent, result):
    st.bump("components", len(result))


HOOKS = {
    UNMARKED_SHEETS: _count_signature_pass,
    MARKINGS: _count_marking_vectors,
    SWEEP: _count_sweep,
    ENUMERATE: _count_sheets,
    COMPONENTS: _count_components,
}


class Tracer:
    """Context manager that wraps the layer entry points of `hurmono`."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self._cache = None
        self._misses_before = 0

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
            return st

    def wrap_function(self, fn, span: str):
        """A wrapper around ``fn`` that records one ``span`` per call."""
        hook = HOOKS.get(span)

        def wrapper(*args, **kwargs):
            st = self._stats()
            stack = st.stack
            frame = _Frame(span)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame.start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += elapsed
                st.calls[span] = st.calls.get(span, 0) + 1
                st.total[span] = st.total.get(span, 0.0) + elapsed
                st.self_time[span] = st.self_time.get(span, 0.0) + elapsed - frame.child
            if hook is not None:
                hook(st, frame, parent, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        # Read the cache before its function is wrapped: wrappers carry no cache_info.
        marked = importlib.import_module("hurmono.marked")
        cache_info = getattr(getattr(marked, "_unmarked_minimum", None), "cache_info", None)
        if cache_info is not None:
            self._cache = cache_info
            self._misses_before = cache_info().misses
            self.present.add(UNMARKED_CACHE)
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"hurmono.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                self._replace(module, attr, self.wrap_function(fn, span))
                self.present.add(span)
        moves = importlib.import_module("hurmono.moves")
        table = getattr(moves, "MOVES", None)
        if isinstance(table, dict):
            self._replace(
                moves, "MOVES", {k: self.wrap_function(fn, MOVE) for k, fn in table.items()}
            )
            self.present.add(MOVE)
        return self

    def __exit__(self, *exc):
        if self._cache is not None:
            self._stats().bump("unmarked_min_misses", self._cache().misses - self._misses_before)
            self._cache = None
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _merged(self):
        calls, total, self_time, counters = {}, {}, {}, {}
        for st in self._threads:
            for mine, theirs in (
                (calls, st.calls),
                (total, st.total),
                (self_time, st.self_time),
                (counters, st.counters),
            ):
                for k, v in theirs.items():
                    mine[k] = mine.get(k, 0) + v
        return calls, total, self_time, counters

    def counts(self) -> dict[str, int]:
        """Every call count and counter; these repeat exactly from run to run."""
        calls, _, _, counters = self._merged()
        return {**{f"calls:{k}": v for k, v in calls.items()}, **counters}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of `LAYER_METRICS` whose spans were all present."""
        view = _View(*self._merged())
        return {
            name: value(view)
            for name, _, _, needs, value in LAYER_METRICS
            if all(span in self.present for span in needs)
        }


class _View:
    """Merged stats: c(span) calls, t(span) total s, s(span) self s, n(counter)."""

    def __init__(self, calls, total, self_time, counters):
        self.c = lambda span: calls.get(span, 0)
        self.t = lambda span: total.get(span, 0.0)
        self.s = lambda span: self_time.get(span, 0.0)
        self.n = lambda name: counters.get(name, 0)

    @staticmethod
    def ratio(a, b):
        return a / b if b else 0.0


# (name, unit, better, spans it needs, value).  A ratio whose base is 0 on a
# workload (no sheets, so no moves) reads 0.
LAYER_METRICS = (
    ("perms.class_gen_s", "s", "lower", (CLASS_GEN,), lambda v: v.t(CLASS_GEN)),
    ("sheets.prefixes", "count", "lower", (COMPOSE,), lambda v: v.c(COMPOSE)),
    ("sheets.scan_s", "s", "lower", (ENUMERATE,), lambda v: v.s(ENUMERATE)),
    ("sheets.cycle_type_pass", "count", "lower", (SIGNATURE,), lambda v: v.c(SIGNATURE)),
    (
        "sheets.signature_pass", "count", "lower", (UNMARKED_SHEETS, ENUMERATE),
        lambda v: v.n("signature_pass"),
    ),
    (
        "sheets.filter_yield", "ratio", "higher", (UNMARKED_SHEETS, ENUMERATE, COMPOSE),
        lambda v: v.ratio(v.n("signature_pass"), v.c(COMPOSE)),
    ),
    ("sheets.unmarked_classes", "count", "lower", (SWEEP,), lambda v: v.c(SWEEP)),
    (
        "sheets.marking_vectors", "count", "lower", (SWEEP, MARKINGS),
        lambda v: v.n("marking_vectors"),
    ),
    (
        "sheets.sweep_yield", "ratio", "higher", (SWEEP, MARKINGS, ENUMERATE),
        lambda v: v.ratio(v.n("sheets"), v.n("marking_vectors")),
    ),
    ("sheets.marking_sweep_s", "s", "lower", (SWEEP,), lambda v: v.s(SWEEP)),
    ("sheets.sort_s", "s", "lower", (SORT_KEY,), lambda v: v.t(SORT_KEY)),
    ("sheets.sheets", "count", "higher", (ENUMERATE,), lambda v: v.n("sheets")),
    ("marked.signature_s", "s", "lower", (SIGNATURE,), lambda v: v.t(SIGNATURE)),
    (
        "marked.unmarked_min_s", "s", "lower", (UNMARKED_SHEETS, UNMARKED_MARKED),
        lambda v: v.t(UNMARKED_SHEETS) + v.t(UNMARKED_MARKED),
    ),
    (
        "marked.unmarked_min_calls", "count", "lower", (UNMARKED_SHEETS, UNMARKED_MARKED),
        lambda v: v.c(UNMARKED_SHEETS) + v.c(UNMARKED_MARKED),
    ),
    (
        "marked.unmarked_min_misses", "count", "lower", (UNMARKED_CACHE,),
        lambda v: v.n("unmarked_min_misses"),
    ),
    ("marked.markings_s", "s", "lower", (MARKINGS,), lambda v: v.t(MARKINGS)),
    ("moves.moves_applied", "count", "lower", (MOVE,), lambda v: v.c(MOVE)),
    ("moves.move_s", "s", "lower", (MOVE,), lambda v: v.t(MOVE)),
    ("moves.index_key_calls", "count", "lower", (INDEX_KEY,), lambda v: v.c(INDEX_KEY)),
    ("moves.index_key_s", "s", "lower", (INDEX_KEY,), lambda v: v.t(INDEX_KEY)),
    ("moves.graph_self_s", "s", "lower", (GRAPH,), lambda v: v.s(GRAPH)),
    ("moves.canon_fallbacks", "count", "lower", (CANON,), lambda v: v.c(CANON)),
    ("moves.canon_fallback_s", "s", "lower", (CANON,), lambda v: v.t(CANON)),
    (
        "moves.fallback_ratio", "ratio", "lower", (CANON, MOVE),
        lambda v: v.ratio(v.c(CANON), v.c(MOVE)),
    ),
    ("moves.components_s", "s", "lower", (COMPONENTS,), lambda v: v.t(COMPONENTS)),
    ("moves.components", "count", "higher", (COMPONENTS,), lambda v: v.n("components")),
    ("golden.verify_row_self_s", "s", "lower", (VERIFY_ROW,), lambda v: v.s(VERIFY_ROW)),
    ("cli.self_s", "s", "lower", (MAIN,), lambda v: v.s(MAIN)),
)

# Measured by the run itself rather than by the tracer.
RUN_METRICS = (
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
