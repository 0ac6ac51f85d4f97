"""The names the benchmark's tracer wraps must stay in place.

`perfbench/tracing.py` times each layer by replacing module-level names of
`hurmono` (`TARGETS`, the `moves.MOVES` table and the `_unmarked_minimum`
cache).  A name that goes away silently drops its metrics from a traced run,
so a refactor that moves one must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hurmono import marked, moves
from hurmono.moves import BOUNDARY_LABELS

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in TARGETS], ids=[f"{m}.{a}" for m, a, _ in TARGETS]
)
def test_traced_name_is_callable(module_name, attr):
    module = importlib.import_module(f"hurmono.{module_name}")
    assert callable(getattr(module, attr, None))


def test_moves_table_is_keyed_by_boundary_labels():
    assert isinstance(moves.MOVES, dict)
    assert set(moves.MOVES) == set(BOUNDARY_LABELS)
    assert all(callable(fn) for fn in moves.MOVES.values())


def test_unmarked_minimum_is_cached():
    assert callable(marked._unmarked_minimum.cache_info)
