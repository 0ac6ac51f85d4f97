"""Monodromy of the target map for m = 4 marked fibers.

Transporting a 4-marked target around each of the three boundary points of
its moduli induces a move on monodromy tuples.  Each move conjugates every
fiber by an explicit word in the sigma_i -- the *conjugator tuple* w below --
so sigma_i becomes tau_i = w_i sigma_i w_i^-1 and the fiber's marking is
transported through w_i.  With N_b = marked.node_product(t, b), the node
product at boundary point b, the three moves are:

  around infty:  w = (e, e, N_infty, s3)
  around one:    w = (e, N_one, e, s3^-1 s2 s3)
  around zero:   w = (N_zero, e, e, s3^-1 s2^-1 s1 s2 s3)

Each move permutes the canonical sheet set of a space, and the moves around
zero, then one, then infty compose to the identity; build_sheet_graph checks
both.  The three permutations generate the monodromy group of the target
map, whose orbits are the connected components of the space.  Per
component, Riemann-Hurwitz over the genus-0 moduli of 4-marked targets gives
the component genus from the three ramification partitions.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .marked import (
    BOUNDARY_LABELS,
    HurwitzSpec,
    InvariantViolation,
    MarkedTuple,
    SpecError,
    canonicalize,
    node_product,
    riemann_hurwitz_genus,
    transport_labels,
    tuple_key,
)
from .perms import (
    Partition,
    Perm,
    compose_all,
    conjugate,
    cycle_decomposition,
    cycle_type,
    identity,
    inverse,
    orbits,
)
from .sheets import enumerate_sheets


def _apply_conjugators(ws: tuple[Perm, ...], t: MarkedTuple) -> MarkedTuple:
    return MarkedTuple(
        perms=tuple(conjugate(w, p) for w, p in zip(ws, t.perms)),
        labels=tuple(
            transport_labels(w, (lab,))[0] for w, lab in zip(ws, t.labels)
        ),
    )


def move_infty(t: MarkedTuple) -> MarkedTuple:
    """The move around infty: conjugators (e, e, N_infty, s3)."""
    node = node_product(t, "infty")
    s1, s2, s3, s4 = t.perms
    e = identity(t.degree)
    return _apply_conjugators((e, e, node, s3), t)


def move_one(t: MarkedTuple) -> MarkedTuple:
    """The move around one: conjugators (e, N_one, e, s3^-1 s2 s3)."""
    node = node_product(t, "one")
    s1, s2, s3, s4 = t.perms
    e = identity(t.degree)
    return _apply_conjugators((e, node, e, conjugate(inverse(s3), s2)), t)


def move_zero(t: MarkedTuple) -> MarkedTuple:
    """The move around zero: conjugators (N_zero, e, e, s3^-1 s2^-1 s1 s2 s3)."""
    node = node_product(t, "zero")
    s1, s2, s3, s4 = t.perms
    e = identity(t.degree)
    w4 = conjugate(inverse(s3), conjugate(inverse(s2), s1))
    return _apply_conjugators((node, e, e, w4), t)


MOVES = {"zero": move_zero, "one": move_one, "infty": move_infty}


@dataclass(frozen=True)
class SheetGraph:
    """Canonical sheets plus the three induced permutations of their indices,
    keyed by BOUNDARY_LABELS."""

    spec: HurwitzSpec
    sheets: tuple[MarkedTuple, ...]
    s: Mapping[str, tuple[int, ...]]


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of the space as a cover of the target moduli.

    ``ram`` and ``nodes`` are keyed by BOUNDARY_LABELS.
    """

    sheet_indices: tuple[int, ...]
    degree: int
    genus: int
    ram: Mapping[str, Partition]
    nodes: Mapping[str, tuple[Partition, ...]]


def build_sheet_graph(spec: HurwitzSpec) -> SheetGraph:
    """Enumerate the sheets and the action of the three moves on them.

    Raises InvariantViolation unless each move permutes the sheets and the
    moves around zero, then one, then infty compose to the identity (the
    loops around the three boundary points compose to a contractible loop).
    """
    if spec.m != 4:
        raise SpecError("monodromy requires exactly 4 marked fibers")
    sheets = enumerate_sheets(spec)
    index = {tuple_key(t): k for k, t in enumerate(sheets)}
    maps = {}
    for boundary, mover in MOVES.items():
        images = []
        for t in sheets:
            moved = mover(t)
            k = index.get(tuple_key(moved))
            if k is None:
                k = index.get(tuple_key(canonicalize(moved)))
            if k is None:
                raise InvariantViolation(
                    f"move around {boundary} left the sheet set of {spec}"
                )
            images.append(k)
        if sorted(images) != list(range(len(sheets))):
            raise InvariantViolation(f"move around {boundary} is not a bijection of sheets")
        maps[boundary] = tuple(images)
    if compose_all(maps[b] for b in reversed(BOUNDARY_LABELS)) != tuple(range(len(sheets))):
        raise InvariantViolation(
            f"moves around zero, then one, then infty do not compose to e on {spec}"
        )
    return SheetGraph(spec=spec, sheets=sheets, s=maps)


def components(graph: SheetGraph) -> tuple[ComponentReport, ...]:
    """Connected components with target-map degree, ramification, and genus.

    Per component of the group generated by the three sheet permutations:
    degree is the orbit size, ram over each boundary is the cycle type of the
    restricted permutation, the genus is riemann_hurwitz_genus of the degree
    and the sum over boundaries of sum of (part - 1), and the
    node profiles collect cycle_type(node_product(.)) for one sheet per cycle.
    Sorted by (degree, genus, ram) for reproducibility.
    """
    n = len(graph.sheets)
    if n == 0:
        return ()
    comps = orbits([graph.s[b] for b in BOUNDARY_LABELS], n)
    comp_of = [0] * n
    for k, orbit in enumerate(comps):
        for x in orbit:
            comp_of[x] = k
    # cycles[b][k]: the cycles of s[b] inside component k
    cycles = {b: [[] for _ in comps] for b in BOUNDARY_LABELS}
    for b in BOUNDARY_LABELS:
        for c in cycle_decomposition(graph.s[b]):
            cycles[b][comp_of[c[0]]].append(c)
    reports = []
    for k, orbit in enumerate(comps):
        degree = len(orbit)
        total_ram = sum(len(c) - 1 for b in BOUNDARY_LABELS for c in cycles[b][k])
        reports.append(
            ComponentReport(
                sheet_indices=orbit,
                degree=degree,
                genus=riemann_hurwitz_genus(degree, total_ram, "component"),
                ram={
                    b: tuple(sorted((len(c) for c in cycles[b][k]), reverse=True))
                    for b in BOUNDARY_LABELS
                },
                nodes={
                    b: tuple(
                        sorted(
                            (
                                cycle_type(node_product(graph.sheets[c[0]], b))
                                for c in cycles[b][k]
                            ),
                            reverse=True,
                        )
                    )
                    for b in BOUNDARY_LABELS
                },
            )
        )
    reports.sort(
        key=lambda r: (
            r.degree, r.genus, *(r.ram[b] for b in BOUNDARY_LABELS), r.sheet_indices
        )
    )
    return tuple(reports)


def component_multiset(reports) -> tuple[tuple[int, int, int], ...]:
    """Aggregate components to sorted (count, genus, degree) triples."""
    counts: dict[tuple[int, int], int] = {}
    for r in reports:
        counts[(r.genus, r.degree)] = counts.get((r.genus, r.degree), 0) + 1
    return tuple(sorted((c, g, deg) for (g, deg), c in counts.items()))
