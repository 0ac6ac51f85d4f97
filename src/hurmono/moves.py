"""Monodromy of the target map for m = 4 marked fibers.

At each of the three boundary points of the moduli of 4-marked targets,
fiber i = COLLIDING[b] collides with fiber 4.  The loop around b induces the
full twist of that pair, Artin's pure braid A_{i4}, as a move on monodromy
tuples: a word in the half-twists b_1, b_2, b_3, where b_i acts on fibers
i and i+1 by

  b_i:     (sigma_i, sigma_{i+1}) -> (sigma_i sigma_{i+1} sigma_i^-1, sigma_i)
  b_i^-1:  (sigma_i, sigma_{i+1}) -> (sigma_{i+1}, sigma_{i+1}^-1 sigma_i sigma_{i+1})

and the conjugated fiber's marking is transported through its conjugator.
Applied left to right, A_{i4} = b_3 ... b_{i+1} b_i b_i b_{i+1}^-1 ... b_3^-1:
the prefix carries fiber 4 next to fiber i and the full twist conjugates the
pair by its product, the node product at b (README.md's main conjugator).

A move sends an unmarked class U to one class U' and relabels every marking
of U the same way.  So build_sheet_graph applies each move once per class,
to U with position labels; per sheet it only gathers the labels through the
result and looks the gathered key up in the table of the marking orbits of
U'.  The sheets arrive from enumerate_sheets in canonical order, with the
sheets of one class contiguous, and nothing sorts them again.

Each move permutes the canonical sheet set of a space, and the moves around
zero, then one, then infty compose to the identity; build_sheet_graph checks
both.  The three permutations generate the monodromy group of the target
map, whose orbits are the connected components of the space.  Per
component, Riemann-Hurwitz over the genus-0 moduli of 4-marked targets gives
the component genus from the three ramification partitions.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .marked import (
    HurwitzSpec,
    InvariantViolation,
    LabelVector,
    MarkedTuple,
    SpecError,
    canonicalize,
    riemann_hurwitz_genus,
    # Not called: the benchmark's tracer wraps this name until ROADMAP item 1.
    tuple_key,
)
from .perms import (
    Partition,
    Perm,
    compose,
    compose_all,
    conjugate,
    cycle_decomposition,
    cycle_type,
    inverse,
    orbits,
)
from .sheets import enumerate_sheets, orbit_maps


def half_twist(
    perms: tuple[Perm, ...], labels: tuple[LabelVector, ...], i: int, sign: int
) -> tuple[tuple[Perm, ...], tuple[LabelVector, ...]]:
    """b_i (sign > 0) or b_i^-1 (sign < 0) on fibers i and i+1, counted from 1."""
    a, b = perms[i - 1], perms[i]
    la, lb = labels[i - 1], labels[i]
    if sign > 0:
        pair = (conjugate(a, b), a)
        marks = (tuple(lb[x] for x in inverse(a)), la)
    else:
        pair = (b, conjugate(inverse(b), a))
        marks = (lb, tuple(la[x] for x in b))
    return perms[: i - 1] + pair + perms[i + 1 :], labels[: i - 1] + marks + labels[i + 1 :]


# At boundary point b, fiber COLLIDING[b] collides with fiber 4.  WORDS[b] is the
# move A_{i4} applied left to right: k stands for b_k, -k for b_k^-1.  The keys,
# in this order, are the boundary labels of every move, report and writer.
COLLIDING = {"zero": 1, "one": 2, "infty": 3}
BOUNDARY_LABELS = tuple(COLLIDING)
WORDS = {b: (*range(3, i, -1), i, i, *range(-i - 1, -4, -1)) for b, i in COLLIDING.items()}


def node_product(t: MarkedTuple, boundary: str) -> Perm:
    """The permutation whose cycle type is the ramification profile over the
    node at the named boundary point (m = 4 only): sigma_i times sigma_4
    carried through sigma_3, ..., sigma_{i+1}, for i = COLLIDING[boundary].
    """
    if t.m != 4:
        raise SpecError("monodromy requires exactly 4 marked fibers")
    if boundary not in COLLIDING:
        raise ValueError(f"unknown boundary label {boundary!r}")
    i = COLLIDING[boundary]
    carried = t.perms[3]
    for j in range(3, i, -1):
        carried = conjugate(t.perms[j - 1], carried)
    return compose(t.perms[i - 1], carried)


def _braid_move(word: tuple[int, ...]):
    def move(t: MarkedTuple) -> MarkedTuple:
        if t.m != 4:
            raise SpecError("monodromy requires exactly 4 marked fibers")
        perms, labels = t.perms, t.labels
        for k in word:
            perms, labels = half_twist(perms, labels, abs(k), k)
        return MarkedTuple(perms=perms, labels=labels)

    return move


MOVES = {b: _braid_move(WORDS[b]) for b in BOUNDARY_LABELS}


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

    Each move runs once per unmarked class U, on U labelled by positions:
    ``positions[i][x] = i*d + x``.  Its canonical form lies over the class U'
    and its labels name, per point, the position in a sheet's flat label key
    that the image reads, so one gather and one lookup in the table of
    marking-orbit keys of U' give each sheet's image.

    Raises InvariantViolation unless each move permutes the sheets and the
    moves around zero, then one, then infty compose to the identity (the
    loops around the three boundary points compose to a contractible loop).
    """
    if spec.m != 4:
        raise SpecError("monodromy requires exactly 4 marked fibers")
    sheets = enumerate_sheets(spec)
    keys = [tuple(chain.from_iterable(t.labels)) for t in sheets]
    classes: dict[tuple[Perm, ...], list[int]] = {}
    for k, t in enumerate(sheets):
        classes.setdefault(t.perms, []).append(k)
    # tables[U]: every marking vector of U, as a flat key, to its sheet index
    tables = {}
    for perms, members in classes.items():
        getters = orbit_maps(perms)
        table = tables[perms] = {}
        for k in members:
            table[keys[k]] = k
            for g in getters:
                table[g(keys[k])] = k
    d = spec.d
    positions = tuple(tuple(range(i * d, (i + 1) * d)) for i in range(spec.m))
    maps = {}
    for boundary, mover in MOVES.items():
        images = [0] * len(sheets)
        for perms, members in classes.items():
            moved = canonicalize(mover(MarkedTuple(perms=perms, labels=positions)))
            get = itemgetter(*chain.from_iterable(moved.labels))
            try:
                table = tables[moved.perms]
                for k in members:
                    images[k] = table[get(keys[k])]
            except KeyError:
                raise InvariantViolation(
                    f"move around {boundary} left the sheet set of {spec}"
                ) from None
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
    and the sum over boundaries of sum of (part - 1), and the node profiles
    collect cycle_type(node_product(., b)) for one sheet per cycle of s[b]
    (the move around b fixes the node product at b).
    Sorted by (degree, genus, ram) for reproducibility.

    Raises InvariantViolation when a cycle of s[b] has a length that does not
    divide the order of its node product: the move around b conjugates the
    colliding pair by that product, so that power of s[b] is the identity.
    """
    n = len(graph.sheets)
    if n == 0:
        return ()
    comps = orbits([graph.s[b] for b in BOUNDARY_LABELS], n)
    comp_of = [0] * n
    for k, orbit in enumerate(comps):
        for x in orbit:
            comp_of[x] = k
    # The node product depends on the permutations only: one profile, with its
    # lcm, per (unmarked class, boundary).
    profiles: dict[tuple, tuple[Partition, int]] = {}
    # cycles[b][k]: (length, node profile) per cycle of s[b] inside component
    # k, in canonical order
    cycles = {b: [[] for _ in comps] for b in BOUNDARY_LABELS}
    for b in BOUNDARY_LABELS:
        for c in cycle_decomposition(graph.s[b]):
            t = graph.sheets[c[0]]
            if (t.perms, b) not in profiles:
                profile = cycle_type(node_product(t, b))
                profiles[t.perms, b] = profile, math.lcm(*profile)
            profile, order = profiles[t.perms, b]
            if order % len(c):
                raise InvariantViolation(
                    f"a cycle of length {len(c)} of the move around {b} does not "
                    f"divide the order of its node product {profile} on {graph.spec}"
                )
            cycles[b][comp_of[c[0]]].append((len(c), profile))
    reports = []
    for k, orbit in enumerate(comps):
        degree = len(orbit)
        total_ram = sum(length - 1 for b in BOUNDARY_LABELS for length, _ in cycles[b][k])
        reports.append(
            ComponentReport(
                sheet_indices=orbit,
                degree=degree,
                genus=riemann_hurwitz_genus(degree, total_ram, "component"),
                ram={b: tuple([length for length, _ in cycles[b][k]]) for b in BOUNDARY_LABELS},
                nodes={
                    b: tuple(sorted((profile for _, profile in cycles[b][k]), reverse=True))
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
