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
of U the same way: in coordinates (sheets.coordinate_reader) it sends the sheet
g H_U to g k H_U' for one voltage k in the marking group G.  class_graph runs
each move once per class, on the first marking, and checks that the moves
permute the sheets and that zero, then one, then infty compose to the
identity.  The sheet graph is the derived graph of this voltage assignment
(Gross & Tucker, Discrete Math. 18, 1977): build_sheet_graph reads it off
per sheet, through the coset tables the marking sweep builds.

The three sheet permutations generate the monodromy group of the target
map, whose orbits are the connected components of the space.  _lift, the
one computation of their data, reads each component's degree, ramification
and node profiles off the class graph alone, with no marked sheet listed,
and Riemann-Hurwitz over the genus-0 moduli of 4-marked targets gives its
genus.  lifted_components returns that data per unmarked component;
components gives it to the orbits of the sheet permutations.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from operator import itemgetter
from typing import NamedTuple

from .marked import (
    HurwitzSpec,
    InvariantViolation,
    LabelVector,
    MarkedTuple,
    SpecError,
    riemann_hurwitz_genus,
    # Not called: the benchmark's tracer wraps these names until ROADMAP item 1.
    canonicalize,
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
    group_order,
    inverse,
    orbits,
)
from .sheets import (
    _scan,
    _sheets_of_unmarked_class,
    coordinate_reader,
    # Not called: the benchmark's tracer wraps this name until ROADMAP item 1.
    enumerate_sheets,
    first_marking,
    label_stabilizer,
    marking_group_order,
)


def half_twist(
    perms: tuple[Perm, ...], labels: tuple[LabelVector, ...], i: int, sign: int
) -> tuple[tuple[Perm, ...], tuple[LabelVector, ...]]:
    """b_i (sign > 0) or b_i^-1 (sign < 0) on fibers i and i+1, counted from 1."""
    a, b = perms[i - 1], perms[i]
    # one loop conjugates p by w, sending w(x) to w(p(x)), and moves x's label to w(x)
    w, p, lab = (a, b, labels[i]) if sign > 0 else (inverse(b), a, labels[i - 1])
    image, moved = [0] * len(p), [0] * len(p)
    for x, y in enumerate(w):
        image[y], moved[y] = w[p[x]], lab[x]
    if sign > 0:
        pair, marks = (tuple(image), a), (tuple(moved), labels[i - 1])
    else:
        pair, marks = (b, tuple(image)), (labels[i], tuple(moved))
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


class LiftedComponent(NamedTuple):
    """The ``copies`` marked components over one unmarked component, whose
    canonical classes are ``classes``: G-translates of one another, each with
    this degree, genus, ram and nodes (keyed by BOUNDARY_LABELS)."""

    classes: tuple[tuple[Perm, ...], ...]
    copies: int
    degree: int
    genus: int
    ram: Mapping[str, Partition]
    nodes: Mapping[str, tuple[Partition, ...]]


class SheetGraph(NamedTuple):
    """Canonical sheets plus the three induced permutations of their indices,
    keyed by BOUNDARY_LABELS, and ``lifted``, the space's lifted_components
    computed from the same class graph."""

    spec: HurwitzSpec
    sheets: tuple[MarkedTuple, ...]
    s: Mapping[str, tuple[int, ...]]
    lifted: tuple[LiftedComponent, ...]


class ComponentReport(NamedTuple):
    """One connected component of the space as a cover of the target moduli.

    ``ram`` and ``nodes`` are keyed by BOUNDARY_LABELS.
    """

    sheet_indices: tuple[int, ...]
    degree: int
    genus: int
    ram: Mapping[str, Partition]
    nodes: Mapping[str, tuple[Partition, ...]]


def class_graph(spec: HurwitzSpec, classes, auts, locate):
    """The three moves on ``classes``, the ascending unmarked classes of a
    space, given their Aut(U) and the scan's ``locate`` (sheets._scan):
    (stabilizers, target, voltage).

    Each move runs once per class U, on its first marking.  The move around
    b sends the u-th class to the target[b][u]-th, U', and the sheet
    (U, g H_U) to (U', g k H_U'), H_U = stabilizers[u] (label_stabilizer).
    k = voltage[b][u] is the coordinate of the image's marking transported by
    the w t w^-1 = U' that locate finds; any w serves, as another is a w, a
    in Aut(U'), which turns k into k h, h in H_U', the same coset.  The sheet
    graph is the derived graph of this voltage assignment in G.

    Raises InvariantViolation when a move leaves ``classes``; when it does
    not permute the classes or some k^-1 H_U k is not H_U', so that it is not
    a bijection of sheets; and unless zero, then one, then infty return every
    class U with a voltage in H_U, so that they compose to e on the sheets.
    """
    index = {u: k for k, u in enumerate(classes)}
    stabilizers = tuple(map(label_stabilizer, classes, auts))
    e = tuple(range(sum(map(len, spec.profiles))))  # on the label points
    firsts = [MarkedTuple(u, first_marking(u)) for u in classes]
    readers = list(map(coordinate_reader, classes))
    target, voltage = {}, {}
    for b, move in MOVES.items():
        target[b], voltage[b] = [], []
        for t in map(move, firsts):
            found = locate(t.perms)
            if found is None:
                raise InvariantViolation(f"move around {b} left the sheet set of {spec}")
            target[b].append(v := index[found[0]])
            voltage[b].append(readers[v](t.labels, inverse(found[1])))
        # k^-1 H_U k = H_U' checked as H_U k = k H_U'; itemgetter(*k)(h) is h k
        if sorted(target[b]) != list(range(len(classes))) or any(
            set(map(itemgetter(*k), stabilizers[u])) != {itemgetter(*h)(k) for h in stabilizers[v]}
            for u, (v, k) in enumerate(zip(target[b], voltage[b]))
        ):
            raise InvariantViolation(f"move around {b} is not a bijection of sheets")
    for u in range(len(classes)):
        v, k = u, e
        for b in BOUNDARY_LABELS:
            v, k = target[b][v], compose(k, voltage[b][v])
        if v != u or k not in stabilizers[u]:
            raise InvariantViolation(
                f"moves around zero, then one, then infty do not compose to e on {spec}"
            )
    return stabilizers, target, voltage


def build_sheet_graph(spec: HurwitzSpec) -> SheetGraph:
    """Enumerate the sheets and the action of the three moves on them: the
    derived graph of class_graph on the unmarked classes of the space, with
    the lift of its components (``lifted``).

    The marking sweep of each class U' tables every element of G to the
    sheet over U' whose coset holds it; that table reads the image g k H_U'
    of each sheet g H_U.  Raises as unmarked_classes does, and
    InvariantViolation where class_graph and lifted_components do.
    """
    if spec.m != 4:
        raise SpecError("monodromy requires exactly 4 marked fibers")
    classes, auts, locate = _scan(spec)
    stabilizers, target, voltage = class_graph(spec, classes, auts, locate)
    lifted = _lift(spec, classes, stabilizers, target, voltage)
    # coordinates[u]: the coordinate of each sheet over class u; tables[u]:
    # every element of G to the index of the sheet over u whose coset holds it
    sheets, coordinates, tables = [], [], []
    for perms, stabilizer in zip(classes, stabilizers):
        swept, coords, table = _sheets_of_unmarked_class(perms, spec, stabilizer, len(sheets))
        sheets += swept
        coordinates.append(coords)
        tables.append(table)
    sheets = tuple(sheets)
    maps = {}
    for b in BOUNDARY_LABELS:
        images = []
        for coords, v, k in zip(coordinates, target[b], voltage[b]):
            get, table = itemgetter(*k), tables[v]
            images += [table[get(g)] for g in coords]
        maps[b] = tuple(images)
    return SheetGraph(spec=spec, sheets=sheets, s=maps, lifted=lifted)


def components(graph: SheetGraph) -> tuple[ComponentReport, ...]:
    """Connected components with target-map degree, ramification, and genus.

    The components are the orbits of the group generated by the three sheet
    permutations; each takes its degree, genus, ram and nodes from the
    LiftedComponent of ``graph.lifted`` that holds the class of its first
    sheet (every marked component over one unmarked component carries the
    same data).  Sorted by (degree, genus, ram, sheet indices) for
    reproducibility.  The checks are build_sheet_graph's; a hand-built graph
    is not checked again.
    """
    lifted = {u: c for c in graph.lifted for u in c.classes}
    reports = []
    for orbit in orbits([graph.s[b] for b in BOUNDARY_LABELS], len(graph.sheets)):
        c = lifted[graph.sheets[orbit[0]].perms]
        reports.append(ComponentReport(orbit, c.degree, c.genus, c.ram, c.nodes))
    reports.sort(
        key=lambda r: (
            r.degree, r.genus, *(r.ram[b] for b in BOUNDARY_LABELS), r.sheet_indices
        )
    )
    return tuple(reports)


def check_unmarked_image(degree: int, genus: int, base_degree: int, base_genus: int) -> None:
    """Raise InvariantViolation unless a marked component of ``degree`` and
    ``genus`` can cover an unmarked one of ``base_degree`` and ``base_genus``:
    a finite map of curves pulls H^1 back injectively, so the genus does not
    drop, and the degrees over the target moduli multiply."""
    if genus < base_genus or degree % base_degree:
        raise InvariantViolation(
            f"a marked component of degree {degree} and genus {genus} cannot cover "
            f"its unmarked image of degree {base_degree} and genus {base_genus}"
        )


def lifted_components(spec: HurwitzSpec) -> tuple[LiftedComponent, ...]:
    """The marked components of the space, from the unmarked classes alone,
    grouped by the unmarked component they cover.

    The sheets over a class U are the cosets G/H_U, and the marked sheet
    graph is the derived graph of class_graph's voltage assignment, the
    same one build_sheet_graph derives.  Per unmarked component C, with
    t_U from a spanning tree, Gamma_C = <t_U H_U t_U^-1, t_U k t_U'^-1> and C
    carries |G|/|Gamma_C| marked components of degree sum_U |Gamma_C|/|H_U|.
    A cycle of a class move of length l through U, with holonomy q, lifts to
    |Gamma_C|/(|H_U| r) cycles of length l r per marked component, r >= 1
    least with q^r in H_U.

    Raises InvariantViolation where class_graph does; when a lifted cycle of
    the move around b has a length that does not divide the order of its node
    product (the move conjugates the colliding pair by that product, so that
    power of the move fixes every sheet); and where check_unmarked_image does.
    """
    if spec.m != 4:
        raise SpecError("monodromy requires exactly 4 marked fibers")
    classes, auts, locate = _scan(spec)
    return _lift(spec, classes, *class_graph(spec, classes, auts, locate))


def _lift(spec: HurwitzSpec, classes, stabs, target, voltage) -> tuple[LiftedComponent, ...]:
    """lifted_components from class_graph(spec, classes)."""
    if not classes:
        return ()
    e = tuple(range(sum(map(len, spec.profiles))))  # on the label points
    comps = orbits(list(target.values()), len(classes))
    comp_of = {u: c for c, comp in enumerate(comps) for u in comp}
    cycles = [[] for _ in comps]  # (boundary, cycle of its class move) per component
    for b in BOUNDARY_LABELS:
        for cycle in cycle_decomposition(tuple(target[b])):
            cycles[comp_of[cycle[0]]].append((b, cycle))
    order = marking_group_order(spec)
    out = []
    for comp, comp_cycles in zip(comps, cycles):
        t, todo = {comp[0]: e}, [comp[0]]  # t_U along a breadth-first spanning tree
        for u in todo:
            for b in BOUNDARY_LABELS:
                if target[b][u] not in t:
                    t[target[b][u]] = compose(t[u], voltage[b][u])
                    todo.append(target[b][u])
        gens = {conjugate(t[u], h) for u in comp for h in stabs[u]}
        gens.update(
            compose_all((t[u], voltage[b][u], inverse(t[target[b][u]])))
            for b in BOUNDARY_LABELS
            for u in comp
        )
        gamma = group_order(gens, len(e))
        ram = {b: [] for b in BOUNDARY_LABELS}
        nodes = {b: [] for b in BOUNDARY_LABELS}
        for b, cycle in comp_cycles:
            u, q = cycle[0], compose_all([voltage[b][w] for w in cycle])
            power, r = q, 1
            while power not in stabs[u]:
                power, r = compose(power, q), r + 1
            length = len(cycle) * r
            profile = cycle_type(node_product(MarkedTuple(perms=classes[u], labels=()), b))
            if math.lcm(*profile) % length:
                raise InvariantViolation(
                    f"a cycle of length {length} of the move around {b} does not "
                    f"divide the order of its node product {profile} on {spec}"
                )
            lifts = gamma // (len(stabs[u]) * r)
            ram[b] += [length] * lifts
            nodes[b] += [profile] * lifts
        degree = sum(gamma // len(stabs[u]) for u in comp)
        total_ram = sum(length - 1 for b in BOUNDARY_LABELS for length in ram[b])
        genus = riemann_hurwitz_genus(degree, total_ram, "component")
        base_ram = sum(len(cycle) - 1 for _, cycle in comp_cycles)
        base_genus = riemann_hurwitz_genus(len(comp), base_ram, "unmarked component")
        check_unmarked_image(degree, genus, len(comp), base_genus)
        out.append(
            LiftedComponent(
                classes=tuple(classes[u] for u in comp),
                copies=order // gamma,
                degree=degree,
                genus=genus,
                ram={b: tuple(sorted(ram[b], reverse=True)) for b in BOUNDARY_LABELS},
                nodes={b: tuple(sorted(nodes[b], reverse=True)) for b in BOUNDARY_LABELS},
            )
        )
    return tuple(out)


def component_multiset(reports) -> tuple[tuple[int, int, int], ...]:
    """Aggregate components to sorted (count, genus, degree) triples; a
    LiftedComponent counts as its ``copies``."""
    counts: dict[tuple[int, int], int] = {}
    for r in reports:
        key = (r.genus, r.degree)
        counts[key] = counts.get(key, 0) + getattr(r, "copies", 1)
    return tuple(sorted((c, g, deg) for (g, deg), c in counts.items()))
