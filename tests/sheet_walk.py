"""The per-sheet reference for the components of a sheet graph.

walk_components walks every cycle of the three sheet permutations and
computes each component's degree, genus, ram and node profiles from the
marked sheets themselves (enumerate_sheets, in the graph's index order),
with no use of the class graph or of the lift.  The tests
compare hurmono.components, which reads that data off the lift, with it.
"""

from __future__ import annotations

import math

from hurmono.marked import InvariantViolation, riemann_hurwitz_genus
from hurmono.moves import BOUNDARY_LABELS, ComponentReport, SheetGraph, node_product
from hurmono.perms import Partition, cycle_decomposition, cycle_type, orbits
from hurmono.sheets import enumerate_sheets


def _check_full_twist(length: int, profile: Partition, boundary: str, spec) -> None:
    # the move around b conjugates the colliding pair by the node product at b
    if math.lcm(*profile) % length:
        raise InvariantViolation(
            f"a cycle of length {length} of the move around {boundary} does not "
            f"divide the order of its node product {profile} on {spec}"
        )


def walk_components(graph: SheetGraph) -> tuple[ComponentReport, ...]:
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
    n = len(graph.perms)
    if n == 0:
        return ()
    sheets = enumerate_sheets(graph.spec)
    comps = orbits([graph.s[b] for b in BOUNDARY_LABELS], n)
    comp_of = [0] * n
    for k, orbit in enumerate(comps):
        for x in orbit:
            comp_of[x] = k
    # The node product depends on the permutations only: one profile per
    # (unmarked class, boundary).
    profiles: dict[tuple, Partition] = {}
    # cycles[b][k]: (length, node profile) per cycle of s[b] inside component
    # k, in canonical order
    cycles = {b: [[] for _ in comps] for b in BOUNDARY_LABELS}
    for b in BOUNDARY_LABELS:
        for c in cycle_decomposition(graph.s[b]):
            t = sheets[c[0]]
            if (t.perms, b) not in profiles:
                profiles[t.perms, b] = cycle_type(node_product(t, b))
            profile = profiles[t.perms, b]
            _check_full_twist(len(c), profile, b, graph.spec)
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
