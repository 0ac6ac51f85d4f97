"""Sheet enumeration: one canonical marked tuple per simultaneous-conjugacy
class compatible with a Hurwitz spec.

unmarked_classes is the prefix scan.  Before it, splits_among_components
checks that each profile splits among the source components with
Riemann-Hurwitz holding on each.  Every tuple of the space makes such a
split, so a rejection proves the space empty, and unmarked_classes returns ()
without building a conjugacy class.  The scan is orderly generation (McKay
1998): it meets each class once, at its canonical form U, the least conjugate.
U's sigma_1 is the least of its class, kept exactly by Z(sigma_1) (S_d if
sigma_1 = e); sigma_2 is then the least, so the first in class order, of its
Z(sigma_1)-orbit, the conjugators left are its stabilizer, and so on to
sigma_{m-1}; sigma_m is forced.  So each free fiber runs over the first member
of each orbit of the prefix's stabilizer, whole classes once it is {e}; the
loops meet the classes ascending, and the candidates passing the last cycle
type and the component-signature filter are the U.

A marking of U is encoded by its coordinate in the marking group G (per
fiber, the relabelings of equal-length cycles), which acts freely and
transitively on the markings of U.  The sheets over U are therefore the
cosets g H_U, H_U the image of Aut(U) in G (label_stabilizer), and
count_sheets sums |G|/|H_U| without the sweep.  The sweep walks the
coordinates of U in ascending order and enters the coset of each one not in
its table yet, so the coordinate it keeps is the least of its coset: a
canonical sheet.  The table, each g in G to its sheet's index, is the index
moves.build_sheet_graph reads the moves through.

Nothing sorts the sheets: the classes are swept in ascending order, tuple_key
compares the permutations first, and ascending coordinates are ascending
labels read in canonical cycle order.  The sheets of one class are contiguous.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import getitem, itemgetter

from .marked import (
    HurwitzSpec,
    LabelVector,
    MarkedTuple,
    _least_of_class,
    _unmarked_minimum,
    enumerate_markings,
    signature_of_perms,
    splits_among_components,
    transport_labels,
    # Not called: the benchmark's tracer wraps this name until ROADMAP item 1.
    tuple_key,
)
from .perms import (
    Perm,
    TooLargeError,
    check_degree,
    compose_all,
    conjugacy_class,
    conjugate,
    cycle_decomposition,
    cycle_type,
    inverse,
)

MAX_ENUM_FIBERS = 6


def check_fiber_count(m: int) -> None:
    if m > MAX_ENUM_FIBERS:
        raise TooLargeError(
            f"instance too large: enumeration supports m <= {MAX_ENUM_FIBERS}, got {m}"
        )


def unmarked_classes(spec: HurwitzSpec) -> tuple[tuple[Perm, ...], ...]:
    """The canonical permutation tuples U of the space's sheets, ascending.

    One per simultaneous-conjugacy class of tuples with cycle_type(sigma_i) =
    mu_i, identity product, and component signature equal to the spec's
    {(d_l, g_l)}.  May be empty.  Raises TooLargeError for m > MAX_ENUM_FIBERS,
    then for d > MAX_DEGREE, empty spaces included.  Then, if
    splits_among_components(spec) is False, which proves the space empty, it
    returns () before any class is built.  Otherwise sigma_1 is the least of
    its class and sigma_2..sigma_{m-1} run over the least member of each
    Z(sigma_1)-orbit of their product, so every class is met once, canonical.
    """
    check_fiber_count(spec.m)
    d = check_degree(spec.d)
    if not splits_among_components(spec):
        return ()
    want = spec.signature
    classes = [conjugacy_class(mu, d) for mu in spec.profiles[1:-1]]  # sigma_m is forced
    last_mu = spec.profiles[-1]
    out = []
    first, _, group = _least_of_class(spec.profiles[0], d)
    for prefix in _orbit_representatives((first,), classes, group):
        last = inverse(compose_all(prefix))
        if cycle_type(last) != last_mu:
            continue
        perms = (*prefix, last)
        if signature_of_perms(perms, d) == want:
            out.append(perms)
    return tuple(out)


def enumerate_sheets(spec: HurwitzSpec) -> tuple[MarkedTuple, ...]:
    """All sheets of the space over the open target moduli, in canonical order:
    the markings of each of unmarked_classes(spec), class by class.

    Exactly one representative per simultaneous-conjugacy class of marked
    tuples; raises as unmarked_classes does.
    """
    return tuple(
        itertools.chain.from_iterable(
            _sheets_of_unmarked_class(perms, spec, label_stabilizer(perms), 0)[0]
            for perms in unmarked_classes(spec)
        )
    )


def _orbit_representatives(prefix, classes, group):
    """``prefix`` followed by the least member of each ``group``-conjugation
    orbit of the product of ``classes``, ascending; ``group`` fixes ``prefix``.
    The head is the first member of its orbit in ``classes[0]``, and the tail
    recurses under the head's stabilizer; under {e} every tuple is least."""
    if len(group) == 1 or not classes:
        yield from itertools.product(*[(p,) for p in prefix], *classes)
        return
    seen = set()
    for p in classes[0]:
        if p not in seen:
            images = [conjugate(z, p) for z in group]
            seen.update(images)
            stabilizer = [z for z, q in zip(group, images) if q == p]
            yield from _orbit_representatives((*prefix, p), classes[1:], stabilizer)


def _sheets_of_unmarked_class(perms, spec: HurwitzSpec, stabilizer, start: int):
    """The canonical sheets over the (canonical) ``perms``, given H_U =
    ``stabilizer``: (sheets, their coordinates, table).

    Walks the coordinates of the markings in ascending order; each one not in
    the table yet is the least of its coset g H_U, hence canonical, and its
    coset enters the table, every element mapped to one shared int: the
    sheet's index, counted from ``start``.
    """
    # per fiber i, each part of a coordinate to the marking of sigma_i it reads
    parts, offset = [], -1
    for p, mu in zip(perms, spec.profiles):
        firsts = [cyc[0] for cyc in cycle_decomposition(p)]  # as tuple_key reads them
        markings = enumerate_markings(p, mu)
        parts.append({tuple(offset + lab[x] for x in firsts): lab for lab in markings})
        offset += len(mu)
    getters = [itemgetter(*h) for h in stabilizer]
    sheets, coordinates, table = [], [], {}
    for coordinate_parts in itertools.product(*parts):
        g = tuple(itertools.chain.from_iterable(coordinate_parts))
        if g in table:
            continue
        n = start + len(sheets)
        for get in getters:
            table[get(g)] = n
        labels = tuple(map(getitem, parts, coordinate_parts))
        sheets.append(MarkedTuple(perms=perms, labels=labels))
        coordinates.append(g)
    return sheets, coordinates, table


def marking_group_order(spec: HurwitzSpec) -> int:
    """|G| for G = prod_i prod_l S_{m_l(mu_i)}, the relabelings of the cycles of
    equal length l within each fiber i; G acts freely and transitively on the
    markings of every unmarked class."""
    return math.prod(
        math.factorial(len(list(run))) for mu in spec.profiles for _, run in itertools.groupby(mu)
    )


@lru_cache(maxsize=65536)
def first_marking(perms) -> tuple[LabelVector, ...]:
    """The first vector of enumerate_markings on every fiber: the j-th cycle
    of sigma_i in canonical order carries label j.  Its coordinate is e.
    Cached, as coordinate_reader is: the class graph and H_U both use them."""
    out = []
    for p in perms:
        lab = [0] * len(p)
        for j, cyc in enumerate(cycle_decomposition(p), start=1):
            for x in cyc:
                lab[x] = j
        out.append(tuple(lab))
    return tuple(out)


@lru_cache(maxsize=65536)
def coordinate_reader(perms):
    """The function that sends a marking of ``perms`` to its coordinate in G:
    its labels in canonical cycle order, read on the label points, label j of
    fiber i being the point n_1 + ... + n_{i-1} + j - 1, n_i the cycles of sigma_i.

    Relabeling by h in G sends the coordinate g to h g; transporting by z in
    Aut(perms) sends it to g h_z^-1, h_z the permutation of the cycles by z.
    """
    starts: list[tuple[int, int, int]] = []  # (fiber, first point of a cycle, base)
    for i, lab in enumerate(first_marking(perms)):
        # a cycle starts at its least point, the first one carrying its label
        base = len(starts) - 1
        starts += [(i, lab.index(j), base) for j in range(1, max(lab) + 1)]
    return lambda labels: tuple(base + labels[i][x] for i, x, base in starts)


def label_stabilizer(perms) -> frozenset[Perm]:
    """H_U for the canonical ``perms``: the coordinates of the transports of
    its first marking by every z in Aut(perms).  The markings of the sheet of
    coordinate g are the coset g H_U."""
    read, first = coordinate_reader(perms), first_marking(perms)
    return frozenset(read(transport_labels(z, first)) for z in _unmarked_minimum(perms)[1])


def count_sheets(spec: HurwitzSpec) -> int:
    """Number of sheets of the space, sum over unmarked classes U of
    |G|/|H_U| (the markings of U modulo Aut(U)); 0 for empty spaces."""
    order = marking_group_order(spec)
    return sum(order // len(label_stabilizer(u)) for u in unmarked_classes(spec))
