"""Sheet enumeration: one canonical marked tuple per simultaneous-conjugacy
class compatible with a Hurwitz spec.

_scan is the prefix scan behind unmarked_classes.  Before it,
splits_among_components checks that each profile splits among the source
components with Riemann-Hurwitz holding on each.  Every tuple of the space
makes such a split, so a rejection proves the space empty, and the scan finds
no class without building a conjugacy class.  The scan is orderly generation (McKay
1998): it meets each class once, at its canonical form U, the least conjugate.
U's sigma_1 is the least of its class, kept exactly by Z(sigma_1) (S_d if
sigma_1 = e); sigma_2 is then the least, so the first in class order, of its
Z(sigma_1)-orbit, the conjugators left are its stabilizer, and so on to
sigma_{m-1}; sigma_m is forced.  So each free fiber runs over the first member
of each orbit of the prefix's stabilizer, whole classes once it is {e}; the
loops meet the classes ascending, and the candidates passing the last cycle
type and the component-signature filter are the U.  The stabilizer reached
at U is Aut(U).  The scan keeps its orbit tables (Sims's Schreier vectors):
per prefix with a stabilizer other than {e}, each member of the next fiber's
class to one conjugator onto it from its orbit's first member, and the next
table.  _scan's locate reads them to put a tuple in canonical form with its
conjugator, so neither the moves nor H_U scan a coset.

A marking of U is encoded by its coordinate in the marking group G (per
fiber, the relabelings of equal-length cycles), which acts freely and
transitively on the markings of U; G depends on the profiles alone
(marking_factors), and marked.marking_of turns a coordinate into a marking.
The sheets over U are the cosets g H_U, H_U the image of Aut(U) in G
(label_stabilizer), and count_sheets sums |G|/|H_U| without the sweep.  The
sweep walks G in ascending order and enters the coset of each coordinate not
in its table yet, so it keeps the least of each coset: a canonical sheet.
The table, each g in G to its sheet's index, is moves.build_sheet_graph's
index; only enumerate_sheets makes the sheets' labels.  Nothing sorts the
sheets: the classes are swept in ascending order, tuple_key compares the
permutations first, and ascending coordinates are ascending labels read in
canonical cycle order.  The sheets of one class are contiguous.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .marked import (
    HurwitzSpec,
    LabelVector,
    MarkedTuple,
    _least_of_class,
    _onto_least,
    fiber_coordinates,
    marking_of,
    signature_of_perms,
    splits_among_components,
    # Not called: the benchmark's tracer wraps these names until ROADMAP item 1.
    _unmarked_minimum,
    enumerate_markings,
    tuple_key,
)
from .perms import (
    Perm,
    TooLargeError,
    check_degree,
    compose,
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
    """The canonical permutation tuples U of the space's sheets, ascending:
    the classes of _scan, which also hands Aut(U) and locate to the pipeline.

    One per simultaneous-conjugacy class of tuples with cycle_type(sigma_i) =
    mu_i, identity product, and component signature equal to the spec's
    {(d_l, g_l)}.  May be empty.  Raises TooLargeError for m > MAX_ENUM_FIBERS,
    then for d > MAX_DEGREE, empty spaces included.  Then, if
    splits_among_components(spec) is False, which proves the space empty, it
    returns () before any class is built.  Otherwise sigma_1 is the least of
    its class and sigma_2..sigma_{m-1} run over the least member of each
    Z(sigma_1)-orbit of their product, so every class is met once, canonical.
    """
    return _scan(spec)[0]


def _scan(spec: HurwitzSpec):
    """(unmarked_classes(spec), Aut(U) per class, locate): locate(t) is (U', w)
    with U' = w t w^-1 the least conjugate of t, read off the orbit tables by
    w_0, then by each free fiber's entry (z, child); None if U' is no class."""
    check_fiber_count(spec.m)
    d = check_degree(spec.d)
    classes, table = {}, {}  # each class U to Aut(U); the scan's orbit tables
    if splits_among_components(spec):
        want = spec.signature
        free = [conjugacy_class(mu, d) for mu in spec.profiles[1:-1]]  # sigma_m is forced
        first, _, group = _least_of_class(spec.profiles[0], d)
        for prefix, aut in _orbit_representatives((first,), free, group, table):
            perms = (*prefix, inverse(compose_all(prefix)))
            if cycle_type(perms[-1]) == spec.profiles[-1] and signature_of_perms(perms, d) == want:
                classes[perms] = aut

    def locate(t):
        w, e = _onto_least(t[0]), tuple(range(d))
        if w != e:
            t = tuple(conjugate(w, p) for p in t)
        level = table
        for k in range(1, len(t) - 1):
            if not level:
                break
            if (entry := level.get(t[k])) is None:
                return None
            z, level = entry
            if z != e:
                zi = inverse(z)
                t, w = (*t[:k], *(conjugate(zi, p) for p in t[k:])), compose(zi, w)
        return (t, w) if t in classes else None

    return tuple(classes), tuple(classes.values()), locate


def enumerate_sheets(spec: HurwitzSpec) -> tuple[MarkedTuple, ...]:
    """All sheets of the space over the open target moduli, in canonical order:
    the markings of each of unmarked_classes(spec), class by class.

    Exactly one representative per simultaneous-conjugacy class of marked
    tuples; raises as unmarked_classes does.
    """
    classes, auts, _ = _scan(spec)
    factors, out = marking_factors(spec), []
    points = itertools.accumulate(map(len, spec.profiles), initial=0)
    cuts = list(itertools.starmap(slice, itertools.pairwise(points)))  # each fiber's label points
    for u, aut in zip(classes, auts):
        # per fiber, the marking of each coordinate part, shared by the sheets
        marks = [{q: marking_of(p, q, c.start) for q in f} for p, f, c in zip(u, factors, cuts)]
        stabilizer = label_stabilizer(coordinate_reader(u), first_marking(u), aut)
        coordinates, _ = _sheets_of_unmarked_class(factors, stabilizer, 0)
        out += [MarkedTuple(u, tuple([m[g[c]] for m, c in zip(marks, cuts)])) for g in coordinates]
    return tuple(out)


def _orbit_representatives(prefix, classes, group, table):
    """``prefix`` followed by the least member of each ``group``-conjugation
    orbit of the product of ``classes``, ascending, with its stabilizer in
    ``group``, which fixes ``prefix``.  The head is the first member p of its
    orbit in ``classes[0]``, and the tail recurses under p's stabilizer; under
    {e} every tuple is least.  ``table`` gets, per member q of ``classes[0]``,
    (the first z in ``group`` with z p z^-1 = q, the tail's table)."""
    if len(group) == 1 or not classes:
        for tail in itertools.product(*classes):
            yield (*prefix, *tail), group
        return
    for p in classes[0]:
        if p not in table:
            images = [conjugate(z, p) for z in group]
            child = {}
            for z, q in zip(group, images):
                table.setdefault(q, (z, child))
            stabilizer = [z for z, q in zip(group, images) if q == p]
            yield from _orbit_representatives((*prefix, p), classes[1:], stabilizer, child)


def _sheets_of_unmarked_class(factors, stabilizer, start: int):
    """(coordinates, table) of the canonical sheets over one class, given G's
    ``factors`` (marking_factors) and H_U = ``stabilizer``.  Walks G in
    ascending order; each coordinate not in the table yet is the least of its
    coset g H_U, hence canonical, and every element of that coset enters the
    table, mapped to one shared int: the sheet's index, counted from ``start``."""
    getters = [itemgetter(*h) for h in stabilizer]
    coordinates, table = [], {}
    for parts in itertools.product(*factors):
        g = tuple(itertools.chain.from_iterable(parts))
        if g not in table:
            for get in getters:
                table[get(g)] = start + len(coordinates)
            coordinates.append(g)
    return coordinates, table


def marking_factors(spec: HurwitzSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """G's factors, one per fiber, from the profiles alone: fiber i's
    fiber_coordinates from its first label point n_1 + ... + n_{i-1}."""
    bases = itertools.accumulate(map(len, spec.profiles), initial=0)
    return tuple(map(fiber_coordinates, spec.profiles, bases))


def marking_group_order(spec: HurwitzSpec) -> int:
    """|G| for G = prod_i prod_l S_{m_l(mu_i)}, the relabelings of the cycles of
    equal length l within each fiber i; G acts freely and transitively on the
    markings of every unmarked class."""
    return math.prod(
        math.factorial(len(list(run))) for mu in spec.profiles for _, run in itertools.groupby(mu)
    )


def first_marking(perms) -> tuple[LabelVector, ...]:
    """The marking of coordinate e, label j on the j-th cycle of each fiber.
    The pass that holds the class list builds it and coordinate_reader once
    per class (moves.class_graph, count_sheets, enumerate_sheets), uncached."""
    return tuple([marking_of(p, itertools.count(), 0) for p in perms])


def coordinate_reader(perms):
    """The function read(labels, v) that sends a marking of ``perms``,
    transported by v^-1 (labels read at v(x)), to its coordinate in G: its
    labels in canonical cycle order, read on the label points, label j of
    fiber i being the point n_1 + ... + n_{i-1} + j - 1, n_i the cycles of
    sigma_i.  v = w^-1 reads a marking of t through w t w^-1 = ``perms``.

    Relabeling by h in G sends the coordinate g to h g; transporting by z in
    Aut(perms) sends it to g h_z^-1, h_z the permutation of the cycles by z.
    """
    starts: list[tuple[int, int, int]] = []  # (fiber, first point of a cycle, base)
    for i, p in enumerate(perms):
        base = len(starts) - 1
        starts += [(i, cyc[0], base) for cyc in cycle_decomposition(p)]
    return lambda labels, v: tuple([base + labels[i][v[x]] for i, x, base in starts])


def label_stabilizer(read, first, aut) -> frozenset[Perm]:
    """H_U for a canonical class U, given its coordinate_reader ``read``, its
    first_marking ``first`` and Aut(U) = ``aut`` from the scan: the
    coordinates of the first marking read through every z in ``aut``, the
    transports by z^-1, which run over Aut(U) as z does.  The markings of
    the sheet of coordinate g are the coset g H_U."""
    return frozenset(read(first, z) for z in aut)


def count_sheets(spec: HurwitzSpec) -> int:
    """Number of sheets of the space, sum over unmarked classes U of
    |G|/|H_U| (the markings of U modulo Aut(U)); 0 for empty spaces."""
    order, (classes, auts, _) = marking_group_order(spec), _scan(spec)
    readers, firsts = map(coordinate_reader, classes), map(first_marking, classes)
    return sum(order // len(h) for h in map(label_stabilizer, readers, firsts, auts))
