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
class to its orbit's first member, one conjugator onto it, and the next
table.  _scan's locate reads them to put a tuple in canonical form with its
conjugator, so neither the moves nor H_U scan a coset.

A marking of U is encoded by its coordinate in the marking group G (per
fiber, the relabelings of equal-length cycles), which acts freely and
transitively on the markings of U.  The sheets over U are therefore the
cosets g H_U, H_U the image of Aut(U) in G (label_stabilizer), and
count_sheets sums |G|/|H_U| without the sweep.  The sweep walks the
coordinates of U in ascending order and enters the coset of each one not in
its table yet, so it keeps the least of each coset: a canonical sheet.  The
table, each g in G to its sheet's index, is moves.build_sheet_graph's index.
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
    _onto_least,
    enumerate_markings,
    signature_of_perms,
    splits_among_components,
    # Not called: the benchmark's tracer wraps these names until ROADMAP item 1.
    _unmarked_minimum,
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
    w_0, then by each free fiber's entry (p, z, child); None if U' is no class."""
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
            _, z, level = entry
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
    return tuple(
        itertools.chain.from_iterable(
            _sheets_of_unmarked_class(u, spec, label_stabilizer(u, aut), 0)[0]
            for u, aut in zip(classes, auts)
        )
    )


def _orbit_representatives(prefix, classes, group, table):
    """``prefix`` followed by the least member of each ``group``-conjugation
    orbit of the product of ``classes``, ascending, with its stabilizer in
    ``group``, which fixes ``prefix``.  The head is the first member p of its
    orbit in ``classes[0]``, and the tail recurses under p's stabilizer; under
    {e} every tuple is least.  ``table`` gets, per member q of ``classes[0]``,
    (p, the first z in ``group`` with z p z^-1 = q, the tail's table)."""
    if len(group) == 1 or not classes:
        for tail in itertools.product(*classes):
            yield (*prefix, *tail), group
        return
    for p in classes[0]:
        if p not in table:
            images = [conjugate(z, p) for z in group]
            child = {}
            for z, q in zip(group, images):
                table.setdefault(q, (p, z, child))
            stabilizer = [z for z, q in zip(group, images) if q == p]
            yield from _orbit_representatives((*prefix, p), classes[1:], stabilizer, child)


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
    """The function read(labels, v) that sends a marking of ``perms``,
    transported by v^-1 (labels read at v(x)), to its coordinate in G: its
    labels in canonical cycle order, read on the label points, label j of
    fiber i being the point n_1 + ... + n_{i-1} + j - 1, n_i the cycles of
    sigma_i.  v = w^-1 reads a marking of t through w t w^-1 = ``perms``.

    Relabeling by h in G sends the coordinate g to h g; transporting by z in
    Aut(perms) sends it to g h_z^-1, h_z the permutation of the cycles by z.
    """
    starts: list[tuple[int, int, int]] = []  # (fiber, first point of a cycle, base)
    for i, lab in enumerate(first_marking(perms)):
        # a cycle starts at its least point, the first one carrying its label
        base = len(starts) - 1
        starts += [(i, lab.index(j), base) for j in range(1, max(lab) + 1)]
    return lambda labels, v: tuple(base + labels[i][v[x]] for i, x, base in starts)


def label_stabilizer(perms, aut) -> frozenset[Perm]:
    """H_U for the canonical ``perms``, given Aut(perms) = ``aut`` from the
    scan: the coordinates of its first marking read through every z in
    ``aut``, the transports by z^-1, which run over Aut(perms) as z does.
    The markings of the sheet of coordinate g are the coset g H_U."""
    read, first = coordinate_reader(perms), first_marking(perms)
    return frozenset(read(first, z) for z in aut)


def count_sheets(spec: HurwitzSpec) -> int:
    """Number of sheets of the space, sum over unmarked classes U of
    |G|/|H_U| (the markings of U modulo Aut(U)); 0 for empty spaces."""
    order, (classes, auts, _) = marking_group_order(spec), _scan(spec)
    return sum(order // len(label_stabilizer(u, aut)) for u, aut in zip(classes, auts))
