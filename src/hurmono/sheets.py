"""Sheet enumeration: one canonical marked tuple per simultaneous-conjugacy
class compatible with a Hurwitz spec.

Generation fixes sigma_1 to a single representative of its conjugacy class
(every conjugacy class of tuples contains a tuple of that shape), takes one
sigma_2 per Z(sigma_1)-orbit of its class (conjugating by the centralizer
keeps sigma_1), iterates sigma_3..sigma_{m-1} over their conjugacy classes and
forces sigma_m to close the product; candidates failing the last cycle type or
the component-signature filter are dropped.  Distinct candidates landing
in the same unmarked conjugacy class are merged, and per unmarked class the
markings are swept in ascending order while knocking out the orbit of each
new representative under the class centralizer.  The first-seen marking of
each orbit is therefore exactly the canonical one, so the sweep emits
canonical sheets directly.

The sweep order is the canonical order, and nothing sorts the sheets: the
unmarked classes are swept in ascending order, tuple_key compares the
permutations first, and within one class the marking product runs in
ascending markings_key order.  The sheets of one class are contiguous.

unmarked_classes is the scan alone.  The marking group G (per fiber, the
relabelings of equal-length cycles) acts freely and transitively on the
markings of a class U, so the sheets over U are the cosets G/H_U, H_U the
image of Aut(U) in G (label_stabilizer), and count_sheets sums |G|/|H_U|
without the sweep.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .marked import (
    HurwitzSpec,
    MarkedTuple,
    _unmarked_minimum,
    enumerate_markings,
    signature_of_perms,
    # Not called: the benchmark's tracer wraps this name until ROADMAP item 1.
    tuple_key,
)
from .perms import (
    Perm,
    TooLargeError,
    centralizer,
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
    {(d_l, g_l)}.  May be empty.  sigma_1 is fixed and sigma_2 runs over
    Z(sigma_1)-orbit representatives only.  Raises TooLargeError for
    m > MAX_ENUM_FIBERS, then, from the class scans, for d > MAX_DEGREE.
    """
    check_fiber_count(spec.m)
    d = spec.d
    want = spec.signature
    classes = [conjugacy_class(mu, d) for mu in spec.profiles]
    last_mu = spec.profiles[-1]

    seen_unmarked: set[tuple] = set()
    first = classes[0][0]
    seconds = _orbit_representatives(classes[1], centralizer(first))
    for prefix in itertools.product((first,), seconds, *classes[2:-1]):
        last = inverse(compose_all(prefix))
        if cycle_type(last) != last_mu:
            continue
        perms = (*prefix, last)
        if signature_of_perms(perms, d) != want:
            continue
        seen_unmarked.add(_unmarked_minimum(perms)[0])
    return tuple(sorted(seen_unmarked))


def enumerate_sheets(spec: HurwitzSpec) -> tuple[MarkedTuple, ...]:
    """All sheets of the space over the open target moduli, in canonical order:
    the markings of each of unmarked_classes(spec), class by class.

    Exactly one representative per simultaneous-conjugacy class of marked
    tuples; raises as unmarked_classes does.
    """
    return tuple(
        itertools.chain.from_iterable(
            _sheets_of_unmarked_class(perms, spec) for perms in unmarked_classes(spec)
        )
    )


def _orbit_representatives(cls, group) -> list:
    """The first member, in ``cls`` order, of each ``group``-conjugation orbit
    of ``cls``; costs sum(|Stab(p)|) over ``cls``."""
    reps, seen = [], set()
    for p in cls:
        if p not in seen:
            reps.append(p)
            seen.update(conjugate(z, p) for z in group)
    return reps


def orbit_maps(perms) -> list[itemgetter]:
    """One getter per non-identity z in Aut(perms), for canonical ``perms``.

    A getter sends the flat label key ``tuple(chain.from_iterable(labels))``
    of a marking of ``perms`` to the key of its transport by z: position
    i*d + x reads i*d + z^-1(x).  Since m*d >= 3, every getter returns a
    tuple.
    """
    _, stabilizer = _unmarked_minimum(perms)
    d = len(perms[0])
    return [
        itemgetter(*(i * d + x for i in range(len(perms)) for x in inverse(z)))
        for z in stabilizer
        if z != tuple(range(d))
    ]


def _sheets_of_unmarked_class(perms, spec: HurwitzSpec) -> list[MarkedTuple]:
    """Canonical sheets whose permutation part is the (canonical) ``perms``.

    Sweeps the full marking product in ascending order; each unseen vector is
    the minimum of its orbit under the centralizer of ``perms``, hence
    canonical, and its whole orbit is marked seen.
    """
    maps = orbit_maps(perms)
    fibers = [enumerate_markings(p, mu) for p, mu in zip(perms, spec.profiles)]
    out = []
    seen: set[tuple] = set()
    for labels in itertools.product(*fibers):
        key = tuple(itertools.chain.from_iterable(labels))
        if key in seen:
            continue
        out.append(MarkedTuple(perms=perms, labels=labels))
        seen.update(g(key) for g in maps)
    return out


def marking_group_order(spec: HurwitzSpec) -> int:
    """|G| for G = prod_i prod_l S_{m_l(mu_i)}, the relabelings of the cycles of
    equal length l within each fiber i; G acts freely and transitively on the
    markings of every unmarked class."""
    return math.prod(
        math.factorial(len(list(run))) for mu in spec.profiles for _, run in itertools.groupby(mu)
    )


def label_stabilizer(perms) -> tuple[tuple[int, ...], frozenset[Perm]]:
    """The base marking of the canonical ``perms`` and H_U, the image of
    Aut(perms) in G.

    G acts on label points: label j of fiber i is the point n_1 + ... +
    n_{i-1} + j - 1, where n_i counts the cycles of sigma_i.  The base marking
    is the first vector of enumerate_markings on every fiber, so the j-th
    cycle of sigma_i in canonical order carries label j; it is returned as its
    label point per flat position i*d + x.  z in Aut(perms) transports it to
    the marking h.base for one h in G, and H_U collects those h.
    """
    d = len(perms[0])
    base = [0] * (len(perms) * d)
    offset = 0
    for i, p in enumerate(perms):
        for cyc in cycle_decomposition(p):
            for x in cyc:
                base[i * d + x] = offset
            offset += 1
    images = {tuple(range(offset))}
    for g in orbit_maps(perms):
        h = [0] * offset
        for point, image in zip(base, g(base)):
            h[point] = image
        images.add(tuple(h))
    return tuple(base), frozenset(images)


def count_sheets(spec: HurwitzSpec) -> int:
    """Number of sheets of the space, sum over unmarked classes U of
    |G|/|H_U| (the markings of U modulo Aut(U)); 0 for empty spaces."""
    order = marking_group_order(spec)
    return sum(order // len(label_stabilizer(u)[1]) for u in unmarked_classes(spec))
