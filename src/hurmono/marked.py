"""Fully-marked monodromy representations and their simultaneous conjugacy.

A *marked tuple* is a tuple (sigma_1, ..., sigma_m) of permutations of common
degree d whose left-to-right product is the identity, together with one
*marking* per fiber: a bijection from the cycles of sigma_i (fixed points
included) onto the labels {1..n_i}, where the cycle labeled j must have
length mu_i^j for the governing ramification profile mu_i.

Markings are stored as point-label vectors: ``labels[i][x]`` is the label of
the cycle of sigma_i containing the point x.  Conjugating the tuple by w
transports every marking forward along cycle images: the cycle
(w(a_1) ... w(a_r)) of w sigma_i w^-1 inherits the label of (a_1 ... a_r),
i.e. the new vector is ``lab . w^-1``.

Two marked tuples are equivalent iff one is a transport of the other by some
w in S_d; ``canonicalize`` picks the minimum of the orbit under a fixed total
order, so equality of canonical forms decides equivalence.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .perms import (
    Cycle,
    Partition,
    Perm,
    TooLargeError,  # re-exported: callers also import it from hurmono.marked
    centralizer,
    conjugacy_class,
    conjugate,
    cycle_decomposition,
    cycle_type,
    inverse,
    is_partition,
    orbits,
)

class SpecError(ValueError):
    """A malformed Hurwitz space description."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed; indicates a defect, not a user error."""


LabelVector = tuple[int, ...]


class MarkedTuple(NamedTuple):
    """Permutations (sigma_1..sigma_m) with one point-label vector per fiber."""

    perms: tuple[Perm, ...]
    labels: tuple[LabelVector, ...]

    @property
    def degree(self) -> int:
        return len(self.perms[0])

    @property
    def m(self) -> int:
        return len(self.perms)


class _SpecFields(NamedTuple):
    degrees: tuple[int, ...]
    genera: tuple[int, ...]
    profiles: tuple[Partition, ...]


class HurwitzSpec(_SpecFields):
    """A Hurwitz space of fully-marked covers: (degrees, genera, profiles).

    ``degrees`` and ``genera`` pair up componentwise (degree d_l, genus g_l of
    the l-th source component); the pairs are normalized to nonincreasing
    order since no output distinguishes source components beyond the multiset
    {(d_l, g_l)}.  ``profiles`` are the m ramification profiles mu_i, each a
    partition of d = sum(degrees).  Every construction validates and
    normalizes, ``_replace``, ``_make``, copy and pickle included.
    """

    __slots__ = ()

    def __new__(cls, degrees, genera, profiles):
        if not degrees or any(not isinstance(x, int) or x < 1 for x in degrees):
            raise SpecError(f"degrees must be positive integers, got {degrees}")
        if len(genera) != len(degrees):
            raise SpecError(f"genera length {len(genera)} != degrees length {len(degrees)}")
        if any(not isinstance(g, int) or g < 0 for g in genera):
            raise SpecError(f"genera must be nonnegative integers, got {genera}")
        degrees, genera = zip(*sorted(zip(degrees, genera), reverse=True))
        if len(profiles) < 3:
            raise SpecError(f"need at least 3 marked fibers, got {len(profiles)}")
        d = sum(degrees)
        norm = []
        for mu in profiles:
            mu = tuple(sorted(mu, reverse=True))
            if not is_partition(mu):
                raise SpecError(f"profile {mu} is not a partition")
            if sum(mu) != d:
                raise SpecError(f"profile {mu} has weight {sum(mu)}, expected {d}")
            norm.append(mu)
        return super().__new__(cls, degrees, genera, tuple(norm))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def d(self) -> int:
        return sum(self.degrees)

    @property
    def m(self) -> int:
        return len(self.profiles)

    @property
    def signature(self) -> tuple[tuple[int, int], ...]:
        """The multiset {(d_l, g_l)} as a sorted tuple of pairs."""
        return tuple(sorted(zip(self.degrees, self.genera)))


# ---------------------------------------------------------------------------
# markings


def enumerate_markings(p: Perm, mu: Partition) -> tuple[LabelVector, ...]:
    """All valid point-label vectors for p under profile mu, ascending.

    The count is the product over distinct cycle lengths l of
    (multiplicity of l in mu)!.  Ascending is tuple_key's order on markings.

    >>> len(enumerate_markings((1, 0, 2, 4, 3), (2, 2, 1)))
    2
    """
    mu = tuple(mu)
    cycles = cycle_decomposition(p)
    lengths = tuple([len(c) for c in cycles])
    if lengths != mu:
        raise ValueError(f"cycle type {lengths} does not match profile {mu}")
    # Canonical cycle order puts equal lengths contiguously (lengths descend),
    # so a marking is a choice, per length, of a permutation of that length's
    # label indices; iterating each block's permutations lexicographically
    # yields vectors whose labels, read in cycle order, ascend.
    blocks = [
        [j + 1 for j, part in enumerate(mu) if part == length]
        for length, _ in itertools.groupby(lengths)
    ]
    out = []
    for choice in itertools.product(*(itertools.permutations(b) for b in blocks)):
        flat = itertools.chain.from_iterable(choice)
        lab = [0] * len(p)
        for cyc, label in zip(cycles, flat):
            for x in cyc:
                lab[x] = label
        out.append(tuple(lab))
    return tuple(out)


# ---------------------------------------------------------------------------
# transport and canonical forms


def transport_labels(w: Perm, labels: tuple[LabelVector, ...]) -> tuple[LabelVector, ...]:
    wi = inverse(w)
    return tuple(tuple(lab[x] for x in wi) for lab in labels)


def tuple_key(t: MarkedTuple):
    """Total order key: concatenated images, then labels in canonical cycle order."""
    marks = (lab[c[0]] for p, lab in zip(t.perms, t.labels) for c in cycle_decomposition(p))
    return (tuple(itertools.chain.from_iterable(t.perms)), tuple(marks))


@lru_cache(maxsize=None)  # keyed by (cycle type, d): at most 96 entries for d <= 9
def _least_of_class(mu: Partition, d: int) -> tuple[Perm, tuple[Cycle, ...], tuple[Perm, ...]]:
    """The least permutation of cycle type mu, its cycles and its centralizer."""
    least = conjugacy_class(mu, d)[0]
    return least, cycle_decomposition(least), centralizer(least)


def _onto_least(p: Perm) -> Perm:
    """w_0: sends the cycles of p onto those of the least of its class, in
    canonical order, so that w_0 p w_0^-1 is that least member."""
    cycles = cycle_decomposition(p)
    w0 = [0] * len(p)
    for cyc, image in zip(cycles, _least_of_class(tuple(map(len, cycles)), len(p))[1]):
        for x, y in zip(cyc, image):
            w0[x] = y
    return tuple(w0)


@lru_cache(maxsize=65536)
def _unmarked_minimum(perms: tuple[Perm, ...]) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """Minimum of the conjugacy orbit of ``perms`` and all w achieving it, ascending.

    The fibers before sigma_f, the first that is not the identity (f = 1 if
    none is), stay e under every w, and the least conjugate of sigma_f is
    m_f, the least member of its class.  So the minimum has m_f in place f,
    and it is reached only on {w : w sigma_f w^-1 = m_f} = Z(m_f) w_0, where
    w_0 sends the cycles of sigma_f onto those of m_f in canonical order.
    """
    d = len(perms[0])
    f = next((i for i, p in enumerate(perms) if p != tuple(range(d))), 0)
    least, _, group = _least_of_class(cycle_type(perms[f]), d)
    w0 = _onto_least(perms[f])
    rest = perms[f + 1 :]
    best = None
    achievers = []
    for z in group:
        w = tuple([z[y] for y in w0])
        imgs = tuple([conjugate(w, p) for p in rest])
        if best is None or imgs < best:
            best = imgs
            achievers = [w]
        elif imgs == best:
            achievers.append(w)
    return (*perms[:f], least, *best), tuple(sorted(achievers))


def canonicalize(t: MarkedTuple) -> MarkedTuple:
    """Minimum under tuple_key of the transports of t by every w in S_d.

    Two-stage: the images first, over one centralizer coset
    (``_unmarked_minimum``), then the markings over its achievers, each read
    on the cycle starts of the canonical images.  The class scans behind the
    coset check the degree first, so d > MAX_DEGREE raises TooLargeError there.
    It serves the API and the tests; the pipeline reads the scan's tables.
    """
    cu, achievers = _unmarked_minimum(t.perms)
    starts = [(i, cyc[0]) for i, p in enumerate(cu) for cyc in cycle_decomposition(p)]
    labels = min(
        (transport_labels(w, t.labels) for w in achievers),
        key=lambda lab: [lab[i][x] for i, x in starts],
    )
    return MarkedTuple(perms=cu, labels=labels)


# ---------------------------------------------------------------------------
# source-curve invariants


def riemann_hurwitz_genus(size: int, ram: int, what: str) -> int:
    """Genus of a degree-``size`` cover of a genus-0 curve with total
    ramification ``ram``: 2g - 2 = -2 size + ram.

    Raises InvariantViolation, naming ``what``, if 2g is odd or negative.
    """
    two_g = 2 - 2 * size + ram
    if two_g % 2 or two_g < 0:
        raise InvariantViolation(f"{what} of size {size} has invalid genus ({two_g}/2)")
    return two_g // 2


def signature_of_perms(perms: tuple[Perm, ...], d: int) -> tuple[tuple[int, int], ...]:
    """Multiset of (orbit size, orbit genus) pairs, as a sorted tuple.

    The genus of an orbit O is riemann_hurwitz_genus of |O| and the sum over
    fibers of sum over cycles c inside O of (|c| - 1).
    """
    cycles_per_fiber = [cycle_decomposition(p) for p in perms]
    sig = []
    for orbit in orbits(perms, d):
        members = set(orbit)
        n = len(orbit)
        ram = sum(
            len(c) - 1
            for cycles in cycles_per_fiber
            for c in cycles
            if c[0] in members
        )
        sig.append((n, riemann_hurwitz_genus(n, ram, "orbit")))
    return tuple(sorted(sig))


def splits_among_components(spec: HurwitzSpec) -> bool:
    """Whether every profile mu_i splits into sub-partitions nu_{i,l} of d_l,
    one per source component (d_l, g_l), such that each component satisfies
    Riemann-Hurwitz: sum_i (d_l - len(nu_{i,l})) = 2 d_l + 2 g_l - 2.

    The cycles of sigma_i inside each orbit of a tuple of the space make such
    a split, so False proves the space empty.  The converse fails: at d = 4,
    ``4 / 1 / 3,1;2,2;2,2;2,2`` splits and is empty.

    >>> splits_among_components(HurwitzSpec((6, 1), (6, 0), ((3, 3, 1), (7,), (7,), (7,))))
    False
    >>> splits_among_components(HurwitzSpec((4,), (1,), ((2, 2),) * 4))
    True
    """
    return _splits(tuple(sorted(spec.profiles)), spec.signature)


@lru_cache(maxsize=4096)
def _splits(profiles: tuple[Partition, ...], components: tuple[tuple[int, int], ...]) -> bool:
    """splits_among_components for the (sorted) ``profiles`` and ``components``."""
    (n, g), rest = components[0], components[1:]
    ram = 2 * n + 2 * g - 2
    if not rest:  # the last component takes what is left
        return sum(n - len(mu) for mu in profiles) == ram
    for choice in itertools.product(*(_sub_partitions(mu, n) for mu in profiles)):
        if sum(n - k for k, _ in choice) == ram and _splits(
            tuple(sorted(left for _, left in choice)), rest
        ):
            return True
    return False


@lru_cache(maxsize=4096)
def _sub_partitions(mu: Partition, n: int) -> tuple[tuple[int, Partition], ...]:
    """(len(nu), mu minus nu) for each sub-multiset nu of mu of weight n."""
    runs = [(part, len(list(run))) for part, run in itertools.groupby(mu)]
    out = []
    for counts in itertools.product(*(range(k + 1) for _, k in runs)):
        if sum(part * c for (part, _), c in zip(runs, counts)) == n:
            left = (part for (part, k), c in zip(runs, counts) for _ in range(k - c))
            out.append((sum(counts), tuple(left)))
    return tuple(out)


# ---------------------------------------------------------------------------
# text forms


def marked_fiber_str(p: Perm, lab: LabelVector) -> str:
    """One fiber as labeled cycles, e.g. ``"(1 2)^1 (3)^2 (4 5)^3"``."""
    return " ".join(
        "(" + " ".join(str(x + 1) for x in cyc) + ")^" + str(lab[cyc[0]])
        for cyc in cycle_decomposition(p)
    )


def marked_tuple_str(t: MarkedTuple) -> str:
    """All fibers of a marked tuple, joined by `` | ``."""
    return " | ".join(marked_fiber_str(p, lab) for p, lab in zip(t.perms, t.labels))


def marked_tuple_json(t: MarkedTuple) -> list[list[dict]]:
    """JSON form: per fiber, a list of {"cycle": [...], "label": j}."""
    return [
        [
            {"cycle": [x + 1 for x in cyc], "label": lab[cyc[0]]}
            for cyc in cycle_decomposition(p)
        ]
        for p, lab in zip(t.perms, t.labels)
    ]
