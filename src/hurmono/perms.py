"""Exact permutation arithmetic on {1..d}.

A permutation of degree d is stored as a tuple ``p`` of length d holding the
images of the points 0..d-1 (0-indexed internally).  All user-facing text and
JSON use the mathematician's 1-indexed points, so the permutation sending
1->2, 2->1, 3->3 is stored as ``(1, 0, 2)`` and printed as ``"(1 2)"``.

The composition convention throughout the package is

    (p * q)(x) = p(q(x))        -- the right factor acts first,

so ``compose(p, q)`` applies ``q`` and then ``p``, and conjugation is
``conjugate(w, p) = w * p * w^-1``.  Under this convention the cycles of the
conjugate are the w-images of the cycles of ``p``: the cycle (a_1 ... a_r)
becomes (w(a_1) ... w(a_r)).

The walks in ``cycle_decomposition`` and ``orbits`` fix the package's
canonical orders, and every caller takes them as given.  Each walk starts a
new cycle or orbit at the smallest point not yet seen; every smaller point
already lies in an earlier one, so each cycle or orbit starts at its own
minimum and the starts ascend.  Cycles are then ordered by length descending
with ties by minimum ascending, so ``cycle_type`` is their lengths as listed;
orbits are sorted inside and listed by minimum.

MAX_DEGREE = 9 is the package's one degree guard, and ``check_degree`` is its
one comparison: it raises TooLargeError above the bound and DegreeError below
1.  No scan over S_d is left: the two builders, ``conjugacy_class`` (from
the partition) and ``centralizer`` (the product over cycle lengths l of
C_l wr S_{m_l}), call it before they build, and the canonical forms of
``hurmono.marked`` scan one coset of a centralizer built there.
``sheets.unmarked_classes`` calls it too, before its emptiness pre-check, so
a space over the guard is refused even when it is provably empty.

Each fact about one permutation is computed once: ``inverse``,
``cycle_decomposition``, ``cycle_type`` and ``marked._onto_least`` keep
bounded caches of 4096 entries.  ``compose`` and ``conjugate`` have none:
their pairs of arguments rarely repeat.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache, reduce

Perm = tuple[int, ...]
Partition = tuple[int, ...]
Cycle = tuple[int, ...]

MAX_DEGREE = 9


class DegreeError(ValueError):
    """Raised for degree mismatches or degrees below 1."""


class TooLargeError(ValueError):
    """Instance exceeds the package's size guards (MAX_DEGREE, fiber count)."""


def check_degree(d: int) -> int:
    if d > MAX_DEGREE:
        raise TooLargeError(f"instance too large: degree must be at most {MAX_DEGREE}, got {d}")
    if d < 1:
        raise DegreeError(f"degree must be in 1..{MAX_DEGREE}, got {d}")
    return d


def identity(d: int) -> Perm:
    """The identity permutation of degree d.

    >>> identity(3)
    (0, 1, 2)
    """
    check_degree(d)
    return tuple(range(d))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q under (p*q)(x) = p(q(x)).

    >>> perm_str(compose(parse_perm("(2 3)", 3), parse_perm("(1 2)", 3)))
    '(1 3 2)'
    """
    if len(p) != len(q):
        raise DegreeError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple([p[x] for x in q])


def compose_all(perms) -> Perm:
    """Left-to-right product p_1 * p_2 * ... * p_k (p_k acts first)."""
    if not (perms := tuple(perms)):
        raise ValueError("the product of no permutations needs an explicit degree")
    return reduce(compose, perms)


@lru_cache(maxsize=4096)
def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> perm_str(inverse(parse_perm("(1 2 3)", 3)))
    '(1 3 2)'
    """
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def conjugate(w: Perm, p: Perm) -> Perm:
    """w * p * w^-1; maps the cycle (a_1 ... a_r) of p to (w(a_1) ... w(a_r)).

    >>> perm_str(conjugate(parse_perm("(1 3)", 3), parse_perm("(1 2)", 3)))
    '(2 3)'
    """
    if len(w) != len(p):
        raise DegreeError(f"degree mismatch: {len(w)} vs {len(p)}")
    out = [0] * len(p)
    for x in range(len(p)):
        out[w[x]] = w[p[x]]
    return tuple(out)


@lru_cache(maxsize=4096)
def cycle_decomposition(p: Perm) -> tuple[Cycle, ...]:
    """Disjoint cycles of p in canonical order, fixed points included.

    Each cycle is rotated to start at its minimum element; cycles are sorted
    by (length descending, minimum element ascending).

    >>> cycle_decomposition(parse_perm("(1 2)(4 5)", 5))
    ((0, 1), (3, 4), (2,))
    """
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        cycles.append(tuple(cyc))
    # stable: equal lengths keep the walk's ascending minima
    cycles.sort(key=len, reverse=True)
    return tuple(cycles)


def from_cycles(cycles, d: int) -> Perm:
    """Rebuild a permutation of degree d from disjoint cycles (0-indexed).

    Points not mentioned are fixed.  Inverse of cycle_decomposition.
    """
    check_degree(d)
    out = list(range(d))
    seen: set[int] = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            if not 0 <= a < d:
                raise DegreeError(f"point {a + 1} out of range 1..{d}")
            if a in seen:
                raise ValueError(f"point {a + 1} appears in two cycles")
            seen.add(a)
            out[a] = b
    return tuple(out)


@lru_cache(maxsize=4096)
def cycle_type(p: Perm) -> Partition:
    """Cycle lengths in nonincreasing order, fixed points included.

    >>> cycle_type(parse_perm("(1 2)(3 4)", 5))
    (2, 2, 1)
    """
    return tuple([len(c) for c in cycle_decomposition(p)])


def orbits(perms, d: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by ``perms`` on {0..d-1}.

    Computed by graph search over all images.  Returned as sorted tuples of
    points, ordered by minimum element.

    >>> orbits([parse_perm("(1 2)", 3)] * 4)
    ((0, 1), (2,))
    """
    perms = list(perms)
    if d is None:
        if not perms:
            raise ValueError("orbits of an empty tuple need an explicit degree")
        d = len(perms[0])
    for p in perms:
        if len(p) != d:
            raise DegreeError(f"degree mismatch: {len(p)} vs {d}")
    seen = [False] * d
    out = []
    for start in range(d):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = []
        while stack:
            x = stack.pop()
            orbit.append(x)
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def centralizer(p: Perm) -> tuple[Perm, ...]:
    """All w with conjugate(w, p) == p, in lexicographic order: the product
    over the cycle lengths l of p of C_l wr S_{m_l}, which permutes the m_l
    cycles of length l and turns each image.

    >>> [perm_str(w) for w in centralizer(parse_perm("(1 2)", 4))]
    ['()', '(3 4)', '(1 2)', '(1 2)(3 4)']
    """
    check_degree(len(p))
    cycles = cycle_decomposition(p)
    blocks = []  # per cycle length, the images of its cycles' points, concatenated
    for _, run in itertools.groupby(cycles, key=len):
        run = tuple(run)
        if len(run[0]) == 1:  # S_m itself on the fixed points, the only large block
            blocks.append(list(itertools.permutations(sum(run, ()))))
            continue
        turns = [[c[k:] + c[:k] for k in range(len(c))] for c in run]
        blocks.append([
            sum(turned, ()) for order in itertools.permutations(turns)
            for turned in itertools.product(*order)
        ])
    back = inverse(sum(cycles, ()))
    return tuple(sorted(compose(sum(images, ()), back) for images in itertools.product(*blocks)))


@lru_cache(maxsize=None)  # keyed by (cycle type, d): at most 96 entries for d <= 9
def conjugacy_class(mu: Partition, d: int) -> tuple[Perm, ...]:
    """All permutations of degree d with cycle type mu, in lexicographic order.

    Built from the partition: the least point not yet placed starts a cycle
    of each length left in mu, followed by every arrangement of other points.
    """
    if sum(mu) != d:
        raise ValueError(f"partition {mu} has weight {sum(mu)}, expected {d}")
    image, out = list(range(check_degree(d))), []

    def place(points: list[int], lengths: list[int]) -> None:
        if not points:
            out.append(tuple(image))
            return
        start, rest = points[0], points[1:]
        for length in set(lengths):
            left = list(lengths)
            left.remove(length)
            for tail in itertools.permutations(rest, length - 1):
                for a, b in zip((start, *tail), (*tail, start)):
                    image[a] = b
                place([x for x in rest if x not in tail], left)

    if is_partition(mu):  # any other mu is the cycle type of no permutation
        place(list(range(d)), list(mu))
    return tuple(sorted(out))


def group_order(gens, n: int) -> int:
    """Order of the group that ``gens`` generate on {0..n-1}.

    Deterministic Schreier-Sims: the Sims filter keeps at most one generator
    per (first moved point i, image of i), the order is the orbit length of
    the first moved point times the order of its stabilizer, and Schreier's
    lemma generates that stabilizer from the orbit's transversal, less the
    generators that are e, those of the transversal's own tree edges first.

    >>> group_order([parse_perm("(1 2 3 4)", 4), parse_perm("(1 2)", 4)], 4)
    24
    """
    order = 1
    while True:
        table: dict[tuple[int, int], Perm] = {}
        for g in gens:
            while (i := next((x for x in range(n) if g[x] != x), None)) is not None:
                h = table.get((i, g[i]))
                if h is None:
                    table[i, g[i]] = g
                    break
                g = compose(inverse(h), g)
        if not table:
            return order
        gens = list(table.values())
        base = min(table)[0]
        transversal = {base: tuple(range(n))}
        todo = [base]
        for x in todo:
            for s in gens:
                y = s[x]
                if y not in transversal:
                    transversal[y] = compose(s, transversal[x])
                    todo.append(y)
        order *= len(transversal)
        gens = [
            compose(inverse(transversal[s[x]]), su)
            for x, u in transversal.items()
            for s in gens
            if (su := compose(s, u)) != transversal[s[x]]
        ]


def is_partition(parts) -> bool:
    """True if ``parts`` is a weakly decreasing tuple of positive integers."""
    return (
        len(parts) > 0
        and all(isinstance(x, int) and x >= 1 for x in parts)
        and all(a >= b for a, b in zip(parts, parts[1:]))
    )


# ---------------------------------------------------------------------------
# text forms


def perm_str(p: Perm) -> str:
    """Product-of-disjoint-cycles form, 1-indexed, fixed points omitted.

    >>> perm_str(parse_perm("( 1 2 ) (4 5)", 5))
    '(1 2)(4 5)'
    >>> perm_str(identity(4))
    '()'
    """
    parts = [
        "(" + " ".join(str(x + 1) for x in cyc) + ")"
        for cyc in cycle_decomposition(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_PERM_RE = re.compile(r"\s*(?:\(\s*(?:\d+(?:\s+\d+)*)?\s*\)\s*)+")


def parse_perm(text: str, d: int) -> Perm:
    """Parse a cycle-notation permutation such as ``"(1 2)(3 4)"`` or ``"()"``.

    Whitespace is flexible; points are 1-indexed and must lie in 1..d.
    """
    if not _PERM_RE.fullmatch(text):
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(text):
        points = tuple(int(e) - 1 for e in group.split())
        if points:
            cycles.append(points)
    return from_cycles(cycles, d)


def partition_str(mu: Partition) -> str:
    """Comma-joined partition, e.g. ``"2,1,1"``."""
    return ",".join(str(x) for x in mu)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; parts are sorted nonincreasing."""
    try:
        parts = tuple(sorted((int(x) for x in text.split(",")), reverse=True))
    except ValueError:
        raise ValueError(f"malformed partition: {text!r}") from None
    if not parts or parts[-1] < 1:
        raise ValueError(f"malformed partition: {text!r}")
    return parts
