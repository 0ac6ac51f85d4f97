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

MAX_DEGREE = 9 is the package's one degree guard: ``check_degree`` rejects
larger degrees with DegreeError, and the enumeration and canonical forms,
which scan all d! conjugators, raise TooLargeError above it.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

Perm = tuple[int, ...]
Partition = tuple[int, ...]
Cycle = tuple[int, ...]

MAX_DEGREE = 9


class DegreeError(ValueError):
    """Raised for degree mismatches or out-of-range degrees."""


def check_degree(d: int) -> int:
    if not 1 <= d <= MAX_DEGREE:
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
    return tuple(p[x] for x in q)


def compose_all(perms) -> Perm:
    """Left-to-right product p_1 * p_2 * ... * p_k (p_k acts first)."""
    perms = list(perms)
    out = perms[0]
    for p in perms[1:]:
        out = compose(out, p)
    return out


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


@lru_cache(maxsize=None)
def all_perms(d: int) -> tuple[Perm, ...]:
    """All d! permutations of degree d, in lexicographic order."""
    check_degree(d)
    return tuple(itertools.permutations(range(d)))


def centralizer(p: Perm) -> tuple[Perm, ...]:
    """All w with conjugate(w, p) == p, in lexicographic order.

    >>> [perm_str(w) for w in centralizer(parse_perm("(1 2)", 4))]
    ['()', '(3 4)', '(1 2)', '(1 2)(3 4)']
    """
    return tuple(w for w in all_perms(len(p)) if conjugate(w, p) == p)


@lru_cache(maxsize=None)
def conjugacy_class(mu: Partition, d: int) -> tuple[Perm, ...]:
    """All permutations of degree d with cycle type mu, in lexicographic order."""
    if sum(mu) != d:
        raise ValueError(f"partition {mu} has weight {sum(mu)}, expected {d}")
    return tuple(p for p in all_perms(d) if cycle_type(p) == mu)


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
    check_degree(d)
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
