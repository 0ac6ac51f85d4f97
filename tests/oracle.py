"""Brute-force oracle for sheet enumeration, written independently of the
package internals.

Everything here is deliberately reimplemented from first principles:
permutation arithmetic, cycle bookkeeping, label transport, and the
canonical form (minimum of a class over *every* conjugator, found by
scanning the whole symmetric group).  The only convention shared with the
package is the published one: (p*q)(x) = p(q(x)), conjugation by w maps the
cycle (a_1 ... a_r) to (w(a_1) ... w(a_r)), labels ride along with their
cycles, and classes are ordered by (image sequences, then label sequences).

The three boundary moves and the components they cut out are likewise
written from the move table in README.md, with the same primitives.

Intended for total degree <= 3 (the full-orbit scans are factorial); small
degree-4 spaces such as the profile (2,2)^4 also run in well under a second.
"""

import functools
import itertools
import math
from collections import Counter


def o_compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def o_inverse(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def o_conjugate(w, p):
    out = [0] * len(p)
    for x in range(len(p)):
        out[w[x]] = w[p[x]]
    return tuple(out)


def o_cycles(p):
    """Cycles starting at their minimum, longest first, ties by min.

    Each walk starts at the least point not yet seen, so at its cycle's minimum.
    """
    seen = set()
    cycles = []
    for start in range(len(p)):
        if start in seen:
            continue
        cyc = [start]
        x = p[start]
        while x != start:
            cyc.append(x)
            x = p[x]
        seen.update(cyc)
        cycles.append(tuple(cyc))
    cycles.sort(key=lambda c: (-len(c), c[0]))
    return cycles


def o_cycle_type(p):
    return tuple(sorted((len(c) for c in o_cycles(p)), reverse=True))


def o_class(mu, d):
    """Every permutation of degree d with cycle type mu."""
    return [
        p for p in itertools.permutations(range(d)) if o_cycle_type(p) == tuple(mu)
    ]


def o_label_vectors(p, mu):
    """All point-label vectors assigning label j to some cycle of length mu_j."""
    cycles = o_cycles(p)
    by_length = {}
    for k, cyc in enumerate(cycles):
        by_length.setdefault(len(cyc), []).append(k)
    label_pool = {}
    for j, length in enumerate(mu, start=1):
        label_pool.setdefault(length, []).append(j)
    assert {k: len(v) for k, v in by_length.items()} == {
        k: len(v) for k, v in label_pool.items()
    }
    lengths = sorted(by_length)
    out = []
    for assignment in itertools.product(
        *(itertools.permutations(label_pool[length]) for length in lengths)
    ):
        lab = [0] * len(p)
        for length, labels in zip(lengths, assignment):
            for k, label in zip(by_length[length], labels):
                for x in cycles[k]:
                    lab[x] = label
        out.append(tuple(lab))
    return out


def o_relabel(w, lab):
    """Labels of one fiber after conjugation by w: point w(x) gets x's label."""
    winv = o_inverse(w)
    return tuple(lab[winv[x]] for x in range(len(w)))


def o_transport(w, labels):
    return tuple(o_relabel(w, lab) for lab in labels)


def o_key(perms, labels):
    """Total order: concatenated images, then labels in cycle order per fiber."""
    images = tuple(x for p in perms for x in p)
    marks = tuple(
        lab[cyc[0]] for p, lab in zip(perms, labels) for cyc in o_cycles(p)
    )
    return (images, marks)


def o_canonical(perms, labels):
    """The minimum of the simultaneous-conjugacy class, by whole-group scan."""
    d = len(perms[0])
    best = None
    best_key = None
    for w in itertools.permutations(range(d)):
        cand_perms = tuple(o_conjugate(w, p) for p in perms)
        cand_labels = o_transport(w, labels)
        key = o_key(cand_perms, cand_labels)
        if best_key is None or key < best_key:
            best_key = key
            best = (cand_perms, cand_labels)
    return best


def o_signature(perms):
    """Sorted (component size, genus) pairs of the source curve."""
    d = len(perms[0])
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(d):
            a, b = find(x), find(p[x])
            if a != b:
                parent[a] = b
    comps = {}
    for x in range(d):
        comps.setdefault(find(x), set()).add(x)
    cycles = [cyc for p in perms for cyc in o_cycles(p)]
    pairs = []
    for members in comps.values():
        size = len(members)
        ram = sum(len(cyc) - 1 for cyc in cycles if cyc[0] in members)
        two_g_minus_2 = size * (-2) + ram
        assert two_g_minus_2 % 2 == 0
        genus = (two_g_minus_2 + 2) // 2
        assert genus >= 0
        pairs.append((size, genus))
    return tuple(sorted(pairs))


def o_valid_marking(p, lab, mu):
    """Whether lab is constant on every cycle of p and gives the labels
    1..len(mu) to its cycles one each, label j to a cycle of length mu_j."""
    cycles = o_cycles(p)
    if len(lab) != len(p) or any(lab[x] != lab[cyc[0]] for cyc in cycles for x in cyc):
        return False
    length_of = {lab[cyc[0]]: len(cyc) for cyc in cycles}
    return len(length_of) == len(cycles) and length_of == dict(enumerate(mu, start=1))


def o_check_marked_tuple(perms, labels, profiles=None, signature=None):
    """Assert that (perms, labels) is a marked tuple: one degree, identity
    product, every fiber validly marked and, when given, of cycle type
    profiles[i], and the source signature when one is given."""
    d = len(perms[0])
    assert all(len(p) == d for p in perms) and len(labels) == len(perms), "ragged tuple"
    assert o_product(*perms) == tuple(range(d)), "product is not the identity"
    for i, (p, lab) in enumerate(zip(perms, labels)):
        mu = o_cycle_type(p) if profiles is None else tuple(profiles[i])
        if not o_valid_marking(p, lab, mu):  # also when the cycle lengths are not mu
            found = o_cycle_type(p)
            assert found == mu, f"fiber {i + 1} has cycle type {found}, expected {mu}"
            raise AssertionError(f"fiber {i + 1} carries an invalid marking")
    if signature is not None:
        sig = o_signature(perms)
        assert sig == tuple(signature), f"signature {sig}, expected {tuple(signature)}"


def o_marked_tuples(d, profiles):
    """Every marked tuple with the given profiles and identity product, as
    (signature, perms, labels) triples."""
    profiles = [tuple(sorted(mu, reverse=True)) for mu in profiles]
    classes = [o_class(mu, d) for mu in profiles[:-1]]
    for prefix in itertools.product(*classes):
        acc = tuple(range(d))
        for p in prefix:
            acc = o_compose(acc, p)
        last = o_inverse(acc)
        if o_cycle_type(last) != profiles[-1]:
            continue
        perms = prefix + (last,)
        sig = o_signature(perms)
        for labels in itertools.product(
            *(o_label_vectors(p, mu) for p, mu in zip(perms, profiles))
        ):
            yield sig, perms, tuple(labels)


def oracle_sheets(d, profiles):
    """Canonical sheet sets for all source shapes at once.

    Enumerates every marked tuple with the given profiles and identity
    product, reduces by pairwise conjugacy via whole-orbit minima, and
    returns {signature: set of canonical (perms, labels) pairs}.
    """
    out = {}
    for sig, perms, labels in o_marked_tuples(d, profiles):
        out.setdefault(sig, set()).add(o_canonical(perms, labels))
    return out


def o_burnside_count(marked):
    """Number of simultaneous-conjugacy classes among the (perms, labels)
    pairs of a conjugation-closed set, by Burnside's lemma: the mean, over
    every conjugator, of the number of pairs it fixes."""
    d = len(marked[0][0][0])
    fixed = sum(
        1
        for w in itertools.permutations(range(d))
        for perms, labels in marked
        if tuple(o_conjugate(w, p) for p in perms) == perms
        and o_transport(w, labels) == labels
    )
    assert fixed % math.factorial(d) == 0
    return fixed // math.factorial(d)


def o_product(*perms):
    """The left-to-right product p_1 p_2 ... p_k (the rightmost acts first)."""
    return functools.reduce(o_compose, perms)


def o_move_conjugators(perms):
    """The per-fiber conjugators (w_1, w_2, w_3, w_4) of each boundary move,
    transcribed from the README move table."""
    s1, s2, s3, s4 = perms
    e = tuple(range(len(s1)))
    i2, i3 = o_inverse(s2), o_inverse(s3)
    big_w = o_product(s2, s3, s4, i3, i2)
    return {
        "zero": (o_product(s1, big_w), e, e, o_product(i3, i2, s1, s2, s3)),
        "one": (e, o_product(s2, s3, s4, i3), e, o_product(i3, s2, s3)),
        "infty": (e, e, o_product(s3, s4), s3),
    }


def o_move(name, perms, labels):
    """The canonical form of a sheet after the named move: fiber i is
    conjugated by w_i, its labels riding along."""
    ws = o_move_conjugators(perms)[name]
    return o_canonical(
        tuple(o_conjugate(w, p) for w, p in zip(ws, perms)),
        tuple(o_relabel(w, lab) for w, lab in zip(ws, labels)),
    )


def o_components(sheets):
    """Component multiset of a sheet set under the three moves.

    The sheet permutations of 0, 1 and infinity must compose, in that order,
    to the identity (README.md).  The orbits of the group they generate are
    the components: the degree is the orbit size, and the genus comes from
    Riemann-Hurwitz over the three boundary points, which is what
    o_signature computes for any tuple of permutations.  Returns sorted
    (count, genus, degree) triples.
    """
    sheets = sorted(sheets)
    index = {sheet: k for k, sheet in enumerate(sheets)}
    sheet_perms = []
    for name in ("zero", "one", "infty"):
        s = tuple(index[o_move(name, *sheet)] for sheet in sheets)
        assert sorted(s) == list(range(len(sheets))), name
        sheet_perms.append(s)
    zero, one, infty = sheet_perms
    assert all(infty[one[zero[k]]] == k for k in range(len(sheets))), (
        "0, then 1, then infinity does not return every sheet to itself"
    )
    counts = Counter((genus, degree) for degree, genus in o_signature(sheet_perms))
    return tuple(sorted((c, g, deg) for (g, deg), c in counts.items()))


def all_partitions(d):
    """Partitions of d, weakly decreasing, in descending lexicographic order."""
    if d == 0:
        return [()]
    out = []

    def rec(rest, largest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, largest), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(d, d, [])
    return out
