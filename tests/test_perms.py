import doctest
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hurmono.marked
import hurmono.perms
from hurmono import enumerate_sheets, make_spec
from hurmono.perms import (
    MAX_DEGREE,
    DegreeError,
    TooLargeError,
    centralizer,
    compose,
    compose_all,
    conjugacy_class,
    conjugate,
    cycle_decomposition,
    cycle_type,
    from_cycles,
    group_order,
    identity,
    inverse,
    orbits,
    parse_partition,
    parse_perm,
    partition_str,
    perm_str,
)


def perms_of_degree(d):
    return st.permutations(list(range(d))).map(tuple)


perm_st = st.integers(1, 8).flatmap(perms_of_degree)

same_degree_pairs = st.integers(1, 8).flatmap(
    lambda d: st.tuples(perms_of_degree(d), perms_of_degree(d))
)

same_degree_triples = st.integers(1, 8).flatmap(
    lambda d: st.tuples(perms_of_degree(d), perms_of_degree(d), perms_of_degree(d))
)


@pytest.mark.parametrize("module", [hurmono.perms, hurmono.marked])
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


@given(same_degree_pairs)
def test_compose_convention(pq):
    p, q = pq
    r = compose(p, q)
    for x in range(len(p)):
        assert r[x] == p[q[x]]


@given(perm_st)
def test_inverse(p):
    e = identity(len(p))
    assert compose(p, inverse(p)) == e
    assert compose(inverse(p), p) == e
    assert inverse(inverse(p)) == p


@given(same_degree_triples)
def test_compose_associative(pqr):
    p, q, r = pqr
    assert compose(compose(p, q), r) == compose(p, compose(q, r))
    assert compose_all(pqr) == compose(p, compose(q, r))


def test_compose_all_empty_is_error_free_only_with_perms():
    assert compose_all([(0, 1, 2)]) == (0, 1, 2)
    assert compose_all(iter([(1, 0), (1, 0)])) == (0, 1)
    # no permutation gives no degree: a ValueError, as orbits raises
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match="product of no permutations"):
            compose_all(empty)


@given(same_degree_pairs)
def test_conjugate_formula(wp):
    w, p = wp
    c = conjugate(w, p)
    assert c == compose(compose(w, p), inverse(w))


@given(same_degree_pairs)
def test_conjugate_moves_cycles(wp):
    w, p = wp
    c = conjugate(w, p)
    original = {frozenset(cyc) for cyc in cycle_decomposition(p)}
    imaged = {frozenset(w[x] for x in cyc) for cyc in original}
    assert {frozenset(cyc) for cyc in cycle_decomposition(c)} == imaged
    # and the cyclic order inside each cycle is the w-image of the original
    for cyc in cycle_decomposition(p):
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            assert c[w[a]] == w[b]


@given(same_degree_triples)
def test_conjugation_is_homomorphism(wpq):
    w, p, q = wpq
    assert conjugate(w, compose(p, q)) == compose(conjugate(w, p), conjugate(w, q))


@given(perm_st)
def test_cycle_decomposition_shape(p):
    cycles = cycle_decomposition(p)
    flat = sorted(x for cyc in cycles for x in cyc)
    assert flat == list(range(len(p)))
    for cyc in cycles:
        assert cyc[0] == min(cyc)
    keys = [(-len(c), c[0]) for c in cycles]
    assert keys == sorted(keys)
    assert from_cycles(cycles, len(p)) == p


@given(perm_st)
def test_cycle_type_is_partition(p):
    mu = cycle_type(p)
    assert sum(mu) == len(p)
    assert list(mu) == sorted(mu, reverse=True)


def test_cycle_decomposition_example():
    p = parse_perm("(1 2)(3 4 5)", 5)
    assert cycle_decomposition(p) == ((2, 3, 4), (0, 1))
    assert cycle_type(p) == (3, 2)


def test_orbits():
    p = parse_perm("(1 2)", 4)
    q = parse_perm("(3 4)", 4)
    assert orbits([p, q]) == ((0, 1), (2, 3))
    assert orbits([], 3) == ((0,), (1,), (2,))
    with pytest.raises(ValueError):
        orbits([])


@given(
    st.integers(1, 8).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(perms_of_degree(d), max_size=4))
    )
)
def test_orbits_partition_in_canonical_order(d_gens):
    d, gens = d_gens
    out = orbits(gens, d)
    assert sorted(x for orbit in out for x in orbit) == list(range(d))
    for orbit in out:
        assert list(orbit) == sorted(orbit)
        for p in gens:
            assert {p[x] for x in orbit} == set(orbit)
    assert [orbit[0] for orbit in out] == sorted(orbit[0] for orbit in out)


@given(st.integers(1, 6))
def test_orbits_of_full_cycle(d):
    p = tuple(range(1, d)) + (0,)
    assert orbits([p]) == (tuple(range(d)),)


def _zmu(mu):
    z = 1
    for length, block in itertools.groupby(mu):
        k = len(list(block))
        z *= length**k * math.factorial(k)
    return z


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_conjugacy_class_sizes(d):
    from oracle import all_partitions, o_class

    total = 0
    for mu in all_partitions(d):
        cls = conjugacy_class(mu, d)
        assert len(cls) == math.factorial(d) // _zmu(mu)
        # built from the partition, it is S_d filtered by cycle type, in
        # lexicographic order: the scan's orbit representatives are first in class order
        assert list(cls) == o_class(mu, d)
        total += len(cls)
    assert total == math.factorial(d)


def _class_members(max_degree):
    """The first and middle member of every conjugacy class of degree at most
    ``max_degree``, from one pass of the oracle over S_d in lexicographic order."""
    from oracle import o_cycle_type

    for d in range(1, max_degree + 1):
        classes = {}
        for p in itertools.permutations(range(d)):
            classes.setdefault(o_cycle_type(p), []).append(p)
        for cls in classes.values():
            yield from (cls[0], cls[len(cls) // 2])


def _with_examples(inputs):
    def decorate(test):
        for p in inputs:
            test = example(p)(test)
        return test

    return decorate


@settings(deadline=None)
@_with_examples(_class_members(7))
@given(st.integers(1, 6).flatmap(perms_of_degree))
def test_centralizer_order(p):
    from oracle import o_conjugate

    # |Z(p)| = prod over cycle lengths l of l^{m_l} * m_l!
    cent = centralizer(p)
    assert len(cent) == _zmu(cycle_type(p))
    # the product of wreath products is S_d filtered by w p w^-1 = p, in lexicographic order
    sd = itertools.permutations(range(len(p)))
    assert list(cent) == [w for w in sd if o_conjugate(w, p) == p]


@st.composite
def subgroup_generators(draw):
    """A degree n <= 8 and up to three permutations, each moving a random
    subset of the points, so that small and large subgroups both occur."""
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        support = draw(st.lists(st.integers(0, n - 1), unique=True))
        images = draw(st.permutations(support))
        g = list(range(n))
        for x, y in zip(support, images):
            g[x] = y
        gens.append(tuple(g))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(subgroup_generators())
def test_group_order_matches_closure(n_gens):
    n, gens = n_gens
    closure = {tuple(range(n))}
    todo = list(closure)
    for g in todo:
        for s in gens:
            h = compose(s, g)
            if h not in closure:
                closure.add(h)
                todo.append(h)
    assert group_order(gens, n) == len(closure)


@given(perm_st)
def test_perm_str_round_trip(p):
    assert parse_perm(perm_str(p), len(p)) == p


def test_perm_str_examples():
    assert perm_str(identity(4)) == "()"
    assert perm_str(parse_perm("( 1 2 ) (3 4)", 5)) == "(1 2)(3 4)"


@pytest.mark.parametrize("bad", ["", "1 2", "(1 2", "(1 2)(2 3)", "(0 1)", "(1 9)"])
def test_parse_perm_rejects(bad):
    with pytest.raises(ValueError):
        parse_perm(bad, 4)


def test_parse_partition():
    assert parse_partition("2,1") == (2, 1)
    assert parse_partition("1,2,1") == (2, 1, 1)
    assert partition_str((3, 1, 1)) == "3,1,1"
    for bad in ["", "0", "-1,2", "a"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_degree_guards():
    with pytest.raises(DegreeError):
        identity(0)
    with pytest.raises(TooLargeError):
        identity(MAX_DEGREE + 1)
    with pytest.raises(DegreeError):
        compose((0, 1), (0,))


# Both builders, of a class and of a centralizer, meet the one guard in
# check_degree before they build, so each entry point refuses MAX_DEGREE + 1
# with the same TooLargeError and the same text.
BIG = MAX_DEGREE + 1
TOO_LARGE = f"instance too large: degree must be at most {MAX_DEGREE}, got {BIG}"
ONES = ",".join(["1"] * BIG)


@pytest.mark.parametrize(
    "call",
    [
        lambda: identity(BIG),
        lambda: conjugacy_class((1,) * BIG, BIG),
        lambda: centralizer(tuple(range(BIG))),
        lambda: hurmono.marked.canonicalize(
            hurmono.marked.MarkedTuple(
                perms=(tuple(range(BIG)),) * 4, labels=(tuple(range(1, BIG + 1)),) * 4
            )
        ),
        lambda: enumerate_sheets(make_spec(str(BIG), "0", f"{ONES}^4")),
    ],
    ids=[
        "identity", "conjugacy_class", "centralizer", "canonicalize", "enumerate_sheets",
    ],
)
def test_one_degree_guard(call):
    with pytest.raises(TooLargeError) as info:
        call()
    assert str(info.value) == TOO_LARGE
