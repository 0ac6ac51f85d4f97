import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    o_canonical,
    o_check_marked_tuple,
    o_conjugate,
    o_key,
    o_signature,
    o_transport,
    o_valid_marking,
)

from hurmono import (
    HurwitzSpec,
    MarkedTuple,
    SpecError,
    TooLargeError,
    canonicalize,
    enumerate_markings,
    marked_tuple_json,
    marked_tuple_str,
    node_product,
    tuple_key,
)
from hurmono import marked
from hurmono.marked import (
    InvariantViolation,
    _unmarked_minimum,
    riemann_hurwitz_genus,
    signature_of_perms,
    transport_labels,
)
from hurmono.perms import (
    MAX_DEGREE,
    centralizer,
    compose_all,
    conjugate,
    cycle_type,
    identity,
    inverse,
    parse_perm,
)


def perms_of_degree(d):
    return st.permutations(list(range(d))).map(tuple)


@st.composite
def marked_tuples(draw, max_degree=5, m=4):
    """Random valid marked tuples: free prefix, forced last factor."""
    d = draw(st.integers(1, max_degree))
    prefix = [draw(perms_of_degree(d)) for _ in range(m - 1)]
    last = inverse(compose_all(prefix))
    perms = tuple(prefix) + (last,)
    labels = []
    for p in perms:
        options = enumerate_markings(p, cycle_type(p))
        labels.append(options[draw(st.integers(0, len(options) - 1))])
    return MarkedTuple(perms=perms, labels=tuple(labels))


@st.composite
def tuples_with_conjugator(draw, max_degree=5, m=4):
    t = draw(marked_tuples(max_degree=max_degree, m=m))
    w = draw(perms_of_degree(t.degree))
    return t, w


# ---------------------------------------------------------------------------
# markings


def test_enumerate_markings_examples():
    p = parse_perm("(1 2)(3 4)", 5)
    got = enumerate_markings(p, (2, 2, 1))
    assert len(got) == 2
    assert got[0] == (1, 1, 2, 2, 3)
    assert got[1] == (2, 2, 1, 1, 3)
    assert [o_key((p,), (lab,))[1] for lab in got] == [(1, 2, 3), (2, 1, 3)]


def test_enumerate_markings_rejects_wrong_profile():
    with pytest.raises(ValueError):
        enumerate_markings(identity(3), (2, 1))


@given(st.integers(1, 6).flatmap(perms_of_degree))
def test_enumerate_markings_count_and_order(p):
    mu = cycle_type(p)
    got = enumerate_markings(p, mu)
    expected = 1
    for _, block in itertools.groupby(mu):
        expected *= math.factorial(len(list(block)))
    assert len(got) == expected
    assert len(set(got)) == len(got)
    keys = [o_key((p,), (lab,)) for lab in got]
    assert keys == sorted(keys)
    for lab in got:
        assert o_valid_marking(p, lab, mu)


@given(tuples_with_conjugator())
def test_transport_preserves_marked_cycle_lengths(tw):
    t, w = tw
    moved = transport_labels(w, t.labels)
    assert moved == o_transport(w, t.labels)
    for p, lab, lab2 in zip(t.perms, t.labels, moved):
        assert o_valid_marking(o_conjugate(w, p), lab2, cycle_type(p))
        # the label rides with its cycle: label j marks w(original cycle j)
        for x in range(t.degree):
            assert lab2[w[x]] == lab[x]


@given(tuples_with_conjugator())
def test_transport_composes(tw):
    t, w = tw
    from hurmono.perms import compose

    v = tuple(reversed(range(t.degree)))  # an involution of the same degree
    assert transport_labels(compose(v, w), t.labels) == transport_labels(
        v, transport_labels(w, t.labels)
    )


# ---------------------------------------------------------------------------
# canonical forms


@given(marked_tuples())
def test_canonicalize_idempotent(t):
    c = canonicalize(t)
    assert canonicalize(c) == c
    assert tuple_key(c) <= tuple_key(t)


@settings(deadline=None)
@given(tuples_with_conjugator())
def test_canonicalize_constant_on_orbits(tw):
    t, w = tw
    moved = MarkedTuple(tuple(o_conjugate(w, p) for p in t.perms), o_transport(w, t.labels))
    assert canonicalize(moved) == canonicalize(t)


@st.composite
def tuples_with_leading_identities(draw, max_degree=6):
    """One to five permutations of degree <= 6, the first ``lead`` of them e;
    ``lead`` may cover the whole tuple."""
    d = draw(st.integers(1, max_degree))
    perms = draw(st.lists(perms_of_degree(d), min_size=1, max_size=5))
    lead = draw(st.integers(0, len(perms)))
    return (identity(d),) * lead + tuple(perms[lead:])


@settings(deadline=None)
@given(tuples_with_leading_identities())
@example((identity(6),) * 4)  # every fiber is e: the achievers are all of S_6
def test_unmarked_minimum_equals_the_exhaustive_scan(perms):
    images = {w: tuple(conjugate(w, p) for p in perms) for w in itertools.permutations(range(len(perms[0])))}
    best = min(images.values())
    assert _unmarked_minimum(perms) == (best, tuple(w for w in images if images[w] == best))


def test_all_identity_tuple_conjugates_nothing(monkeypatch):
    # the minimum of the all-e tuple is itself, reached by every w in S_d, so
    # no conjugate is tried; the labels still take their minimum over S_d
    calls = []
    monkeypatch.setattr(marked, "conjugate", lambda w, p: calls.append(w) or conjugate(w, p))
    e = identity(6)
    assert _unmarked_minimum.__wrapped__((e,) * 4) == ((e,) * 4, centralizer(e))
    assert calls == []
    monkeypatch.undo()
    for d in (1, 2, 3):
        e = identity(d)
        for labels in itertools.product(enumerate_markings(e, (1,) * d), repeat=4):
            assert canonicalize(MarkedTuple((e,) * 4, labels)) == o_canonical((e,) * 4, labels)


def test_canonicalize_degree_guard():
    d = MAX_DEGREE + 1
    e = tuple(range(d))
    t = MarkedTuple(perms=(e,) * 4, labels=(tuple(range(1, d + 1)),) * 4)
    with pytest.raises(TooLargeError):
        canonicalize(t)


# ---------------------------------------------------------------------------
# specs and validation


def test_spec_normalization():
    spec = HurwitzSpec(degrees=(1, 2), genera=(0, 1), profiles=((1, 2), (3,), (2, 1), (1, 1, 1)))
    # (degree, genus) pairs sort together; parts sort inside each profile;
    # the fibers themselves stay in the given order (they are positional).
    assert spec.degrees == (2, 1)
    assert spec.genera == (1, 0)
    assert spec.profiles == ((2, 1), (3,), (2, 1), (1, 1, 1))
    assert spec.d == 3
    assert spec.m == 4
    assert spec.signature == ((1, 0), (2, 1))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(degrees=(), genera=(), profiles=((1,),) * 4),
        dict(degrees=(2,), genera=(0, 0), profiles=((2,),) * 4),
        dict(degrees=(2,), genera=(-1,), profiles=((2,),) * 4),
        dict(degrees=(2,), genera=(0,), profiles=((3,),) * 4),
        dict(degrees=(2,), genera=(0,), profiles=((2,), (2,))),
        dict(degrees=(0, 2), genera=(0, 0), profiles=((2,),) * 4),
        dict(degrees=(2,), genera=(0,), profiles=((2, 0),) * 4),
    ],
)
def test_spec_rejects(kwargs):
    with pytest.raises(SpecError):
        HurwitzSpec(**kwargs)


def test_validate_marked_tuple():
    # the oracle's checker, which the sheet tests rely on, names each fault
    s = parse_perm("(1 2)", 2)
    e = identity(2)
    o_check_marked_tuple((s,) * 4, ((1, 1),) * 4, ((2,),) * 4, ((2, 1),))
    with pytest.raises(AssertionError, match="product is not the identity"):
        o_check_marked_tuple((s, s, s, e), ((1, 1),) * 3 + ((1, 2),))
    with pytest.raises(AssertionError, match="fiber 4 carries an invalid marking"):
        o_check_marked_tuple((s,) * 4, ((1, 1),) * 3 + ((1, 2),))
    with pytest.raises(AssertionError, match=r"fiber 3 has cycle type \(1, 1\)"):
        o_check_marked_tuple((s, s, e, e), ((1, 1), (1, 1), (1, 2), (1, 2)), ((2,),) * 4)
    with pytest.raises(AssertionError, match=r"signature \(\(2, 1\),\)"):
        o_check_marked_tuple((s,) * 4, ((1, 1),) * 4, signature=((2, 0),))


@given(marked_tuples())
def test_signature_is_sorted_and_sums(t):
    sig = signature_of_perms(t.perms, t.degree)
    assert sum(size for size, _ in sig) == t.degree
    assert list(sig) == sorted(sig)
    assert all(genus >= 0 for _, genus in sig)
    assert sig == o_signature(t.perms)


def test_riemann_hurwitz_genus():
    # a degree-2 cover with four simple branch points is an elliptic curve
    assert riemann_hurwitz_genus(2, 4, "orbit") == 1
    assert riemann_hurwitz_genus(1, 0, "orbit") == 0


@pytest.mark.parametrize("size, ram, two_g", [(2, 3, 1), (3, 2, -2)])
def test_riemann_hurwitz_genus_rejects_odd_or_negative(size, ram, two_g):
    with pytest.raises(InvariantViolation, match=rf"component of size {size} .*\({two_g}/2\)"):
        riemann_hurwitz_genus(size, ram, "component")


# ---------------------------------------------------------------------------
# node products


def test_node_product_requires_four_fibers():
    e = identity(2)
    t = MarkedTuple(perms=(e,) * 3, labels=((1, 2),) * 3)
    with pytest.raises(SpecError, match="exactly 4"):
        node_product(t, "infty")


def test_node_product_values():
    s1 = parse_perm("(1 2)", 4)
    s2 = parse_perm("(2 3)", 4)
    s3 = parse_perm("(3 4)", 4)
    s4 = inverse(compose_all([s1, s2, s3]))
    labels = tuple(
        enumerate_markings(p, cycle_type(p))[0] for p in (s1, s2, s3, s4)
    )
    t = MarkedTuple(perms=(s1, s2, s3, s4), labels=labels)
    o_check_marked_tuple(t.perms, t.labels)
    from hurmono.perms import compose, conjugate

    assert node_product(t, "infty") == compose(s3, s4)
    assert node_product(t, "one") == compose(s2, conjugate(s3, s4))
    assert node_product(t, "zero") == compose(s1, conjugate(s2, conjugate(s3, s4)))
    with pytest.raises(Exception):
        node_product(t, "two")


@given(marked_tuples(max_degree=4))
def test_node_products_multiply_to_identity_pairwise(t):
    # the product over a node equals the inverse of the complementary product:
    # sigma_1 sigma_2 (sigma_3 sigma_4) = e over infty, and cyclically.
    from hurmono.perms import compose

    e = identity(t.degree)
    s1, s2, _, _ = t.perms
    assert compose(compose(s1, s2), node_product(t, "infty")) == e


# ---------------------------------------------------------------------------
# display


def test_marked_tuple_str_and_json():
    s1 = parse_perm("(1 2)", 3)
    t = MarkedTuple(
        perms=(s1, s1, identity(3), identity(3)),
        labels=((1, 1, 2), (1, 1, 2), (1, 2, 3), (3, 2, 1)),
    )
    text = marked_tuple_str(t)
    assert text == "(1 2)^1 (3)^2 | (1 2)^1 (3)^2 | (1)^1 (2)^2 (3)^3 | (1)^3 (2)^2 (3)^1"
    blob = marked_tuple_json(t)
    assert blob[0] == [{"cycle": [1, 2], "label": 1}, {"cycle": [3], "label": 2}]
    assert blob[3] == [
        {"cycle": [1], "label": 3},
        {"cycle": [2], "label": 2},
        {"cycle": [3], "label": 1},
    ]
