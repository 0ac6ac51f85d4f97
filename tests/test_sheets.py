import functools
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import all_partitions, o_check_marked_tuple, o_key, o_marked_tuples, oracle_sheets

import hurmono.sheets
from hurmono import (
    HurwitzSpec,
    TooLargeError,
    canonicalize,
    count_sheets,
    default_rows,
    enumerate_markings,
    enumerate_sheets,
    lifted_components,
    make_spec,
    partition_str,
    tuple_key,
)
from hurmono.marked import (
    _least_of_class,
    _unmarked_minimum,
    signature_of_perms,
    splits_among_components,
    transport_labels,
)
from hurmono.perms import (
    MAX_DEGREE,
    centralizer,
    compose,
    compose_all,
    conjugacy_class,
    conjugate,
    cycle_type,
    inverse,
    orbits,
)
from hurmono.sheets import (
    _orbit_representatives,
    _scan,
    _sheets_of_unmarked_class,
    coordinate_reader,
    first_marking,
    label_stabilizer,
    marking_group_order,
    unmarked_classes,
)


def spec_for(signature, profiles):
    return HurwitzSpec(
        degrees=tuple(size for size, _ in signature),
        genera=tuple(genus for _, genus in signature),
        profiles=profiles,
    )


def assert_in_canonical_order(sheets):
    """Strictly ascending tuple_key: sorted, and no sheet twice."""
    keys = [tuple_key(t) for t in sheets]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def assert_matches_oracle(d, profiles):
    """Package output must equal the oracle's canonical sets, per source shape,
    and come in canonical order."""
    by_signature = oracle_sheets(d, profiles)
    for signature, expected in by_signature.items():
        got = enumerate_sheets(spec_for(signature, profiles))
        assert {(t.perms, t.labels) for t in got} == expected
        assert_in_canonical_order(got)
    # signatures the oracle never realized must enumerate empty; check the
    # all-genus-zero one when the oracle skipped it
    trivial = tuple(sorted((1, 0) for _ in range(d)))
    if trivial not in by_signature:
        assert enumerate_sheets(spec_for(trivial, profiles)) == ()


@pytest.mark.parametrize("d", [1, 2])
def test_oracle_equivalence_small(d):
    for profiles in itertools.product(all_partitions(d), repeat=4):
        assert_matches_oracle(d, profiles)


@pytest.mark.parametrize(
    "profiles",
    [
        ((3,), (3,), (3,), (3,)),
        ((3,), (3,), (2, 1), (2, 1)),
        ((3,), (2, 1), (2, 1), (1, 1, 1)),
        ((2, 1), (2, 1), (2, 1), (2, 1)),
        ((2, 1), (2, 1), (1, 1, 1), (1, 1, 1)),
        ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)),
        ((3,), (1, 1, 1), (2, 1), (3,)),
    ],
)
def test_oracle_equivalence_degree3_sample(profiles):
    assert_matches_oracle(3, profiles)


@pytest.mark.parametrize(
    "profiles",
    [
        ((3, 1),) * 4,
        ((2, 2),) * 4,
        ((4,), (4,), (3, 1), (3, 1)),
    ],
)
def test_oracle_equivalence_degree4_sample(profiles):
    assert_matches_oracle(4, profiles)


@pytest.mark.parametrize(
    "profiles",
    [
        ((2, 1), (2, 1), (3,)),
        ((2, 2),) * 3,
        ((2, 1),) * 4 + ((1, 1, 1),),
        ((3,), (3,), (2, 1), (2, 1), (1, 1, 1)),
        ((2, 1),) * 6,
        # sigma_1 = e: the centralizer is all of S_3
        ((1, 1, 1), (2, 1), (2, 1), (3,)),
    ],
)
def test_oracle_equivalence_other_fiber_counts(profiles):
    assert_matches_oracle(sum(profiles[0]), profiles)


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.tuples(
            st.permutations(list(range(d))).map(tuple),
            st.lists(st.sampled_from(all_partitions(d)), min_size=1, max_size=1 + (d < 6)),
        )
    )
)
def test_orbit_representatives_are_a_transversal(p_mus):
    # the tuples after the prefix (p,) are a transversal of the Z(p)-orbits,
    # under simultaneous conjugation, of the product of one or two classes,
    # each yielded with its stabilizer
    p, mus = p_mus
    group = centralizer(p)
    classes = [conjugacy_class(mu, len(p)) for mu in mus]
    table = {}
    found = list(_orbit_representatives((p,), classes, group, table))
    assert all(r[0] == p for r, _ in found)
    reps = [r[1:] for r, _ in found]
    assert reps == sorted(reps)
    orbits = [{tuple(conjugate(z, x) for x in r) for z in group} for r in reps]
    assert all(r == min(orbit) for r, orbit in zip(reps, orbits))
    assert all(a.isdisjoint(b) for a, b in itertools.combinations(orbits, 2))
    # orbit-stabilizer: |orbit of r| = |Z(p)| / |Stab(r)|, and the orbits cover the product
    stabilizers = [[z for z in group if all(conjugate(z, x) == x for x in r)] for r in reps]
    assert [list(stab) for _, stab in found] == stabilizers
    assert sum(len(group) // len(k) for k in stabilizers) == math.prod(map(len, classes))
    # the table: every member q of the first class to its orbit's least member
    # and the first z in group order that conjugates that member to q
    if len(group) > 1:
        assert table.keys() == set(classes[0])
        for q, (head, z, _) in table.items():
            assert head == min(conjugate(y, q) for y in group)
            assert z == next(y for y in group if conjugate(y, head) == q)


def test_sheets_are_canonical_sorted_and_valid():
    spec = make_spec("3", "0", "2,1^4")
    sheets = enumerate_sheets(spec)
    assert len(sheets) == 4
    keys = [tuple_key(t) for t in sheets]
    assert keys == sorted(keys)
    for t in sheets:
        o_check_marked_tuple(t.perms, t.labels, spec.profiles, spec.signature)
        assert canonicalize(t) == t


def test_golden_sheets_in_canonical_order():
    # The sweep emits the sheets in canonical order; nothing sorts them after.
    for row in default_rows():
        assert_in_canonical_order(enumerate_sheets(row.spec))


def test_empty_by_parity():
    # a single transposition cannot multiply with identities to the identity
    spec = make_spec("2", "0", "2;1,1;1,1;1,1")
    assert enumerate_sheets(spec) == ()
    assert count_sheets(spec) == 0


def test_empty_by_genus():
    # genus 1 needs 4 branch points in degree 2; three fibers cannot carry it
    spec = make_spec("2", "1", "2;2;1,1;1,1")
    assert count_sheets(spec) == 0


def test_three_fibers_supported():
    spec = make_spec("2", "0", "2;2;1,1")
    assert count_sheets(spec) == 1


def test_known_counts():
    assert count_sheets(make_spec("1,1", "0,0", "1,1^4")) == 8
    assert count_sheets(make_spec("2", "1", "2^4")) == 1
    assert count_sheets(make_spec("2,1", "0,0", "2,1;2,1;1,1,1;1,1,1")) == 18
    assert count_sheets(make_spec("4", "3", "4^4")) == 8
    assert count_sheets(make_spec("4", "1", "2,2^4")) == 12
    assert count_sheets(make_spec("6", "3", "3,3^4")) == 264


@pytest.mark.parametrize(
    "genera, profiles, n",
    [("3", "3,3,1^3;7", 9856), ("2", "3,1,1,1,1;3,1,1,1,1;7;7", 149184)],
)
def test_degree_seven_counts_equal_the_gluing_counts(genera, profiles, n):
    # n was counted by gluing pairs of 3-point halves at infinity, with no
    # canonical form of a 4-tuple (ROADMAP, item 10)
    assert count_sheets(make_spec("7", genera, profiles)) == n


def test_count_sheets_matches_enumeration_on_golden():
    # count_sheets sums |G|/|H_U| over the unmarked classes and lists no sheet
    for row in default_rows():
        assert count_sheets(row.spec) == len(enumerate_sheets(row.spec)), row.spec


def test_scan_fixes_sigma_1_to_the_least_of_its_class():
    # the scan takes sigma_1 and Z(sigma_1) from the per-cycle-type cache
    for row in default_rows():
        mu, d = row.spec.profiles[0], row.spec.d
        least, _, group = _least_of_class(mu, d)
        assert least == conjugacy_class(mu, d)[0]
        assert group == centralizer(least)
        assert all(u[0] == least for u in unmarked_classes(row.spec))


def test_scan_emits_canonical_forms_once_in_order(monkeypatch):
    # orderly generation: the scan computes no canonical form, since every
    # tuple it emits is already its class's least conjugate, met once
    calls = []

    def counted(perms):
        calls.append(perms)
        return _unmarked_minimum(perms)

    monkeypatch.setattr(hurmono.sheets, "_unmarked_minimum", counted)
    found = [unmarked_classes(row.spec) for row in default_rows()]
    monkeypatch.undo()
    assert len(calls) == 0
    for classes in found:
        assert all(_unmarked_minimum(u)[0] == u for u in classes)
        assert all(a < b for a, b in zip(classes, classes[1:]))


def test_base_marking_is_the_first_marking():
    spec = make_spec("4", "1", "2,2^4")
    for perms, aut in zip(*_scan(spec)[:2]):
        first = first_marking(perms)
        assert first == tuple(enumerate_markings(p, mu)[0] for p, mu in zip(perms, spec.profiles))
        # the first marking reads e on the label points, and e is in H_U
        e = tuple(range(sum(map(len, spec.profiles))))
        assert coordinate_reader(perms)(first, tuple(range(spec.d))) == e
        stabilizer = label_stabilizer(perms, aut)
        assert e in stabilizer
        assert marking_group_order(spec) % len(stabilizer) == 0


@st.composite
def classes_with_spec(draw, max_degree=5):
    """A canonical tuple U of degree <= 5 with 3 or 4 fibers, free prefix and
    forced last factor, and the spec it belongs to; |G| is kept small."""
    d = draw(st.integers(1, max_degree))
    prefix = [
        draw(st.permutations(list(range(d))).map(tuple)) for _ in range(draw(st.integers(2, 3)))
    ]
    perms = (*prefix, inverse(compose_all(prefix)))
    signature = signature_of_perms(perms, d)
    spec = spec_for(signature, tuple(cycle_type(p) for p in perms))
    return _unmarked_minimum(perms)[0], spec


def marking_group(spec):
    """G built on its own: per fiber, every permutation of the label points of
    each run of equal cycle lengths."""
    factors, offset = [], 0
    for mu in spec.profiles:
        for _, run in itertools.groupby(mu):
            points = range(offset, offset + len(list(run)))
            factors.append(list(itertools.permutations(points)))
            offset += len(points)
    return {tuple(itertools.chain.from_iterable(g)) for g in itertools.product(*factors)}


@settings(deadline=None, max_examples=60)
@given(classes_with_spec())
def test_marking_coordinates(case):
    perms, spec = case
    assume(marking_group_order(spec) <= 720)
    group = marking_group(spec)
    assert len(group) == marking_group_order(spec)
    # the coordinates of the markings of U are exactly G, and ascending
    # coordinates are ascending in the oracle's order on markings
    markings = sorted(
        itertools.product(*(enumerate_markings(p, mu) for p, mu in zip(perms, spec.profiles))),
        key=lambda labels: o_key(perms, labels),
    )
    e = tuple(range(len(perms[0])))
    read = functools.partial(coordinate_reader(perms), v=e)
    coords = [read(labels) for labels in markings]
    assert coords == sorted(group)
    # H_U: the transports of the first marking by Aut(U), found by filtering S_d
    first = first_marking(perms)
    aut = [
        w
        for w in itertools.permutations(range(len(perms[0])))
        if all(conjugate(w, p) == p for p in perms)
    ]
    stabilizer = label_stabilizer(perms, aut)
    assert stabilizer == {read(transport_labels(w, first)) for w in aut}
    # reading through w^-1 is reading after the transport by w
    for w in aut:
        assert coordinate_reader(perms)(first, inverse(w)) == read(transport_labels(w, first))
    # each swept sheet's coordinate is the least element of its coset, and
    # the cosets of the sheets partition G; the table sends every element of
    # G to the index, counted from start, of the sheet whose coset holds it
    start = 5
    swept, coordinates, table = _sheets_of_unmarked_class(perms, spec, stabilizer, start)
    assert coordinates == [read(t.labels) for t in swept]
    assert table.keys() == group
    covered = []
    for n, g in enumerate(coordinates, start=start):
        coset = {compose(g, h) for h in stabilizer}
        assert g == min(coset)
        assert all(table[x] == n for x in coset)
        covered += coset
    assert sorted(covered) == sorted(group)


def test_degree_guard():
    big = str(MAX_DEGREE + 1)
    profile = ",".join(["1"] * (MAX_DEGREE + 1))
    with pytest.raises(TooLargeError, match="instance too large"):
        enumerate_sheets(make_spec(big, "0", ";".join([profile] * 4)))


def test_fiber_guard():
    with pytest.raises(TooLargeError, match="instance too large"):
        enumerate_sheets(make_spec("2", "0", ";".join(["2"] * 7)))
    # a spec built directly, not parsed, meets the same guard in enumerate_sheets
    with pytest.raises(TooLargeError, match="m <= 6, got 8"):
        enumerate_sheets(HurwitzSpec(degrees=(2,), genera=(3,), profiles=((2,),) * 8))
    # the fiber count is checked before the degree
    big = (1,) * (MAX_DEGREE + 1)
    with pytest.raises(TooLargeError, match="m <= 6, got 7"):
        enumerate_sheets(HurwitzSpec(degrees=(MAX_DEGREE + 1,), genera=(0,), profiles=(big,) * 7))


def test_guards_precede_the_emptiness_pre_check():
    # provably empty spaces over a guard still raise: no genus-0 cover has
    # four 10-cycles, and seven transpositions have odd total ramification
    big = make_spec("10", "0", "10;10;10;10")
    assert not splits_among_components(big)
    for call in (count_sheets, lifted_components, unmarked_classes):
        with pytest.raises(TooLargeError, match="degree must be at most 9, got 10"):
            call(big)
    many = HurwitzSpec(degrees=(2,), genera=(0,), profiles=((2,),) * 7)
    assert not splits_among_components(many)
    for call in (count_sheets, enumerate_sheets, unmarked_classes):
        with pytest.raises(TooLargeError, match="m <= 6, got 7"):
            call(many)


def test_rejected_space_builds_no_class():
    # a 7-cycle cannot be split between components of degree 6 and 1, so
    # the scan, and the d! class generation behind it, never starts
    spec = make_spec("6,1", "6,0", "3,3,1;7;7;7")
    before = conjugacy_class.cache_info(), _least_of_class.cache_info()
    assert unmarked_classes(spec) == ()
    assert (conjugacy_class.cache_info(), _least_of_class.cache_info()) == before


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 7).flatmap(
        lambda d: st.lists(st.permutations(list(range(d))).map(tuple), min_size=3, max_size=3)
    )
)
def test_pre_check_accepts_every_tuple(prefix):
    # sound: the space of any tuple splits among its own orbits
    perms = (*prefix, inverse(compose_all(prefix)))
    d = len(perms[0])
    spec = spec_for(signature_of_perms(perms, d), tuple(cycle_type(p) for p in perms))
    assert splits_among_components(spec)


def signatures(d):
    """Every multiset of source components (n, g) with sum n = d and g < n;
    four fibers ramify at most 4(n - 1), so no component of genus n or more
    satisfies Riemann-Hurwitz."""
    kinds = [(n, g) for n in range(1, d + 1) for g in range(n)]
    return [
        sig
        for k in range(1, d + 1)
        for sig in itertools.combinations_with_replacement(kinds, k)
        if sum(n for n, _ in sig) == d
    ]


def realized_signatures(profiles):
    """Each signature of the tuples with these profiles, to the canonical forms
    of those tuples: sigma_1 fixed to the least of its class, sigma_2 and
    sigma_3 over their whole classes, sigma_4 forced, every passing tuple
    canonicalized.  This full-product scan is the reference for the scan."""
    d = sum(profiles[0])
    first = conjugacy_class(profiles[0], d)[0]
    out = {}
    for second, third in itertools.product(*(conjugacy_class(mu, d) for mu in profiles[1:3])):
        perms = (first, second, third, inverse(compose_all((first, second, third))))
        if cycle_type(perms[3]) == profiles[3]:
            sig = signature_of_perms(perms, d)
            out.setdefault(sig, set()).add(_unmarked_minimum(perms)[0])
    return out


def test_pre_check_census_up_to_degree_five():
    # every unordered 4-tuple of profiles with every signature: the pre-check
    # rejects no nonempty space, and accepts only two empty ones at d = 4,
    # and the same two plus a fixed point at d = 5; on every nonempty space
    # the scan lists exactly the full-product scan's canonical forms, in order
    accepted, nonempty, exceptions = {}, {}, []
    for d in (3, 4, 5):
        sigs = signatures(d)
        for profiles in itertools.combinations_with_replacement(all_partitions(d), 4):
            realized = realized_signatures(profiles)
            assert realized.keys() <= set(sigs)
            for sig, forms in realized.items():
                assert unmarked_classes(spec_for(sig, profiles)) == tuple(sorted(forms))
            for sig in sigs:
                spec = spec_for(sig, profiles)
                ok = splits_among_components(spec)
                assert ok or sig not in realized, (sig, profiles)
                accepted[d] = accepted.get(d, 0) + ok
                nonempty[d] = nonempty.get(d, 0) + (sig in realized)
                if ok and sig not in realized:
                    exceptions.append(
                        " / ".join(
                            [
                                ",".join(map(str, spec.degrees)),
                                ",".join(map(str, spec.genera)),
                                ";".join(map(partition_str, profiles)),
                            ]
                        )
                    )
    assert accepted == {3: 9, 4: 41, 5: 139}
    assert nonempty == {3: 9, 4: 39, 5: 137}
    assert sorted(exceptions) == [
        "4 / 0 / 3,1;2,2;2,2;1,1,1,1",
        "4 / 1 / 3,1;2,2;2,2;2,2",
        "4,1 / 0,0 / 3,1,1;2,2,1;2,2,1;1,1,1,1,1",
        "4,1 / 1,0 / 3,1,1;2,2,1;2,2,1;2,2,1",
    ]


def test_pre_check_rejects_only_empty_spaces_by_oracle():
    # at d = 3 the brute-force oracle, which shares no code with the package,
    # lists the signatures every tuple realizes
    for profiles in itertools.combinations_with_replacement(all_partitions(3), 4):
        realized = {sig for sig, _, _ in o_marked_tuples(3, profiles)}
        for sig in signatures(3):
            if not splits_among_components(spec_for(sig, profiles)):
                assert sig not in realized, (sig, profiles)


def test_scan_aut_is_the_coset_scans_achievers():
    # the group the scan reaches at each class U is Aut(U): the achievers of
    # the coset scan, on every golden class and every class of every nonempty
    # space at d <= 5, swaps of isomorphic orbits included
    specs = [row.spec for row in default_rows()]
    for d in (3, 4, 5):
        for profiles in itertools.combinations_with_replacement(all_partitions(d), 4):
            specs += [spec_for(sig, profiles) for sig in realized_signatures(profiles)]
    swaps = 0
    for spec in specs:
        for u, aut in zip(*_scan(spec)[:2]):
            assert set(aut) == set(_unmarked_minimum(u)[1]), (spec, u)
            swaps += any(set(map(z.__getitem__, o)) != set(o) for z in aut for o in orbits(u))
    assert swaps > 0
