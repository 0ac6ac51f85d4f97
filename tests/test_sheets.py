import itertools

import pytest
from oracle import all_partitions, oracle_sheets

from hurmono import (
    HurwitzSpec,
    TooLargeError,
    canonicalize,
    component_signature,
    count_sheets,
    enumerate_sheets,
    make_spec,
    tuple_key,
    validate_marked_tuple,
)
from hurmono.perms import MAX_DEGREE


def spec_for(signature, profiles):
    return HurwitzSpec(
        degrees=tuple(size for size, _ in signature),
        genera=tuple(genus for _, genus in signature),
        profiles=profiles,
    )


def assert_matches_oracle(d, profiles):
    """Package output must equal the oracle's canonical sets, per source shape."""
    by_signature = oracle_sheets(d, profiles)
    for signature, expected in by_signature.items():
        got = enumerate_sheets(spec_for(signature, profiles))
        assert {(t.perms, t.labels) for t in got} == expected
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


def test_sheets_are_canonical_sorted_and_valid():
    spec = make_spec("3", "0", "2,1^4")
    sheets = enumerate_sheets(spec)
    assert len(sheets) == 4
    keys = [tuple_key(t) for t in sheets]
    assert keys == sorted(keys)
    for t in sheets:
        validate_marked_tuple(t, spec)
        assert canonicalize(t) == t
        assert component_signature(t) == spec.signature


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


def test_degree_guard():
    big = str(MAX_DEGREE + 1)
    profile = ",".join(["1"] * (MAX_DEGREE + 1))
    with pytest.raises(TooLargeError, match="instance too large"):
        enumerate_sheets(make_spec(big, "0", ";".join([profile] * 4)))


def test_fiber_guard():
    with pytest.raises(TooLargeError, match="instance too large"):
        enumerate_sheets(make_spec("2", "0", ";".join(["2"] * 7)))
