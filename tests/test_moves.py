import collections
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    o_check_marked_tuple,
    o_conjugate,
    o_move_conjugators,
    o_relabel,
    o_signature,
    o_transport,
)
from sheet_walk import walk_components

from hurmono import (
    BOUNDARY_LABELS,
    MOVES,
    InvariantViolation,
    MarkedTuple,
    SpecError,
    build_sheet_graph,
    canonicalize,
    component_multiset,
    components,
    default_rows,
    enumerate_markings,
    enumerate_sheets,
    make_spec,
    node_product,
    verify_all,
)
from hurmono import marked, moves, sheets
from hurmono.golden import GoldenRow, spec_line, verify_row
from hurmono.marked import _unmarked_minimum
from hurmono.moves import WORDS, check_unmarked_image, half_twist, lifted_components
from hurmono.perms import (
    compose,
    compose_all,
    conjugate,
    cycle_type,
    identity,
    inverse,
)
from hurmono.sheets import _scan, first_marking, unmarked_classes


def perms_of_degree(d):
    return st.permutations(list(range(d))).map(tuple)


@st.composite
def marked_tuples(draw, max_degree=5):
    d = draw(st.integers(1, max_degree))
    prefix = [draw(perms_of_degree(d)) for _ in range(3)]
    last = inverse(compose_all(prefix))
    perms = tuple(prefix) + (last,)
    labels = []
    for p in perms:
        options = enumerate_markings(p, cycle_type(p))
        labels.append(options[draw(st.integers(0, len(options) - 1))])
    return MarkedTuple(perms=perms, labels=tuple(labels))


# ---------------------------------------------------------------------------
# the braid words against the oracle's conjugator table


def random_marked_tuples(count, max_degree, seed):
    """``count`` seeded random marked tuples with m = 4 and d <= max_degree.

    A plain loop rather than ``marked_tuples``: hypothesis takes about
    twenty times as long per example here.
    """
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, max_degree)
        prefix = [tuple(rng.sample(range(d), d)) for _ in range(3)]
        perms = tuple(prefix) + (inverse(compose_all(prefix)),)
        labels = tuple(rng.choice(enumerate_markings(p, cycle_type(p))) for p in perms)
        yield MarkedTuple(perms=perms, labels=labels)


@pytest.mark.parametrize("boundary", BOUNDARY_LABELS)
def test_move_matches_oracle_conjugators(boundary):
    # fiber i is conjugated by w_i of README's table, its labels riding along
    for t in random_marked_tuples(3000, max_degree=7, seed=11):
        ws = o_move_conjugators(t.perms)[boundary]
        expected = MarkedTuple(
            perms=tuple(o_conjugate(w, p) for w, p in zip(ws, t.perms)),
            labels=tuple(o_relabel(w, lab) for w, lab in zip(ws, t.labels)),
        )
        assert MOVES[boundary](t) == expected, t
        # the main conjugator is the node product: w_1, w_2, w_3 for zero, one, infty
        main = {"zero": 0, "one": 1, "infty": 2}[boundary]
        assert node_product(t, boundary) == ws[main], t


@settings(deadline=None)
@given(marked_tuples(max_degree=7))
def test_boundary_relation_on_every_tuple(t):
    # zero, then one, then infty is conjugation by sigma_4 -- the identity on
    # sheets, though not on the tuple itself
    moved = t
    for b in BOUNDARY_LABELS:
        moved = MOVES[b](moved)
    s4 = t.perms[3]
    assert moved == (tuple(o_conjugate(s4, p) for p in t.perms), o_transport(s4, t.labels))
    for i in (1, 2, 3):
        for sign in (1, -1):
            perms, labels = list(t.perms), list(t.labels)
            half_twist(perms, labels, i, sign)
            half_twist(perms, labels, i, -sign)
            assert (perms, labels) == (list(t.perms), list(t.labels))


def test_words_are_pure_braids():
    for b, word in WORDS.items():
        strands = [1, 2, 3, 4]
        for k in word:
            i = abs(k)
            strands[i - 1], strands[i] = strands[i], strands[i - 1]
        assert strands == [1, 2, 3, 4], b


# ---------------------------------------------------------------------------
# conservation laws and preserved structure


@given(marked_tuples())
def test_conservation_laws(t):
    s1, s2, s3, s4 = t.perms
    ti = MOVES["infty"](t)
    assert ti.perms[0] == s1
    assert ti.perms[1] == s2
    assert compose(ti.perms[2], ti.perms[3]) == compose(s3, s4)

    to = MOVES["one"](t)
    assert to.perms[0] == s1
    assert to.perms[2] == s3
    word = lambda p: compose_all([p[1], p[2], p[3], inverse(p[2])])
    assert word(to.perms) == word(t.perms)

    tz = MOVES["zero"](t)
    assert tz.perms[1] == s2
    assert tz.perms[2] == s3
    outer = lambda p: compose_all([p[0], p[1], p[2], p[3], inverse(p[2]), inverse(p[1])])
    assert outer(tz.perms) == outer(t.perms)


@settings(deadline=None)
@given(marked_tuples())
def test_moves_preserve_structure(t):
    o_check_marked_tuple(t.perms, t.labels)
    sig = o_signature(t.perms)
    types = tuple(cycle_type(p) for p in t.perms)
    for move in MOVES.values():
        moved = move(t)
        o_check_marked_tuple(moved.perms, moved.labels, types, sig)


@given(marked_tuples(max_degree=4))
def test_node_products_conserved_by_matching_move(t):
    # the full twist conjugates the colliding pair by its own product, so the
    # move around a boundary point fixes the node product there
    for name, move in MOVES.items():
        assert node_product(move(t), name) == node_product(t, name), name


def test_moves_require_four_fibers():
    e = identity(2)
    t = MarkedTuple(perms=(e,) * 3, labels=((1, 2),) * 3)
    for move in MOVES.values():
        with pytest.raises(SpecError, match="monodromy requires exactly 4 marked fibers"):
            move(t)


# ---------------------------------------------------------------------------
# sheet graphs


GRAPH_SPECS = [
    ("3", "0", "2,1^4"),
    ("3", "0", "3;2,1;2,1;1,1,1"),
    ("2,1", "0,0", "2,1;2,1;1,1,1;1,1,1"),
    ("4", "1", "3,1^4"),
    ("4", "2", "4;4;3,1;3,1"),
]


@pytest.mark.parametrize("args", GRAPH_SPECS)
def test_sheet_maps_are_bijections(args):
    graph = build_sheet_graph(make_spec(*args))
    n = len(graph.perms)
    for b in ("zero", "one", "infty"):
        assert sorted(graph.s[b]) == list(range(n))


@pytest.mark.parametrize("args", GRAPH_SPECS)
def test_boundary_product_relation(args):
    # zero acts first, then one, then infty
    graph = build_sheet_graph(make_spec(*args))
    product = compose_all((graph.s["infty"], graph.s["one"], graph.s["zero"]))
    assert product == tuple(range(len(graph.perms)))


@pytest.mark.parametrize(
    "args", [("3", "0", "2,1^4"), ("4", "1", "3,1^4"), ("4", "2", "4;4;3,1;3,1")]
)
def test_broken_boundary_relation_is_caught(monkeypatch, args):
    # With the move around one in place of the move around zero, every move
    # still permutes the sheets of these spaces, but zero, then one, then
    # infty no longer compose to the identity.
    monkeypatch.setitem(moves.MOVES, "zero", moves.MOVES["one"])
    with pytest.raises(InvariantViolation, match="do not compose"):
        build_sheet_graph(make_spec(*args))


def test_graph_requires_four_fibers():
    with pytest.raises(SpecError, match="exactly 4"):
        build_sheet_graph(make_spec("2", "0", "2;2;1,1"))


def test_empty_graph():
    graph = build_sheet_graph(make_spec("2", "0", "2;1,1;1,1;1,1"))
    assert graph.perms == ()
    assert components(graph) == ()


def test_components_partition_and_report():
    spec = make_spec("4", "2", "4;4;3,1;3,1")
    graph = build_sheet_graph(spec)
    reports = components(graph)
    assert component_multiset(reports) == ((1, 0, 2), (1, 0, 6))
    all_indices = sorted(i for r in reports for i in r.sheet_indices)
    assert all_indices == list(range(len(graph.perms)))
    for r in reports:
        assert r.degree == len(r.sheet_indices)
        for b in ("zero", "one", "infty"):
            assert sum(r.ram[b]) == r.degree
            assert len(r.nodes[b]) == len(r.ram[b])
        # Riemann-Hurwitz over the three boundary points
        total = sum(p - 1 for b in ("zero", "one", "infty") for p in r.ram[b])
        assert total == 2 * r.degree - 2 + 2 * r.genus


def test_report_sheets_stay_within_component():
    spec = make_spec("3", "1", "3;3;2,1;2,1")
    graph = build_sheet_graph(spec)
    for r in components(graph):
        members = set(r.sheet_indices)
        for b in ("zero", "one", "infty"):
            assert {graph.s[b][i] for i in members} == members


def test_moves_permute_the_sheet_set():
    spec = make_spec("3", "0", "2,1^4")
    sheets = enumerate_sheets(spec)
    index = {(t.perms, t.labels): k for k, t in enumerate(sheets)}
    for move in MOVES.values():
        images = set()
        for t in sheets:
            c = canonicalize(move(t))
            images.add(index[(c.perms, c.labels)])
        assert images == set(range(len(sheets)))


@functools.cache
def marked_graph(spec):
    return build_sheet_graph(spec)


LIFT_SPECS = [row.spec for row in default_rows()] + [make_spec("6", "3", "3,3^4")]


def test_graph_matches_per_sheet_moves():
    # build_sheet_graph moves each unmarked class once and gathers labels per
    # sheet; moving and canonicalizing every sheet on its own must agree.
    largest = make_spec("1,1,1,1", "0,0,0,0", "1,1,1,1^4")
    for spec in LIFT_SPECS:
        if spec == largest:
            continue
        graph, sheets = marked_graph(spec), enumerate_sheets(spec)
        assert graph.perms == tuple(t.perms for t in sheets), spec
        index = {t: k for k, t in enumerate(sheets)}
        for b in BOUNDARY_LABELS:
            expected = tuple(index[canonicalize(MOVES[b](t))] for t in sheets)
            assert graph.s[b] == expected, (spec, b)


def test_move_leaving_the_sheet_set_is_caught(monkeypatch):
    # b_1 trades the cycle types of fibers 1 and 2, which differ in this space,
    # so sigma_2's table has no entry for the image's fiber 2
    spec = make_spec("3", "0", "3;2,1;2,1;1,1,1")
    classes, _, locate = _scan(spec)
    t = MarkedTuple(classes[0], first_marking(classes[0]))
    assert locate(moves._braid_move((1,))(t).perms) is None
    monkeypatch.setitem(moves.MOVES, "zero", moves._braid_move((1,)))
    with pytest.raises(InvariantViolation, match="left the sheet set"):
        build_sheet_graph(spec)


def test_full_twist_invariant_is_checked():
    # sigma_3 = sigma_4 = e, so every node product at infty is e and s_infty
    # is the identity; a 2-cycle in s_infty breaks the full-twist relation.
    spec = make_spec("2,1", "0,0", "2,1;2,1;1,1,1;1,1,1")
    graph = build_sheet_graph(spec)
    assert all(cycle_type(node_product(t, "infty")) == (1, 1, 1) for t in enumerate_sheets(spec))
    assert graph.s["infty"] == tuple(range(len(graph.perms)))
    walk_components(graph)
    swapped = (1, 0, *graph.s["infty"][2:])
    broken = graph._replace(s={**graph.s, "infty": swapped})
    with pytest.raises(InvariantViolation, match="does not divide the order"):
        walk_components(broken)


# ---------------------------------------------------------------------------
# the marking-group lift


def component_data(r):
    """(degree, genus, ram, nodes) of a ComponentReport or a LiftedComponent."""
    return (
        r.degree,
        r.genus,
        *(r.ram[b] for b in BOUNDARY_LABELS),
        *(r.nodes[b] for b in BOUNDARY_LABELS),
    )


@pytest.mark.parametrize("spec", LIFT_SPECS, ids=spec_line)
def test_lift_matches_marked_graph(spec):
    # the lift against the per-sheet walk; components reads its data off the
    # lift, so it must also equal the walk exactly, sheet indices and order
    lifted = lifted_components(spec)
    reports = walk_components(marked_graph(spec))
    assert components(marked_graph(spec)) == reports
    assert component_multiset(lifted) == component_multiset(reports)
    assert sum(c.copies * c.degree for c in lifted) == len(marked_graph(spec).perms)
    expected = collections.Counter(component_data(r) for r in reports)
    got = collections.Counter()
    for c in lifted:
        got[component_data(c)] += c.copies
    assert got == expected


@pytest.mark.parametrize("spec", LIFT_SPECS, ids=spec_line)
def test_marked_components_are_identical_copies(spec):
    # the components over one unmarked component C are |G|/|Gamma_C|
    # G-translates of one another, so they carry the same data
    graph = marked_graph(spec)
    lifted = lifted_components(spec)
    home = {u: k for k, c in enumerate(lifted) for u in c.classes}
    over = [[] for _ in lifted]
    for r in walk_components(graph):
        over[home[graph.perms[r.sheet_indices[0]]]].append(r)
    for c, reports in zip(lifted, over):
        assert len(reports) == c.copies
        assert {component_data(r) for r in reports} == {component_data(c)}
        assert {graph.perms[i] for r in reports for i in r.sheet_indices} == set(c.classes)


def test_lift_of_empty_space_and_fiber_count():
    assert lifted_components(make_spec("2", "0", "2;1,1;1,1;1,1")) == ()
    with pytest.raises(SpecError, match="exactly 4"):
        lifted_components(make_spec("2", "0", "2;2;1,1"))


def golden_row(*args):
    return GoldenRow(spec=make_spec(*args), expected=((1, 0, 1),))


@pytest.mark.parametrize(
    "args", [("3", "0", "2,1^4"), ("4", "1", "3,1^4"), ("4", "2", "4;4;3,1;3,1")]
)
def test_broken_boundary_relation_is_caught_by_lift(monkeypatch, args):
    # as in test_broken_boundary_relation_is_caught: zero, then one, then infty
    # no longer returns every class with a voltage in H_U
    monkeypatch.setitem(moves.MOVES, "zero", moves.MOVES["one"])
    with pytest.raises(InvariantViolation, match="do not compose"):
        lifted_components(make_spec(*args))
    with pytest.raises(InvariantViolation, match="do not compose"):
        verify_row(golden_row(*args))


def test_move_leaving_the_sheet_set_is_caught_by_lift(monkeypatch):
    monkeypatch.setitem(moves.MOVES, "zero", moves._braid_move((1,)))
    with pytest.raises(InvariantViolation, match="left the sheet set"):
        lifted_components(make_spec("3", "0", "3;2,1;2,1;1,1,1"))
    with pytest.raises(InvariantViolation, match="left the sheet set"):
        verify_row(golden_row("3", "0", "3;2,1;2,1;1,1,1"))


def test_move_that_is_not_a_bijection_is_caught(monkeypatch):
    # With H_U shrunk to {e} on the first class only, the move around zero
    # sends its |G| cosets into the |G|/2 cosets of the second class.
    spec = make_spec("4", "2", "4;4;2,2;2,2")
    first = first_marking(unmarked_classes(spec)[0])  # distinct on the three classes
    stabilizer = moves.label_stabilizer
    monkeypatch.setattr(
        moves,
        "label_stabilizer",
        lambda read, f, aut: (
            frozenset({tuple(range(6))}) if f == first else stabilizer(read, f, aut)
        ),
    )
    with pytest.raises(InvariantViolation, match="zero is not a bijection of sheets"):
        build_sheet_graph(spec)
    with pytest.raises(InvariantViolation, match="zero is not a bijection of sheets"):
        lifted_components(spec)


def count_calls(monkeypatch, name, *modules):
    """Record the first argument of every call of ``name`` through ``modules``."""
    calls, fn = [], getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, lambda x, *rest: calls.append(x) or fn(x, *rest))
    return calls


def test_lift_lists_no_marking_and_report_scans_once(monkeypatch):
    # the lift works per class, so its cost does not grow with |G|; the
    # sheet graph scans once, builds each class's first marking, reader and
    # H_U once, and makes no label: neither a marking nor a marked tuple per sheet
    spec = make_spec("1,1,1,1", "0,0,0,0", "1,1,1,1^4")  # |G| = 24^4
    with monkeypatch.context() as patch:
        patch.setattr(sheets, "enumerate_markings", None)
        assert [(c.copies, c.degree) for c in lifted_components(spec)] == [(13824, 1)]
    spec = make_spec("4", "1", "2,2^4")  # 3 classes of 4 fibers
    scans = count_calls(monkeypatch, "_scan", moves, sheets)
    graphs = count_calls(monkeypatch, "class_graph", moves)
    stabilizers = count_calls(monkeypatch, "label_stabilizer", moves, sheets)
    firsts = count_calls(monkeypatch, "first_marking", moves, sheets)
    readers = count_calls(monkeypatch, "coordinate_reader", moves, sheets)
    markings = count_calls(monkeypatch, "enumerate_markings", marked, sheets)
    tuples = count_calls(monkeypatch, "MarkedTuple", sheets)
    assert len(build_sheet_graph(spec).perms) == 12
    assert scans == graphs == [spec]
    assert (len(stabilizers), len(markings), len(tuples)) == (3, 0, 0)
    # once per class in each pass that holds the class list
    classes = list(unmarked_classes(spec))
    for run in (build_sheet_graph, lifted_components, sheets.count_sheets):
        firsts.clear()
        readers.clear()
        run(spec)
        assert firsts == readers == classes
    assert len(sheets.enumerate_sheets(spec)) == len(tuples) == 12  # the count sees them
    # the components of the report come from that one scan and class graph
    scans.clear()
    graphs.clear()
    assert sum(r.degree for r in components(build_sheet_graph(spec))) == 12
    assert scans == graphs == [spec]


def test_lifted_full_twist_invariant_is_checked(monkeypatch):
    # with every node product the identity, the lifted cycles of length 2 and
    # more cannot divide its order
    monkeypatch.setattr(moves, "node_product", lambda t, b: identity(t.degree))
    spec = make_spec("4", "2", "4;4;3,1;3,1")
    with pytest.raises(InvariantViolation, match="does not divide the order"):
        lifted_components(spec)
    with pytest.raises(InvariantViolation, match="does not divide the order"):
        build_sheet_graph(spec)


def test_unmarked_image_check():
    check_unmarked_image(degree=6, genus=1, base_degree=3, base_genus=1)
    with pytest.raises(InvariantViolation, match="cannot cover"):
        check_unmarked_image(degree=6, genus=0, base_degree=3, base_genus=1)
    with pytest.raises(InvariantViolation, match="cannot cover"):
        check_unmarked_image(degree=4, genus=2, base_degree=3, base_genus=0)


# ---------------------------------------------------------------------------
# move targets by table lookup


DEGREE_SEVEN = [make_spec("7", "3", "3,3,1^3;7"), make_spec("7", "2", "3,1,1,1,1;3,1,1,1,1;7;7")]


@pytest.mark.parametrize("spec", LIFT_SPECS + DEGREE_SEVEN, ids=spec_line)
def test_locate_finds_the_canonical_form_of_every_move_image(spec):
    # the scan's tables give the coset scan's canonical form, with a conjugator
    classes, _, locate = _scan(spec)
    for u in classes:
        for move in MOVES.values():
            t = move(MarkedTuple(u, first_marking(u))).perms
            image, w = locate(t)
            assert image == _unmarked_minimum(t)[0]
            assert tuple(conjugate(w, p) for p in t) == image


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_locate_undoes_any_conjugation(data):
    row = data.draw(st.sampled_from(default_rows()))
    classes, _, locate = _scan(row.spec)
    u = data.draw(st.sampled_from(classes))
    w = data.draw(perms_of_degree(row.spec.d))
    t = tuple(conjugate(w, p) for p in u)
    image, back = locate(t)
    assert image == u
    assert tuple(conjugate(back, p) for p in t) == u


def test_pipeline_runs_no_coset_scan(monkeypatch):
    # targets, voltages and Aut(U) come from the scan's tables: verify, the
    # sheet graph, the lift and the sheet count call neither canonicalize nor
    # _unmarked_minimum (the tracer's names stay in place)
    calls = []
    for module in (marked, sheets, moves):
        for name in ("_unmarked_minimum", "canonicalize"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, fn=fn: calls.append(fn) or fn(*a))
    summary = verify_all()
    assert (summary.n_pass, summary.n_fail) == (50, 2)
    spec = make_spec("4", "1", "2,2^4")
    assert sheets.count_sheets(spec) == len(build_sheet_graph(spec).perms) == 12
    assert lifted_components(spec)
    assert calls == []
