import itertools

from conftest import BADSUB, PATH3, TRIV, logs
from hypothesis import given, settings

from lotcert import (
    build_selection_graph,
    edmonds_condition,
    two_disjoint_branchings,
    verify_branching,
)
from lotcert.arborescence import Branching, CutWitness, _greedy_arborescence, cut_delta
from lotcert.oracle import CapExceeded, exhaustive_branching_search


def brute_force_condition(sel, root, n):
    others = [v for v in sel.nodes if v != root]
    for r in range(1, len(others) + 1):
        for subset in itertools.combinations(others, r):
            if cut_delta(sel, subset) < n:
                return False
    return True


def test_condition_on_path3():
    sel = build_selection_graph(PATH3)
    assert edmonds_condition(sel, "y", 2) == (True, None)
    assert brute_force_condition(sel, "y", 2)


def test_condition_vacuous_single_vertex():
    sel = build_selection_graph(TRIV)
    assert edmonds_condition(sel, "x", 1) == (True, None)


def test_condition_fails_on_bad_sublot():
    sel = build_selection_graph(BADSUB)
    ok, cut = edmonds_condition(sel, "q", 2)
    assert not ok
    assert cut.delta == 1
    assert "q" not in cut.vertices
    assert cut_delta(sel, cut.vertices) == 1
    # the subtree {a,b,c,d} minus its non-label leaf d realizes the same value
    assert cut_delta(sel, ("a", "b", "c")) == 1


def test_two_branchings_on_path3():
    sel = build_selection_graph(PATH3)
    b1, b2 = two_disjoint_branchings(sel, "y")
    assert verify_branching(sel, b1) == (True, None)
    assert verify_branching(sel, b2) == (True, None)
    assert not (set(b1.arcs) & set(b2.arcs))
    # the only disjoint pair up to order
    assert {frozenset(b1.arcs), frozenset(b2.arcs)} == {
        frozenset({("e1", "b"), ("e2", "a")}),
        frozenset({("e1", "a"), ("e2", "b")}),
    }


def test_two_branchings_single_vertex():
    sel = build_selection_graph(TRIV)
    b1, b2 = two_disjoint_branchings(sel, "x")
    assert b1.arcs == () and b2.arcs == ()


def test_two_branchings_blocked_by_cut():
    sel = build_selection_graph(BADSUB)
    res = two_disjoint_branchings(sel, "q")
    assert isinstance(res, CutWitness)
    assert res.delta == 1


def test_verify_branching_rejects_bad_sets():
    sel = build_selection_graph(PATH3)
    ok, why = verify_branching(sel, Branching("y", (("e1", "b"),)))
    assert not ok and why == "x"  # does not span x
    ok, why = verify_branching(
        sel, Branching("y", (("e1", "a"), ("e1", "b"), ("e2", "b")))
    )
    assert not ok and why == "z"  # two arcs into z
    ok, why = verify_branching(sel, Branching("y", (("e9", "a"),)))
    assert not ok


def test_single_branching_exists_despite_bad_sublot():
    sel = build_selection_graph(BADSUB)
    b = _greedy_arborescence(sel, "q", set())
    assert b is not None
    assert verify_branching(sel, b) == (True, None)


@given(logs(max_vertices=5, max_edges=6))
@settings(max_examples=40)
def test_flow_condition_matches_subset_enumeration(log):
    sel = build_selection_graph(log)
    root = log.vertices[0]
    ok, cut = edmonds_condition(sel, root, 2)
    assert ok == brute_force_condition(sel, root, 2)
    if not ok:
        assert cut_delta(sel, cut.vertices) == cut.delta < 2
        assert root not in cut.vertices


@given(logs(max_vertices=5, max_edges=5))
@settings(max_examples=40)
def test_construction_iff_condition(log):
    sel = build_selection_graph(log)
    root = log.vertices[0]
    ok, _ = edmonds_condition(sel, root, 2)
    res = two_disjoint_branchings(sel, root)
    assert ok == (not isinstance(res, CutWitness))
    try:
        brute = exhaustive_branching_search(sel, root, cap=40)
        assert ok == (brute is not None)
    except CapExceeded:
        pass
