import itertools

import pytest

from conftest import BADSUB, PATH3, TRIV, multigraph
from lotcert import build_link, build_selection_graph, classify, non_label_vertices
from lotcert.link_complex import is_forest
from lotcert.log_model import enumerate_sub_lots, reducedness_report
from lotcert import oracle
from lotcert.oracle import (
    CapExceeded,
    enumerate_simple_cycles,
    exhaustive_branching_search,
    exhaustive_cut_condition,
    exhaustive_lbf_search,
    homology_reduced_cycle_search,
    random_lof,
    random_log,
    random_reduced_injective_lot,
)

TRIANGLE = multigraph(("u", "v", "w"), (("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")))
PARALLEL = multigraph(("u", "v"), (("a", "u", "v"), ("b", "u", "v")))
LOOP = multigraph(("u",), (("l", "u", "u"),))


def subset_filter_cycles(g):
    """Second, independent enumeration: edge subsets whose subgraph is one
    simple cycle (every covered node has degree 2 and the subgraph is
    connected)."""
    out = set()
    for r in range(1, len(g.edges) + 1):
        for combo in itertools.combinations(g.edges, r):
            deg = {}
            for k, u, v in combo:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            nodes = list(deg)
            adj = {n: [] for n in nodes}
            for k, u, v in combo:
                adj[u].append(v)
                adj[v].append(u)
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(nodes):
                out.add(frozenset(k for k, _, _ in combo))
    return out


def test_triangle_has_one_cycle():
    cycles = enumerate_simple_cycles(TRIANGLE, max_len=3)
    assert len(cycles) == 1
    assert set(cycles[0].edges) == {"a", "b", "c"}


def test_parallel_pair_is_a_length_two_cycle():
    cycles = enumerate_simple_cycles(PARALLEL, max_len=5)
    assert len(cycles) == 1 and len(cycles[0].edges) == 2


def test_loop_is_a_length_one_cycle():
    cycles = enumerate_simple_cycles(LOOP, max_len=5)
    assert len(cycles) == 1 and cycles[0].edges == ("l",)


def test_path3_link_cycles_match_subset_filter():
    g = build_link(PATH3)
    cycles = enumerate_simple_cycles(g, max_len=len(g.edges))
    fast = {frozenset(c.edges) for c in cycles}
    assert fast == subset_filter_cycles(g)
    assert frozenset({("e1", "positive"), ("e2", "positive")}) in fast


def test_random_links_match_subset_filter():
    for n, seed in ((2, 0), (3, 1), (3, 2), (4, 3)):
        g = build_link(random_log(n, 4, seed))
        cycles = enumerate_simple_cycles(g, max_len=len(g.edges))
        assert {frozenset(c.edges) for c in cycles} == subset_filter_cycles(g)
        assert is_forest(g)[0] == (not cycles)


def test_max_len_truncates():
    assert enumerate_simple_cycles(TRIANGLE, max_len=2) == []


def test_homology_search_examples():
    forest = multigraph(("u", "v"), (("a", "u", "v"),))
    assert homology_reduced_cycle_search(forest, []) is None
    assert homology_reduced_cycle_search(TRIANGLE, ["a", "b", "c"]) is None
    hit = homology_reduced_cycle_search(TRIANGLE, ["a"], max_len=3)
    assert hit is not None and set(hit.edges) == {"a", "b", "c"}


def test_lbf_search_on_small_fixtures():
    hits = exhaustive_lbf_search(PATH3)
    assert hits  # some sign choice always works for this shape
    assert exhaustive_lbf_search(TRIV) == [{"x": "+"}, {"x": "-"}]


def test_lbf_search_can_be_empty():
    from lotcert import make_log

    looped = make_log(["x"], [("e", "x", "x", "x")])
    assert exhaustive_lbf_search(looped) == []


def test_lbf_search_cap():
    with pytest.raises(CapExceeded):
        exhaustive_lbf_search(random_log(20, 0, 0), cap=10)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("LOT_ORACLE_CAP", "2")
    with pytest.raises(CapExceeded):
        exhaustive_lbf_search(PATH3)
    monkeypatch.setenv("LOT_ORACLE_CAP", "8")
    assert exhaustive_lbf_search(PATH3)


def test_branching_search_examples():
    sel = build_selection_graph(PATH3)
    pair = exhaustive_branching_search(sel, "y")
    assert pair is not None
    assert not (set(pair[0].arcs) & set(pair[1].arcs))
    triv = build_selection_graph(TRIV)
    b1, b2 = exhaustive_branching_search(triv, "x")
    assert b1.arcs == () and b2.arcs == ()
    bad = build_selection_graph(BADSUB)
    assert exhaustive_branching_search(bad, "q") is None


def test_cut_condition_search_agrees_with_max_flow():
    from lotcert.arborescence import edmonds_condition

    cases = [(PATH3, "y"), (BADSUB, "q")]
    cases += [(random_reduced_injective_lot(n, seed), None) for n in (5, 8) for seed in range(10)]
    for log, root in cases:
        sel = build_selection_graph(log)
        root = root or non_label_vertices(log)[0]
        assert exhaustive_cut_condition(sel, root) == edmonds_condition(sel, root)[0]
    assert exhaustive_cut_condition(build_selection_graph(BADSUB), "q") is False


def test_cut_condition_search_cap(monkeypatch):
    sel = build_selection_graph(BADSUB)
    with pytest.raises(CapExceeded):
        exhaustive_cut_condition(sel, "q", cap=6)
    monkeypatch.setenv("LOT_ORACLE_CAP", "6")
    with pytest.raises(CapExceeded):
        exhaustive_cut_condition(sel, "q")


def test_branching_search_cap():
    sel = build_selection_graph(random_log(8, 12, 1))
    with pytest.raises(CapExceeded):
        exhaustive_branching_search(sel, sel.nodes[0], cap=5)


# ---------------------------------------------------------------------------
# generators


def test_generator_is_deterministic():
    a = random_reduced_injective_lot(7, 11)
    b = random_reduced_injective_lot(7, 11)
    assert a == b


def test_generator_three_vertices_reduced_shape():
    for seed in range(6):
        log = random_reduced_injective_lot(3, seed)
        rep = reducedness_report(log)
        assert rep.reduced and rep.injective.ok
        assert classify(log).kind == "LOT"
        # unique reduced 3-vertex shape: the middle vertex is the non-label
        (root,) = non_label_vertices(log)
        assert log.valency()[root] == 2


def test_generator_output_is_always_certifiable_input():
    for n in (4, 6, 9):
        for seed in range(5):
            log = random_reduced_injective_lot(n, seed)
            rep = reducedness_report(log)
            assert rep.reduced and rep.injective.ok
            assert classify(log) == classify(log).__class__("LOT", 1)
            assert len(log.vertices) == n


def test_generator_finds_bad_sub_lots_eventually():
    # known seed from a deterministic scan at this size
    log = random_reduced_injective_lot(8, 6)
    assert any(not s.is_boundary_reduced for s in enumerate_sub_lots(log))


def test_generator_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        random_reduced_injective_lot(2, 0)


def test_random_lof_is_forest():
    for seed in range(10):
        log = random_lof(6, seed)
        assert classify(log).kind in ("LOF", "LOT")


def test_random_log_is_deterministic():
    assert random_log(5, 7, 3) == random_log(5, 7, 3)
