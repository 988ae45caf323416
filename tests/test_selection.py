import itertools

import pytest
from hypothesis import given

from conftest import PATH3, PATH3_RHO, TRIV, induced_subgraph, logs
from lotcert import build_link, build_selection_graph
from lotcert.oracle import random_reduced_injective_lot, reorient
from lotcert.selection import BLACK, WHITE, selection_to_dot


def arc_set(sel):
    return {(a.key, a.src, a.dst) for a in sel.arcs}


def arcs_by_key(sel):
    return {a.key: a for a in sel.arcs}


def is_admissible(sel, partition):
    """True iff a(e) and b(e) are colored differently for every edge e.

    The witness is the first offending edge id.
    """
    for owner in dict.fromkeys(a.owner for a in sel.arcs):
        ca = partition.get((owner, "a"))
        cb = partition.get((owner, "b"))
        if ca not in (BLACK, WHITE) or cb not in (BLACK, WHITE):
            raise ValueError(f"partition is not total at edge {owner!r}")
        if ca == cb:
            return False, owner
    return True, None


def flips_from_partition(log, partition):
    """The numbers of the edges whose a-arc is white, ascending; flipping
    them makes every a-arc black."""
    return [j for j, e in enumerate(log.edges) if partition[(e.eid, "a")] == WHITE]


def reorientation_from_partition(log, partition):
    """The reorientation an admissible partition selects: the edges whose
    a-arc is white are flipped, so every a-arc of the result is black."""
    ok, witness = is_admissible(build_selection_graph(log), partition)
    if not ok:
        raise ValueError(f"partition is not admissible at edge {witness!r}")
    return reorient(log, [log.edges[j].eid for j in flips_from_partition(log, partition)])


def beta_image(log, kind):
    """The a-arcs (kind "a") or b-arcs ("b") as (src, dst) pairs: the images
    of the positive or negative corners under the vertex-collapsing map."""
    return {(a.src, a.dst) for a in build_selection_graph(log).arcs if a.kind == kind}


def indegree(sel):
    deg = dict.fromkeys(sel.nodes, 0)
    for a in sel.arcs:
        deg[a.dst] += 1
    return deg


def test_selection_graph_of_path3():
    sel = build_selection_graph(PATH3)
    assert sel.nodes == ("x", "y", "z")
    assert arc_set(sel) == {
        (("e1", "a"), "x", "z"),
        (("e1", "b"), "y", "z"),
        (("e2", "a"), "z", "x"),
        (("e2", "b"), "y", "x"),
    }


def test_selection_graph_of_single_vertex():
    sel = build_selection_graph(TRIV)
    assert sel.nodes == ("x",) and sel.arcs == ()


def test_reorientation_swaps_a_and_b():
    sel = build_selection_graph(PATH3)
    sel_rho = build_selection_graph(PATH3_RHO)
    # same arc multiset, with the reversed edge's a/b arcs exchanged
    assert {(a.src, a.dst) for a in sel.arcs} == {(a.src, a.dst) for a in sel_rho.arcs}
    arc, arc_rho = arcs_by_key(sel), arcs_by_key(sel_rho)
    assert arc_rho[("e2", "a")].src == "y"
    assert arc_rho[("e2", "b")].src == "z"
    assert arc[("e2", "a")].src == "z"


def test_admissible_partition():
    sel = build_selection_graph(PATH3)
    good = {
        ("e1", "a"): BLACK,
        ("e2", "a"): BLACK,
        ("e1", "b"): WHITE,
        ("e2", "b"): WHITE,
    }
    assert is_admissible(sel, good) == (True, None)
    bad = {k: BLACK for k in good}
    ok, witness = is_admissible(sel, bad)
    assert not ok and witness == "e1"


def test_admissible_vacuous():
    assert is_admissible(build_selection_graph(TRIV), {}) == (True, None)


def test_admissible_requires_total_partition():
    sel = build_selection_graph(PATH3)
    with pytest.raises(ValueError):
        is_admissible(sel, {("e1", "a"): BLACK})


def test_reorientation_from_partition_flips_white_a_arcs():
    partition = {
        ("e1", "a"): BLACK,
        ("e1", "b"): WHITE,
        ("e2", "a"): WHITE,
        ("e2", "b"): BLACK,
    }
    assert reorientation_from_partition(PATH3, partition) == PATH3_RHO


def test_reorientation_from_partition_identity():
    partition = {
        ("e1", "a"): BLACK,
        ("e1", "b"): WHITE,
        ("e2", "a"): BLACK,
        ("e2", "b"): WHITE,
    }
    assert reorientation_from_partition(PATH3, partition) == PATH3


def test_reorientation_from_partition_vacuous():
    assert reorientation_from_partition(TRIV, {}) == TRIV


def test_reorientation_rejects_inadmissible():
    partition = {
        ("e1", "a"): BLACK,
        ("e1", "b"): BLACK,
        ("e2", "a"): WHITE,
        ("e2", "b"): WHITE,
    }
    with pytest.raises(ValueError):
        reorientation_from_partition(PATH3, partition)


def test_beta_image_examples():
    assert beta_image(PATH3_RHO, "a") == {("x", "z"), ("y", "x")}
    assert beta_image(PATH3_RHO, "b") == {("y", "z"), ("z", "x")}
    assert beta_image(TRIV, "a") == set()


def test_beta_image_matches_positive_corners():
    # the collapsing map sends the positive corner of e to its a-arc and the
    # negative corner to its b-arc
    link = build_link(PATH3_RHO)
    for sign, kind in (("+", "a"), ("-", "b")):
        side = induced_subgraph(link, [n for n in link.nodes if n.endswith(sign)])
        collapsed = {tuple(sorted((u[:-1], v[:-1]))) for _, u, v in side.edges}
        assert collapsed == {tuple(sorted(arc)) for arc in beta_image(PATH3_RHO, kind)}


@given(logs())
def test_selection_graph_is_reorientation_invariant(log):
    sel = build_selection_graph(log)
    ids = log.edge_ids()
    flips = set(ids[::2])
    sel_rho = build_selection_graph(reorient(log, flips))
    assert sorted((a.src, a.dst) for a in sel.arcs) == sorted(
        (a.src, a.dst) for a in sel_rho.arcs
    )
    arc, arc_rho = arcs_by_key(sel), arcs_by_key(sel_rho)
    for e in log.edges:
        if e.eid in flips:
            assert arc_rho[(e.eid, "a")].src == arc[(e.eid, "b")].src
            assert arc_rho[(e.eid, "b")].src == arc[(e.eid, "a")].src


@given(logs())
def test_arc_count_and_indegree(log):
    sel = build_selection_graph(log)
    assert len(sel.arcs) == 2 * len(log.edges)
    indeg = indegree(sel)
    for v in log.vertices:
        assert indeg[v] == 2 * sum(1 for e in log.edges if e.lab == v)


def test_reduced_injective_lot_indegrees():
    for seed in range(8):
        lot = random_reduced_injective_lot(7, seed)
        sel = build_selection_graph(lot)
        labels = lot.label_set()
        for v, d in indegree(sel).items():
            assert d == (2 if v in labels else 0)


def test_connected_subgraph_bound_for_good_lots():
    # any vertex subset of the selection graph of a certifiable LOT spans
    # fewer than 2|V| - 1 arcs
    from lotcert import enumerate_sub_lots

    checked = 0
    for seed in range(30):
        lot = random_reduced_injective_lot(6, seed)
        if any(not s.is_boundary_reduced for s in enumerate_sub_lots(lot)):
            continue
        sel = build_selection_graph(lot)
        for r in range(1, len(sel.nodes) + 1):
            for subset in itertools.combinations(sel.nodes, r):
                sset = set(subset)
                inside = sum(1 for a in sel.arcs if a.src in sset and a.dst in sset)
                assert inside < 2 * len(sset) - 1
        checked += 1
    assert checked >= 10


def test_selection_dot_deterministic():
    sel = build_selection_graph(PATH3)
    dot = selection_to_dot(sel)
    assert dot == selection_to_dot(sel)
    assert '"x" -> "z" [label="a(e1)"];' in dot
    colored = selection_to_dot(
        sel,
        {
            ("e1", "a"): BLACK,
            ("e1", "b"): WHITE,
            ("e2", "a"): BLACK,
            ("e2", "b"): WHITE,
        },
    )
    assert 'color="black"' in colored and 'color="white"' in colored
