import pytest
from hypothesis import given, strategies as st

from conftest import (
    BADSUB,
    PATH3,
    PATH3_RHO,
    TRIV,
    degrees,
    flipped,
    induced_subgraph,
    logs,
    multigraph,
    seeded_rng,
)
from lotcert import (
    CurvatureReport,
    build_link,
    curvature,
    is_forest,
    is_relative_forest,
    make_log,
    verify_coloring_test,
)
from lotcert.certify import _sign_choice
from lotcert.link_complex import (
    CORNER_KINDS,
    bridges,
    corner_key_str,
    link_to_dot,
    verify_relative_coloring_test,
)
from lotcert.log_model import enumerate_sub_lots, non_label_vertices
from lotcert.oracle import block_reorient


def corner_pairs(link):
    """Multiset of (owner, unordered endpoint pair)."""
    return sorted((key[0], tuple(sorted((u, v)))) for key, u, v in link.edges)


# ---------------------------------------------------------------------------
# the four-corner rule


def test_four_corners_of_generic_edge():
    log = make_log(["i", "j", "k"], [("e", "i", "j", "k")])
    link = build_link(log)
    by_kind = {key[1]: frozenset((u, v)) for key, u, v in link.edges}
    assert by_kind == {
        "positive": frozenset({"i+", "k+"}),
        "negative": frozenset({"k-", "j-"}),
        "mixed_source": frozenset({"i-", "k+"}),
        "mixed_target": frozenset({"k-", "j+"}),
    }


def test_link_of_single_vertex():
    link = build_link(TRIV)
    assert link.nodes == ("x+", "x-")
    assert link.edges == ()


def test_link_of_reoriented_path3():
    link = build_link(PATH3_RHO)
    expected = sorted(
        [
            ("e1", tuple(sorted(("x+", "z+")))),
            ("e1", tuple(sorted(("z-", "y-")))),
            ("e1", tuple(sorted(("x-", "z+")))),
            ("e1", tuple(sorted(("z-", "y+")))),
            ("e2", tuple(sorted(("y+", "x+")))),
            ("e2", tuple(sorted(("x-", "z-")))),
            ("e2", tuple(sorted(("y-", "x+")))),
            ("e2", tuple(sorted(("x-", "z+")))),
        ]
    )
    assert corner_pairs(link) == expected


@given(logs())
def test_corner_count_and_degree_formula(log):
    link = build_link(log)
    assert len(link.edges) == 4 * len(log.edges)
    assert [key for key, _, _ in link.edges] == [
        (e.eid, kind) for e in log.edges for kind in CORNER_KINDS
    ]
    deg = degrees(link)
    plus = induced_subgraph(link, [n for n in link.nodes if n.endswith("+")])
    minus = induced_subgraph(link, [n for n in link.nodes if n.endswith("-")])
    deg_plus, deg_minus = degrees(plus), degrees(minus)
    for v in log.vertices:
        starts = sum(1 for e in log.edges if e.src == v)
        ends = sum(1 for e in log.edges if e.tgt == v)
        labs = sum(1 for e in log.edges if e.lab == v)
        # full link: each signed copy meets the source slot, the target slot
        # and two label slots of its incident 2-cells
        assert deg[v + "+"] == starts + ends + 2 * labs
        assert deg[v + "-"] == starts + ends + 2 * labs
        # induced sides: one corner per source / target plus one per label
        assert deg_plus[v + "+"] == starts + labs
        assert deg_minus[v + "-"] == ends + labs


# ---------------------------------------------------------------------------
# induced subgraphs


def test_induced_all_plus_path3_rho():
    link = build_link(PATH3_RHO)
    plus = induced_subgraph(link, [n for n in link.nodes if n.endswith("+")])
    assert sorted(frozenset((u, v)) for _, u, v in plus.edges) == sorted(
        [frozenset({"x+", "z+"}), frozenset({"y+", "x+"})]
    )


def test_induced_empty_and_full():
    link = build_link(PATH3)
    assert induced_subgraph(link, []).edges == ()
    assert induced_subgraph(link, link.nodes) == link


# ---------------------------------------------------------------------------
# forests on multigraphs


def test_forest_of_plus_side():
    link = build_link(PATH3_RHO)
    plus = induced_subgraph(link, [n for n in link.nodes if n.endswith("+")])
    ok, cycle = is_forest(plus)
    assert ok and cycle is None


def test_loop_is_a_cycle():
    g = multigraph(("u",), (("l", "u", "u"),))
    ok, cycle = is_forest(g)
    assert not ok and cycle.edges == ("l",)


def test_parallel_pair_is_a_cycle():
    g = multigraph(("u", "v"), (("a", "u", "v"), ("b", "u", "v")))
    ok, cycle = is_forest(g)
    assert not ok and set(cycle.edges) == {"a", "b"}


TRIANGLE = multigraph(("u", "v", "w"), (("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")))


def test_relative_forest_examples():
    forest = multigraph(("u", "v"), (("a", "u", "v"),))
    assert is_relative_forest(forest, []) == (True, None)
    assert is_relative_forest(TRIANGLE, [0, 1, 2])[0]
    ok, cycle = is_relative_forest(TRIANGLE, [0])
    assert not ok and set(cycle.edges) == {"a", "b", "c"}


def test_bridges_in_multigraph():
    #  u -a- v =b,c= w -d- t   plus loop at t
    g = multigraph(
        ("u", "v", "w", "t"),
        (("a", "u", "v"), ("b", "v", "w"), ("c", "v", "w"), ("d", "w", "t"), ("l", "t", "t")),
    )
    assert bridges(g) == frozenset({0, 3})  # edges a and d


# ---------------------------------------------------------------------------
# curvature


def test_curvature_bipartition_on_path3_rho():
    eps = {"x": "+", "y": "+", "z": "+"}
    angles = _sign_choice(PATH3_RHO, eps)[0]
    report = curvature(PATH3_RHO, angles)
    assert report.kappa_cells == {"e1": 0, "e2": 0}
    assert report.kappa_vertex == 0
    assert report.chi_complex == 0 and report.chi_link == -2
    assert report.gauss_bonnet == (0, 0)


def test_curvature_single_vertex():
    report = curvature(TRIV, {})
    assert report.kappa_vertex == 0
    assert report.chi_complex == 0 and report.chi_link == 2
    assert report.gauss_bonnet == (0, 0)


def test_curvature_all_ones_on_path3():
    angles = {(e, k): 1 for e in ("e1", "e2") for k in CORNER_KINDS}
    report = curvature(PATH3, angles)
    assert report.kappa_cells == {"e1": 2, "e2": 2}
    assert report.kappa_vertex == -4
    assert report.gauss_bonnet == (0, 0)


def test_curvature_requires_total_angles():
    with pytest.raises(ValueError):
        curvature(PATH3, {})
    # a list indexed by corner needs one 0 or 1 per corner
    assert curvature(PATH3, [1] * 8).kappa_cells == {"e1": 2, "e2": 2}
    for bad in ([1] * 7, [1] * 9, [2] + [1] * 7):
        with pytest.raises(ValueError):
            curvature(PATH3, bad)


@given(logs(), st.integers(min_value=0, max_value=10**9))
def test_gauss_bonnet_identity(log, seed):
    rng = seeded_rng("gb", seed)
    angles = {(e.eid, k): rng.randint(0, 1) for e in log.edges for k in CORNER_KINDS}
    report = curvature(log, angles)
    lhs, rhs = report.gauss_bonnet
    assert lhs == rhs == 2 * report.chi_complex


def test_gauss_bonnet_failure_raises(monkeypatch):
    monkeypatch.setattr(CurvatureReport, "gauss_bonnet", property(lambda report: (0, 1)))
    angles = _sign_choice(PATH3_RHO, {"x": "+", "y": "+", "z": "+"})[0]
    with pytest.raises(RuntimeError, match="Gauss-Bonnet"):
        curvature(PATH3_RHO, angles)


# ---------------------------------------------------------------------------
# coloring tests


def test_coloring_test_bipartition_path3_rho():
    angles = _sign_choice(PATH3_RHO, {"x": "+", "y": "+", "z": "+"})[0]
    assert verify_coloring_test(PATH3_RHO, angles).ok


def test_coloring_test_all_zero_fails():
    angles = {(e, k): 0 for e in ("e1", "e2") for k in CORNER_KINDS}
    res = verify_coloring_test(PATH3, angles)
    assert not res.ok
    assert res.bad_cycle is not None and res.bad_cycle_angle == 0


def test_coloring_test_vacuous():
    assert verify_coloring_test(TRIV, {}).ok


def test_relative_coloring_with_no_parts_matches_plain():
    eps = {"x": "+", "y": "+", "z": "-"}
    angles = _sign_choice(PATH3, eps)[0]
    plain = verify_coloring_test(PATH3, angles)
    rel = verify_relative_coloring_test(PATH3, [], angles)
    assert plain.ok == rel.ok is True


def test_relative_coloring_whole_graph_part_is_vacuous():
    whole = enumerate_sub_lots(PATH3)[0]
    angles = {(e, k): 0 for e in ("e1", "e2") for k in CORNER_KINDS}
    assert verify_relative_coloring_test(PATH3, [whole], angles).ok


def test_relative_coloring_matches_enumeration_on_random_inputs():
    # adversarial cross-check: random logs, random edge-disjoint parts,
    # random angles, against the direct simple-cycle oracle
    from lotcert.oracle import enumerate_simple_cycles, random_log

    checked = 0
    for trial in range(300):
        rng = seeded_rng("rct", trial)
        log = random_log(rng.randint(2, 5), rng.randint(1, 5), seed=trial)
        subs = enumerate_sub_lots(log)
        parts, taken = [], set()
        for s in subs:
            if rng.random() < 0.5 and not (taken & set(s.edge_ids)):
                parts.append(s)
                taken |= set(s.edge_ids)
        angles = {
            (e.eid, k): rng.randint(0, 1) for e in log.edges for k in CORNER_KINDS
        }
        fast = verify_relative_coloring_test(log, parts, angles).ok

        part_edges = {eid for p in parts for eid in p.edge_ids}
        report = curvature(log, angles)
        cells_ok = all(
            v <= 0 for eid, v in report.kappa_cells.items() if eid not in part_edges
        )
        g = build_link(log)
        cycles_ok = all(
            all(key[0] in part_edges for key in c.edges)
            for c in enumerate_simple_cycles(g, max_len=len(g.edges))
            if sum(angles[key] for key in c.edges) <= 1
        )
        assert fast == (cells_ok and cycles_ok), (trial, fast, cells_ok, cycles_ok)
        checked += 1
    assert checked == 300


def test_relative_coloring_rejects_overlapping_parts():
    subs = enumerate_sub_lots(BADSUB)
    small = next(s for s in subs if s.edge_ids == ("e1", "e2"))
    big = next(s for s in subs if s.edge_ids == ("e1", "e2", "e3"))
    angles = {(e.eid, k): 0 for e in BADSUB.edges for k in CORNER_KINDS}
    with pytest.raises(ValueError):
        verify_relative_coloring_test(BADSUB, [small, big], angles)


# ---------------------------------------------------------------------------
# swap isomorphisms under reorientation


def swap_pairs(link, vertex):
    out = []
    for key, u, v in link.edges:
        ends = tuple(sorted(flipped(x) if x[:-1] == vertex else x for x in (u, v)))
        out.append((key[0], ends))
    return sorted(out)


def test_block_reorientation_swap_is_isomorphism():
    # flipping all edges labeled x and swapping x+ <-> x- preserves corners
    rho = block_reorient(PATH3, {"x"})
    assert swap_pairs(build_link(PATH3), "x") == corner_pairs(build_link(rho))


def test_non_label_swap_is_automorphism():
    link = build_link(PATH3)
    for v in non_label_vertices(PATH3):
        assert swap_pairs(link, v) == corner_pairs(link)


# ---------------------------------------------------------------------------
# DOT export


def test_link_dot_deterministic_and_styled():
    angles = _sign_choice(PATH3_RHO, {"x": "+", "y": "+", "z": "+"})[0]
    dot = link_to_dot(build_link(PATH3_RHO), angles)
    assert dot == link_to_dot(build_link(PATH3_RHO), angles)
    assert '"x+";' in dot and '"x-";' in dot
    assert dot.count("style=solid") == 4 and dot.count("style=dashed") == 4
    assert corner_key_str(("e1", "positive")) == "e1:positive"
