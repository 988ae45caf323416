import itertools
import time
from collections import Counter, deque

import pytest
from conftest import BADSUB, PATH3, TRIV, edge_deleted_lofs, logs, nested_lot, path_lot, seeded_rng
from hypothesis import given, settings

from lotcert import (
    arborescence,
    build_selection_graph,
    make_log,
    non_label_vertices,
    two_disjoint_branchings,
    verify_branching,
)
from lotcert.arborescence import (
    Branching,
    CutWitness,
    _grow,
    cut_delta,
    edmonds_condition,
    with_added_root,
)
from lotcert.oracle import (
    CapExceeded,
    exhaustive_branching_search,
    flow_cut_condition,
    random_log,
    random_reduced_injective_lot,
    rescan_branchings,
)


def greedy_arborescence(sel, root):
    """One branching rooted at root, grown from the smallest-index frontier arc, or None."""
    chosen = _grow(sel, [sel.node_number[root]], bytearray(len(sel.arcs)), lambda i: True)
    if chosen is None:
        return None
    return Branching(root, tuple(sel.arcs[i].key for i in chosen[0]))


def branchings_or_none(sel, roots):
    """two_disjoint_branchings(sel, roots), or None where the construction stalls."""
    try:
        return two_disjoint_branchings(sel, roots)
    except RuntimeError:
        return None


def brute_force_condition(sel, root):
    others = [v for v in sel.nodes if v != root]
    for r in range(1, len(others) + 1):
        for subset in itertools.combinations(others, r):
            if cut_delta(sel, subset) < 2:
                return False
    return True


def test_condition_on_path3():
    sel = build_selection_graph(PATH3)
    assert edmonds_condition(sel, "y") == (True, None)
    assert brute_force_condition(sel, "y")
    with pytest.raises(ValueError):
        edmonds_condition(sel, "w")


def test_condition_vacuous_single_vertex():
    sel = build_selection_graph(TRIV)
    assert edmonds_condition(sel, "x") == (True, None)


def test_condition_fails_on_bad_sublot():
    sel = build_selection_graph(BADSUB)
    ok, cut = edmonds_condition(sel, "q")
    assert not ok
    assert cut.delta == 1
    assert "q" not in cut.vertices
    assert cut_delta(sel, cut.vertices) == 1
    # the subtree {a,b,c,d} minus its non-label leaf d realizes the same value
    assert cut_delta(sel, ("a", "b", "c")) == 1


def test_two_branchings_on_path3():
    sel = build_selection_graph(PATH3)
    (b1,), (b2,) = two_disjoint_branchings(sel, ["y"])
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
    (b1,), (b2,) = two_disjoint_branchings(sel, ["x"])
    assert b1.arcs == () and b2.arcs == ()


def test_two_branchings_blocked_by_cut():
    # the construction stalls and raises; the dominator pass gives the cut
    sel = build_selection_graph(BADSUB)
    with pytest.raises(RuntimeError, match="stalled"):
        two_disjoint_branchings(sel, ["q"])
    assert edmonds_condition(sel, "q")[1].delta == 1


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
    b = greedy_arborescence(sel, "q")
    assert b is not None
    assert verify_branching(sel, b) == (True, None)


@given(logs(max_vertices=5, max_edges=6))
@settings(max_examples=40)
def test_flow_condition_matches_subset_enumeration(log):
    sel = build_selection_graph(log)
    root = log.vertices[0]
    ok, cut = edmonds_condition(sel, root)
    assert ok == brute_force_condition(sel, root)
    if not ok:
        assert cut_delta(sel, cut.vertices) == cut.delta < 2
        assert root not in cut.vertices


@given(logs(max_vertices=5, max_edges=5))
@settings(max_examples=40)
def test_construction_iff_condition(log):
    sel = build_selection_graph(log)
    root = log.vertices[0]
    ok, _ = edmonds_condition(sel, root)
    assert ok == (branchings_or_none(sel, [root]) is not None)
    try:
        brute = exhaustive_branching_search(sel, root, cap=40)
        assert ok == (brute is not None)
    except CapExceeded:
        pass


def test_condition_cuts_off_an_unreachable_vertex():
    sel = build_selection_graph(BADSUB)
    # q labels no edge, so no arc enters it: from any other root it is cut off
    assert edmonds_condition(sel, "a") == (False, CutWitness(("q",), 0))


def reference_verify_branching(sel, b):
    """The dict-based verifier the integer one replaced, kept as its reference."""
    keys = set()
    arcs = []
    by_key = {a.key: a for a in sel.arcs}
    for k in b.arcs:
        if k not in by_key:
            return False, f"arc {k!r} not in the selection graph"
        if k in keys:
            return False, f"arc {k!r} repeated"
        keys.add(k)
        arcs.append(by_key[k])
    indeg = {v: 0 for v in sel.nodes}
    for a in arcs:
        indeg[a.dst] += 1
    if b.root not in indeg:
        return False, f"root {b.root!r} not a vertex"
    for v in sel.nodes:
        want = 0 if v == b.root else 1
        if indeg[v] != want:
            return False, v
    adj = {}
    for a in arcs:
        adj.setdefault(a.src, []).append(a.dst)
    seen = {b.root}
    queue = deque([b.root])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    for v in sel.nodes:
        if v not in seen:
            return False, v
    return True, None


def _mutations(b):
    """(name, branching): b itself, then b with one arc dropped, one repeated,
    one swapped for its twin (the other arc of its edge), an unknown key, and
    a root that is not a vertex."""
    yield "valid", b
    twin = {"a": "b", "b": "a"}
    for pos, (owner, kind) in enumerate(b.arcs):
        rest = b.arcs[:pos] + b.arcs[pos + 1 :]
        yield "dropped", Branching(b.root, rest)
        yield "repeated", Branching(b.root, b.arcs[: pos + 1] + b.arcs[pos:])
        yield "twin", Branching(b.root, rest[:pos] + ((owner, twin[kind]),) + rest[pos:])
        yield "unknown", Branching(b.root, rest[:pos] + (("nowhere", kind),) + rest[pos:])
    yield "root", Branching(b.root + "_", b.arcs)


def test_verifier_matches_dict_reference():
    graphs = [
        (build_selection_graph(lot), non_label_vertices(lot)[0])
        for lot in (random_reduced_injective_lot(3 + s % 14, s) for s in range(40))
    ]
    for n in range(1, 9):
        for seed in range(6):
            log = random_log(n, 2 * n, seed)
            graphs.append((build_selection_graph(log), log.vertices[0]))
    outcomes = set()
    for sel, root in graphs:
        branchings = [greedy_arborescence(sel, root)]
        res = branchings_or_none(sel, [root])
        if res is not None:
            branchings += [b for (b,) in res]
        for b in filter(None, branchings):
            for name, m in _mutations(b):
                got = verify_branching(sel, m)
                assert got == reference_verify_branching(sel, m)
                witness = "none" if got[0] else "vertex" if got[1] in sel.nodes else "arc or root"
                outcomes.add((name, witness))
    # a swapped twin keeps every in-degree, so when it fails at a vertex the
    # failure is one of reachability
    assert outcomes == {
        ("valid", "none"),
        ("dropped", "vertex"),
        ("repeated", "arc or root"),
        ("twin", "none"),
        ("twin", "vertex"),
        ("unknown", "arc or root"),
        ("root", "arc or root"),
    }


def test_failed_verification_raises(monkeypatch):
    monkeypatch.setattr(arborescence, "_first_fault", lambda sel, trees: 0)
    with pytest.raises(RuntimeError, match="fails verification at 'x'"):
        two_disjoint_branchings(build_selection_graph(PATH3), ["y"])


def _assert_matches_oracles(sel, root):
    """Dominator cut test against one max-flow per vertex, heap branchings
    against the rescanning greedy, which returns the max-flow cut where the
    heap construction stalls; the cut's delta, or None when the condition
    holds."""
    ok, cut = edmonds_condition(sel, root)
    assert (ok, cut) == flow_cut_condition(sel, root)
    rescanned = rescan_branchings(sel, root)
    assert branchings_or_none(sel, [root]) == (rescanned if ok else None)
    assert ok or rescanned == cut
    return None if ok else cut.delta


def random_log_corpus():
    return [
        random_log(n, m, seed) for n in range(1, 11) for m in range(2 * n + 3) for seed in range(4)
    ]


def reduced_injective_corpus():
    return [random_reduced_injective_lot(n, seed) for n in range(3, 41) for seed in range(12)]


def path_corpus(n):
    """Path LOTs on n vertices: three seeds up to n=128, then one, as the
    rescanning oracle takes 0.7 s at n=512."""
    return [path_lot(n, seed) for seed in range(3 if n <= 128 else 1)]


PATH_SIZES = [16, 64, 128, 256, 512]


def test_dominator_pass_matches_max_flow_on_random_logs():
    deltas = Counter()
    for log in random_log_corpus():
        sel = build_selection_graph(log)
        deltas[_assert_matches_oracles(sel, log.vertices[0])] += 1
    # both ways of reading the cut off the dominator tree are exercised
    assert sum(deltas.values()) == 560
    assert deltas[0] >= 400 and deltas[1] >= 50


def test_dominator_pass_matches_max_flow_on_reduced_injective_lots():
    deltas = Counter()
    for lot in reduced_injective_corpus():
        sel = build_selection_graph(lot)
        deltas[_assert_matches_oracles(sel, non_label_vertices(lot)[0])] += 1
    # rooted at its non-label vertex a LOT fails only through a bad sub-LOT
    assert sum(deltas.values()) == 456
    assert deltas[0] == 0 and deltas[1] >= 15


@pytest.mark.parametrize("n", PATH_SIZES)
def test_dominator_pass_matches_max_flow_on_path_lots(n):
    # long tree paths, where the re-hang search walks the deepest trees
    for lot in path_corpus(n):
        _assert_matches_oracles(build_selection_graph(lot), non_label_vertices(lot)[0])


def _depth_first_tree(sel, is_root):
    """A depth-first spanning forest from the roots, in `arborescence._tree`'s form."""
    dst, (out, _) = sel.dst, sel.arc_lists
    parent = [-1] * len(out)
    seen = bytearray(is_root)
    stack = [iter(out[r]) for r, flag in enumerate(is_root) if flag]
    while stack:
        for i in stack[-1]:
            if not seen[dst[i]]:
                seen[dst[i]] = 1
                parent[dst[i]] = i
                stack.append(iter(out[dst[i]]))
                break
        else:
            stack.pop()
    return parent


def _root_mask(sel, roots):
    is_root = bytearray(len(sel.nodes))
    for root in roots:
        is_root[sel.node_number[root]] = 1
    return is_root


def test_branchings_do_not_depend_on_the_initial_spanning_tree(monkeypatch):
    # the commit test is exact for any spanning tree of the unused arcs, so a
    # deep depth-first start gives the same results; a re-hang that gives up
    # while some path still reaches the subtree fails here
    cases = [(build_selection_graph(log), v) for log in random_log_corpus() for v in log.vertices]
    lots = reduced_injective_corpus()
    lots += [lot for n in PATH_SIZES for lot in path_corpus(n)]
    cases += [(build_selection_graph(lot), non_label_vertices(lot)[0]) for lot in lots]
    breadth_first = [branchings_or_none(sel, [root]) for sel, root in cases]
    trees = [(_root_mask(sel, [root]), sel) for sel, root in cases]
    differ = sum(arborescence._tree(g, r) != _depth_first_tree(g, r) for r, g in trees)
    assert differ >= 2000
    monkeypatch.setattr(arborescence, "_tree", _depth_first_tree)
    assert [branchings_or_none(sel, [root]) for sel, root in cases] == breadth_first


@given(logs(max_vertices=7, max_edges=10))
@settings(max_examples=200)
def test_dominator_pass_matches_max_flow_on_drawn_logs(log):
    sel = build_selection_graph(log)
    for root in log.vertices:
        _assert_matches_oracles(sel, root)


def test_dominator_pass_runs_only_for_the_cut(monkeypatch):
    failing = []
    for n in range(1, 11):
        for m in range(2 * n + 3):
            for seed in range(4):
                log = random_log(n, m, seed)
                sel = build_selection_graph(log)
                if not edmonds_condition(sel, log.vertices[0])[0]:
                    failing.append((sel, log.vertices[0]))
    holding = []
    for n in range(3, 41):
        for seed in range(12):
            lot = random_reduced_injective_lot(n, seed)
            sel = build_selection_graph(lot)
            root = non_label_vertices(lot)[0]
            if edmonds_condition(sel, root)[0]:
                holding.append((sel, root))
    assert len(failing) == 480 and len(holding) == 438

    # the construction never runs the dominator pass: a failing input
    # stalls and raises, and the caller asks edmonds_condition for the cut
    for name in ("edmonds_condition", "_disjoint_paths"):
        monkeypatch.setattr(arborescence, name, lambda *args: pytest.fail("dominator pass ran"))
    for sel, root in failing:
        with pytest.raises(RuntimeError, match="stalled"):
            two_disjoint_branchings(sel, [root])
    for sel, root in holding:
        (b1,), (b2,) = two_disjoint_branchings(sel, [root])
        assert verify_branching(sel, b1) == verify_branching(sel, b2) == (True, None)
        assert not set(b1.arcs) & set(b2.arcs)


@pytest.mark.parametrize(
    "lot", [random_reduced_injective_lot(512, 0), path_lot(512, 0)], ids=["random", "path"]
)
def test_two_branchings_at_512_vertices(lot):
    sel = build_selection_graph(lot)
    root = non_label_vertices(lot)[0]
    t0 = time.perf_counter()
    (b1,), (b2,) = two_disjoint_branchings(sel, [root])
    elapsed = time.perf_counter() - t0
    assert verify_branching(sel, b1) == (True, None)
    assert verify_branching(sel, b2) == (True, None)
    assert not set(b1.arcs) & set(b2.arcs)
    assert elapsed < 0.5, f"two_disjoint_branchings took {elapsed:.3f} s at n=512"


def test_two_branchings_of_a_deep_nested_lot():
    # the re-hung subtrees lie on one long chain; a membership walk that
    # went up to a root for every arc into the subtree took about 20 s here
    lot = nested_lot(1024)
    sel = build_selection_graph(lot)
    t0 = time.perf_counter()
    (b1,), (b2,) = two_disjoint_branchings(sel, non_label_vertices(lot))
    elapsed = time.perf_counter() - t0
    assert verify_branching(sel, b1) == verify_branching(sel, b2) == (True, None)
    assert elapsed < 5.0, f"two_disjoint_branchings took {elapsed:.3f} s at n=2051"


def test_the_added_root_serves_zero_one_and_many_roots():
    # one root is its own graph; otherwise ":" is added, with two arcs to
    # each root, so a set that avoids the roots keeps its delta
    sel = build_selection_graph(PATH3)
    assert with_added_root(sel, ["y"]) == (sel, "y")
    empty = build_selection_graph(make_log([], []))
    assert edmonds_condition(*with_added_root(empty, [])) == (True, None)
    graph, root = with_added_root(sel, [])
    assert edmonds_condition(graph, root) == (False, CutWitness(sel.nodes, 0))
    badsub = build_selection_graph(make_log([*BADSUB.vertices, "w"], [tuple(e) for e in BADSUB.edges]))
    graph, root = with_added_root(badsub, ["q", "w"])
    assert root == ":" and graph.nodes == (*badsub.nodes, ":")
    assert graph.keys[-4:] == [(":q", "a"), (":q", "b"), (":w", "a"), (":w", "b")]
    assert edmonds_condition(graph, root) == (False, CutWitness(("a", "b", "c"), 1))


def test_branchings_from_several_roots_match_the_added_root():
    # LOFs rooted at their non-label vertices, and random LOGs rooted at a
    # random vertex set, against one max-flow per vertex from the added root
    cases = [(build_selection_graph(lof), non_label_vertices(lof)) for lof in edge_deleted_lofs(range(4, 30), range(12))]
    for i, log in enumerate(random_log_corpus()):
        rng = seeded_rng("roots", i)
        cases.append((build_selection_graph(log), rng.sample(log.vertices, rng.randint(1, len(log.vertices)))))
    outcomes = Counter()
    for sel, roots in cases:
        ok, _ = flow_cut_condition(*with_added_root(sel, roots))
        several = len(roots) > 1
        outcomes[ok, several] += 1
        if not ok:
            with pytest.raises(RuntimeError, match="stalled"):
                two_disjoint_branchings(sel, roots)
            assert several or not edmonds_condition(sel, roots[0])[0]
            continue
        b1, b2 = two_disjoint_branchings(sel, roots)
        assert [t.root for t in b1] == [t.root for t in b2] == list(roots)
        assert verify_branching(sel, *b1) == verify_branching(sel, *b2) == (True, None)
        assert not {k for t in b1 for k in t.arcs} & {k for t in b2 for k in t.arcs}
    assert min(outcomes.values()) >= 20 and len(outcomes) == 4


def test_verify_branching_checks_each_tree_from_its_own_root():
    # two path components labeling into each other, roots b and v
    sel = build_selection_graph(
        make_log(
            ["a", "b", "c", "u", "v", "w"],
            [("e1", "a", "b", "u"), ("e2", "b", "c", "w"), ("f1", "u", "v", "a"), ("f2", "v", "w", "c")],
        )
    )
    b1, b2 = two_disjoint_branchings(sel, ["b", "v"])
    for trees in (b1, b2):
        assert verify_branching(sel, *trees) == (True, None)
        # a root's first arc, handed to the other root's tree, leaves its
        # head unreached, since the other root never reaches this one
        full, other = sorted(trees, key=lambda t: not t.arcs)
        moved = (Branching(full.root, full.arcs[1:]), Branching(other.root, other.arcs + full.arcs[:1]))
        ok, where = verify_branching(sel, *moved)
        assert not ok and where in sel.nodes
        # a root listed twice is an in-arc too many; an unlisted one has none
        assert verify_branching(sel, *trees, Branching(full.root, ())) == (False, full.root)
        assert verify_branching(sel, full) == (False, other.root)
    with pytest.raises(ValueError, match="repeated root"):
        two_disjoint_branchings(sel, ["b", "b"])
    with pytest.raises(ValueError, match="unknown"):
        two_disjoint_branchings(sel, ["nowhere"])
