import gc
import itertools
import json
import sys
import time
import weakref
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from conftest import (
    BADSUB,
    NONCOMP,
    PATH3,
    PATH3_RHO,
    TRIV,
    bad_nested_lot,
    edge_deleted_lofs,
    nested_lot,
    path_lot,
    seeded_rng,
)
from lotcert import (
    bad_sub_lot_witnesses,
    build_link,
    certify_lof,
    certify_relative,
    classify,
    enumerate_sub_lots,
    make_log,
    parse_log,
    serialize_log,
)
from lotcert import certify as certify_module
from lotcert.certify import (
    HYPOTHESIS_FAILED,
    NON_GENERIC,
    NOT_EVALUATED,
    _coloring_ok,
    _reoriented_strong_lbf,
    _side_mask,
    _sign_choice,
    canonical_json,
    lbf_check,
    strong_lbf_check,
)
from lotcert.link_complex import (
    CORNER_KINDS,
    bridges,
    curvature,
    is_forest,
    is_relative_forest,
    part_corners,
    verify_coloring_test,
    verify_relative_coloring_test,
)
from lotcert.log_model import (
    Log,
    _sub_edges,
    maximal_proper_sub_lots,
    quotient_lof,
    reduce_log,
    reducedness_report,
)
from lotcert.oracle import (
    exhaustive_lbf_search,
    random_lof,
    random_log,
    random_reduced_injective_lot,
    reorient,
)


# ---------------------------------------------------------------------------
# bi-forest checks


def test_strong_lbf_of_reoriented_path3():
    assert strong_lbf_check(PATH3_RHO).ok


def test_strong_lbf_fails_on_path3_with_parallel_pair():
    res = strong_lbf_check(PATH3)
    assert not res.ok and res.cycle_side == "plus"
    assert set(res.cycle.edges) == {("e1", "positive"), ("e2", "positive")}


def test_strong_lbf_single_vertex():
    assert strong_lbf_check(TRIV).ok


def test_lbf_with_constant_signs_equals_strong():
    eps = {v: "+" for v in PATH3.vertices}
    assert lbf_check(PATH3, eps).ok == strong_lbf_check(PATH3).ok is False


def test_lbf_matches_direct_check_on_all_signs():
    # every one of the 2^3 assignments agrees with a from-scratch evaluation
    for signs in itertools.product("+-", repeat=3):
        eps = dict(zip(PATH3.vertices, signs))
        res = lbf_check(PATH3, eps)
        link = build_link(PATH3)
        from conftest import induced_subgraph
        from lotcert import is_forest

        side = induced_subgraph(link, [v + eps[v] for v in PATH3.vertices])
        other = induced_subgraph(
            link,
            [v + ("-" if eps[v] == "+" else "+") for v in PATH3.vertices],
        )
        expect = is_forest(side)[0] and is_forest(other)[0]
        assert res.ok == expect


def test_lbf_trivial():
    assert lbf_check(TRIV, {"x": "+"}).ok
    assert lbf_check(TRIV, {"x": "-"}).ok


def test_lbf_requires_total_signs():
    with pytest.raises(ValueError):
        lbf_check(PATH3, {"x": "+"})


# ---------------------------------------------------------------------------
# angle assignment


def keyed_angles(log, eps):
    """The angles of the sign choice eps, keyed by corner (owner, kind)."""
    keys = [key for key, _, _ in build_link(log).edges]
    return dict(zip(keys, _sign_choice(log, eps)[0]))


def test_angles_of_reoriented_path3():
    angles = keyed_angles(PATH3_RHO, {v: "+" for v in PATH3_RHO.vertices})
    zeros = {k for k, a in angles.items() if a == 0}
    assert zeros == {(e, k) for e in ("e1", "e2") for k in ("positive", "negative")}
    assert all(angles[(e, k)] == 1 for e in ("e1", "e2") for k in ("mixed_source", "mixed_target"))


def test_angles_empty_for_single_vertex():
    assert _sign_choice(TRIV, {"x": "+"})[0] == []


def test_constant_signs_make_mixed_corners_heavy():
    for log in (PATH3, PATH3_RHO, BADSUB):
        angles = keyed_angles(log, {v: "-" for v in log.vertices})
        for e in log.edges:
            assert angles[(e.eid, "mixed_source")] == 1
            assert angles[(e.eid, "mixed_target")] == 1


# ---------------------------------------------------------------------------
# plain pipeline


def test_certify_path3():
    cert = certify_lof(PATH3)
    v = cert.verdicts
    assert v["lbf"] is True and v["coloring_test"] is True
    assert v["DR_claim"] is True and v["aspherical_claim"] is True
    assert v["locally_indicable_claim"] is True and v["VA_claim"] is True
    assert v["strong_lbf"] is False
    # the flip set is a genuine witness: the reoriented graph is a strong bi-forest
    flips = cert.witnesses["flips"]
    assert strong_lbf_check(reorient(PATH3, flips)).ok
    assert lbf_check(PATH3, cert.witnesses["epsilon"]).ok
    assert cert.witnesses["curvature"]["kappa_cells"] == {"e1": 0, "e2": 0}
    assert len(cert.witnesses["branchings"]) == 2
    assert cert.provenance["DR_claim"] == "by-citation"
    assert cert.provenance["lbf"] == "witnessed"


def test_certify_trivial():
    cert = certify_lof(TRIV)
    assert cert.verdicts["DR_claim"] is True
    assert cert.verdicts["strong_lbf"] is True
    assert cert.witnesses["epsilon"] == {"x": "+"}


def test_certify_badsub_fails_hypothesis_with_cut():
    cert = certify_lof(BADSUB)
    assert cert.verdicts["lbf"] == HYPOTHESIS_FAILED
    assert cert.hypothesis["satisfied"] is False
    assert cert.hypothesis["all_sub_lots_boundary_reduced"] is False
    assert "bad_sub_lots" not in cert.hypothesis
    # entered only by the arc from d, which with the cut and the edges it
    # labels is the bad sub-LOT e1 e2 e3 with leaf d
    assert cert.witnesses["cut"] == {"vertices": ["a", "b", "c"], "delta": 1, "leaf": "d", "edges": ["e1", "e2", "e3"]}
    assert cert.hypothesis["suggestion"] == "certify-relative"


@cache
def bad_closure_lots() -> list[Log]:
    """The trees with a bad closure among random_reduced_injective_lot
    (n = 5..9, seeds 0..59) and random_lof(n, s, 0.0) (n = 4..8, seeds
    0..39); the random_lof trees are neither reduced nor injective."""
    corpus = [random_reduced_injective_lot(n, s) for n in range(5, 10) for s in range(60)]
    corpus += [random_lof(n, s, 0.0) for n in range(4, 9) for s in range(40)]
    return [log for log in corpus if bad_sub_lot_witnesses(log)]


def _cut_sub_lot(log: Log):
    """The bad sub-LOT that log's plain certificate names by its cut, as a
    LOG of its own, or None when it has no cut."""
    cut = certify_lof(log).witnesses.get("cut")
    if cut is None:
        return None
    inside = {*cut["vertices"], cut["leaf"]}
    edges = [log.edges[log.edge_index[eid]] for eid in cut["edges"]]
    return Log([v for v in log.vertices if v in inside], edges)


def test_a_bad_closure_rules_out_every_bi_forest_sign_choice():
    # the lemma behind a refutation: a label-closed subtree with a leaf that
    # labels none of its edges leaves no sign choice whose link is a
    # bi-forest; it needs neither reducedness nor injectivity.  The bad
    # sub-LOT an injective tree's cut names is such a subtree of itself
    bad = bad_closure_lots()
    assert len(bad) == 213
    assert [serialize_log(log) for log in bad if exhaustive_lbf_search(log)] == []
    named = [sub for sub in map(_cut_sub_lot, bad) if sub is not None]
    assert len(named) == sum(log.reducedness.injective.ok for log in bad) == 47
    assert [serialize_log(sub) for sub in named if exhaustive_lbf_search(sub)] == []


def test_a_bad_closure_holds_a_cycle_on_one_side_of_a_random_sign_choice():
    # the lemma's count: the closure's corners on the two sides are too many
    # for two forests on its link nodes, so one side has a cycle among them;
    # so too for the bad sub-LOT that an injective tree's cut names
    for i, log in enumerate(bad_closure_lots()):
        cut = certify_lof(log).witnesses.get("cut")
        subs = [bad_sub_lot_witnesses(log)[0].edge_ids] + ([cut["edges"]] if cut else [])
        rng = seeded_rng("bad-closure-signs", i)
        eps = {v: rng.choice("+-") for v in log.vertices}
        link, on = log.link, _side_mask(log, eps)
        for edges in map(set, subs):
            corners = [4 * j + k for j, e in enumerate(log.edges) if e.eid in edges for k in range(4)]
            sides = [
                [c for c in corners if on[link.tail[c]] == on[link.head[c]] == sign]
                for sign in (1, 0)
            ]
            cycles = [is_forest(link, side)[1] for side in sides]
            assert any(cycles), serialize_log(log)
            for side, cycle in zip(sides, cycles):
                if cycle is not None:
                    assert set(cycle.edges) <= {link.edges[c][0] for c in side}


def test_certify_non_forest_fails_hypothesis():
    cyclic = make_log(
        ["x", "y", "z"],
        [("e1", "x", "y", "z"), ("e2", "z", "y", "x"), ("e3", "x", "z", "y")],
    )
    cert = certify_lof(cyclic)
    assert cert.verdicts["DR_claim"] == HYPOTHESIS_FAILED
    assert cert.hypothesis["forest"] is False


def test_certify_general_log_skips_the_sub_lot_scan():
    # 32 edges on 16 vertices: never a forest, so no closure scan runs
    for seed in range(5):
        t0 = time.monotonic()
        cert = certify_lof(random_log(16, 32, seed))
        assert time.monotonic() - t0 < 1.0
        assert cert.hypothesis["forest"] is False
        assert cert.hypothesis["all_sub_lots_boundary_reduced"] == NOT_EVALUATED
        assert "cut" not in cert.witnesses
        assert cert.verdicts["DR_claim"] == HYPOTHESIS_FAILED


def test_certify_scales_past_exhaustive_enumeration():
    # exhaustive sub-LOT enumeration ran out of memory from n=48 on
    lot = random_reduced_injective_lot(128, 1)
    t0 = time.monotonic()
    cert = certify_lof(lot)
    assert time.monotonic() - t0 < 20.0
    assert cert.input["vertices"] == 128
    assert cert.verdicts["DR_claim"] in (True, HYPOTHESIS_FAILED)


def test_certified_cells_have_two_zero_corners():
    for seed in range(6):
        lot = random_reduced_injective_lot(6, seed)
        if any(not s.is_boundary_reduced for s in enumerate_sub_lots(lot)):
            continue
        cert = certify_lof(lot)
        assert cert.verdicts["coloring_test"] is True
        angles = cert.witnesses["angles"]
        for e in lot.edges:
            zero = sum(1 for k in CORNER_KINDS if angles[f"{e.eid}:{k}"] == 0)
            assert zero >= 2


def test_wedge_of_label_disjoint_components():
    two = make_log(
        ["x", "y", "z", "u", "v", "w"],
        [
            ("e1", "x", "y", "z"),
            ("e2", "z", "y", "x"),
            ("f1", "u", "v", "w"),
            ("f2", "w", "v", "u"),
        ],
    )
    assert classify(two).kind == "LOF"
    cert = certify_lof(two)
    assert cert.verdicts["lbf"] is True and cert.verdicts["DR_claim"] is True
    # conjunction of the component certificates, one root each
    eps = cert.witnesses["epsilon"]
    right = make_log(["u", "v", "w"], [("f1", "u", "v", "w"), ("f2", "w", "v", "u")])
    for part in (PATH3, right):
        assert {k: eps[k] for k in part.vertices} == certify_lof(part).witnesses["epsilon"]
    assert cert.witnesses["roots"] == ["y", "v"]
    assert len(cert.witnesses["branchings"]) == 4


def test_mutually_labeling_components_certify_from_one_root_each():
    # two path components, each labeling into the other: one label-closed
    # group with two components, certified without joining them into a LOT
    log = make_log(
        ["a", "b", "c", "u", "v", "w"],
        [
            ("e1", "a", "b", "u"),
            ("e2", "b", "c", "w"),
            ("f1", "u", "v", "a"),
            ("f2", "v", "w", "c"),
        ],
    )
    rep = reducedness_report(log)
    assert rep.reduced and rep.injective.ok
    assert classify(log).kind == "LOF" and classify(log).components == 2
    cert = certify_lof(log)
    assert cert.verdicts["lbf"] is True
    assert cert.verdicts["DR_claim"] is True
    assert "embedding" not in cert.witnesses
    assert cert.witnesses["roots"] == ["b", "v"]
    # each root has one tree in each branching
    assert [t["root"] for t in cert.witnesses["branchings"]] == ["b", "b", "v", "v"]
    assert set(cert.witnesses["flips"]) <= {e.eid for e in log.edges}
    assert lbf_check(log, cert.witnesses["epsilon"]).ok


def test_lofs_certify_exactly_when_the_hypothesis_holds():
    # one path for every reduced injective LOF: it passes the coloring test
    # iff every sub-LOT is boundary reduced, and its lbf verdict is the sign
    # search's (README, "Why a reduced injective LOF has its branchings")
    from lotcert import build_selection_graph, non_label_vertices, verify_branching
    from lotcert.arborescence import Branching

    searched = Counter()
    for lof in edge_deleted_lofs(range(4, 30), range(60)):
        cert = certify_lof(lof)
        holds = cert.hypothesis["satisfied"]
        assert (cert.verdicts["coloring_test"] is True) == holds
        if len(lof.vertices) <= 9 or (not holds and len(lof.vertices) <= 16):
            assert (cert.verdicts["lbf"] is True) == bool(exhaustive_lbf_search(lof))
            searched[holds] += 1
        if not holds:
            continue
        # two trees per listed root, and the roots on no edge hold no arc
        w = cert.witnesses
        trees = [Branching(b["root"], tuple(map(tuple, b["arcs"]))) for b in w["branchings"]]
        assert [t.root for t in trees] == [r for r in w["roots"] for _ in "12"]
        unlisted = [Branching(v, ()) for v in non_label_vertices(lof) if v not in w["roots"]]
        sel = build_selection_graph(lof)
        for first in (0, 1):
            assert verify_branching(sel, *trees[first::2], *unlisted) == (True, None)
    assert searched[True] >= 60 and searched[False] >= 3


def test_lbf_existence_is_reorientation_invariant_for_injective_logs():
    # sampled reorientations of an injective LOT all agree on whether some
    # sign choice works
    import itertools as it

    for seed in (0, 1, 2):
        log = random_reduced_injective_lot(5, seed)
        base = bool(exhaustive_lbf_search(log))
        ids = log.edge_ids()
        for r in range(len(ids) + 1):
            for flips in it.combinations(ids, r):
                assert bool(exhaustive_lbf_search(reorient(log, set(flips)))) == base


def test_reorientation_existence_matches_sign_search():
    # some reorientation is a strong bi-forest iff some sign choice works
    for log in (PATH3, PATH3_RHO):
        ids = log.edge_ids()
        exists_rho = any(
            strong_lbf_check(reorient(log, set(flips))).ok
            for r in range(len(ids) + 1)
            for flips in itertools.combinations(ids, r)
        )
        assert exists_rho == bool(exhaustive_lbf_search(log))


def test_reoriented_check_matches_strong_lbf_of_the_reorientation():
    corpus = [random_reduced_injective_lot(3 + s % 14, s) for s in range(60)]
    corpus += [path_lot(n, s) for n in (16, 64) for s in range(4)]
    corpus += [random_log(n, m, s) for n in range(1, 8) for m in range(0, 2 * n, 3) for s in range(2)]
    rng = seeded_rng("reoriented")
    outcomes = []
    for log in corpus:
        ids = log.edge_ids()
        flip_sets = [rng.sample(range(len(ids)), rng.randint(0, len(ids))) for _ in range(4)]
        cert = certify_lof(log)
        if cert.verdicts["lbf"] is True:
            flip_sets.append([ids.index(eid) for eid in cert.witnesses["flips"]])
        for flipped in flip_sets:
            want = strong_lbf_check(reorient(log, [ids[j] for j in flipped])).ok
            assert _reoriented_strong_lbf(log, set(flipped)) == want
            outcomes.append(want)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100


def test_verdict_only_checks_match_their_references():
    # the certify path decides these checks without building a cycle; each
    # verdict equals the result of the check that builds one
    corpus = [random_log(n, m, s) for n in range(1, 7) for m in range(0, 2 * n + 2) for s in range(2)]
    corpus += [random_lof(n, s) for n in range(2, 24) for s in range(3)]
    corpus += [random_reduced_injective_lot(3 + s % 14, s) for s in range(40)]
    corpus += [path_lot(n, s) for n in (16, 64, 128) for s in range(3)]
    loops = sum(e.src == e.tgt for log in corpus for e in log.edges)
    parallel = sum(
        len(link.tail) - len(set(zip(link.tail, link.head))) for link in (log.link for log in corpus)
    )
    assert loops > 20 and parallel > 20
    rng = seeded_rng("verdict-only")
    outcomes: dict = {
        "strong": [],
        "reoriented": [],
        "lbf": [],
        "coloring": [],
        "relative": [],
        "relative_coloring": [],
    }
    for log in corpus:
        # the parts: the longest vertex-disjoint prefix of the maximal sub-LOTs
        parts: list = []
        if log.log_class.kind in ("LOT", "LOF"):
            for p in maximal_proper_sub_lots(log):
                if any(set(p.vertices) & set(q.vertices) for q in parts):
                    break
                parts.append(p)
        part_edges = {eid for p in parts for eid in p.edge_ids}
        inside = part_corners(log, part_edges)
        outcomes["strong"].append(_reoriented_strong_lbf(log, ()))
        assert outcomes["strong"][-1] == strong_lbf_check(log).ok
        ids = log.edge_ids()
        flip_sets = [rng.sample(range(len(ids)), rng.randint(0, len(ids))) for _ in range(2)]
        sign_choices = [{v: rng.choice("+-") for v in log.vertices} for _ in range(3)]
        cert = certify_lof(log)
        if cert.verdicts["lbf"] is True:
            flip_sets.append([ids.index(eid) for eid in cert.witnesses["flips"]])
            sign_choices.append(cert.witnesses["epsilon"])
        for flipped in flip_sets:
            want = strong_lbf_check(reorient(log, [ids[j] for j in flipped])).ok
            outcomes["reoriented"].append(want)
            assert _reoriented_strong_lbf(log, set(flipped)) == want
        for eps in sign_choices:
            angles, side, coside, lbf = _sign_choice(log, eps)
            ref = lbf_check(log, eps)
            assert (side, coside, lbf) == (ref.first, ref.second, ref.ok)
            coloring = _coloring_ok(lbf, curvature(log, angles))
            assert coloring == verify_coloring_test(log, angles).ok
            outcomes["lbf"].append(lbf)
            outcomes["coloring"].append(coloring)
            if log.log_class.kind not in ("LOT", "LOF"):
                continue
            # the relative references, under any signs and parts
            rel = [is_relative_forest(log.link, inside, s)[0] for s in (side, coside)]
            # the bridge criterion: every corner outside the parts is a bridge
            assert rel == [not set(s) - inside - bridges(log.link, s) for s in (side, coside)]
            kappa = curvature(log, angles).kappa_cells
            flat = all(k <= 0 for eid, k in kappa.items() if eid not in part_edges)
            relative_coloring = all(rel) and flat
            assert relative_coloring == verify_relative_coloring_test(log, parts, angles).ok
            outcomes["relative"] += rel
            outcomes["relative_coloring"].append(relative_coloring)
    for check, seen in outcomes.items():
        assert seen.count(True) >= 25 and seen.count(False) >= 100, (check, seen)


def _count_calls(monkeypatch, fn, results=None) -> list:
    """Count calls to fn through every name a lotcert module binds it to;
    the return values go to results when it is a list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        result = fn(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result

    for name, module in list(sys.modules.items()):
        if name == "lotcert" or name.startswith("lotcert."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_plain_certify_of_a_lot_builds_each_graph_once(monkeypatch):
    lots = [PATH3, path_lot(128, 0)]
    lots += [random_reduced_injective_lot(3 + s % 14, s) for s in range(40)]
    lots = [lot for lot in lots if not bad_sub_lot_witnesses(lot)]
    assert len(lots) == 41
    from lotcert import link_complex, oracle, selection

    graphs: list = []
    counts = {
        fn.__name__: _count_calls(monkeypatch, fn)
        for fn in (link_complex.build_link, oracle.reorient)
    }
    counts["build_selection_graph"] = _count_calls(
        monkeypatch, selection.build_selection_graph, graphs
    )
    for lot in lots:
        for calls in counts.values():
            calls.clear()
        # a fresh LOG: the fixtures may carry a link from earlier calls
        fresh = Log(lot.vertices, lot.edges)
        assert certify_lof(fresh).verdicts["DR_claim"] is True
        assert {name: len(calls) for name, calls in counts.items()} == {
            "build_link": 1,
            "build_selection_graph": 1,
            "reorient": 0,
        }
        # the certificate reads the corner names alone, never the string view
        assert not {"nodes", "edges"} & set(vars(fresh.link))
    # the branchings' keys are built from arc numbers, never mapped back,
    # and no arc row is built
    assert len(graphs) == len(lots)
    assert not any({"arc_number", "arcs"} & set(vars(sel)) for sel in graphs)
    # a LOF with several components takes the same path: one link and one
    # selection graph for the whole LOF
    lof = random_lof(8, 24)
    assert classify(lof).components == 4
    for calls in counts.values():
        calls.clear()
    assert certify_lof(Log(lof.vertices, lof.edges)).verdicts["DR_claim"] is True
    assert {name: len(calls) for name, calls in counts.items()} == {
        "build_link": 1,
        "build_selection_graph": 1,
        "reorient": 0,
    }


def test_relative_certify_builds_no_witness(monkeypatch):
    # each level's relative verdict and angles are read off its quotient's
    # certificate; the relative checks and the parts' corners are
    # references only
    from lotcert import link_complex

    counts = {
        fn.__name__: _count_calls(monkeypatch, fn)
        for fn in (
            link_complex.bridges,
            link_complex.is_relative_forest,
            link_complex.verify_relative_coloring_test,
            link_complex._closing_walk,
            link_complex.part_corners,
        )
    }
    # a level with parts is the first argument of its quotient_lof call; it
    # runs neither a sign choice nor curvature of its own, and names its
    # angles' corners without building its link
    with_parts = _count_calls(monkeypatch, quotient_lof)
    lifted = [_count_calls(monkeypatch, fn) for fn in (curvature, _sign_choice, build_link)]
    corpus = [random_reduced_injective_lot(n, s) for n in (8, 12, 16, 20) for s in range(50)]
    corpus += [random_lof(n, s) for n in range(4, 20) for s in range(4)]
    for log in corpus:
        certify_lof(log)
    for calls in lifted:
        calls.clear()
    levels = []
    for log in corpus:
        # a fresh LOG: plain certify kept its link on the one above
        cert = certify_relative(Log(log.vertices, log.edges))
        if "part_certificates" in cert.witnesses:
            levels.append(cert.verdicts["relative_coloring_test"])
    assert levels.count(True) >= 50
    assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 0)
    works = {id(args[0]) for args in with_parts}
    assert len(with_parts) >= 50 and all(calls for calls in lifted)
    assert not [args for calls in lifted for args in calls if id(args[0]) in works]


def test_relative_certify_derives_each_fact_once_per_log(monkeypatch):
    # the report, the class and the closure table are kept on the LOG, so
    # no LOG of the call tree has any of them computed twice
    from lotcert import log_model

    counts = [
        _count_calls(monkeypatch, fn)
        for fn in (log_model.reducedness_report, log_model.classify, log_model._closure_table)
    ]
    for s in range(150):
        lot = random_reduced_injective_lot(16, s)
        for calls in counts:
            calls.clear()
        certify_relative(Log(lot.vertices, lot.edges))  # nothing computed yet
        for calls in counts:
            assert calls and len({id(args[0]) for args in calls}) == len(calls)


def test_a_lof_whose_branchings_are_built_builds_no_closure_table(monkeypatch):
    # verified branchings give every set avoiding the roots delta >= 2, so
    # no sub-LOT is bad (README), and neither a closure table nor the
    # dominator pass is built
    from lotcert import arborescence, log_model
    from test_acceptance import corpus_good_lots

    fixtures = sorted((Path(__file__).parent / "fixtures").glob("lof_*.lot"))
    inputs = list(corpus_good_lots())
    inputs += [parse_log(path.read_text(encoding="utf-8")) for path in fixtures]
    inputs += [path_lot(n, s) for n in (16, 128) for s in range(3)]
    inputs += [nested_lot(k) for k in (0, 1, 8)]
    assert len(fixtures) == 3
    tables = _count_calls(monkeypatch, log_model._closure_table)
    passes = _count_calls(monkeypatch, arborescence.edmonds_condition)
    for log in inputs:
        cert = certify_lof(Log(log.vertices, log.edges))
        assert cert.hypothesis["satisfied"] is True
        assert cert.hypothesis["all_sub_lots_boundary_reduced"] is True
        assert "cut" not in cert.witnesses
    assert tables == passes == []


def test_a_stalled_lof_takes_its_cut_from_one_dominator_pass(monkeypatch):
    # the first branching stalls, and one dominator pass gives the cut and
    # the bad sub-LOT it names; no closure table is built
    from lotcert import arborescence, log_model, selection

    tables = _count_calls(monkeypatch, log_model._closure_table)
    attempts = _count_calls(monkeypatch, arborescence.two_disjoint_branchings)
    passes = _count_calls(monkeypatch, arborescence.edmonds_condition)
    graphs = _count_calls(monkeypatch, selection.build_selection_graph)
    badsub = {"vertices": ["a", "b", "c"], "delta": 1, "leaf": "d", "edges": ["e1", "e2", "e3"]}
    nested = {"vertices": ["q0", "q1", "q2"], "delta": 1, "leaf": "q3", "edges": ["g1", "g2", "g3"]}
    cases = [(BADSUB, badsub)] + [(bad_nested_lot(k), nested) for k in range(1, 9)]
    for log, cut in cases:
        for calls in (tables, attempts, passes, graphs):
            calls.clear()
        cert = certify_lof(Log(log.vertices, log.edges))
        assert cert.hypothesis["reduced"] and cert.hypothesis["injective"]
        # the stall and the cut read one selection graph
        assert len(attempts) == len(passes) == len(graphs) == 1
        assert tables == []
        assert cert.hypothesis["all_sub_lots_boundary_reduced"] is False
        assert cert.witnesses["cut"] == cut
        assert cert.verdicts["DR_claim"] == HYPOTHESIS_FAILED
    # not reduced: one pass without a branching attempt
    for calls in (tables, attempts, passes):
        calls.clear()
    cert = certify_lof(bad_nested_lot(0))
    assert cert.hypothesis["reduced"] is False
    assert (len(attempts), len(passes), len(tables)) == (0, 1, 0)
    assert cert.witnesses["cut"] == nested


def test_the_stall_and_the_cut_share_one_arc_index(monkeypatch):
    # the first branching's stall and the dominator pass read the out/in-arc
    # lists that the LOG's selection graph keeps, built once
    from functools import cached_property

    from lotcert import arborescence
    from lotcert.selection import SelectionGraph

    build, built = SelectionGraph.arc_lists.func, []

    def counting(sel):
        built.append(build(sel))
        return built[-1]

    lists = cached_property(counting)
    lists.__set_name__(SelectionGraph, "arc_lists")
    monkeypatch.setattr(SelectionGraph, "arc_lists", lists)
    grown = _count_calls(monkeypatch, arborescence._grow)
    passes = _count_calls(monkeypatch, arborescence._disjoint_paths)
    for log in (BADSUB, bad_nested_lot(8)):
        for calls in (built, grown, passes):
            calls.clear()
        fresh = Log(log.vertices, log.edges)
        cert = certify_lof(fresh)
        assert cert.hypothesis["reduced"] and cert.hypothesis["injective"]
        assert cert.hypothesis["all_sub_lots_boundary_reduced"] is False
        assert len(built) == len(grown) == len(passes) == 1
        assert grown[0][0] is passes[0][0] is fresh.selection
        assert fresh.selection.arc_lists is built[0]


def test_plain_certify_of_a_stalled_lot_takes_linear_memory():
    # the stall's cut comes from one dominator pass, linear in the LOT, and
    # no closure table of the nested closures, which is quadratic here
    import tracemalloc

    peaks = []
    for k in (512, 1024):
        log = bad_nested_lot(k)
        fresh = Log(log.vertices, log.edges)
        tracemalloc.start()
        try:
            cert = certify_lof(fresh)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert cert.witnesses["cut"]["delta"] == 1
    assert peaks[1] <= 2.5 * peaks[0], peaks
    assert peaks[1] < 16 * 2**20, peaks


def test_a_stall_without_a_bad_closure_raises(monkeypatch):
    # the README rules the stall out when no cut has delta 1, and so when
    # no closure is bad
    from lotcert import arborescence

    monkeypatch.setattr(arborescence, "edmonds_condition", lambda sel, root: (True, None))
    with pytest.raises(RuntimeError, match="the dominator pass finds no cut") as raised:
        certify_lof(BADSUB)
    assert raised.type is RuntimeError  # not a BranchingStall


def test_the_branchings_are_built_exactly_when_no_closure_is_bad():
    # README step 2 on injective forests, reduced or not: a bad closure
    # minus its leaf is a delta=1 cut, and with none every cut has delta >= 2
    from lotcert import non_label_vertices, two_disjoint_branchings
    from lotcert.arborescence import BranchingStall

    corpus = [random_reduced_injective_lot(n, s) for n in range(5, 13) for s in range(100)]
    corpus += edge_deleted_lofs(range(4, 30), range(60))
    corpus += [random_lof(n, s, 0.0) for n in range(4, 13) for s in range(100)]
    corpus += [family(k) for family in (nested_lot, bad_nested_lot) for k in range(41)]
    outcomes = Counter()
    for log in corpus:
        if not log.reducedness.injective.ok:
            continue
        no_bad = not bad_sub_lot_witnesses(log)
        try:
            two_disjoint_branchings(log.selection, non_label_vertices(log))
            built = True
        except BranchingStall:
            built = False
        assert built == no_bad, serialize_log(log)
        outcomes[built, log.reducedness.reduced] += 1
    # (built, reduced): no non-reduced tree here has its branchings
    assert outcomes == {(True, True): 1224, (False, True): 103, (False, False): 59}


def test_canonical_json_writes_what_orjson_refuses_with_the_stdlib_encoder():
    # keys that are not str, as json.dumps writes them: stringified and sorted
    assert canonical_json({2: "b", 1: ["a"]}) == '{"1":["a"],"2":"b"}\n'


def test_a_certified_log_is_freed_without_the_cycle_collector():
    # no view kept on a Log refers back to it, so the last reference frees it
    # each certify builds the view named beside it
    inputs = [(certify_lof, path_lot(64, 1), "link"), (certify_relative, BADSUB, "closures")]
    inputs += [(certify_relative, random_reduced_injective_lot(16, s), "closures") for s in range(5)]
    gc.disable()
    try:
        for certify, log, view in inputs:
            fresh = Log(log.vertices, log.edges)
            certify(fresh).to_json()
            assert view in vars(fresh)
            ref = weakref.ref(fresh)
            del fresh
            assert ref() is None, certify.__name__
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# relative pipeline


def test_certify_relative_without_parts_delegates():
    cert = certify_relative(PATH3)
    assert cert.verdicts["relative_coloring_test"] is True
    assert cert.verdicts["DR_claim"] is True
    assert cert.witnesses["parts"] == []


def test_certify_relative_badsub():
    cert = certify_relative(BADSUB)
    v = cert.verdicts
    assert v["relative_coloring_test"] is True
    assert v["aspherical_claim"] is True and v["VA_claim"] is True
    assert v["DR_claim"] == NOT_EVALUATED
    assert cert.provenance["aspherical_claim"] == "by-citation"
    # the level's lifted witness is its angles; the quotient's certificate
    # and vertex_map determine the signs, the curvature and the forests
    w = cert.witnesses
    assert not {"epsilon", "curvature", "forests", "relative_lbf"} & set(w)
    assert list(w["angles"]) == list(BADSUB.link.names)
    # collapsed cells are flat, and so is every other cell
    angles = [w["angles"][name] for name in BADSUB.link.names]
    kappa = curvature(BADSUB, angles).kappa_cells
    for p in w["parts"]:
        for eid in p["edges"]:
            assert kappa[eid] == 0
    assert all(k == 0 for k in kappa.values())
    # quotient certificate is embedded and positive, and decides the level
    qverdicts = w["quotient"]["certificate"]["verdicts"]
    assert qverdicts["lbf"] is True and qverdicts["coloring_test"] is True
    # parts are certified recursively
    assert w["part_certificates"][0]["certificate"]["verdicts"]["aspherical_claim"] is True


@pytest.mark.parametrize("broken", ["quotient_fails", "quotient_angles"])
def test_relative_level_rests_on_its_quotient(monkeypatch, broken):
    # a level with parts reads its relative test and its angles off the
    # quotient: a quotient that does not pass leaves it non-generic, and
    # the outside corners follow the quotient's angles, whatever they are
    if broken == "quotient_fails":
        real = certify_module._sign_choice
        quotients = []

        def failing_quotient(log, eps):
            # BADSUB has parts: the first sign choice is its quotient's
            angles, side, coside, lbf = real(log, eps)
            if not quotients:
                quotients.append(log)
                lbf = False
            return angles, side, coside, lbf

        monkeypatch.setattr(certify_module, "_sign_choice", failing_quotient)
        cert = certify_relative(BADSUB)
        qverdicts = cert.witnesses["quotient"]["certificate"]["verdicts"]
        assert qverdicts["lbf"] is False and qverdicts["coloring_test"] is False
        assert len(quotients) == 1
        assert serialize_log(quotients[0]) == cert.witnesses["quotient"]["log"]
        v = cert.verdicts
        for k in ("relative_coloring_test", "aspherical_claim", "VA_claim"):
            assert v[k] == NON_GENERIC
        assert cert.hypothesis["satisfied"] is False
        assert cert.hypothesis["note"] == "quotient LOF does not certify"
        assert not {"angles", "part_certificates"} & set(cert.witnesses)
    else:
        part_edges = {"e1", "e2", "e3"}  # BADSUB's one part; its quotient keeps e4 to e7
        before = certify_relative(BADSUB).witnesses["angles"]
        real = certify_module.certify_lof
        quotients = []

        def flipped_quotient(log):
            # BADSUB has parts: the first plain certificate is its quotient's
            cert = real(log)
            if not quotients:
                quotients.append(log)
                cert.witnesses["angles"] = {k: 1 - a for k, a in cert.witnesses["angles"].items()}
            return cert

        monkeypatch.setattr(certify_module, "certify_lof", flipped_quotient)
        cert = certify_relative(BADSUB)
        assert serialize_log(quotients[0]) == cert.witnesses["quotient"]["log"]
        after = cert.witnesses["angles"]
        assert list(after) == list(before)
        for name, angle in after.items():
            inside = name.split(":")[0] in part_edges
            assert angle == (before[name] if inside else 1 - before[name]), name


def _levels_with_parts(log: Log):
    """(work, parts, quotient, vertex_map) for each level with disjoint parts
    of certify_relative's recursion from log, into every part whether or
    not the quotient certifies."""
    work = log if log.reducedness.reduced else reduce_log(log)[0]
    if not (work.reducedness.injective.ok and work.log_class.kind in ("LOT", "LOF")):
        return
    parts = list(maximal_proper_sub_lots(work))
    part_vertices = [v for p in parts for v in p.vertices]
    if not parts or len(part_vertices) != len(set(part_vertices)):
        return
    yield (work, parts, *quotient_lof(work, parts, [p.vertices[0] for p in parts]))
    for p in parts:
        yield from _levels_with_parts(Log._of(p.vertices, _sub_edges(work, p)))


def test_a_quotient_forest_lifts_to_relative_forests():
    # the lemma behind reading a relative level off its quotient: wherever
    # the quotient's sign choice passes lbf, the lifted signs pass the
    # relative forest test on both sides, and every lifted cell is flat
    corpus = [random_reduced_injective_lot(n, s) for n in (6, 8, 10, 12, 16) for s in range(150)]
    corpus += [random_lof(n, s, 0.0) for n in range(4, 14) for s in range(60)]
    rng = seeded_rng("quotient-lift")
    levels = lifted = refuted = 0
    for log in corpus:
        for work, parts, quotient, vmap in _levels_with_parts(log):
            levels += 1
            inside = part_corners(work, [eid for p in parts for eid in p.edge_ids])
            qv = quotient.vertices
            if len(qv) <= 8:
                choices = [dict(zip(qv, signs)) for signs in itertools.product("+-", repeat=len(qv))]
            else:
                choices = [{v: rng.choice("+-") for v in qv} for _ in range(64)]
            for epsbar in choices:
                angles, side, coside, _ = _sign_choice(work, {v: epsbar[vmap[v]] for v in work.vertices})
                relative = [is_relative_forest(work.link, inside, s)[0] for s in (side, coside)]
                if _sign_choice(quotient, epsbar)[3]:
                    lifted += 1
                    assert relative == [True, True]
                    assert not any(curvature(work, angles).kappa_cells.values())
                else:
                    refuted += not all(relative)
    # the relative test is not vacuous here: it fails on other sign choices
    assert levels >= 200 and lifted >= 1500 and refuted >= 1500, (levels, lifted, refuted)


def test_sign_choice_angles_make_every_cell_flat():
    # a cell's four corners take angles [a != b], [b != c], [a == b] and
    # [b == c] for the signs a, b, c of its source, label and target
    rng = seeded_rng("flat-cells")
    for s in range(200):
        log = random_log(rng.randint(1, 8), rng.randint(0, 10), s)
        eps = {v: rng.choice("+-") for v in log.vertices}
        assert not any(curvature(log, _sign_choice(log, eps)[0]).kappa_cells.values())


def test_certify_relative_on_label_disjoint_union():
    # every whole component is a maximal proper sub-LOT here, so the parts
    # mechanism collapses each to a point and recursion does the real work
    double = make_log(
        [v + "1" for v in BADSUB.vertices] + [v + "2" for v in BADSUB.vertices],
        [(e.eid + "1", e.src + "1", e.tgt + "1", e.lab + "1") for e in BADSUB.edges]
        + [(e.eid + "2", e.src + "2", e.tgt + "2", e.lab + "2") for e in BADSUB.edges],
    )
    assert classify(double).kind == "LOF" and classify(double).components == 2
    cert = certify_relative(double)
    assert cert.verdicts["relative_coloring_test"] is True
    assert cert.verdicts["aspherical_claim"] is True
    parts = cert.witnesses["parts"]
    assert sorted(len(p["edges"]) for p in parts) == [7, 7]
    children = cert.witnesses["part_certificates"]
    assert all(
        c["certificate"]["verdicts"]["aspherical_claim"] is True for c in children
    )


def test_certify_relative_non_generic_overlap():
    # maximal sub-LOTs {e1,e2,e3} and {e4,e5} share the vertex d
    overlap = make_log(
        ["a", "b", "c", "d", "f", "g"],
        [
            ("e1", "a", "b", "c"),
            ("e2", "b", "c", "a"),
            ("e3", "c", "d", "b"),
            ("e4", "d", "f", "g"),
            ("e5", "f", "g", "d"),
        ],
    )
    assert reducedness_report(overlap).reduced
    cert = certify_relative(overlap)
    assert cert.verdicts["relative_coloring_test"] == NON_GENERIC
    assert cert.verdicts["aspherical_claim"] == NON_GENERIC
    assert cert.hypothesis["parts_disjoint"] is False
    assert len(cert.witnesses["parts"]) == 2


def test_certify_relative_undecided_part_leaves_the_claim_undecided():
    # the part e2 e4 e5 e7 e9 has overlapping maximal sub-LOTs of its own
    cert = certify_relative(random_reduced_injective_lot(10, 393))
    assert cert.verdicts["relative_coloring_test"] is True
    assert cert.verdicts["aspherical_claim"] == NON_GENERIC
    assert cert.verdicts["VA_claim"] == NON_GENERIC
    (child,) = [
        c["certificate"]
        for c in cert.witnesses["part_certificates"]
        if c["part_edges"] == ["e2", "e4", "e5", "e7", "e9"]
    ]
    assert child["verdicts"]["aspherical_claim"] == NON_GENERIC


def _relative_levels(cert: dict):
    yield cert
    for child in cert["witnesses"].get("part_certificates", ()):
        yield from _relative_levels(child["certificate"])


def test_relative_claims_are_false_only_on_a_failed_test():
    undecided = 0
    for n in (8, 10, 12):
        for seed in range(400):
            cert = certify_relative(random_reduced_injective_lot(n, seed)).to_dict()
            for level in _relative_levels(cert):
                v = level["verdicts"]
                for k in ("DR_claim", "aspherical_claim", "locally_indicable_claim", "VA_claim"):
                    if v[k] is False:
                        assert v["relative_coloring_test"] is False, (n, seed, k)
                undecided += v["relative_coloring_test"] is True and v["aspherical_claim"] == NON_GENERIC
    assert undecided  # the sweep reaches a passing level with an undecided part


def test_certify_relative_reduces_first():
    log = make_log(
        ["x", "y", "z", "w"],
        [("e1", "x", "y", "z"), ("e2", "z", "y", "x"), ("e3", "w", "x", "w")],
    )
    assert not reducedness_report(log).reduced
    cert = certify_relative(log)
    assert cert.verdicts["relative_coloring_test"] is True
    moves = cert.witnesses["reduction_moves"]
    assert moves and moves[0][0] == "compress"
    assert "vertices: x y z" in cert.witnesses["reduced_input"]


def test_certify_relative_non_injective_fails():
    log = make_log(["x", "y", "z"], [("e1", "x", "y", "z"), ("e2", "y", "x", "z")])
    cert = certify_relative(log)
    assert cert.verdicts["relative_coloring_test"] == HYPOTHESIS_FAILED


def test_certificate_json_round_trips():
    cert = certify_lof(PATH3)
    text = cert.to_json()
    data = json.loads(text)
    assert data["schema"] == 5
    assert data["verdicts"]["DR_claim"] is True
    assert text == certify_lof(PATH3).to_json()


def test_certificate_digest_matches_serialization():
    import hashlib

    cert = certify_lof(PATH3)
    want = hashlib.sha256(serialize_log(PATH3).encode()).hexdigest()
    assert cert.input["digest"] == want


# The theorem rules these outcomes out, so the certify paths raise rather
# than write a certificate for them.


def test_missing_branching_pair_raises(monkeypatch):
    from lotcert import arborescence

    # a stalled construction is a RuntimeError, not a certificate: the
    # first call of the grower builds the first branching, the second stalls
    grow, calls = arborescence._grow, []

    def second_stalls(*args):
        calls.append(args)
        return grow(*args) if len(calls) == 1 else None

    monkeypatch.setattr(arborescence, "_grow", second_stalls)
    with pytest.raises(RuntimeError, match="second branching stalled") as raised:
        certify_lof(PATH3)
    assert raised.type is RuntimeError  # not a first-branching stall
    assert len(calls) == 2


def test_failed_reorientation_raises(monkeypatch):
    monkeypatch.setattr(certify_module, "_reoriented_strong_lbf", lambda lot, flipped: False)
    with pytest.raises(RuntimeError, match="strong bi-forest") as raised:
        certify_lof(PATH3)
    assert raised.type is RuntimeError


def test_a_dominator_cut_whose_delta_is_not_one_raises(monkeypatch):
    from lotcert import arborescence
    from lotcert.arborescence import CutWitness

    # injectivity makes every cut from the roots delta 1 (README)
    monkeypatch.setattr(arborescence, "cut_delta", lambda sel, vertices: 2)
    with pytest.raises(RuntimeError, match="has delta 2, the dominator pass gave 1"):
        certify_lof(BADSUB)
    # a pass that returns some other delta is refused by certify itself
    monkeypatch.setattr(arborescence, "edmonds_condition", lambda sel, root: (False, CutWitness(("a",), 0)))
    for log in (BADSUB, bad_nested_lot(0)):
        with pytest.raises(RuntimeError, match="has delta 0, not 1"):
            certify_lof(log)
