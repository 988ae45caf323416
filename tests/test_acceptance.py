"""Acceptance suite: one test per criterion, exact checks, fixed seeds.

Each test prints a single `criterion N (...): PASS (x.xs)` line (visible with
pytest -s) and enforces its runtime budget.  All expectations are integers or
booleans; there are no tolerances.
"""

import hashlib
import importlib.util
import itertools
import json
import time
from functools import cache
from pathlib import Path

import orjson

from conftest import degrees, flipped, induced_subgraph, seeded_rng
from lotcert import (
    build_link,
    build_selection_graph,
    certify_lof,
    certify_relative,
    curvature,
    is_forest,
    is_relative_forest,
    parse_log,
    verify_coloring_test,
)
from lotcert.arborescence import cut_delta, edmonds_condition, two_disjoint_branchings, verify_branching
from lotcert.certify import lbf_check, strong_lbf_check
from lotcert.link_complex import CORNER_KINDS, Multigraph, parse_corner_key
from lotcert.log_model import enumerate_sub_lots, non_label_vertices, serialize_log
from lotcert import oracle
from lotcert.oracle import (
    block_reorient,
    enumerate_simple_cycles,
    exhaustive_lbf_search,
    homology_reduced_cycle_search,
    random_lof,
    random_log,
    random_reduced_injective_lot,
    reorient,
)


def report(number, name, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@cache
def corpus_random_logs():
    """500 random LOGs with at most 12 vertices and 48 link corners.

    Edge counts are capped near n/2 + 2 so the links' cycle spaces stay small
    enough for full simple-cycle enumeration (criterion 8).
    """
    out = []
    i = 0
    while len(out) < 500:
        n = 1 + i % 12
        rng = seeded_rng("corpus", i)
        m = rng.randint(0, min(12, n // 2 + 2))
        out.append(random_log(n, m, seed=1000 + i))
        i += 1
    return out


@cache
def corpus_good_lots():
    """200 reduced injective LOTs, oracle-verified to have no bad sub-LOT."""
    out = []
    seed = 0
    while len(out) < 200:
        log = random_reduced_injective_lot(3 + (seed % 8), seed)
        if all(s.is_boundary_reduced for s in enumerate_sub_lots(log)):
            out.append(log)
        seed += 1
    return out


@cache
def corpus_bad_sublot_lots():
    """Generated LOTs containing a bad sub-LOT whose quotient certifies."""
    out = []
    for seed in range(120):
        log = random_reduced_injective_lot(8, seed)
        if all(s.is_boundary_reduced for s in enumerate_sub_lots(log)):
            continue
        cert = certify_relative(log)
        if cert.verdicts["relative_coloring_test"] is True:
            out.append(log)
        if len(out) >= 6:
            break
    return out


def test_criterion_1_corner_rule():
    t0 = time.monotonic()
    for log in corpus_random_logs():
        link = build_link(log)
        assert len(link.edges) == 4 * len(log.edges)
        by_owner = {}
        for (owner, kind), u, v in link.edges:
            by_owner.setdefault(owner, {})[kind] = {u, v}
        for e in log.edges:
            got = by_owner.get(e.eid, {})
            assert got == {
                "positive": {e.src + "+", e.lab + "+"},
                "negative": {e.lab + "-", e.tgt + "-"},
                "mixed_source": {e.src + "-", e.lab + "+"},
                "mixed_target": {e.lab + "-", e.tgt + "+"},
            }
        plus = induced_subgraph(link, [x for x in link.nodes if x.endswith("+")])
        minus = induced_subgraph(link, [x for x in link.nodes if x.endswith("-")])
        dp, dm = degrees(plus), degrees(minus)
        for v in log.vertices:
            starts = sum(1 for e in log.edges if e.src == v)
            ends = sum(1 for e in log.edges if e.tgt == v)
            labs = sum(1 for e in log.edges if e.lab == v)
            assert dp[v + "+"] == starts + labs
            assert dm[v + "-"] == ends + labs
    report(1, "corner rule on 500 random LOGs", t0, 1.0)


def test_criterion_2_gauss_bonnet():
    t0 = time.monotonic()
    for i, log in enumerate(corpus_random_logs()):
        rng = seeded_rng("gb", i)
        for _ in range(10):
            angles = {
                (e.eid, k): rng.randint(0, 1) for e in log.edges for k in CORNER_KINDS
            }
            rep = curvature(log, angles)
            lhs, rhs = rep.gauss_bonnet
            assert lhs == rhs == 2 * rep.chi_complex
    report(2, "exact Gauss-Bonnet on 5000 angle assignments", t0, 5.0)


def _corner_multiset(link, swap_vertex=None):
    out = []
    for key, u, v in link.edges:
        ends = []
        for x in (u, v):
            if swap_vertex is not None and x[:-1] == swap_vertex:
                x = flipped(x)
            ends.append(x)
        out.append((key[0], tuple(sorted(ends))))
    out.sort()
    return out


def test_criterion_3_reorientation_isomorphisms():
    t0 = time.monotonic()
    for i in range(200):
        log = random_lof(3 + i % 8, seed=i)
        link = _corner_multiset(build_link(log))
        labels = sorted(log.label_set(), key=log.vertex_index.__getitem__)
        for lab in labels:
            rho = block_reorient(log, {lab})
            assert _corner_multiset(build_link(log), swap_vertex=lab) == _corner_multiset(
                build_link(rho)
            )
        for v in non_label_vertices(log):
            assert _corner_multiset(build_link(log), swap_vertex=v) == link
    report(3, "swap isomorphisms on 200 random LOFs", t0, 5.0)


def test_criterion_4_edmonds_equivalence():
    t0 = time.monotonic()
    for i in range(200):
        n = 2 + i % 9  # |V| <= 10
        rng = seeded_rng("sel", i)
        log = random_log(n, rng.randint(1, min(2 * n, 9)), seed=4000 + i)
        sel = build_selection_graph(log)
        root = log.vertices[0]
        ok_flow, cut = edmonds_condition(sel, root)
        others = [v for v in sel.nodes if v != root]
        ok_sets = all(
            cut_delta(sel, combo) >= 2
            for r in range(1, len(others) + 1)
            for combo in itertools.combinations(others, r)
        )
        assert ok_flow == ok_sets
        if not ok_flow:
            assert cut.delta == cut_delta(sel, cut.vertices) < 2
        try:
            two_disjoint_branchings(sel, [root])
            constructed = True
        except RuntimeError:  # the construction stalled
            constructed = False
        assert constructed == ok_flow
    report(4, "max-flow cut condition vs subset enumeration", t0, 30.0)


def test_criterion_5_branchings_end_to_end():
    t0 = time.monotonic()
    for lot in corpus_good_lots():
        sel = build_selection_graph(lot)
        (root,) = non_label_vertices(lot)
        (b1,), (b2,) = two_disjoint_branchings(sel, [root])
        assert verify_branching(sel, b1) == (True, None)
        assert verify_branching(sel, b2) == (True, None)
        assert not (set(b1.arcs) & set(b2.arcs))
        # every induced vertex subset spans fewer than 2|S| - 1 arcs
        for r in range(1, len(sel.nodes) + 1):
            for subset in itertools.combinations(sel.nodes, r):
                sset = set(subset)
                inside = sum(1 for a in sel.arcs if a.src in sset and a.dst in sset)
                assert inside < 2 * len(sset) - 1
    report(5, "disjoint branchings on 200 certifiable LOTs", t0, 60.0)


def test_criterion_6_biforest_end_to_end():
    t0 = time.monotonic()
    for lot in corpus_good_lots():
        cert = certify_lof(lot)
        v = cert.verdicts
        assert v["lbf"] is True and v["coloring_test"] is True and v["DR_claim"] is True
        eps = cert.witnesses["epsilon"]
        assert lbf_check(lot, eps).ok
        flips = cert.witnesses["flips"]
        assert strong_lbf_check(reorient(lot, flips)).ok
        assert cert.witnesses["branchings"] and cert.witnesses["partition"]
        hits = exhaustive_lbf_search(lot)
        assert hits and eps in hits
        assert all(k <= 0 for k in cert.witnesses["curvature"]["kappa_cells"].values())
    report(6, "bi-forest certification on 200 certifiable LOTs", t0, 60.0)


def test_criterion_7_negative_control():
    t0 = time.monotonic()
    fixtures = corpus_bad_sublot_lots()
    assert len(fixtures) >= 5
    for lot in fixtures:
        cert = certify_lof(lot)
        assert cert.verdicts["lbf"] == "hypothesis-failed"
        assert cert.hypothesis["all_sub_lots_boundary_reduced"] is False
        assert cert.witnesses["cut"]["delta"] == 1
        rel = certify_relative(lot)
        assert rel.verdicts["relative_coloring_test"] is True
        assert rel.verdicts["aspherical_claim"] is True
        angles = {parse_corner_key(key): val for key, val in rel.witnesses["angles"].items()}
        kappa = curvature(lot, angles).kappa_cells
        for part in rel.witnesses["parts"]:
            for eid in part["edges"]:
                assert kappa[eid] == 0
        assert all(k <= 0 for k in kappa.values())
    report(7, f"negative control on {len(fixtures)} bad-sub-LOT LOTs", t0, 60.0)


def test_criterion_8_oracle_agreement():
    t0 = time.monotonic()
    # forests and the coloring test on every random-corpus link
    for i, log in enumerate(corpus_random_logs()):
        g = build_link(log)
        assert len(g.edges) <= 48
        cycles = enumerate_simple_cycles(g, max_len=len(g.edges))
        assert is_forest(g)[0] == (not cycles)
        rng = seeded_rng("oracle8", i)
        angles = {(e.eid, k): rng.randint(0, 1) for e in log.edges for k in CORNER_KINDS}
        fast = verify_coloring_test(log, angles).ok
        rep = curvature(log, angles)
        slow = all(k <= 0 for k in rep.kappa_cells.values()) and all(
            sum(angles[key] for key in c.edges) >= 2 for c in cycles
        )
        assert fast == slow
        # relative forest against bounded homology-reduced search
        if len(g.nodes) <= 12 and len(g.edges) <= 20:
            avoid = frozenset(i for i in range(len(g.edges)) if rng.random() < 0.5)
            assert is_relative_forest(g, avoid)[0] == (
                homology_reduced_cycle_search(g, [g.edges[i][0] for i in avoid]) is None
            )
    # signed link sides of the certified corpus
    for lot in corpus_good_lots()[:60]:
        link = build_link(lot)
        for sign in "+-":
            g = induced_subgraph(link, [x for x in link.nodes if x.endswith(sign)])
            assert is_forest(g)[0] == (not enumerate_simple_cycles(g, max_len=len(g.edges)))
    # relative coloring on the negative-control fixtures
    for lot in corpus_bad_sublot_lots():
        rel = certify_relative(lot)
        part_edges = {eid for p in rel.witnesses["parts"] for eid in p["edges"]}
        angles = {parse_corner_key(key): val for key, val in rel.witnesses["angles"].items()}
        g = build_link(lot)
        for c in enumerate_simple_cycles(g, max_len=len(g.edges)):
            if sum(angles[k] for k in c.edges) <= 1:
                assert all(k[0] in part_edges for k in c.edges)
    report(8, "oracle agreement across the shared corpora", t0, 120.0)


# sha256 of the concatenated certificate JSON per corpus.  The digests were
# taken from the certificates of the indenting writer, each parsed and
# re-encoded compactly, so the compact writer keeps their content.  A change
# here is a change of certificate bytes and must come with a schema or
# CHANGES.md note.  Schema 3 dropped the lifted epsilon, curvature, forests
# and relative_lbf witnesses of a relative level with parts; good_lots,
# random_lofs and random_logs changed by the schema number alone.  Rooting
# a LOF's branchings at all its non-label vertices, in place of joining its
# components into a LOT, moved the certificates of the LOFs that needed the
# join: random_logs 233 (both pipelines) and 346 (relative), random_lofs
# 264, 276, 387 and 422.  Schema 4 takes a failed hypothesis's cut from its
# first bad closure on every injective forest: 183 plain certificates
# gained a cut (fixtures 1, random_logs 53, random_lofs 129) and 2 changed
# theirs (bad_sublot_lots).  It leaves the plain coloring_test of a
# relative level with parts not-evaluated: fixtures 1, bad_sublot_lots 6
# and relative_lots_16 29 certificates.  good_lots changed by the schema
# number alone.  Schema 5 drops hypothesis.bad_sub_lots from every plain
# certificate, nested ones included, and reads the cut off one dominator
# pass, with its leaf and edges: 190 plain certificates' cuts gained those
# fields and 41 of them moved (random_logs 11, bad_sublot_lots 2,
# random_lofs 28).  A forest that is not injective is no longer scanned:
# random_logs 60 and random_lofs 267 plain certificates read
# all_sub_lots_boundary_reduced "not-evaluated".
GOLDEN_DIGESTS = {
    "fixtures": "36b80fe7328a5cd827c60c0360c9ad0fb61e48d0ac0d461d96e3462813ebd015",
    "random_logs": "20ea7ed9ee40ddec936ab806f7a860357d07e9717086406d544ccf1eca7bab25",
    "good_lots": "45109a4e3baa8d89fc6765f19558dda57f63f00cc7e6e8cae70bcabe4648e4f9",
    "bad_sublot_lots": "0ac2bfe0e6bde76cf66f42c1e867f9df93c182c1007c2a38ad575fabe75c1462",
    "random_lofs": "0bc19bf7e37f032dfce8f6f31fab3cfa018a4f7d93d9a008b41065d1c2149ae1",
    "relative_lots_16": "7e63b0e6b2f0321c638c3eb80f92ff3a2c80165cedb0fbc66916af5821136b40",
}


@cache
def golden_corpora() -> dict:
    """Each golden corpus's LOGs and the pipelines run on every one of them."""
    from conftest import BADSUB, NONCOMP, PATH3, PATH3_RHO, TRIV

    both = (certify_lof, certify_relative)
    return {
        "fixtures": ([TRIV, PATH3, PATH3_RHO, NONCOMP, BADSUB], both),
        "random_logs": (corpus_random_logs(), both),
        "good_lots": (corpus_good_lots(), (certify_lof,)),
        "bad_sublot_lots": (corpus_bad_sublot_lots(), both),
        "random_lofs": (
            [random_lof(n, s) for n in range(2, 13) for s in range(40)],
            (certify_lof,),
        ),
        "relative_lots_16": (
            [random_reduced_injective_lot(16, s) for s in range(150)],
            (certify_relative,),
        ),
    }


@cache
def golden_certificates() -> dict:
    """Each golden corpus's certificates, in the order its digest hashes them."""
    return {
        name: [pipeline(log) for log in logs for pipeline in pipelines]
        for name, (logs, pipelines) in golden_corpora().items()
    }


def test_golden_certificates():
    digests = {}
    for name, certs in golden_certificates().items():
        h = hashlib.sha256()
        for cert in certs:
            h.update(cert.to_json().encode("utf-8"))
        digests[name] = h.hexdigest()
    assert digests == GOLDEN_DIGESTS


def _bench_recheck():
    """The benchmark's witness re-check module, bench/recheck.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "recheck.py"
    spec = importlib.util.spec_from_file_location("bench_recheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exit_0_relative_certificates_pass_the_bench_recheck():
    """The benchmark re-checks every exit-0 relative certificate from its
    angles and parts; every relative golden certificate that exits 0 holds
    what that re-check reads, so a shape change cannot break it quietly."""
    recheck = _bench_recheck()
    checked = with_parts = 0
    for name, (logs, pipelines) in golden_corpora().items():
        if certify_relative not in pipelines:
            continue
        certs = golden_certificates()[name][pipelines.index(certify_relative) :: len(pipelines)]
        for log, cert in zip(logs, certs):
            if cert.verdicts["relative_coloring_test"] is not True:
                continue
            data = json.loads(cert.to_json())
            w = data["witnesses"]
            # the witnesses describe the reduced LOG when reduction moved anything
            work = parse_log(w["reduced_input"]) if "reduced_input" in w else log
            # an angle for every corner, and the part fields the re-check reads
            assert sorted(w["angles"]) == sorted(work.link.names), name
            assert all({"vertices", "edges", "boundary_reduced"} <= set(p) for p in w["parts"])
            # the relative coloring test on those angles and parts, and no
            # positive cell; the bench feeds reduced inputs only, so it
            # reads no reduced_input
            as_reduced = {k: v for k, v in w.items() if k != "reduced_input"}
            assert recheck.relative(work, dict(data, witnesses=as_reduced)) is None, name
            checked += 1
            with_parts += bool(w["parts"])
    assert checked >= 500 and with_parts >= 30, (checked, with_parts)


def test_plain_certify_builds_no_closure_table(monkeypatch):
    """The branchings or one dominator pass decide the hypothesis on every
    golden corpus and the nested families, so no closure table is built."""
    from conftest import bad_nested_lot, nested_lot
    from lotcert import log_model
    from lotcert.log_model import Log

    def refuse(log):
        raise AssertionError("plain certify built a closure table")

    monkeypatch.setattr(log_model, "_closure_table", refuse)
    logs = [log for corpus, _ in golden_corpora().values() for log in corpus]
    logs += [family(k) for family in (nested_lot, bad_nested_lot) for k in range(41)]
    cuts = 0
    for log in logs:
        # a fresh LOG: no closure table kept from an earlier call
        cuts += "cut" in certify_lof(Log(log.vertices, log.edges)).witnesses
    assert cuts >= 200, cuts


def test_exit_3_plain_certificates_pass_the_bench_recheck():
    """The benchmark re-checks each exit-3 plain certificate of a reduced
    injective LOT for a delta-1 cut; every hypothesis-failed plain golden
    certificate of a reduced injective forest holds what that re-check
    reads, so a shape change cannot break it quietly."""
    recheck = _bench_recheck()
    checked = 0
    for name, (logs, pipelines) in golden_corpora().items():
        if certify_lof not in pipelines:
            continue
        certs = golden_certificates()[name][pipelines.index(certify_lof) :: len(pipelines)]
        for log, cert in zip(logs, certs):
            hyp = cert.hypothesis
            if hyp["satisfied"] or not (hyp["reduced"] and hyp["injective"] and hyp["forest"]):
                continue
            assert recheck.hypothesis_failed(json.loads(cert.to_json()), 1) is None, name
            checked += 1
    assert checked >= 7, checked


def test_a_failed_hypothesis_takes_its_cut_from_the_dominator_pass():
    """Every plain certificate of an injective forest with a bad closure has
    a cut, and no other certificate has one.  The cut avoids the non-label
    vertices and is entered by one arc, from its leaf, so it fails the
    max-flow cut condition from the roots; its vertices and leaf, with its
    edges, are a sub-LOT whose leaf has degree 1 and labels none of them."""
    from conftest import edge_deleted_lofs
    from lotcert.arborescence import with_added_root
    from lotcert.log_model import SubLog, bad_sub_lot_witnesses, validate_sub_lot

    cases = []
    for name, (logs, pipelines) in golden_corpora().items():
        if certify_lof in pipelines:
            certs = golden_certificates()[name][pipelines.index(certify_lof) :: len(pipelines)]
            cases += zip(logs, certs)
    lots = [random_reduced_injective_lot(n, s) for n in (8, 12, 16, 24) for s in range(60)]
    lots += edge_deleted_lofs(range(4, 30), range(12))
    cases += [(log, certify_lof(log)) for log in lots]
    cuts = 0
    for log, cert in cases:
        hyp = cert.hypothesis
        if not (hyp["forest"] and hyp["injective"] and bad_sub_lot_witnesses(log)):
            assert "cut" not in cert.witnesses
            decided = hyp["forest"] and hyp["injective"]
            assert hyp["all_sub_lots_boundary_reduced"] == (True if decided else "not-evaluated")
            continue
        assert hyp["all_sub_lots_boundary_reduced"] is False
        cut = cert.witnesses["cut"]
        leaf, edges = cut["leaf"], [log.edges[log.edge_index[eid]] for eid in cut["edges"]]
        vertices = tuple(v for v in log.vertices if v in cut["vertices"] or v == leaf)
        validate_sub_lot(log, SubLog(vertices, tuple(cut["edges"]), True, False))
        assert leaf not in cut["vertices"] and len(vertices) == len(edges) + 1
        assert [e.eid for e in edges] == [e.eid for e in log.edges if e.lab in cut["vertices"]]
        assert sum((e.src, e.tgt).count(leaf) for e in edges) == 1
        assert leaf not in {e.lab for e in edges}
        roots = non_label_vertices(log)
        assert not set(roots) & set(cut["vertices"])
        sel = build_selection_graph(log)
        assert cut["delta"] == cut_delta(sel, cut["vertices"]) == 1
        assert oracle.flow_cut_condition(*with_added_root(sel, roots))[0] is False
        cuts += 1
    assert cuts >= 200, cuts


def _relative_levels(log, cert: dict):
    """(work, certificate) for each level with parts of a relative
    certificate of log, its parts' certificates included."""
    from lotcert.log_model import Log, reduce_log

    w = cert["witnesses"]
    work = parse_log(w["reduced_input"]) if "reduced_input" in w else log
    if "part_certificates" not in w:
        return
    yield work, cert
    index = work.edge_index
    for p, entry in zip(w["parts"], w["part_certificates"]):
        edges = tuple(work.edges[index[eid]] for eid in p["edges"])
        part, _ = reduce_log(Log._of(tuple(p["vertices"]), edges))
        child = entry["certificate"]
        assert child["input"]["digest"] == hashlib.sha256(serialize_log(part).encode()).hexdigest()
        yield from _relative_levels(part, child)


def test_a_relative_level_reads_its_angles_off_its_quotient():
    """At every level with parts of the golden relative certificates the
    angles are those of the quotient's sign choice lifted through the
    vertex map, and each collapsed cell's corners have 0, 0, 1, 1."""
    from lotcert.certify import _sign_choice

    levels = 0
    for name, (logs, pipelines) in golden_corpora().items():
        if certify_relative not in pipelines:
            continue
        certs = golden_certificates()[name][pipelines.index(certify_relative) :: len(pipelines)]
        for log, cert in zip(logs, certs):
            for work, level in _relative_levels(log, cert.to_dict()):
                w = level["witnesses"]
                quotient = w["quotient"]
                epsbar, vmap = quotient["certificate"]["witnesses"]["epsilon"], quotient["vertex_map"]
                lifted = _sign_choice(work, {v: epsbar[vmap[v]] for v in work.vertices})[0]
                assert w["angles"] == dict(zip(work.link.names, lifted)), name
                for p in w["parts"]:
                    for eid in p["edges"]:
                        cell = [w["angles"][f"{eid}:{kind}"] for kind in CORNER_KINDS]
                        assert cell == [0, 0, 1, 1] and sum(cell) == 2
                levels += 1
    assert levels >= 30, levels


_JSON_LEAVES = (str, int, bool, type(None))


def test_certificates_hold_only_json_types_in_canonical_form():
    """json.dumps would write a tuple as a list, stringify an int key and
    accept a float; a certificate holds none of them, and its text is the
    canonical encoding of its own parse.  orjson writes every one: a value
    it refuses, such as an int key or a namedtuple, would send the
    certificate to the slower stdlib encoder."""
    for name, certs in golden_certificates().items():
        for cert in certs:
            data = cert.to_dict()
            stack = [data]
            while stack:
                value = stack.pop()
                if type(value) is dict:
                    assert all(type(k) is str for k in value), (name, list(value))
                    stack.extend(value.values())
                elif type(value) is list:
                    stack.extend(value)
                else:
                    assert type(value) in _JSON_LEAVES, (name, value)
            text = cert.to_json()
            assert orjson.dumps(data, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE).decode() == text
            parsed = json.loads(text)
            assert parsed == data
            canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            assert text == canonical + "\n"


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    from lotcert.cli import main
    from lotcert.link_complex import link_to_dot
    from lotcert.selection import selection_to_dot

    probes = [corpus_good_lots()[0], corpus_bad_sublot_lots()[0]]
    for log in probes:
        assert certify_lof(log).to_json() == certify_lof(log).to_json()
        assert certify_relative(log).to_json() == certify_relative(log).to_json()
        assert link_to_dot(build_link(log)) == link_to_dot(build_link(log))
        sel = build_selection_graph(log)
        assert selection_to_dot(sel) == selection_to_dot(sel)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["generate", "6", "5", "13", str(d1)]) == 0
    assert main(["generate", "6", "5", "13", str(d2)]) == 0
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    report(9, "byte-identical certificates, DOT and corpora", t0, 60.0)
