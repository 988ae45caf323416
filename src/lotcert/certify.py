"""End-to-end certification pipelines and the certificate format.

The plain pipeline certifies a reduced injective LOF all of whose sub-LOTs
are boundary reduced: two disjoint branchings of the selection graph,
rooted at its non-label vertices with one tree per root, give an
admissible partition, the partition selects a reorientation whose link
splits into a positive and a negative tree, and pulling the signs back
yields a bi-forest witness for the input.  These are one fact, decided by
one union-find pass over the edge ends (README).  The induced zero/one angle
structure makes every cell flat, so it passes the coloring test, which is
what the downstream asphericity claims cite.  The theorem fixes those
verdicts: a satisfied certificate writes them as true, and invariant checks
(the bi-forest, Gauss-Bonnet, flat cells) raise RuntimeError rather than
write a certificate that contradicts it.  A LOT has one non-label vertex
and a LOF as many as it has components, and both take the same path: the
README proves that on a reduced injective LOF the branchings exist exactly
when the hypothesis holds.  So the branchings are built first and decide
it; only a stalled first branching sends the LOF to one dominator pass,
whose delta = 1 cut names a bad sub-LOT.

The relative pipeline collapses the maximal proper sub-LOTs, certifies the
quotient and reads the level's relative coloring test off whether the
quotient satisfies the hypothesis: a forest in the quotient is a relative
forest in the LOG, and sign-choice angles make every cell flat (README).
The level reads its angles off the quotient's certificate too; parts are
then certified recursively after boundary reduction.

Certificates are JSON documents (schema 5) with canonical serialization:
sorted keys, no whitespace, arrays in deterministic construction order.
canonical_json writes them with orjson; where orjson refuses a value
(nesting past 255 levels, say), the stdlib json encoder writes the same text.
A plain level writes the epsilon, angles, curvature and forests witnesses
of its sign choice; a relative level with parts writes the angles alone,
since its quotient's certificate and vertex_map determine the rest.
A failed hypothesis of an injective forest is witnessed by a cut entered
by one arc, which with that arc's tail and the edges it labels is a bad
sub-LOT.  Verdicts computed here are labeled "witnessed"; asphericity-style
conclusions are labeled "by-citation" and name the published result they
rely on.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from typing import Container, NamedTuple, Optional

import orjson

from . import arborescence, link_complex, selection
from .link_complex import (
    MINUS,
    PLUS,
    Multigraph,
    Walk,
    corner_key_str,
    corner_names,
    curvature,
    is_forest,
)
from .log_model import (
    Log,
    maximal_proper_sub_lots,
    non_label_vertices,
    quotient_lof,
    reduce_log,
    serialize_log,
    _sub_edges,
    _UnionFind,
)

SCHEMA_VERSION = 5

HYPOTHESIS_FAILED = "hypothesis-failed"
NON_GENERIC = "non-generic: ad hoc analysis required"
NOT_EVALUATED = "not-evaluated"

CITATIONS = {
    "DR_claim": "zero/one coloring test implies diagrammatic reducibility (Sieradski 1983)",
    "aspherical_claim": "diagrammatically reducible 2-complexes are aspherical (Sieradski 1983)",
    "locally_indicable_claim": "coloring test gives non-positive immersion, hence a locally indicable fundamental group (Wise)",
    "VA_claim": "diagrammatic reducibility rules out vertex reduced spherical diagrams",
    "branchings": "disjoint branchings exist iff every rootless cut has delta >= 2 (Edmonds 1973)",
    "relative_aspherical_claim": "relative coloring test with nonpositive cell curvature and vertex aspherical parts yields vertex asphericity",
}


# ---------------------------------------------------------------------------
# local bi-forest checks


class BiForestResult(NamedTuple):
    """first and second are the two sides, as lists of corner numbers of the link."""

    ok: bool
    first: list
    second: list
    cycle: Optional[Walk] = None
    cycle_side: Optional[str] = None


def _side_mask(log: Log, eps: link_complex.SignAssignment) -> bytearray:
    """on[u] is 1 for the link nodes u that carry their vertex's sign eps[x]."""
    on = bytearray(2 * len(log.vertices))
    for i, v in enumerate(log.vertices):
        sign = eps.get(v)
        if sign not in (PLUS, MINUS):
            raise ValueError(f"sign assignment not total at vertex {v!r}")
        on[2 * i + (sign == MINUS)] = 1
    return on


def _split(link: Multigraph, on: bytearray) -> tuple[list[int], list[int], list[int]]:
    """One pass over the corners: the angles, 1 on the corners with exactly one
    end on the side `on` and 0 elsewhere, then the corners with both ends on it,
    and those with both ends off it."""
    angles: list[int] = []
    side: list[int] = []
    coside: list[int] = []
    for c, (u, v) in enumerate(zip(link.tail, link.head)):
        if on[u] != on[v]:
            angles.append(1)
        else:
            angles.append(0)
            (side if on[u] else coside).append(c)
    return angles, side, coside


def _bi_forest(link: Multigraph, on: bytearray, names: tuple[str, str]) -> BiForestResult:
    _, first, second = _split(link, on)
    for corners, name in zip((first, second), names):
        ok, cycle = is_forest(link, corners)
        if not ok:
            return BiForestResult(False, first, second, cycle, name)
    return BiForestResult(True, first, second)


def strong_lbf_check(log: Log) -> BiForestResult:
    """Are the all-plus and all-minus sides of the link both forests?"""
    return _bi_forest(log.link, bytearray((1, 0)) * len(log.vertices), ("plus", "minus"))


def lbf_check(log: Log, eps: link_complex.SignAssignment) -> BiForestResult:
    """Do the signs eps split the link into two induced forests?"""
    return _bi_forest(log.link, _side_mask(log, eps), ("epsilon", "minus_epsilon"))


def _reoriented_strong_lbf(lot: Log, flipped: Container[int]) -> bool:
    """strong_lbf_check(oracle.reorient(lot, flips)).ok, from the edge ends alone.

    flipped holds the numbers of the flipped edges; with none it is
    strong_lbf_check(lot).ok.  The all-plus side of the reoriented link is
    its positive corners (s+, l+), the all-minus side its negative corners
    (l-, t-): corners 4j and 4j+1, two per edge.  The two sides share no
    node, so one union-find over all link nodes tests both for cycles.
    """
    union = _UnionFind(2 * len(lot.vertices)).union
    for j, (s, t, l) in enumerate(lot.edge_ends):
        if j in flipped:
            s, t = t, s
        if not (union(2 * s, 2 * l) and union(2 * l + 1, 2 * t + 1)):
            return False
    return True


def _sign_choice(
    log: Log, eps: link_complex.SignAssignment
) -> tuple[list[int], list[int], list[int], bool]:
    """The angles of the sign choice eps, indexed by corner number: 0 on the
    corners joining equal sign classes, 1 across them; then the epsilon and
    minus-epsilon sides of lbf_check(log, eps) and its verdict, from one side
    mask.

    Swapping x+ and x- at the vertices whose sign is minus maps the epsilon
    side onto the all-plus side of the LOG reoriented at the edges whose
    label is minus, and the minus-epsilon side onto its all-minus side
    (README), so the verdict is that reorientation's strong bi-forest
    check, decided on the edge ends.  No witness is built.
    """
    on = _side_mask(log, eps)
    angles, side, coside = _split(log.link, on)
    minus = {j for j, (_, _, l) in enumerate(log.edge_ends) if on[2 * l + 1]}
    return angles, side, coside, _reoriented_strong_lbf(log, minus)


# ---------------------------------------------------------------------------
# certificate


class Certificate:
    """The sections of a certificate of log; to_json writes its canonical text.

    The input section is computed from log when first read, so a caller
    that certifies a reduced copy of its input names the input by setting
    log first, and the LOG is serialized and hashed once.
    """

    def __init__(
        self,
        log: Log,
        flags: dict,
        hypothesis: dict,
        witnesses: dict,
        verdicts: dict,
        provenance: dict,
        citations: dict,
    ):
        self.log, self.flags, self.hypothesis = log, flags, hypothesis
        self.witnesses, self.verdicts = witnesses, verdicts
        self.provenance, self.citations = provenance, citations

    @cached_property
    def input(self) -> dict:
        return _input_section(self.log)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "input": self.input,
            "flags": self.flags,
            "hypothesis": self.hypothesis,
            "witnesses": self.witnesses,
            "verdicts": self.verdicts,
            "provenance": self.provenance,
            "citations": self.citations,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(value) -> str:
    """The canonical JSON text of value: sorted keys, no whitespace, raw
    UTF-8, one trailing newline.

    value is a tree of dicts with str keys, lists, str, int, bool and None,
    as every certificate is; orjson writes it, with the same text as
    json.dumps(value, sort_keys=True, separators=(",", ":"),
    ensure_ascii=False) and one trailing newline.  What orjson refuses goes
    to that stdlib encoder, so its text or error is the same: nesting
    deeper than 255 levels (deeply nested relative certificates), ints
    outside 64 bits, keys that are not str and lone surrogates.  value is
    built fresh for the call, so the stdlib encoder skips its
    reference-cycle check.  Floats are not canonical here: the two encoders
    write them differently, and no certificate holds one.
    """
    try:
        return orjson.dumps(value, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE).decode()
    except orjson.JSONEncodeError:
        text = json.dumps(
            value, sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False
        )
        return text + "\n"


def _input_section(log: Log) -> dict:
    digest = hashlib.sha256(serialize_log(log).encode("utf-8")).hexdigest()
    return {"digest": digest, "vertices": len(log.vertices), "edges": len(log.edges)}


def _flags_section(log: Log) -> dict:
    rep, cls = log.reducedness, log.log_class
    return {
        "boundary_reduced": rep.boundary_reduced.ok,
        "interior_reduced": rep.interior_reduced.ok,
        "compressed": rep.compressed.ok,
        "reduced": rep.reduced,
        "injective": rep.injective.ok,
        "log_class": cls.kind,
        "components": cls.components,
    }


_BY_CITATION = ("DR_claim", "aspherical_claim", "locally_indicable_claim", "VA_claim")


def _verdict_scaffold(value) -> tuple[dict, dict, dict]:
    witnessed = ("strong_lbf", "lbf", "coloring_test", "relative_coloring_test")
    verdicts = dict.fromkeys(witnessed + _BY_CITATION, value)
    provenance = {k: ("witnessed" if k in witnessed else "by-citation") for k in verdicts}
    citations = {k: CITATIONS[k] for k in _BY_CITATION}
    return verdicts, provenance, citations


# ---------------------------------------------------------------------------
# plain pipeline


def _hypothesis_flags(log: Log) -> dict:
    """The three hypotheses both pipelines report: reduced, injective, forest."""
    rep = log.reducedness
    return {
        "reduced": rep.reduced,
        "injective": rep.injective.ok,
        "forest": log.log_class.kind in ("LOT", "LOF"),
    }


def _dominator_cut(log: Log) -> Optional[dict]:
    """The cut that refutes an injective LOF's hypothesis, or None when it holds.

    One dominator pass from the non-label vertices finds a set S that
    avoids them with delta(S) < 2, if any.  On an injective LOF its delta
    is 1, or RuntimeError is raised, and S with the tail v of its one
    entering arc and the edges that S labels is a sub-LOT whose leaf v
    labels none of them; any such sub-LOT gives such an S (README step 2).
    """
    graph, root = arborescence.with_added_root(log.selection, non_label_vertices(log))
    ok, cut = arborescence.edmonds_condition(graph, root)
    if ok:
        return None
    if cut.delta != 1:
        raise RuntimeError(f"the dominator cut {cut.vertices!r} has delta {cut.delta}, not 1")
    inside = set(cut.vertices)
    edges = [e for e in log.edges if e.lab in inside]
    leaf = next(v for e in edges for v in (e.src, e.tgt) if v not in inside)
    return {"vertices": list(cut.vertices), "delta": 1, "leaf": leaf, "edges": [e.eid for e in edges]}


def certify_lof(log: Log) -> Certificate:
    """Certificate for the plain pipeline.

    On a reduced injective LOF the branchings decide the hypothesis: they
    are built first, from the non-label vertices, and a verified pair
    gives every vertex set avoiding the roots delta >= 2, so no sub-LOT is
    bad (README).  A stall of the first branching sends the LOF to one
    dominator pass (`_dominator_cut`), which must then find a cut, or
    RuntimeError is raised; an injective LOF that is not reduced takes
    that pass at once.  No closure table is built.

    On hypothesis failure all verdicts are "hypothesis-failed" and the
    relative pipeline is suggested, and an injective LOF with a bad
    sub-LOT gets the cut that rules out its two disjoint branchings
    (Edmonds 1973), with the leaf and the edges of the bad sub-LOT.
    Otherwise the LOT or LOF is certified in one pass from its branchings,
    one tree per root.  The paper's theorem says that a pair, once built,
    is admissible and its reorientation has a strong bi-forest link, which
    is the lbf verdict of the signs pulled back from it, and that the
    signs' angles make every cell flat (README).  So a second stall, a
    failed verification, an inadmissible pair, a failed reorientation or a
    curved cell raises a plain RuntimeError, and a certificate that gets
    past them writes lbf, coloring_test and the by-citation verdicts as
    true without computing them; strong_lbf is the one verdict decided.
    """
    base = _hypothesis_flags(log)
    decided = base["forest"] and base["injective"]
    branchings = cut = None
    if all(base.values()):
        try:
            branchings = arborescence.two_disjoint_branchings(log.selection, non_label_vertices(log))
        except arborescence.BranchingStall:
            if (cut := _dominator_cut(log)) is None:
                raise RuntimeError("first branching stalled, yet the dominator pass finds no cut")
    elif decided:
        cut = _dominator_cut(log)
    hypothesis = {
        "satisfied": branchings is not None,
        **base,
        "all_sub_lots_boundary_reduced": cut is None if decided else NOT_EVALUATED,
        "note": "sub-LOT conditions range over connected subtrees with at least one edge",
    }
    flags = _flags_section(log)

    if branchings is None:
        witnesses = {} if cut is None else {"cut": cut}
        hypothesis["suggestion"] = "certify-relative"
        verdicts, provenance, citations = _verdict_scaffold(HYPOTHESIS_FAILED)
        return Certificate(log, flags, hypothesis, witnesses, verdicts, provenance, citations)

    b1, b2 = branchings
    # a label is entered only by its edge's a- and b-arc, one in each
    # branching, so a root on an edge has an arc in one of its two trees;
    # a root on no edge has none, and its trees are not listed
    trees = [pair for pair in zip(b1, b2) if pair[0].arcs or pair[1].arcs]
    # each edge's arc kind in each branching; admissible: one arc in each
    black = {owner: kind for t in b1 for owner, kind in t.arcs}
    white = {owner: kind for t in b2 for owner, kind in t.arcs}
    for e in log.edges:
        if (black.get(e.eid), white.get(e.eid)) not in (("a", "b"), ("b", "a")):
            raise RuntimeError(f"branching pair not admissible at {e.eid!r}")
    # flipping the edges whose a-arc is white makes every a-arc black; they
    # are the edges whose label eps makes minus, so lbf decides the reorientation
    flipped = [j for j, e in enumerate(log.edges) if white[e.eid] == "a"]
    flipped_labels = {log.edges[j].lab for j in flipped}
    eps = {v: (MINUS if v in flipped_labels else PLUS) for v in log.vertices}
    angles, side, coside, lbf = _sign_choice(log, eps)
    if not lbf:
        raise RuntimeError("the selected reorientation fails the strong bi-forest check")
    report = curvature(log, angles)
    # sign-choice angles make every cell flat (README), and an angle-1 corner
    # joins the two sides, so with lbf the coloring test holds
    bent = [eid for eid, k in report.kappa_cells.items() if k]
    if bent:
        raise RuntimeError(f"the sign choice's angles leave cell {bent[0]!r} curved")
    names = log.link.names
    witnesses = dict(
        epsilon=eps,
        angles=dict(zip(names, angles)),
        curvature={**report._asdict(), "gauss_bonnet": list(report.gauss_bonnet)},
        forests={
            "epsilon_side": [names[c] for c in side],
            "minus_epsilon_side": [names[c] for c in coside],
        },
        flips=[log.edges[j].eid for j in flipped],
        branchings=[{"root": t.root, "arcs": [list(k) for k in t.arcs]} for pair in trees for t in pair],
        partition={
            corner_key_str(k): color
            for color, kinds in ((selection.BLACK, black), (selection.WHITE, white))
            for k in kinds.items()
        },
        roots=[t.root for t, _ in trees],
        reoriented_strong_lbf=True,
    )
    # the theorem fixes every verdict but strong_lbf once the invariants hold
    verdicts, provenance, citations = _verdict_scaffold(True)
    verdicts["strong_lbf"] = _reoriented_strong_lbf(log, ())
    verdicts["relative_coloring_test"] = NOT_EVALUATED
    provenance["relative_coloring_test"] = NOT_EVALUATED
    return Certificate(log, flags, hypothesis, witnesses, verdicts, provenance, citations)


# ---------------------------------------------------------------------------
# relative pipeline


def certify_relative(log: Log) -> Certificate:
    """Certificate for the relative pipeline.

    The parts are the inclusion-maximal proper sub-LOTs.  When they are
    pairwise disjoint and the quotient LOF satisfies the hypothesis, its
    certificate passes the coloring test, and the level passes the
    relative one: a forest in the quotient lifts to a relative forest, and
    the lifted angles make every cell flat (README).  The level writes the
    lifted angles, read off the quotient's: an outside corner has its
    quotient corner's angle, and a collapsed cell's corners have 0, 0, 1,
    1.  It evaluates neither its plain coloring test nor its lbf, and
    certifies each part recursively after boundary reduction.  Overlapping
    maximal sub-LOTs or a quotient with a bad sub-LOT yield the non-generic
    verdict.  The aspherical and VA claims of a passing level are True when
    every part's claim is, and non-generic otherwise.
    """
    work = log
    moves: tuple = ()
    if not work.reducedness.reduced:
        work, moves = reduce_log(work)
    flags = _flags_section(work)
    hypothesis = _hypothesis_flags(work)
    base_witnesses: dict = {}
    if moves:
        base_witnesses["reduction_moves"] = [list(map(str, m)) for m in moves]
        base_witnesses["reduced_input"] = serialize_log(work)

    if not all(hypothesis.values()):
        verdicts, provenance, citations = _verdict_scaffold(HYPOTHESIS_FAILED)
        hypothesis.update(satisfied=False, note="relative pipeline needs a reduced injective LOF")
        return Certificate(log, flags, hypothesis, base_witnesses, verdicts, provenance, citations)

    part_list = list(maximal_proper_sub_lots(work))

    if not part_list:
        cert = certify_lof(work)
        cert.log = log
        cert.verdicts["relative_coloring_test"] = cert.verdicts["coloring_test"]
        cert.provenance["relative_coloring_test"] = "witnessed"
        cert.witnesses.update(base_witnesses)
        cert.witnesses["parts"] = []
        return cert

    verdicts, provenance, citations = _verdict_scaffold(NOT_EVALUATED)
    verdicts["strong_lbf"] = _reoriented_strong_lbf(work, ())
    provenance["aspherical_claim"] = "by-citation"
    citations["aspherical_claim"] = CITATIONS["relative_aspherical_claim"]
    citations["VA_claim"] = CITATIONS["relative_aspherical_claim"]

    part_vertices = [v for p in part_list for v in p.vertices]
    hypothesis.update(
        satisfied=True,
        parts_disjoint=len(part_vertices) == len(set(part_vertices)),
        note="sub-LOT conditions range over connected subtrees with at least one edge",
    )
    base_witnesses["parts"] = [
        {"vertices": list(p.vertices), "edges": list(p.edge_ids), "boundary_reduced": p.is_boundary_reduced, "rep": p.vertices[0]}
        for p in part_list
    ]

    certified = False
    if hypothesis["parts_disjoint"]:
        reps = [p.vertices[0] for p in part_list]
        quotient, vmap = quotient_lof(work, part_list, reps)
        qcert = certify_lof(quotient)
        base_witnesses["quotient"] = {
            "log": serialize_log(quotient),
            "vertex_map": vmap,
            "certificate": qcert.to_dict(),
        }
        certified = qcert.hypothesis["satisfied"]
        if not certified:
            hypothesis["note"] = "quotient LOF does not certify"
    if not certified:
        for k in ("relative_coloring_test", "aspherical_claim", "VA_claim", "locally_indicable_claim", "DR_claim"):
            verdicts[k] = NON_GENERIC
        hypothesis["satisfied"] = False
        return Certificate(log, flags, hypothesis, base_witnesses, verdicts, provenance, citations)

    # the quotient's signs lifted through vmap give an outside corner its
    # quotient corner's angle, and a collapsed cell's corners, in
    # CORNER_KINDS order, the angles 0, 0, 1, 1 (README)
    qangles = qcert.witnesses["angles"]
    inside = {eid for p in part_list for eid in p.edge_ids}
    angles = {
        name: (0, 0, 1, 1)[c % 4] if work.edges[c // 4].eid in inside else qangles[name]
        for c, name in enumerate(corner_names(work.edges))
    }

    part_certs = []
    parts_ok = True
    for p in part_list:
        plog = Log._of(p.vertices, _sub_edges(work, p))
        preduced, pmoves = reduce_log(plog)
        child = certify_relative(preduced)
        parts_ok = parts_ok and child.verdicts["aspherical_claim"] is True
        part_certs.append(
            {
                "part_edges": list(p.edge_ids),
                "boundary_reduction_moves": [list(map(str, m)) for m in pmoves],
                "certificate": child.to_dict(),
            }
        )

    base_witnesses.update(angles=angles, part_certificates=part_certs)
    verdicts["relative_coloring_test"] = True
    verdicts["aspherical_claim"] = verdicts["VA_claim"] = True if parts_ok else NON_GENERIC
    for k in ("lbf", "coloring_test", "DR_claim", "locally_indicable_claim"):
        provenance[k] = NOT_EVALUATED

    return Certificate(log, flags, hypothesis, base_witnesses, verdicts, provenance, citations)
