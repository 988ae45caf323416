"""The selection graph of a LOG, and the colors of a two-coloring of its arcs.

Every edge e of the LOG contributes two arcs on the LOG's own vertex set:

    a(e) = s(e) -> l(e)      b(e) = t(e) -> l(e)

Reorienting an edge swaps the roles of its a- and b-arc but leaves the arc
multiset unchanged, so the selection graph is a reorientation invariant.
A two-coloring of the arcs is *admissible* when a(e) and b(e) receive
different colors for every edge; an admissible coloring selects the
reorientation for which the black arcs are exactly the images of the
positive corners.  The plain pipeline colors the arcs of two disjoint
branchings black and white; `certify` reads admissibility and the edges to
flip (those whose a-arc is white) off the branchings' arc keys.

build_selection_graph numbers the graph once: node i is the LOG's i-th
vertex, and edge j's a-arc is arc 2j and its b-arc arc 2j+1.  The branching
stage reads the integer lists src and dst (the node numbers of each arc's
tail and head); the string view -- arcs (owner, kind, src, dst) with their
(owner, kind) keys -- is kept beside them for witnesses, DOT output and the
oracles.  arc_number maps keys back to numbers, for `verify_branching` on
branchings read from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

from .link_complex import _dot_quote
from .log_model import Log

ArcKey = tuple[str, str]  # (owner edge id, 'a' | 'b')


class SelArc(NamedTuple):
    owner: str
    kind: str  # 'a' or 'b'
    src: str
    dst: str

    @property
    def key(self) -> ArcKey:
        return (self.owner, self.kind)


@dataclass(frozen=True)
class SelectionGraph:
    """Arc i runs from nodes[src[i]] to nodes[dst[i]]."""

    nodes: tuple[str, ...]
    arcs: tuple[SelArc, ...]
    src: Sequence[int] = field(compare=False, repr=False)
    dst: Sequence[int] = field(compare=False, repr=False)

    @cached_property
    def arc_number(self) -> dict[ArcKey, int]:
        """The number of the arc with each key."""
        return {a.key: i for i, a in enumerate(self.arcs)}


# Arc colors of a two-coloring; black arcs become the positive side.
Partition2 = Mapping[ArcKey, str]

BLACK = "black"
WHITE = "white"


def build_selection_graph(log: Log) -> SelectionGraph:
    """The selection graph; edge j gives arc 2j (its a-arc) and 2j+1 (its b-arc)."""
    rows: list[tuple[str, str, str, str]] = []
    src: list[int] = []
    dst: list[int] = []
    for e, (s, t, lab) in zip(log.edges, log.edge_ends):
        rows += ((e.eid, "a", e.src, e.lab), (e.eid, "b", e.tgt, e.lab))
        src += (s, t)
        dst += (lab, lab)
    return SelectionGraph(log.vertices, tuple(map(SelArc._make, rows)), src, dst)


def selection_to_dot(sel: SelectionGraph, partition: Optional[Partition2] = None) -> str:
    """Deterministic DOT rendering, arcs ordered by (owner, kind)."""
    lines = ["digraph selection {"]
    for n in sel.nodes:
        lines.append(f"  {_dot_quote(n)};")
    for a in sorted(sel.arcs, key=lambda a: a.key):
        attrs = [f"label={_dot_quote(f'{a.kind}({a.owner})')}"]
        if partition is not None:
            attrs.append(f"color={_dot_quote(partition[a.key])}")
        lines.append(f"  {_dot_quote(a.src)} -> {_dot_quote(a.dst)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
