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
vertex, so node_number is log.vertex_index, and edge j's a-arc is arc 2j and
its b-arc arc 2j+1.  The branching stage reads the integer lists src and dst
(the node numbers of each arc's tail and head) and keys, each arc's (owner,
kind) key, which is what a certificate writes.  The arc rows, the arc number
of each key, the node numbers of a graph built directly (an added root's)
and each node's out-arc and in-arc lists are built on first read; the last
are shared by the branchings and the dominator pass, and a LOG caches its
selection graph, so each is built at most once per LOG.
"""

from __future__ import annotations

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


class SelectionGraph:
    """Arc i runs from nodes[src[i]] to nodes[dst[i]] and has key keys[i].

    Only the node names and the lists are kept, so the arc rows can be
    built on demand without a reference to the Log.
    """

    def __init__(
        self, nodes: tuple[str, ...], src: Sequence[int], dst: Sequence[int], keys: Sequence[ArcKey]
    ):
        self.nodes, self.src, self.dst, self.keys = nodes, src, dst, keys

    @cached_property
    def arcs(self) -> tuple[SelArc, ...]:
        """The arc rows (owner, kind, src, dst), in arc order."""
        nodes = self.nodes
        return tuple(
            SelArc(owner, kind, nodes[s], nodes[d])
            for (owner, kind), s, d in zip(self.keys, self.src, self.dst)
        )

    @cached_property
    def arc_number(self) -> dict[ArcKey, int]:
        """The number of the arc with each key."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def node_number(self) -> dict[str, int]:
        """The number of each node; a LOG's graph shares log.vertex_index."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def arc_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """The numbers of the arcs out of and into each node, in arc order."""
        out: list[list[int]] = [[] for _ in self.nodes]
        into: list[list[int]] = [[] for _ in self.nodes]
        for i, (u, v) in enumerate(zip(self.src, self.dst)):
            out[u].append(i)
            into[v].append(i)
        return out, into


# Arc colors of a two-coloring; black arcs become the positive side.
Partition2 = Mapping[ArcKey, str]

BLACK = "black"
WHITE = "white"


def build_selection_graph(log: Log) -> SelectionGraph:
    """The selection graph; edge j gives arc 2j (its a-arc) and 2j+1 (its b-arc)."""
    src: list[int] = []
    dst: list[int] = []
    for s, t, lab in log.edge_ends:
        src += (s, t)
        dst += (lab, lab)
    keys = [(e.eid, kind) for e in log.edges for kind in ("a", "b")]
    sel = SelectionGraph(log.vertices, src, dst, keys)
    sel.node_number = log.vertex_index
    return sel


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
