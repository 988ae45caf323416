"""The link of the presentation complex of a LOG, angles and curvature.

The presentation complex K of a LOG has a single vertex, one 1-cell per
vertex of the LOG and one square 2-cell per edge, attached along
``s(e) l(e) t(e)^-1 l(e)^-1``.  The link of the vertex is an undirected
multigraph on the signed symbols ``x+`` / ``x-``; its edges are the corners
of the 2-cells.  An edge e with source x_i, target x_j and label x_k
contributes four corners:

    positive       x_i+ x_k+
    negative       x_k- x_j-
    mixed_source   x_i- x_k+
    mixed_target   x_k- x_j+

build_link numbers the link once, and Log.link keeps the result: node 2i
is vertex i's ``x+`` and node 2i+1 its ``x-``; corner 4j+k is edge j's k-th
kind in CORNER_KINDS order.  Every check here reads the integer arrays
tail and head (the node numbers of each corner's ends) and takes a subgraph
as a list of corner numbers: a side of a sign choice, the angle-0 corners,
the corners inside the parts.  Angles are a list indexed by corner.  One
union-find pass, grow_forest, decides every forest test, the relative one
included, and gives the components; only a caller that returns a cycle
builds it.  The string view -- nodes ``x+``, and corners
``((owner edge, kind), u, v)`` -- is what witnesses, DOT output and the
oracles read; the link builds it on first read.  Corners are never
deduplicated, so parallel corners or loops are honest cycles.  All
curvature arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Container, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .log_model import Edge, Log, _UnionFind

PLUS = "+"
MINUS = "-"
CORNER_KINDS = ("positive", "negative", "mixed_source", "mixed_target")
_NAME_SUFFIXES = tuple(":" + kind for kind in CORNER_KINDS)

CornerKey = tuple[str, str]  # (owner edge id, kind)


class Multigraph:
    """A plain undirected multigraph on the nodes 0..node_count-1.

    The checks read the integer view: edge i joins nodes tail[i] and
    head[i].  The string view is nodes, each node's name, and edges, each
    edge as (key, u, v) with keys unique and u, v node names.  build_link
    also sets names[i], edge i's key as "owner:kind" text.
    """

    def __init__(self, nodes, edges, tail: Sequence[int], head: Sequence[int], names=None):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.tail, self.head, self.names = tail, head, names
        self.node_count = len(self.nodes)

    def __eq__(self, other):
        """Equal string views: the same nodes and the same edges in order."""
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges


class _Link(Multigraph):
    """build_link's Multigraph: the integer view and the names are built at
    once, the string view on first read.  It keeps the LOG's vertex and edge
    tuples for that, never the Log itself, so a Log and its link form no
    reference cycle."""

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...], tail, head, names):
        self._vertices, self._edges = vertices, edges
        self.tail, self.head, self.names = tail, head, names
        self.node_count = 2 * len(vertices)

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        return tuple(v + sign for v in self._vertices for sign in (PLUS, MINUS))

    @cached_property
    def edges(self) -> tuple:
        nodes = self.nodes
        keys = [(e.eid, kind) for e in self._edges for kind in CORNER_KINDS]
        return tuple(zip(keys, map(nodes.__getitem__, self.tail), map(nodes.__getitem__, self.head)))


class Walk(NamedTuple):
    """A closed edge walk; nodes has one more entry than edges."""

    nodes: tuple
    edges: tuple


def build_link(log: Log) -> Multigraph:
    """The link of the unique vertex of the presentation complex.

    Nodes are x+ and x- for each vertex x in declaration order (numbers 2i
    and 2i+1); edges are the corners ((owner, kind), u, v), four per edge in
    CORNER_KINDS order (numbers 4j to 4j+3).  The corner ends and the names
    are built here; the node and corner strings when first read.
    """
    tail, head = corner_ends(log)
    return _Link(log.vertices, log.edges, tail, head, corner_names(log.edges))


def corner_names(edges: Iterable[Edge]) -> tuple[str, ...]:
    """Each corner's "owner:kind" name, in corner order: build_link's names,
    read off the edges alone."""
    return tuple([e.eid + suffix for e in edges for suffix in _NAME_SUFFIXES])


def corner_ends(log: Log) -> tuple[list[int], list[int]]:
    """The node numbers of each corner's two ends, tail and head, in corner order."""
    tail: list[int] = []
    head: list[int] = []
    for s, t, l in log.edge_ends:
        s, t, l = 2 * s, 2 * t, 2 * l
        # positive, negative, mixed_source, mixed_target
        tail += (s, l + 1, s + 1, l + 1)
        head += (l, t + 1, l, t)
    return tail, head


def corner_key_str(key: CornerKey) -> str:
    return f"{key[0]}:{key[1]}"


def parse_corner_key(text: str) -> CornerKey:
    """Inverse of corner_key_str; also decodes selection-arc keys."""
    owner, kind = text.rsplit(":", 1)
    return (owner, kind)


def part_corners(log: Log, part_edges: Iterable[str]) -> frozenset[int]:
    """The numbers of the corners whose owner edge is one of part_edges."""
    index = log.edge_index
    return frozenset(
        c for eid in part_edges if eid in index for c in range(4 * index[eid], 4 * index[eid] + 4)
    )


# ---------------------------------------------------------------------------
# multigraph machinery on edge numbers
#
# Each function takes the subgraph to check as `corners`, edge numbers of g
# in g's order (all edges when omitted); the subgraph keeps every node.


def _all(g: Multigraph, corners: Optional[Sequence[int]]) -> Sequence[int]:
    return range(len(g.tail)) if corners is None else corners


def _adjacency(g: Multigraph, corners: Sequence[int]) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.node_count)]
    tail, head = g.tail, g.head
    for c in corners:
        u, v = tail[c], head[c]
        adj[u].append((c, v))
        if u != v:
            adj[v].append((c, u))
    return adj


def _find_path(g: Multigraph, corners: Sequence[int], start: int, goal: int):
    """BFS path from start to goal over the corners: (nodes, corners) or None."""
    adj = _adjacency(g, corners)
    prev_node = [-1] * g.node_count
    prev_corner = [-1] * g.node_count
    prev_node[start] = start
    queue = deque([start])
    while queue and prev_node[goal] < 0:
        u = queue.popleft()
        for c, w in adj[u]:
            if prev_node[w] < 0:
                prev_node[w], prev_corner[w] = u, c
                if w == goal:
                    break
                queue.append(w)
    if prev_node[goal] < 0:
        return None
    nodes, path = [goal], []
    while goal != start:
        path.append(prev_corner[goal])
        goal = prev_node[goal]
        nodes.append(goal)
    nodes.reverse()
    path.reverse()
    return nodes, path


def _closing_walk(g: Multigraph, corners: Sequence[int], c: int) -> Walk:
    """The cycle that corner c closes with a path between its ends over the corners."""
    u = g.tail[c]
    path = _find_path(g, corners, u, g.head[c])
    if path is None:
        raise RuntimeError(f"no path closes a cycle through corner {g.edges[c][0]!r}")
    nodes, keys = path
    return Walk(
        tuple(g.nodes[i] for i in nodes) + (g.nodes[u],),
        tuple(g.edges[k][0] for k in keys) + (g.edges[c][0],),
    )


def grow_forest(
    g: Multigraph, corners: Sequence[int], joined: Iterable[int] = ()
) -> tuple[_UnionFind, int]:
    """Union the ends of the joined corners without a cycle test, then the
    corners' ends in order: the union-find, and the position in corners of
    the first corner that closes a cycle, or -1 when none does.

    A corner closes a cycle exactly when it is not a bridge of itself, the
    corners before it and the joined ones.  So -1 says every corner is a
    bridge of both lists together: with joined the corners inside the
    parts, that is the relative-forest verdict.  With -1 the union-find's
    classes are the components of both lists; with no corners, those of
    the joined ones.  This is the whole forest decision; only a caller that
    returns the cycle builds it.
    """
    uf = _UnionFind(g.node_count)
    union, tail, head = uf.union, g.tail, g.head
    for c in joined:
        union(tail[c], head[c])
    for pos, c in enumerate(corners):
        if not union(tail[c], head[c]):
            return uf, pos
    return uf, -1


def is_forest(
    g: Multigraph, corners: Optional[Sequence[int]] = None
) -> tuple[bool, Optional[Walk]]:
    """Multigraph forest test: a loop or a pair of parallel edges is a cycle.

    Decided by grow_forest; on failure the witness is a simple cycle, as a
    closed walk, built from the string view.
    """
    corners = _all(g, corners)
    _, pos = grow_forest(g, corners)
    return (True, None) if pos < 0 else (False, _closing_walk(g, corners[:pos], corners[pos]))


def bridges(g: Multigraph, corners: Optional[Sequence[int]] = None) -> frozenset[int]:
    """Numbers of the edges whose removal disconnects their component.

    Loops and members of parallel bundles are never bridges.
    """
    adj = _adjacency(g, _all(g, corners))
    disc = [-1] * g.node_count
    low = [0] * g.node_count
    out = set()
    counter = 0
    for root in range(g.node_count):
        if disc[root] >= 0 or not adj[root]:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            u, in_corner, it = stack[-1]
            advanced = False
            for c, w in it:
                if c == in_corner or u == w:
                    continue  # the tree edge back, or a loop: irrelevant to low-links
                if disc[w] < 0:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, c, iter(adj[w])))
                    advanced = True
                    break
                low[u] = min(low[u], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        out.add(in_corner)
    return frozenset(out)


def is_relative_forest(
    g: Multigraph, inside: Container[int], corners: Optional[Sequence[int]] = None
) -> tuple[bool, Optional[Walk]]:
    """True iff every homology reduced cycle stays inside the edges `inside`.

    `inside` holds edge numbers.  The criterion: every edge outside must be
    a bridge (a closed walk crosses a bridge only by using it in both
    directions, and any non-bridge edge lies on a simple cycle).  Decided by
    grow_forest with the inside edges joined; on failure the witness is the
    cycle through the first outside non-bridge.
    """
    corners = _all(g, corners)
    outside = [c for c in corners if c not in inside]
    if grow_forest(g, outside, [c for c in corners if c in inside])[1] < 0:
        return True, None
    bridge_set = bridges(g, corners)
    c = next(c for c in outside if c not in bridge_set)
    # a non-bridge: its ends stay connected without it
    return False, _closing_walk(g, [x for x in corners if x != c], c)


# ---------------------------------------------------------------------------
# angles and curvature

# A list is indexed by corner number; a mapping is keyed by (owner, kind).
AngleAssignment = Union[list[int], Mapping[CornerKey, int]]
SignAssignment = Mapping[str, str]


class CurvatureReport(NamedTuple):
    kappa_vertex: int
    kappa_cells: dict
    chi_complex: int
    chi_link: int

    @property
    def gauss_bonnet(self) -> tuple[int, int]:
        lhs = 2 * self.chi_complex
        rhs = self.kappa_vertex + sum(self.kappa_cells.values())
        return lhs, rhs


def _angle(angles: Mapping[CornerKey, int], key: CornerKey) -> int:
    try:
        a = angles[key]
    except KeyError:
        raise ValueError(f"missing angle for corner {corner_key_str(key)}")
    if a not in (0, 1):
        raise ValueError(f"angle of {corner_key_str(key)} must be 0 or 1, got {a!r}")
    return a


def _angle_list(angles: AngleAssignment, keys: Iterable[CornerKey], count: int) -> list[int]:
    """The angles as a list indexed by corner number, checked to be 0 or 1.

    keys are the corner keys in corner order, read only for a mapping.
    """
    if isinstance(angles, list):
        if len(angles) != count or not set(angles) <= {0, 1}:
            raise ValueError(f"an angle list needs {count} entries, each 0 or 1")
        return angles
    return [_angle(angles, key) for key in keys]


def _log_keys(log: Log) -> Iterable[CornerKey]:
    return ((e.eid, kind) for e in log.edges for kind in CORNER_KINDS)


def curvature(log: Log, angles: AngleAssignment) -> CurvatureReport:
    """Vertex and 2-cell curvature of the angled complex; exact integers.

    kappa(v) = 2 - chi(link) - sum of all angles, with
    chi(link) = #nodes - #corners; every LOG 2-cell is a square, so
    kappa(d) = sum of the four angles - 2.  The combinatorial Gauss-Bonnet
    identity 2 chi(K) = kappa(v) + sum kappa(d) then holds identically.
    """
    n, m = len(log.vertices), len(log.edges)
    a = _angle_list(angles, _log_keys(log), 4 * m)
    chi_link = 2 * n - 4 * m
    kappa_cells = {
        e.eid: a[c] + a[c + 1] + a[c + 2] + a[c + 3] - 2
        for e, c in zip(log.edges, range(0, 4 * m, 4))
    }
    report = CurvatureReport(
        kappa_vertex=2 - chi_link - sum(a),
        kappa_cells=kappa_cells,
        chi_complex=1 - n + m,
        chi_link=chi_link,
    )
    lhs, rhs = report.gauss_bonnet
    if lhs != rhs:
        raise RuntimeError(f"Gauss-Bonnet fails: 2 chi(K) = {lhs}, total curvature {rhs}")
    return report


class ColoringResult(NamedTuple):
    """positive_cells are the cells of positive curvature the test counts:
    every cell, or in the relative test the cells outside the parts."""

    ok: bool
    positive_cells: tuple = ()
    bad_cycle: Optional[Walk] = None
    bad_cycle_angle: Optional[int] = None


def verify_coloring_test(log: Log, angles: AngleAssignment) -> ColoringResult:
    """Zero/one coloring test.

    (a) every 2-cell has curvature <= 0 and (b) every simple reduced cycle of
    the link has total angle >= 2.  Condition (b) is checked through the
    equivalent criterion: the angle-0 corners form a forest Z and every
    angle-1 corner joins two distinct components of Z.
    """
    link = log.link
    a = _angle_list(angles, _log_keys(log), len(link.tail))
    report = curvature(log, a)
    positive = tuple(eid for eid, k in report.kappa_cells.items() if k > 0)

    zero = [c for c, x in enumerate(a) if not x]
    uf, pos = grow_forest(link, zero)
    if pos >= 0:
        return ColoringResult(False, positive, _closing_walk(link, zero[:pos], zero[pos]), 0)

    find, tail, head = uf.find, link.tail, link.head
    for c, x in enumerate(a):
        if x and find(tail[c]) == find(head[c]):
            return ColoringResult(False, positive, _closing_walk(link, zero, c), 1)

    return ColoringResult(not positive, positive, None, None)


def verify_relative_coloring_test(log: Log, parts, angles: AngleAssignment) -> ColoringResult:
    """Relative zero/one coloring test against a wedge of sub-LOT complexes.

    (1) cells outside the parts have curvature <= 0, and (2) every simple
    cycle of total angle <= 1 lies entirely inside the parts' links.  With
    Z the angle-0 subgraph, (2) holds iff every angle-0 corner outside the
    parts is a bridge of Z and every angle-1 corner either joins distinct
    Z-components or lies in a part with a Z-path between its endpoints inside
    the parts.  Simple cycles suffice: homology reduced closed walks
    decompose into them.
    """
    part_edges: set[str] = set()
    for sub in parts:
        eids = set(sub.edge_ids)
        if part_edges & eids:
            raise ValueError("parts are not edge-disjoint")
        part_edges |= eids

    link = log.link
    a = _angle_list(angles, _log_keys(log), len(link.tail))
    report = curvature(log, a)
    positive = tuple(
        eid for eid, k in report.kappa_cells.items() if k > 0 and eid not in part_edges
    )

    zero = [c for c, x in enumerate(a) if not x]
    inside = part_corners(log, part_edges)
    relative, walk = is_relative_forest(link, inside, zero)
    if not relative:
        return ColoringResult(False, positive, walk, 0)

    find = grow_forest(link, (), zero)[0].find
    find_inside = grow_forest(link, (), [c for c in zero if c in inside])[0].find
    tail, head = link.tail, link.head
    for c, x in enumerate(a):
        if not x:
            continue
        u, v = tail[c], head[c]
        if find(u) != find(v):
            continue
        if c in inside and find_inside(u) == find_inside(v):
            continue
        return ColoringResult(False, positive, _closing_walk(link, zero, c), 1)

    return ColoringResult(not positive, positive, None, None)


# ---------------------------------------------------------------------------
# export


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def link_to_dot(link: Multigraph, angles: Optional[AngleAssignment] = None) -> str:
    """Deterministic DOT rendering; angle-0 corners solid, angle-1 dashed."""
    lines = ["graph link {"]
    for n in link.nodes:
        lines.append(f"  {_dot_quote(n)};")
    if angles is not None:
        angles = _angle_list(angles, (key for key, _, _ in link.edges), len(link.edges))
    for c, (key, u, v) in enumerate(link.edges):
        owner, kind = key
        attrs = [f"label={_dot_quote(f'{owner} {kind}')}"]
        if angles is not None:
            attrs.append("style=" + ("dashed" if angles[c] else "solid"))
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
