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

build_link returns the link as one Multigraph, the representation every
check here takes: its nodes are the strings ``x+`` and ``x-`` (the sign is
always the last character, so a node names its vertex and sign), and its
edges are the corners ``((owner edge, kind), u, v)``.  Corners are never
deduplicated, so parallel corners or loops are honest cycles.  All
curvature arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .log_model import Edge, Log, _UnionFind

PLUS = "+"
MINUS = "-"
CORNER_KINDS = ("positive", "negative", "mixed_source", "mixed_target")

CornerKey = tuple[str, str]  # (owner edge id, kind)


@dataclass(frozen=True)
class Multigraph:
    """A plain undirected multigraph: edges are (key, u, v) with keys unique."""

    nodes: tuple
    edges: tuple


@dataclass(frozen=True)
class Walk:
    """A closed edge walk; nodes has one more entry than edges."""

    nodes: tuple
    edges: tuple


def corner_ends(edge: Edge, kind: str) -> tuple[str, str]:
    s, t, l = edge.src, edge.tgt, edge.lab
    if kind == "positive":
        return (s + PLUS, l + PLUS)
    if kind == "negative":
        return (l + MINUS, t + MINUS)
    if kind == "mixed_source":
        return (s + MINUS, l + PLUS)
    if kind == "mixed_target":
        return (l + MINUS, t + PLUS)
    raise ValueError(f"unknown corner kind {kind!r}")


def build_link(log: Log) -> Multigraph:
    """The link of the unique vertex of the presentation complex.

    Nodes are x+ and x- for each vertex x in declaration order; edges are
    the corners ((owner, kind), u, v), four per edge in CORNER_KINDS order.
    """
    nodes = tuple(v + sign for v in log.vertices for sign in (PLUS, MINUS))
    corners = tuple(
        ((e.eid, kind), *corner_ends(e, kind)) for e in log.edges for kind in CORNER_KINDS
    )
    return Multigraph(nodes, corners)


def induced_subgraph(g: Multigraph, nodes: Iterable) -> Multigraph:
    """Full subgraph: keeps the edges with both endpoints among the nodes."""
    nset = set(nodes)
    return Multigraph(
        tuple(n for n in g.nodes if n in nset),
        tuple(e for e in g.edges if e[1] in nset and e[2] in nset),
    )


def corner_key_str(key: CornerKey) -> str:
    return f"{key[0]}:{key[1]}"


def parse_corner_key(text: str) -> CornerKey:
    """Inverse of corner_key_str; also decodes selection-arc keys."""
    owner, kind = text.rsplit(":", 1)
    return (owner, kind)


# ---------------------------------------------------------------------------
# generic multigraph machinery


def _adjacency(g: Multigraph) -> dict:
    adj = defaultdict(list)
    for key, u, v in g.edges:
        adj[u].append((key, v))
        if u != v:
            adj[v].append((key, u))
    return adj


def find_path(g: Multigraph, start, goal) -> Optional[Walk]:
    """BFS path from start to goal."""
    if start == goal:
        return Walk((start,), ())
    adj = _adjacency(g)
    prev = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for key, w in adj[u]:
            if w in prev:
                continue
            prev[w] = (u, key)
            if w == goal:
                nodes = [w]
                keys = []
                cur = w
                while prev[cur] is not None:
                    cur, k = prev[cur]
                    nodes.append(cur)
                    keys.append(k)
                nodes.reverse()
                keys.reverse()
                return Walk(tuple(nodes), tuple(keys))
            queue.append(w)
    return None


def components(g: Multigraph) -> _UnionFind:
    """A union-find whose classes are the connected components of g."""
    uf = _UnionFind(g.nodes)
    for _, u, v in g.edges:
        uf.union(u, v)
    return uf


def _closing_walk(g: Multigraph, key, u, v) -> Walk:
    """The cycle that the edge (key, u, v) closes with a path from u to v in g."""
    path = find_path(g, u, v)
    if path is None:
        raise RuntimeError(f"no path closes a cycle through corner {key!r}")
    return Walk(path.nodes + (u,), path.edges + (key,))


def is_forest(g: Multigraph) -> tuple[bool, Optional[Walk]]:
    """Multigraph forest test: a loop or a pair of parallel edges is a cycle.

    On failure the witness is a simple cycle, as a closed walk.
    """
    uf = _UnionFind(g.nodes)
    accepted = []
    for key, u, v in g.edges:
        if u == v:
            return False, Walk((u, u), (key,))
        if not uf.union(u, v):
            return False, _closing_walk(Multigraph(g.nodes, tuple(accepted)), key, u, v)
        accepted.append((key, u, v))
    return True, None


def bridges(g: Multigraph) -> frozenset:
    """Edge keys whose removal disconnects their component.

    Loops and members of parallel bundles are never bridges.
    """
    adj = _adjacency(g)
    disc: dict = {}
    low: dict = {}
    out = set()
    counter = [0]

    for root in g.nodes:
        if root in disc:
            continue
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            u, in_key, it = stack[-1]
            advanced = False
            for key, w in it:
                if key == in_key:
                    continue
                if u == w:
                    continue  # loop: irrelevant to low-links
                if w not in disc:
                    disc[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, key, iter(adj[w])))
                    advanced = True
                    break
                low[u] = min(low[u], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        out.add(in_key)
    return frozenset(out)


def is_relative_forest(g: Multigraph, sub_keys: Iterable) -> tuple[bool, Optional[Walk]]:
    """True iff every homology reduced cycle stays inside the subgraph.

    Decided by the bridge criterion: every edge outside the subgraph must be
    a bridge (a closed walk crosses a bridge only by using it in both
    directions, and any non-bridge edge lies on a simple cycle).
    """
    sub = set(sub_keys)
    bridge_keys = bridges(g)
    for key, u, v in g.edges:
        if key in sub or key in bridge_keys:
            continue
        if u == v:
            return False, Walk((u, u), (key,))
        # a non-bridge: its endpoints stay connected without it
        rest = tuple(e for e in g.edges if e[0] != key)
        return False, _closing_walk(Multigraph(g.nodes, rest), key, u, v)
    return True, None


# ---------------------------------------------------------------------------
# angles and curvature

AngleAssignment = Mapping[CornerKey, int]
SignAssignment = Mapping[str, str]


@dataclass(frozen=True)
class CurvatureReport:
    kappa_vertex: int
    kappa_cells: dict
    chi_complex: int
    chi_link: int

    @property
    def gauss_bonnet(self) -> tuple[int, int]:
        lhs = 2 * self.chi_complex
        rhs = self.kappa_vertex + sum(self.kappa_cells.values())
        return lhs, rhs


def _angle(angles: AngleAssignment, key: CornerKey) -> int:
    try:
        a = angles[key]
    except KeyError:
        raise ValueError(f"missing angle for corner {corner_key_str(key)}")
    if a not in (0, 1):
        raise ValueError(f"angle of {corner_key_str(key)} must be 0 or 1, got {a!r}")
    return a


def curvature(log: Log, angles: AngleAssignment) -> CurvatureReport:
    """Vertex and 2-cell curvature of the angled complex; exact integers.

    kappa(v) = 2 - chi(link) - sum of all angles, with
    chi(link) = #nodes - #corners; every LOG 2-cell is a square, so
    kappa(d) = sum of the four angles - 2.  The combinatorial Gauss-Bonnet
    identity 2 chi(K) = kappa(v) + sum kappa(d) then holds identically.
    """
    n, m = len(log.vertices), len(log.edges)
    chi_link = 2 * n - 4 * m
    total = 0
    kappa_cells = {}
    for e in log.edges:
        cell = sum(_angle(angles, (e.eid, kind)) for kind in CORNER_KINDS)
        kappa_cells[e.eid] = cell - 2
        total += cell
    report = CurvatureReport(
        kappa_vertex=2 - chi_link - total,
        kappa_cells=kappa_cells,
        chi_complex=1 - n + m,
        chi_link=chi_link,
    )
    lhs, rhs = report.gauss_bonnet
    if lhs != rhs:
        raise RuntimeError(f"Gauss-Bonnet fails: 2 chi(K) = {lhs}, total curvature {rhs}")
    return report


@dataclass(frozen=True)
class ColoringResult:
    ok: bool
    positive_cells: tuple = ()
    bad_cycle: Optional[Walk] = None
    bad_cycle_angle: Optional[int] = None


def _zero_subgraph(link: Multigraph, angles: AngleAssignment) -> Multigraph:
    return Multigraph(link.nodes, tuple(c for c in link.edges if _angle(angles, c[0]) == 0))


def verify_coloring_test(
    log: Log, angles: AngleAssignment, *, link: Optional[Multigraph] = None
) -> ColoringResult:
    """Zero/one coloring test.

    (a) every 2-cell has curvature <= 0 and (b) every simple reduced cycle of
    the link has total angle >= 2.  Condition (b) is checked through the
    equivalent criterion: the angle-0 corners form a forest Z and every
    angle-1 corner joins two distinct components of Z.  `link`, when given,
    must be build_link(log).
    """
    link = build_link(log) if link is None else link
    report = curvature(log, angles)
    positive = tuple(eid for eid, k in report.kappa_cells.items() if k > 0)

    zero = _zero_subgraph(link, angles)
    forest, cycle = is_forest(zero)
    if not forest:
        return ColoringResult(False, positive, cycle, 0)

    find = components(zero).find
    for key, u, v in link.edges:
        if _angle(angles, key) == 1 and find(u) == find(v):
            return ColoringResult(False, positive, _closing_walk(zero, key, u, v), 1)

    return ColoringResult(not positive, positive, None, None)


@dataclass(frozen=True)
class RelativeColoringResult:
    ok: bool
    positive_outside_cells: tuple = ()
    bad_cycle: Optional[Walk] = None
    bad_cycle_angle: Optional[int] = None


def verify_relative_coloring_test(
    log: Log, parts, angles: AngleAssignment, *, link: Optional[Multigraph] = None
) -> RelativeColoringResult:
    """Relative zero/one coloring test against a wedge of sub-LOT complexes.

    (1) cells outside the parts have curvature <= 0, and (2) every simple
    cycle of total angle <= 1 lies entirely inside the parts' links.  With
    Z the angle-0 subgraph, (2) holds iff every angle-0 corner outside the
    parts is a bridge of Z and every angle-1 corner either joins distinct
    Z-components or lies in a part with a Z-path between its endpoints inside
    the parts.  Simple cycles suffice: homology reduced closed walks
    decompose into them.  `link`, when given, must be build_link(log).
    """
    part_edges: set[str] = set()
    for sub in parts:
        eids = set(sub.edge_ids)
        if part_edges & eids:
            raise ValueError("parts are not edge-disjoint")
        part_edges |= eids

    link = build_link(log) if link is None else link
    report = curvature(log, angles)
    positive = tuple(
        eid for eid, k in report.kappa_cells.items() if k > 0 and eid not in part_edges
    )

    zero = _zero_subgraph(link, angles)
    inside = frozenset(key for key, _, _ in link.edges if key[0] in part_edges)
    relative, walk = is_relative_forest(zero, inside)
    if not relative:
        return RelativeColoringResult(False, positive, walk, 0)

    find = components(zero).find
    find_inside = components(
        Multigraph(zero.nodes, tuple(c for c in zero.edges if c[0] in inside))
    ).find
    for key, u, v in link.edges:
        if _angle(angles, key) != 1 or find(u) != find(v):
            continue
        if key in inside and find_inside(u) == find_inside(v):
            continue
        return RelativeColoringResult(False, positive, _closing_walk(zero, key, u, v), 1)

    return RelativeColoringResult(not positive, positive, None, None)


# ---------------------------------------------------------------------------
# export


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def link_to_dot(link: Multigraph, angles: Optional[AngleAssignment] = None) -> str:
    """Deterministic DOT rendering; angle-0 corners solid, angle-1 dashed."""
    lines = ["graph link {"]
    for n in link.nodes:
        lines.append(f"  {_dot_quote(n)};")
    for key, u, v in link.edges:
        owner, kind = key
        attrs = [f"label={_dot_quote(f'{owner} {kind}')}"]
        if angles is not None:
            attrs.append("style=" + ("dashed" if _angle(angles, key) else "solid"))
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
