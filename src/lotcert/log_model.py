"""Labeled oriented graphs (LOGs) and purely graph-level operations on them.

A LOG is a finite directed graph in which every edge additionally carries a
vertex of the same graph as its *label*.  It encodes the group presentation
with one generator per vertex and one relator ``s(e) l(e) = l(e) t(e)`` per
edge.  A LOG whose underlying undirected graph is a forest is a LOF; a
connected LOF is a LOT.

Text format (line oriented, UTF-8, LF canonical on output):

    # comment to end of line
    vertices: x y z
    edge e1: x -> y : z
    edge e2: z -> y : x

Vertex names and edge ids are arbitrary non-empty tokens containing neither
whitespace nor ``:`` (the bare token ``->`` is also rejected).  The edge id
may be omitted (``edge: x -> y : z``), in which case ids ``e1, e2, ...`` are
assigned in order, skipping ids that appear explicitly elsewhere.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class ParseError(ValueError):
    """Syntax or consistency error in the LOG text format."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Edge(NamedTuple):
    eid: str
    src: str
    tgt: str
    lab: str


_NAME_FORBIDDEN = frozenset(":#\t\n\r ")


def _valid_name(tok: str) -> bool:
    # representable in the text format: no whitespace, ':' or '#', not '->'
    return bool(tok) and tok != "->" and _NAME_FORBIDDEN.isdisjoint(tok) and tok == tok.strip()


class Log:
    """An immutable LOG; vertices and edges keep their declaration order.

    Log(vertices, edges) checks every vertex name and edge id, since those
    parts come from outside.  parse_log, which checks each token as it reads
    it, and the derivations here, whose parts come from a Log already, build
    through Log._of without a second check.

    The facts derived from the LOG alone -- its numbering, reducedness
    report, class, closure table, link and selection graph -- are computed
    on first use and kept on the LOG, so each is built once however many
    stages read it.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        vertices, edges = tuple(vertices), tuple(edges)
        seen = set()
        for v in vertices:
            if not _valid_name(v):
                raise ValueError(f"invalid vertex name {v!r}")
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        eids = set()
        for e in edges:
            if not _valid_name(e.eid):
                raise ValueError(f"invalid edge id {e.eid!r}")
            if e.eid in eids:
                raise ValueError(f"duplicate edge id {e.eid!r}")
            eids.add(e.eid)
            for field, name in ((e.src, "source"), (e.tgt, "target"), (e.lab, "label")):
                if field not in seen:
                    raise ValueError(f"edge {e.eid!r}: unknown {name} vertex {field!r}")
        self.__dict__.update(vertices=vertices, edges=edges)

    @classmethod
    def _of(cls, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> Log:
        """The Log of parts known to be valid, unchecked; both must be tuples."""
        log = cls.__new__(cls)
        log.__dict__.update(vertices=vertices, edges=edges)
        return log

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Log")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Log(vertices={self.vertices!r}, edges={self.edges!r})"

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.eid for e in self.edges)

    def label_set(self) -> frozenset[str]:
        return frozenset(e.lab for e in self.edges)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """The number of each vertex: its place in declaration order."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        """The number of each edge id: its place in declaration order."""
        return {e.eid: j for j, e in enumerate(self.edges)}

    @cached_property
    def edge_ends(self) -> list[tuple[int, int, int]]:
        """The source, target and label vertex numbers of each edge."""
        index = self.vertex_index
        return [(index[e.src], index[e.tgt], index[e.lab]) for e in self.edges]

    @cached_property
    def reducedness(self) -> ReducednessReport:
        return reducedness_report(self)

    @cached_property
    def log_class(self) -> LogClass:
        return classify(self)

    @cached_property
    def closures(self) -> list[Optional[frozenset[int]]]:
        """_closure_table(self); raises ValueError unless the LOG is a LOF."""
        return _closure_table(self)

    @cached_property
    def link(self):
        """build_link(self), the link as one numbered Multigraph."""
        from . import link_complex

        return link_complex.build_link(self)

    @cached_property
    def selection(self):
        """build_selection_graph(self), the selection graph on the LOG's numbering."""
        from . import selection

        return selection.build_selection_graph(self)

    def valency(self) -> dict[str, int]:
        """Undirected degree per vertex; a loop contributes 2."""
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.src] += 1
            deg[e.tgt] += 1
        return deg


def make_log(vertices: Sequence[str], edges: Iterable[tuple[str, str, str, str]]) -> Log:
    """Build a Log from (eid, src, tgt, label) tuples."""
    return Log(tuple(vertices), tuple(Edge(*e) for e in edges))


# ---------------------------------------------------------------------------
# text format


_TOKEN = re.compile(r"\S+")


def _tokens(line: str, start: int, end: Optional[int] = None) -> list[tuple[str, int]]:
    """Whitespace-separated tokens of line[start:end] with their 1-based columns."""
    end = len(line) if end is None else end
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line, start, end)]


def _parse_error(
    message: str,
    lineno: int,
    line: str,
    start: Optional[int] = None,
    k: int = 0,
    end: Optional[int] = None,
) -> ParseError:
    """ParseError at the k-th token of line.strip()[start:end], or at the
    line's first character when start is None."""
    indent = len(line) - len(line.lstrip())
    col = 1 if start is None else _tokens(line.strip(), start, end)[k][1]
    return ParseError(message, lineno, indent + col)


def _ends_error(lineno: int, line: str, start: int, ends: list[str], known: set[str]) -> ParseError:
    """The error for an edge whose src, tgt or label is not a known vertex:
    the first invalid name, else the first unknown one."""
    for k, tok in enumerate(ends):
        if ":" in tok or tok == "->":
            return _parse_error(f"invalid vertex name {tok!r}", lineno, line, start, 2 * k)
    k = next(k for k, tok in enumerate(ends) if tok not in known)
    return _parse_error(f"unknown vertex {ends[k]!r}", lineno, line, start, 2 * k)


def parse_log(text: str) -> Log:
    """Parse the text format; raises ParseError with line/column on bad input.

    Lines are split with str.partition and str.split; token columns are
    worked out only for the error message.  A token never holds '#', which
    opens a comment, nor whitespace.
    """
    vertices: list[str] = []
    vertex_set: set[str] = set()
    header_seen = False
    raw_edges: list[tuple[Optional[str], str, str, str, int]] = []
    explicit_ids: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        stripped = line.strip()
        if not stripped:
            continue
        if not header_seen:
            if not stripped.startswith("vertices:"):
                raise _parse_error("expected 'vertices:' header", lineno, line)
            header_seen = True
            for k, tok in enumerate(stripped[9:].split()):
                if ":" in tok or tok == "->":
                    raise _parse_error(f"invalid vertex name {tok!r}", lineno, line, 9, k)
                if tok in vertex_set:
                    raise _parse_error(f"duplicate vertex {tok!r}", lineno, line, 9, k)
                vertices.append(tok)
                vertex_set.add(tok)
            continue
        after = stripped[4:5]  # the keyword ends at ':', whitespace or the line's end
        if not stripped.startswith("edge") or after not in ("", ":") and not after.isspace():
            raise _parse_error("expected an 'edge' line", lineno, line)
        head, sep, tail = stripped.partition(":")
        if not sep:
            raise _parse_error("missing ':' after edge id", lineno, line)
        id_toks = head[4:].split()
        if len(id_toks) > 1:
            raise _parse_error("malformed edge id", lineno, line)
        eid = id_toks[0] if id_toks else None
        if eid is not None:
            if eid == "->":
                raise _parse_error(f"invalid edge id {eid!r}", lineno, line, 4, 0, len(head))
            if eid in explicit_ids:
                raise _parse_error(f"duplicate edge id {eid!r}", lineno, line, 4, 0, len(head))
            explicit_ids.add(eid)
        toks = tail.split()
        if len(toks) != 5 or toks[1] != "->" or toks[3] != ":":
            raise _parse_error("expected '<src> -> <tgt> : <label>'", lineno, line)
        src, _, tgt, _, lab = toks
        # every known vertex is a valid name, so only a miss needs a closer look
        if src not in vertex_set or tgt not in vertex_set or lab not in vertex_set:
            raise _ends_error(lineno, line, len(head) + 1, [src, tgt, lab], vertex_set)
        raw_edges.append((eid, src, tgt, lab, lineno))

    if not header_seen:
        raise ParseError("empty document, expected 'vertices:' header", max(1, text.count("\n") + 1))

    edges = []
    counter = 1
    for eid, src, tgt, lab, lineno in raw_edges:
        if eid is None:
            while f"e{counter}" in explicit_ids:
                counter += 1
            eid = f"e{counter}"
            explicit_ids.add(eid)
        edges.append(Edge(eid, src, tgt, lab))
    return Log._of(tuple(vertices), tuple(edges))


def serialize_log(log: Log) -> str:
    """Canonical text form; parse_log(serialize_log(L)) == L."""
    lines = ["vertices: " + " ".join(log.vertices) if log.vertices else "vertices:"]
    for e in log.edges:
        lines.append(f"edge {e.eid}: {e.src} -> {e.tgt} : {e.lab}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# classification and reducedness


class LogClass(NamedTuple):
    kind: str  # "LOT" | "LOF" | "GeneralLOG"
    components: int


class _UnionFind:
    """Union-find over the integers 0..n-1, with path halving."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = x = p[p[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the classes of a and b; False when they were one class already."""
        p = self.parent
        while p[a] != a:
            p[a] = a = p[p[a]]
        while p[b] != b:
            p[b] = b = p[p[b]]
        if a == b:
            return False
        p[b] = a
        return True


def classify(log: Log) -> LogClass:
    """LOT iff connected and acyclic, LOF iff acyclic, else GeneralLOG."""
    n = len(log.vertices)
    uf = _UnionFind(n)
    acyclic = True
    for s, t, _ in log.edge_ends:
        if not uf.union(s, t):
            acyclic = False
    components = len({uf.find(i) for i in range(n)})
    if acyclic and components == 1:
        kind = "LOT"
    elif acyclic:
        kind = "LOF"
    else:
        kind = "GeneralLOG"
    return LogClass(kind, components)


class Flag(NamedTuple):
    ok: bool
    witnesses: tuple = ()


class ReducednessReport(NamedTuple):
    boundary_reduced: Flag
    interior_reduced: Flag
    compressed: Flag
    injective: Flag

    @property
    def reduced(self) -> bool:
        return self.boundary_reduced.ok and self.interior_reduced.ok and self.compressed.ok


def _boundary_leaves(log: Log) -> Iterator[str]:
    """The valency-1 vertices that label no edge, in declaration order."""
    labels = log.label_set()
    deg = log.valency()
    return (v for v in log.vertices if deg[v] == 1 and v not in labels)


def _uncompressed(log: Log) -> Iterator[Edge]:
    """The edges whose label is one of their ends, in edge order."""
    return (e for e in log.edges if e.lab in (e.src, e.tgt))


def _label_pairs(log: Log) -> Iterator[tuple[Edge, Edge]]:
    """The pairs of edges with a common label, by later edge, then earlier."""
    earlier_by_label: dict[str, list[Edge]] = {}
    for ej in log.edges:
        earlier = earlier_by_label.setdefault(ej.lab, [])
        for ei in earlier:
            yield ei, ej
        earlier.append(ej)


def _folds(pairs: Iterable[tuple[Edge, Edge]]) -> Iterator[tuple[str, Edge, Edge, str, str]]:
    """(common end, edges, far ends) per pair: a common source before a common target."""
    for ei, ej in pairs:
        if ei.src == ej.src:
            yield ei.src, ei, ej, ei.tgt, ej.tgt
        if ei.tgt == ej.tgt:
            yield ei.tgt, ei, ej, ei.src, ej.src


def reducedness_report(log: Log) -> ReducednessReport:
    """Check boundary/interior reducedness, compression and label injectivity.

    Every failing flag carries witnesses: offending vertices for the boundary
    condition, (vertex, edge, edge) triples for interior folds, edge ids for
    compression, and (edge, edge) pairs for label collisions.
    """
    boundary_bad = tuple(_boundary_leaves(log))
    compressed_bad = tuple(e.eid for e in _uncompressed(log))
    pairs = list(_label_pairs(log))
    interior_bad = tuple((v, ei.eid, ej.eid) for v, ei, ej, _, _ in _folds(pairs))
    injective_bad = tuple((ei.eid, ej.eid) for ei, ej in pairs)
    return ReducednessReport(
        boundary_reduced=Flag(not boundary_bad, boundary_bad),
        interior_reduced=Flag(not interior_bad, interior_bad),
        compressed=Flag(not compressed_bad, compressed_bad),
        injective=Flag(not injective_bad, injective_bad),
    )


# ---------------------------------------------------------------------------
# reductions

# Moves, in priority order:
#   ("compress", eid, keep_vertex, drop_vertex)   contract an edge whose label
#       equals one of its endpoints, identifying the endpoints;
#   ("fold", keep_eid, drop_eid, keep_vertex, drop_vertex)   two edges with the
#       same label both starting (or both ending) at a common vertex are folded
#       into one, identifying their far endpoints;
#   ("boundary", vertex, eid)   delete a valency-1 vertex that is not a label,
#       together with its edge.
# Each move strictly decreases |V| + |E|, so reduction terminates.


def _merge_vertices(log: Log, keep: str, drop: str, removed_eids: set[str]) -> Log:
    if keep != drop:
        idx = log.vertex_index
        if idx[drop] < idx[keep]:
            keep, drop = drop, keep
    vertices = tuple(v for v in log.vertices if v != drop or drop == keep)

    def ren(v: str) -> str:
        return keep if v == drop else v

    edges = tuple(
        Edge(e.eid, ren(e.src), ren(e.tgt), ren(e.lab)) if drop in e else e
        for e in log.edges
        if e.eid not in removed_eids
    )
    return Log._of(vertices, edges)


def find_reduction_move(log: Log):
    """First applicable move under the priority compress > fold > boundary:
    the first witness of the first failing flag, found by reducedness_report's
    own scans, which stop there (oracle.rescan_reduction_move rescans)."""
    for e in _uncompressed(log):
        return ("compress", e.eid, e.src, e.tgt)
    for _, ei, ej, u, w in _folds(_label_pairs(log)):
        return ("fold", ei.eid, ej.eid, u, w)
    for v in _boundary_leaves(log):
        return ("boundary", v, next(e.eid for e in log.edges if v in (e.src, e.tgt)))
    return None


def apply_reduction_move(log: Log, move) -> Log:
    """The LOG after a move of find_reduction_move's form; the move's
    vertices and edge ids must be the LOG's own."""
    kind = move[0]
    if kind == "compress":
        _, eid, u, w = move
        return _merge_vertices(log, u, w, {eid})
    if kind == "fold":
        _, keep_eid, drop_eid, u, w = move
        return _merge_vertices(log, u, w, {drop_eid})
    if kind == "boundary":
        _, v, eid = move
        vertices = tuple(x for x in log.vertices if x != v)
        edges = tuple(e for e in log.edges if e.eid != eid)
        return Log._of(vertices, edges)
    raise ValueError(f"unknown move {move!r}")


def reduce_log(log: Log) -> tuple[Log, tuple]:
    """Apply moves to a fixed point; returns the reduced LOG and the move list.

    For LOF inputs the forest class is preserved.  The result satisfies the
    boundary/interior/compression conditions (injectivity is not a reduction
    target and may fail either way).
    """
    moves = []
    current = log
    while True:
        move = find_reduction_move(current)
        if move is None:
            return current, tuple(moves)
        nxt = apply_reduction_move(current, move)
        if len(nxt.vertices) + len(nxt.edges) >= len(current.vertices) + len(current.edges):
            raise RuntimeError(f"reduction move {move!r} does not shrink the LOG")
        moves.append(move)
        current = nxt


def non_label_vertices(log: Log) -> tuple[str, ...]:
    """Vertices that never occur as an edge label, in declaration order."""
    labels = log.label_set()
    return tuple(v for v in log.vertices if v not in labels)


# ---------------------------------------------------------------------------
# sub-LOTs and quotients


class SubLog(NamedTuple):
    """A connected subtree closed under labels: lambda(E0) inside V0."""

    vertices: tuple[str, ...]
    edge_ids: tuple[str, ...]
    is_tree: bool
    is_boundary_reduced: bool


def _bad_leaf(edges: Sequence[Edge]) -> Optional[str]:
    """The first leaf of the subtree on these edges that labels none of
    them, in the order the edges meet their ends, or None."""
    deg: dict[str, int] = {}
    for e in edges:
        deg[e.src] = deg.get(e.src, 0) + 1
        deg[e.tgt] = deg.get(e.tgt, 0) + 1
    labels_inside = {e.lab for e in edges}
    return next((v for v, d in deg.items() if d == 1 and v not in labels_inside), None)


def _sub_lot(log: Log, indices: Sequence[int]) -> SubLog:
    """The SubLog on the edges at these ascending indices of log.edges."""
    edges = [log.edges[i] for i in indices]
    vset = {v for e in edges for v in (e.src, e.tgt)}
    vertices = tuple(v for v in log.vertices if v in vset)
    return SubLog(vertices, tuple(e.eid for e in edges), True, _bad_leaf(edges) is None)


def _by_size(found) -> list[tuple[int, ...]]:
    """Distinct ascending edge-index tuples, smallest first, then lexicographic."""
    return sorted(set(found), key=lambda t: (len(t), t))


def enumerate_sub_lots(log: Log, max_size: Optional[int] = None) -> tuple[SubLog, ...]:
    """All connected subtrees with >= 1 edge whose labels stay inside them.

    Reference only: the count is exponential in the size of the tree, so no
    production path calls this; tests anchor bad_sub_lot_witnesses and
    maximal_proper_sub_lots to it.  Exhaustive up to max_size vertices
    (unbounded when absent).  When the whole graph is itself a tree closed
    under labels it is included.
    """
    edges = log.edges
    by_vertex: dict[str, list[int]] = {v: [] for v in log.vertices}
    for i, e in enumerate(edges):
        by_vertex[e.src].append(i)
        if e.tgt != e.src:
            by_vertex[e.tgt].append(i)

    seen: set[frozenset[int]] = set()
    found: list[tuple[int, ...]] = []

    for seed in range(len(edges)):
        e0 = edges[seed]
        if e0.src == e0.tgt:
            continue
        start = frozenset([seed])
        stack = [(start, frozenset((e0.src, e0.tgt)))]
        seen.add(start)
        while stack:
            eset, vset = stack.pop()
            if all(edges[i].lab in vset for i in eset):
                found.append(tuple(sorted(eset)))
            if max_size is not None and len(vset) >= max_size:
                continue
            for v in vset:
                for i in by_vertex[v]:
                    if i <= seed or i in eset:
                        continue
                    e = edges[i]
                    other = e.tgt if e.src == v else e.src
                    if other in vset or e.src == e.tgt:
                        continue  # would close a cycle
                    nxt = eset | {i}
                    fs = frozenset(nxt)
                    if fs not in seen:
                        seen.add(fs)
                        stack.append((fs, vset | {other}))

    return tuple(_sub_lot(log, t) for t in _by_size(found))


class _RootedForest(NamedTuple):
    """Each tree of a LOF rooted at its first declared vertex; by vertex index."""

    parent: list[int]  # -1 at a root
    parent_edge: list[int]  # index into log.edges, -1 at a root
    depth: list[int]
    component: list[int]  # index of the component's root
    ends: list[tuple[int, int, int]]  # source, target and label vertex of each edge


def _rooted_forest(log: Log) -> _RootedForest:
    if log.log_class.kind == "GeneralLOG":
        raise ValueError("sub-LOT closures need a LOF (the underlying graph has a cycle)")
    n = len(log.vertices)
    ends = log.edge_ends
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, w, _) in enumerate(ends):
        adj[u].append((i, w))
        adj[w].append((i, u))
    parent, parent_edge, depth, component = [-1] * n, [-1] * n, [0] * n, [-1] * n
    for r in range(n):
        if component[r] >= 0:
            continue
        component[r] = r
        stack = [r]
        while stack:
            u = stack.pop()
            for i, w in adj[u]:
                if component[w] < 0:
                    component[w], parent[w], parent_edge[w] = r, u, i
                    depth[w] = depth[u] + 1
                    stack.append(w)
    return _RootedForest(parent, parent_edge, depth, component, ends)


_UNKNOWN = object()  # a closure-table slot not computed yet


def _closure(forest: _RootedForest, start: int, table: list) -> Optional[frozenset[int]]:
    """Edge indices of the smallest sub-LOT containing edge `start`, if any.

    Adds each label together with the tree path joining it to the current
    subtree until every label lies inside.  The path is found by walking the
    label and the subtree's top vertex upward, deeper one first, so every
    step adds a vertex: O(n) per closure.  None when a label lies in another
    component, since then no sub-LOT contains the edge.

    Each edge f the walk adds is checked at once against table, which holds
    every closure known so far and _UNKNOWN elsewhere.  closure(f) lies
    inside closure(start), so it is None if closure(f) is, and it equals
    closure(f) when that contains `start`; otherwise the walk goes on.
    """
    parent, parent_edge, depth, ends = forest.parent, forest.parent_edge, forest.depth, forest.ends
    component = forest.component
    u, w, lab = ends[start]
    top = u if depth[u] <= depth[w] else w
    inside = {u, w}
    eset = [start]
    pending = [lab]
    while pending:
        x = pending.pop()
        if x in inside:
            continue
        if component[x] != component[top]:
            return None
        path = []
        while x not in inside:
            if depth[x] > depth[top]:
                path.append(x)
                i = parent_edge[x]
                x = parent[x]
            else:  # x is not below top, so the path runs through top's parent
                i = parent_edge[top]
                top = parent[top]
                inside.add(top)
            known = table[i]
            if known is not _UNKNOWN and (known is None or start in known):
                return known
            eset.append(i)
            pending.append(ends[i][2])
        inside.update(path)
    return frozenset(eset)


def _closure_table(log: Log) -> list[Optional[frozenset[int]]]:
    """closure(e) for every edge index e of a LOF, None where no sub-LOT has e.

    The edges are taken in a scattered order (Fibonacci hashing of the
    index, fixed by the edge count), so on a path-ordered input the early
    walks are spread out and each later walk soon adds an edge whose
    closure is known and ends there.  The edges whose closures contain each
    other form one closure class, and the whole class shares one frozenset:
    a walk that adds a class member whose closure is known returns it.
    Raises ValueError unless log is a LOF.
    """
    forest = _rooted_forest(log)
    m = len(log.edges)
    table: list = [_UNKNOWN] * m
    for i in sorted(range(m), key=lambda i: (i * 2654435761) % 2**32):
        table[i] = _closure(forest, i, table)
    return table


def bad_sub_lot_witnesses(log: Log) -> tuple[SubLog, ...]:
    """The distinct edge closures of a LOF that are not boundary reduced.

    Empty iff every sub-LOT is boundary reduced: a sub-LOT with a leaf v
    that labels none of its edges contains the closure of v's edge, and v
    is such a leaf of that closure too.  Ordered like enumerate_sub_lots;
    at most one witness per closure class.  Raises ValueError unless log
    is a LOF.
    """
    classes = {c for c in log.closures if c is not None}
    closures = [tuple(sorted(c)) for c in classes]
    bad = [t for t in closures if _bad_leaf([log.edges[j] for j in t]) is not None]
    return tuple(_sub_lot(log, t) for t in _by_size(bad))


def maximal_proper_sub_lots(log: Log) -> tuple[SubLog, ...]:
    """The inclusion-maximal sub-LOTs other than the whole LOF.

    Every proper sub-LOT avoids some edge f.  Inside the forest without f,
    the sub-LOTs are covered by the components of a greatest fixpoint:
    dropping every edge whose label lies outside its component, until none
    is dropped, keeps each sub-LOT, and each surviving component with an
    edge is a sub-LOT.  An edge e survives that fixpoint exactly when
    closure(e) exists and avoids f, so one union-find over those edges
    gives the components (oracle.fixpoint_maximal_sub_lots runs the
    fixpoint itself).  f lies in closure(e) iff closure(f) lies inside it,
    and in none without one: one f per closure, None included, suffices.
    Ordered like enumerate_sub_lots.  Raises ValueError unless log is a LOF.
    """
    ends = log.edge_ends
    # the edges of each closure class, keyed by the closure they share
    members: dict[Optional[frozenset[int]], list[int]] = {}
    for i, c in enumerate(log.closures):
        members.setdefault(c, []).append(i)
    found = []
    for f in (ids[0] for ids in members.values()):
        kept = sorted(i for c, ids in members.items() if c is not None and f not in c for i in ids)
        uf = _UnionFind(len(log.vertices))
        for i in kept:
            uf.union(ends[i][0], ends[i][1])
        parts: dict[int, list[int]] = {}
        for i in kept:
            parts.setdefault(uf.find(ends[i][0]), []).append(i)
        found.extend(tuple(p) for p in parts.values())
    return _inclusion_maximal(log, found)


def _inclusion_maximal(log: Log, found) -> tuple[SubLog, ...]:
    """The inclusion-maximal ones among these edge-index tuples, as SubLogs."""
    ordered = _by_size(found)
    maximal: list[set[int]] = []
    for t in reversed(ordered):  # a strict superset is longer, so it comes first
        if not any(m.issuperset(t) for m in maximal):
            maximal.append(set(t))
    return tuple(_sub_lot(log, t) for t in ordered if set(t) in maximal)


def _sub_edges(log: Log, sub: SubLog) -> tuple[Edge, ...]:
    """The edges of a sub-LOT of log, in its edge_ids order."""
    index = log.edge_index
    return tuple(log.edges[index[eid]] for eid in sub.edge_ids)


def validate_sub_lot(log: Log, sub: SubLog) -> None:
    if not sub.edge_ids:
        raise ValueError("sub-LOT must contain at least one edge")
    index, by_id = log.vertex_index, log.edge_index
    vset = set(sub.vertices)
    if not vset.issubset(index):
        raise ValueError("sub-LOT vertices not in parent")
    uf = _UnionFind(len(index))
    acyclic = True
    for eid in sub.edge_ids:
        if eid not in by_id:
            raise ValueError(f"sub-LOT edge {eid!r} not in parent")
        e = log.edges[by_id[eid]]
        if e.src not in vset or e.tgt not in vset:
            raise ValueError(f"sub-LOT edge {eid!r} leaves the vertex set")
        if e.lab not in vset:
            raise ValueError(f"sub-LOT not closed under labels at edge {eid!r}")
        if not uf.union(index[e.src], index[e.tgt]):
            acyclic = False
    if not acyclic or len({uf.find(index[v]) for v in vset}) != 1:
        raise ValueError("sub-LOT is not a connected tree")


def quotient_lof(
    log: Log, parts: Sequence[SubLog], reps: Sequence[str]
) -> tuple[Log, dict[str, str]]:
    """Collapse disjoint sub-LOTs to chosen representative vertices.

    Every surviving edge whose label lay in a collapsed part is relabeled with
    that part's representative.  Returns the quotient together with the vertex
    map.
    """
    if len(parts) != len(reps):
        raise ValueError("one representative per part required")
    taken: set[str] = set()
    vmap = {v: v for v in log.vertices}
    removed_edges: set[str] = set()
    for sub, rep in zip(parts, reps):
        validate_sub_lot(log, sub)
        vset = set(sub.vertices)
        if taken & vset:
            raise ValueError("parts are not vertex-disjoint")
        if rep not in vset:
            raise ValueError(f"representative {rep!r} outside its part")
        taken |= vset
        for v in sub.vertices:
            vmap[v] = rep
        removed_edges |= set(sub.edge_ids)

    vertices = tuple(v for v in log.vertices if vmap[v] == v)
    edges = tuple(
        Edge(e.eid, vmap[e.src], vmap[e.tgt], vmap[e.lab])
        for e in log.edges
        if e.eid not in removed_edges
    )
    return Log._of(vertices, edges), vmap

