"""Independent brute-force reference implementations and fixture generators.

Nothing here is a production path: these enumerations anchor the fast
implementations in the other modules (forest tests against explicit cycle
enumeration, the dominator cut test and the cut it reads off the dominator
tree against one max-flow per vertex and against subset enumeration, the
heap-driven branchings against the rescanning greedy they replaced, the
reduction moves against a scan of every edge pair, the maximal sub-LOTs
read from the closure table against one label-closed fixpoint per edge,
the pipeline sign choice against the full 2^n search, the reoriented
bi-forest check against the reoriented LOG) and generate reproducible
random fixtures.  Caps guard the exponential searches;
LOT_ORACLE_CAP overrides them globally.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
from collections import deque
from typing import Iterable, Optional, Union

from . import certify
from .arborescence import Branching, CutWitness, cut_delta, verify_branching
from .link_complex import MINUS, PLUS, Multigraph, Walk
from .log_model import (
    Edge,
    Log,
    SubLog,
    _inclusion_maximal,
    _rooted_forest,
    _UnionFind,
    make_log,
)
from .selection import ArcKey, SelectionGraph

DEFAULT_LBF_CAP = 16
DEFAULT_BRANCHING_CAP = 20
DEFAULT_CUT_CAP = 16


class CapExceeded(RuntimeError):
    """An exhaustive search was asked to exceed its configured cap."""


def _cap(value: Optional[int], default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get("LOT_ORACLE_CAP")
    return int(env) if env else default


# ---------------------------------------------------------------------------
# cycle enumeration


def enumerate_simple_cycles(g: Multigraph, max_len: int) -> list[Walk]:
    """All simple cycles with at most max_len edges, once up to rotation and
    reflection.  Loops are length-1 cycles, parallel pairs length-2 cycles.
    """
    index = {n: i for i, n in enumerate(g.nodes)}
    adj: dict = {n: [] for n in g.nodes}
    for key, u, v in g.edges:
        adj[u].append((key, v))
        if u != v:
            adj[v].append((key, u))

    out: list[Walk] = []

    if max_len >= 1:
        for key, u, v in g.edges:
            if u == v:
                out.append(Walk((u, u), (key,)))

    if max_len >= 2:
        by_pair: dict = {}
        for key, u, v in g.edges:
            if u == v:
                continue
            pair = (min(index[u], index[v]), max(index[u], index[v]))
            by_pair.setdefault(pair, []).append((key, u, v))
        for (iu, iv), bundle in sorted(by_pair.items()):
            for (k1, u, v), (k2, _, _) in itertools.combinations(bundle, 2):
                out.append(Walk((u, v, u), (k1, k2)))

    if max_len >= 3:
        for start in g.nodes:
            s = index[start]
            # paths start at the cycle's minimal vertex; reflection is fixed by
            # requiring the first inner vertex to precede the last one.
            stack = [(start, (start,), ())]
            while stack:
                node, path_nodes, path_keys = stack.pop()
                for key, nxt in adj[node]:
                    if key in path_keys:
                        continue
                    if nxt == start:
                        if len(path_keys) + 1 >= 3 and index[path_nodes[1]] < index[node]:
                            out.append(Walk(path_nodes + (start,), path_keys + (key,)))
                        continue
                    if index[nxt] <= s or nxt in path_nodes:
                        continue
                    if len(path_keys) + 1 >= max_len:
                        continue
                    stack.append((nxt, path_nodes + (nxt,), path_keys + (key,)))

    out.sort(key=lambda c: (len(c.edges), c.edges))
    return out


def homology_reduced_cycle_search(
    g: Multigraph, avoid: Iterable, max_len: Optional[int] = None
) -> Optional[Walk]:
    """A homology reduced closed walk using an edge outside `avoid`, if any.

    Backtracking over edge traversals that never uses an edge twice (which in
    particular never uses both orientations); any homology reduced witness
    decomposes into simple cycles, so this restriction loses nothing.
    """
    avoid_set = set(avoid)
    limit = max_len if max_len is not None else 2 * len(g.edges)
    adj: dict = {n: [] for n in g.nodes}
    for key, u, v in g.edges:
        adj[u].append((key, v))
        if u != v:
            adj[v].append((key, u))

    for key0, u0, v0 in g.edges:
        if key0 in avoid_set:
            continue
        if u0 == v0:
            return Walk((u0, u0), (key0,))
        stack = [(v0, (u0, v0), (key0,))]
        while stack:
            node, path_nodes, path_keys = stack.pop()
            for key, nxt in adj[node]:
                if key in path_keys:
                    continue
                if nxt == u0:
                    return Walk(path_nodes + (u0,), path_keys + (key,))
                if len(path_keys) + 1 < limit:
                    stack.append((nxt, path_nodes + (nxt,), path_keys + (key,)))
    return None


# ---------------------------------------------------------------------------
# exhaustive searches


def exhaustive_lbf_search(log: Log, cap: Optional[int] = None) -> list[dict]:
    """All sign assignments whose two induced link subgraphs are forests."""
    n = len(log.vertices)
    if n > _cap(cap, DEFAULT_LBF_CAP):
        raise CapExceeded(f"{n} vertices exceed the sign-search cap")
    hits = []
    for signs in itertools.product((PLUS, MINUS), repeat=n):
        eps = dict(zip(log.vertices, signs))
        if certify.lbf_check(log, eps).ok:
            hits.append(eps)
    return hits


def exhaustive_cut_condition(sel: SelectionGraph, root: str, cap: Optional[int] = None) -> bool:
    """Is every nonempty vertex set avoiding the root entered by >= 2 arcs?

    Checks all 2^(n-1) such sets; the cap bounds n - 1.
    """
    others = [v for v in sel.nodes if v != root]
    if len(others) > _cap(cap, DEFAULT_CUT_CAP):
        raise CapExceeded(f"{len(others)} non-root vertices exceed the cut-search cap")
    return all(
        cut_delta(sel, combo) >= 2
        for r in range(1, len(others) + 1)
        for combo in itertools.combinations(others, r)
    )


def _max_flow(arcs: list[tuple[str, str]], source: str, sink: str, limit: int) -> tuple[int, set]:
    """Unit-capacity max flow by BFS augmentation, stopping at `limit` units.

    Returns the flow value and the residual-reachable set from the source
    (the complement is a minimum cut when the flow is maximum).
    """
    cap = [1] * len(arcs)
    rev = [0] * len(arcs)
    out = {}
    into = {}
    for i, (u, v) in enumerate(arcs):
        out.setdefault(u, []).append(i)
        into.setdefault(v, []).append(i)

    def reachable() -> tuple[set, dict]:
        prev = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for i in out.get(u, ()):  # forward residual
                v = arcs[i][1]
                if cap[i] > 0 and v not in prev:
                    prev[v] = (u, i, True)
                    queue.append(v)
            for i in into.get(u, ()):  # backward residual
                v = arcs[i][0]
                if rev[i] > 0 and v not in prev:
                    prev[v] = (u, i, False)
                    queue.append(v)
        return set(prev), prev

    flow = 0
    while flow < limit:
        reach, prev = reachable()
        if sink not in reach:
            return flow, reach
        cur = sink
        while prev[cur] is not None:
            u, i, fwd = prev[cur]
            if fwd:
                cap[i] -= 1
                rev[i] += 1
            else:
                cap[i] += 1
                rev[i] -= 1
            cur = u
        flow += 1
    reach, _ = reachable()
    return flow, reach


def flow_cut_condition(sel: SelectionGraph, root: str) -> tuple[bool, Optional[CutWitness]]:
    """`arborescence.edmonds_condition` by one unit-capacity max-flow per vertex.

    The worst vertex (smallest flow, first in node order) gives the witness:
    the vertices its final residual graph does not reach from the root.
    """
    if root not in sel.nodes:
        raise ValueError(f"unknown root {root!r}")
    arcs = [(a.src, a.dst) for a in sel.arcs]
    worst: Optional[tuple[int, set]] = None
    for v in sel.nodes:
        if v == root:
            continue
        flow, reach = _max_flow(arcs, root, v, 2)
        if flow < 2 and (worst is None or flow < worst[0]):
            worst = (flow, reach)
    if worst is None:
        return True, None
    cut = tuple(v for v in sel.nodes if v not in worst[1])
    return False, CutWitness(cut, cut_delta(sel, cut))


def _all_reachable(sel: SelectionGraph, root: str, removed: set) -> bool:
    adj: dict = {}
    for a in sel.arcs:
        if a.key not in removed:
            adj.setdefault(a.src, []).append(a.dst)
    seen = {root}
    queue = deque([root])
    while queue:
        for v in adj.get(queue.popleft(), ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(sel.nodes)


def _rescan_arborescence(sel: SelectionGraph, root: str, forbidden: set) -> Optional[Branching]:
    reached = {root}
    chosen: list[ArcKey] = []
    while len(reached) < len(sel.nodes):
        for a in sel.arcs:
            if a.key not in forbidden and a.src in reached and a.dst not in reached:
                chosen.append(a.key)
                reached.add(a.dst)
                break
        else:
            return None
    return Branching(root, tuple(chosen))


def rescan_branchings(
    sel: SelectionGraph, root: str
) -> Union[tuple[tuple[Branching], tuple[Branching]], CutWitness]:
    """`arborescence.two_disjoint_branchings` from the one root, by
    rescanning every arc per step; the max-flow cut where that stalls.

    Each step of the first branching takes the first arc in arc order that
    leaves the reached set and whose removal, with the arcs taken so far,
    keeps every vertex reachable (one full search per candidate); the second
    takes the first leaving arc among the rest.
    """
    ok, cut = flow_cut_condition(sel, root)
    if not ok:
        return cut
    used: set[ArcKey] = set()
    reached = {root}
    first: list[ArcKey] = []
    while len(reached) < len(sel.nodes):
        for a in sel.arcs:
            if a.key in used or a.src not in reached or a.dst in reached:
                continue
            if _all_reachable(sel, root, used | {a.key}):
                used.add(a.key)
                first.append(a.key)
                reached.add(a.dst)
                break
        else:
            raise RuntimeError("branching construction stalled despite cut condition")
    second = _rescan_arborescence(sel, root, used)
    if second is None:
        raise RuntimeError("second branching not found despite cut condition")
    return (Branching(root, tuple(first)),), (second,)


def exhaustive_branching_search(
    sel: SelectionGraph, root: str, cap: Optional[int] = None
) -> Optional[tuple[Branching, Branching]]:
    """Brute-force disjoint branching pair: every vertex except the root picks
    two distinct incoming arcs, one per branching; both picks must be
    arborescences.  Returns the first valid pair in arc order, or None.
    """
    if len(sel.arcs) > _cap(cap, DEFAULT_BRANCHING_CAP):
        raise CapExceeded(f"{len(sel.arcs)} arcs exceed the branching-search cap")
    others = [v for v in sel.nodes if v != root]
    incoming = {v: [a.key for a in sel.arcs if a.dst == v] for v in others}
    if any(len(incoming[v]) < 2 for v in others):
        return None
    choices = [
        [(k1, k2) for k1 in incoming[v] for k2 in incoming[v] if k1 != k2]
        for v in others
    ]
    for combo in itertools.product(*choices):
        b1 = Branching(root, tuple(c[0] for c in combo))
        if not verify_branching(sel, b1)[0]:
            continue
        b2 = Branching(root, tuple(c[1] for c in combo))
        if verify_branching(sel, b2)[0]:
            return b1, b2
    return None


# ---------------------------------------------------------------------------
# reorientations


def reorient(log: Log, flips: Iterable[str]) -> Log:
    """Reverse the direction of the given edges; labels are untouched.

    Production checks a reorientation on the edge ends instead of building it.
    """
    flipset = set(flips)
    for eid in flipset:
        if eid not in log.edge_index:
            raise ValueError(f"unknown edge id {eid!r}")
    edges = tuple(
        Edge(e.eid, e.tgt, e.src, e.lab) if e.eid in flipset else e for e in log.edges
    )
    return Log(log.vertices, edges)


def block_reorient(log: Log, labels: Iterable[str]) -> Log:
    """Reverse every edge whose label lies in the given set."""
    labset = set(labels)
    return reorient(log, {e.eid for e in log.edges if e.lab in labset})


# ---------------------------------------------------------------------------
# reductions


def rescan_reduction_move(log: Log):
    """`log_model.find_reduction_move` by scanning every earlier edge for a fold.

    O(m^2) per move: the fold loop compares each edge with every edge
    before it rather than with the edges of its label.
    """
    for e in log.edges:
        if e.lab in (e.src, e.tgt):
            return ("compress", e.eid, e.src, e.tgt)
    for j, ej in enumerate(log.edges):
        for ei in log.edges[:j]:
            if ei.lab != ej.lab:
                continue
            if ei.src == ej.src:
                return ("fold", ei.eid, ej.eid, ei.tgt, ej.tgt)
            if ei.tgt == ej.tgt:
                return ("fold", ei.eid, ej.eid, ei.src, ej.src)
    labels = log.label_set()
    deg = log.valency()
    for v in log.vertices:
        if deg[v] == 1 and v not in labels:
            eid = next(e.eid for e in log.edges if v in (e.src, e.tgt))
            return ("boundary", v, eid)
    return None


# ---------------------------------------------------------------------------
# sub-LOTs


def fixpoint_maximal_sub_lots(log: Log) -> tuple[SubLog, ...]:
    """`log_model.maximal_proper_sub_lots` by one greatest fixpoint per edge f.

    Starting from every edge but f, drop each edge whose label lies outside
    its component until none is dropped; the surviving components are the
    sub-LOTs to filter.  O(n) per round and up to n rounds per f: O(n^3).
    """
    _rooted_forest(log)  # raises unless log is a LOF
    ends = log.edge_ends
    found = []
    for f in range(len(ends)):
        kept = [i for i in range(len(ends)) if i != f]
        while True:
            uf = _UnionFind(len(log.vertices))
            for i in kept:
                uf.union(ends[i][0], ends[i][1])
            closed = [i for i in kept if uf.find(ends[i][2]) == uf.find(ends[i][0])]
            if len(closed) == len(kept):
                break
            kept = closed
        parts: dict[int, list[int]] = {}
        for i in kept:
            parts.setdefault(uf.find(ends[i][0]), []).append(i)
        found.extend(tuple(p) for p in parts.values())
    return _inclusion_maximal(log, found)


# ---------------------------------------------------------------------------
# fixture generators


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on 0..n-1 via a random Pruefer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _vertex_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


_MAX_TRIES = 2000


def random_reduced_injective_lot(n: int, seed: int) -> Log:
    """A random reduced injective LOT on n >= 3 vertices, deterministic per seed.

    Random tree, random edge orientations, and a random injective compressed
    labeling; attempts failing a reducedness condition are rejected and
    retried, at most _MAX_TRIES times.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(f"lot:{n}:{seed}")
    names = _vertex_names(n)
    for _ in range(_MAX_TRIES):
        tree = _random_tree_edges(n, rng)
        oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in tree]
        label_pool = list(range(n))
        rng.shuffle(label_pool)
        labels = label_pool[: n - 1]
        if any(lab in (u, v) for (u, v), lab in zip(oriented, labels)):
            continue  # not compressed; resample
        log = make_log(
            names,
            [
                (f"e{i + 1}", names[u], names[v], names[lab])
                for i, ((u, v), lab) in enumerate(zip(oriented, labels))
            ],
        )
        if log.reducedness.reduced:
            return log
    raise RuntimeError(f"no reduced injective LOT found for n={n}, seed={seed}")


def random_log(n: int, m: int, seed: int) -> Log:
    """An arbitrary random LOG with n vertices and m edges (test corpus)."""
    rng = random.Random(f"log:{n}:{m}:{seed}")
    names = _vertex_names(n)
    edges = []
    for i in range(m):
        u, v, lab = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        edges.append((f"e{i + 1}", names[u], names[v], names[lab]))
    return make_log(names, edges)


def random_lof(n: int, seed: int, split_chance: float = 0.25) -> Log:
    """A random LOF: forest underlying graph, arbitrary labels (test corpus)."""
    rng = random.Random(f"lof:{n}:{seed}")
    names = _vertex_names(n)
    edges = []
    k = 0
    for i in range(1, n):
        if rng.random() < split_chance:
            continue  # start a new component
        parent = rng.randrange(i)
        u, v = (parent, i) if rng.random() < 0.5 else (i, parent)
        k += 1
        edges.append((f"e{k}", names[u], names[v], names[rng.randrange(n)]))
    return make_log(names, edges)
