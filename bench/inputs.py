"""Seeded input generators and an independent expected-exit-code oracle.

The benchmark owns its generators so that a change to ``lotcert.oracle``
cannot move a workload.  Every input is a reduced injective LOT written in
the LOG text format; the program only ever sees that text.

The expected exit code of plain ``certify`` on a reduced injective LOT is
3 when some sub-LOT (a connected label-closed subtree) is not boundary
reduced, and 0 otherwise.  That is decided here without enumeration: the
smallest sub-LOT containing an edge is its label closure, every sub-LOT
with a non-label leaf v contains the closure of v's edge, and that closure
has v as a non-label leaf too.  So a bad sub-LOT exists iff some edge's
closure is bad, which takes polynomial time.
"""

from __future__ import annotations

import hashlib
import heapq
import random

# Edge = (eid, src, tgt, label); vertices are named v0..v{n-1}.


def _pruefer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on 0..n-1 from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _path_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A path visiting 0..n-1 in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return list(zip(order, order[1:]))


SHAPES = {"random": _pruefer_tree, "path": _path_tree}


def random_lot(shape: str, n: int, rng: random.Random) -> tuple[list[str], list[tuple]]:
    """A reduced injective LOT: random tree, orientations and labels.

    Labels are n-1 distinct vertices, so the LOT is injective and interior
    reduced; attempts that are not compressed or not boundary reduced are
    resampled whole.
    """
    names = [f"v{i}" for i in range(n)]
    while True:
        tree = SHAPES[shape](n, rng)
        oriented = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in tree]
        labels = rng.sample(range(n), n - 1)
        if any(lab in uv for uv, lab in zip(oriented, labels)):
            continue
        degree = [0] * n
        for u, v in oriented:
            degree[u] += 1
            degree[v] += 1
        label_set = set(labels)
        if any(degree[v] == 1 and v not in label_set for v in range(n)):
            continue
        edges = [
            (f"e{i + 1}", names[u], names[v], names[lab])
            for i, ((u, v), lab) in enumerate(zip(oriented, labels))
        ]
        return names, edges


def to_text(vertices: list[str], edges: list[tuple]) -> str:
    lines = ["vertices: " + " ".join(vertices)]
    lines += [f"edge {eid}: {s} -> {t} : {lab}" for eid, s, t, lab in edges]
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _closure(start: int, edges: list[tuple], adj: dict) -> set[int]:
    """Edge indices of the smallest label-closed subtree containing an edge."""
    eset = {start}
    vset = {edges[start][1], edges[start][2]}
    pending = [edges[start][3]]
    while pending:
        lab = pending.pop()
        if lab in vset:
            continue
        # walk the unique tree path from lab back into the current subtree
        prev = {lab: None}
        frontier = [lab]
        hit = None
        while hit is None:
            nxt = []
            for x in frontier:
                for i, y in adj[x]:
                    if y in prev:
                        continue
                    prev[y] = (x, i)
                    if y in vset:
                        hit = y
                        break
                    nxt.append(y)
                if hit is not None:
                    break
            frontier = nxt
        y = hit
        while prev[y] is not None:
            x, i = prev[y]
            eset.add(i)
            vset.add(x)
            pending.append(edges[i][3])
            y = x
    return eset


def has_bad_sub_lot(edges: list[tuple]) -> bool:
    """Does some sub-LOT of this LOT have a leaf that labels none of its edges?"""
    adj: dict = {}
    for i, (_, s, t, _) in enumerate(edges):
        adj.setdefault(s, []).append((i, t))
        adj.setdefault(t, []).append((i, s))
    for start in range(len(edges)):
        eset = _closure(start, edges, adj)
        degree: dict = {}
        for i in eset:
            for v in edges[i][1:3]:
                degree[v] = degree.get(v, 0) + 1
        inside = {edges[i][3] for i in eset}
        if any(d == 1 and v not in inside for v, d in degree.items()):
            return True
    return False


def expected_plain_exit(edges: list[tuple]) -> int:
    return 3 if has_bad_sub_lot(edges) else 0


def subtree_count(n: int, edges: list[tuple]) -> int:
    """Number of connected subtrees (vertex sets) of the underlying tree."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for _, s, t, _ in edges:
        u, v = int(s[1:]), int(t[1:])
        adj[u].append(v)
        adj[v].append(u)
    order = [0]
    parent = [-1] * n
    parent[0] = 0
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    rooted_at = [1] * n  # subtrees whose top vertex is v
    for v in reversed(order[1:]):
        rooted_at[parent[v]] *= 1 + rooted_at[v]
    return sum(rooted_at)
