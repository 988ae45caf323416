"""Disjoint branchings in the selection graph via cut conditions.

A branching rooted at r is a spanning arborescence: every vertex other than
the root has exactly one incoming arc and is reachable from the root.  Two
disjoint branchings rooted at r exist iff every vertex set avoiding r is
entered by at least two arcs (delta(S) >= 2); the condition is checked by
unit-capacity max-flow from the root, and failures are reported as a minimum
violating cut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .selection import ArcKey, SelectionGraph


@dataclass(frozen=True)
class Branching:
    root: str
    arcs: tuple[ArcKey, ...]


@dataclass(frozen=True)
class CutWitness:
    """A vertex set avoiding the root, entered by delta arcs from outside."""

    vertices: tuple[str, ...]
    delta: int


def cut_delta(sel: SelectionGraph, vertices) -> int:
    vset = set(vertices)
    return sum(1 for a in sel.arcs if a.src not in vset and a.dst in vset)


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


def edmonds_condition(
    sel: SelectionGraph, root: str, n: int
) -> tuple[bool, Optional[CutWitness]]:
    """delta(S) >= n for every nonempty S avoiding the root.

    Equivalently every vertex admits n arc-disjoint paths from the root; each
    vertex is checked with unit-capacity max-flow.  On failure the witness is
    a minimum violating cut.
    """
    if root not in sel.nodes:
        raise ValueError(f"unknown root {root!r}")
    arcs = [(a.src, a.dst) for a in sel.arcs]
    worst: Optional[tuple[int, set]] = None
    for v in sel.nodes:
        if v == root:
            continue
        flow, reach = _max_flow(arcs, root, v, n)
        if flow < n and (worst is None or flow < worst[0]):
            worst = (flow, reach)
    if worst is None:
        return True, None
    flow, reach = worst
    cut = tuple(v for v in sel.nodes if v not in reach)
    witness = CutWitness(cut, cut_delta(sel, cut))
    assert witness.delta == flow
    return False, witness


def _all_reachable(sel: SelectionGraph, root: str, removed: set) -> bool:
    adj = {}
    for a in sel.arcs:
        if a.key in removed:
            continue
        adj.setdefault(a.src, []).append(a.dst)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(sel.nodes)


def _greedy_arborescence(sel: SelectionGraph, root: str, forbidden: set) -> Optional[Branching]:
    reached = {root}
    chosen: list[ArcKey] = []
    taken: set[ArcKey] = set()
    while len(reached) < len(sel.nodes):
        for a in sel.arcs:
            if a.key in forbidden or a.key in taken:
                continue
            if a.src in reached and a.dst not in reached:
                chosen.append(a.key)
                taken.add(a.key)
                reached.add(a.dst)
                break
        else:
            return None
    return Branching(root, tuple(chosen))


def two_disjoint_branchings(
    sel: SelectionGraph, root: str
) -> Union[tuple[Branching, Branching], CutWitness]:
    """Two arc-disjoint branchings rooted at root, or a cut with delta < 2.

    The first branching is grown greedily in (owner, kind) arc order; an arc
    is committed only when its removal keeps every vertex reachable from the
    root in the remaining graph, which preserves the cut condition for the
    second branching.  The second branching is then grown on the leftover
    arcs.
    """
    ok, cut = edmonds_condition(sel, root, 2)
    if not ok:
        assert cut is not None
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

    b1 = Branching(root, tuple(first))
    b2 = _greedy_arborescence(sel, root, used)
    if b2 is None:
        raise RuntimeError("second branching not found despite cut condition")
    for b in (b1, b2):
        good, why = verify_branching(sel, b)
        assert good, why
    return b1, b2


def verify_branching(sel: SelectionGraph, b: Branching) -> tuple[bool, Optional[str]]:
    """Check the branching invariant; the witness names the violated vertex."""
    keys = set()
    arcs = []
    by_key = {a.key: a for a in sel.arcs}
    for k in b.arcs:
        if k not in by_key:
            return False, f"arc {k!r} not in the selection graph"
        if k in keys:
            return False, f"arc {k!r} repeated"
        keys.add(k)
        arcs.append(by_key[k])
    indeg = {v: 0 for v in sel.nodes}
    for a in arcs:
        indeg[a.dst] += 1
    if b.root not in indeg:
        return False, f"root {b.root!r} not a vertex"
    for v in sel.nodes:
        want = 0 if v == b.root else 1
        if indeg[v] != want:
            return False, v
    adj = {}
    for a in arcs:
        adj.setdefault(a.src, []).append(a.dst)
    seen = {b.root}
    queue = deque([b.root])
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    for v in sel.nodes:
        if v not in seen:
            return False, v
    return True, None
