"""Disjoint branchings in the selection graph, and the cut condition they
need, decided by one dominator pass.

A branching rooted at r is a spanning arborescence: every vertex other than
the root has exactly one incoming arc and is reachable from the root.  Two
arc-disjoint branchings rooted at r exist iff every vertex set avoiding r is
entered by at least two arcs, delta(S) >= 2 (Edmonds 1973).  A branching
rooted at a set of roots is a spanning forest of one arborescence per root:
no root has an incoming arc, every other vertex has one.  Two arc-disjoint
ones exist iff every vertex set avoiding all roots has delta(S) >= 2: that
is the one-root theorem for an added root joined by two arcs to each root.

`two_disjoint_branchings` grows both branchings with one heap grower,
`_grow`, which takes the smallest-index frontier arc that a test admits:
the first branching's test keeps every vertex reachable from the roots in
the arcs not yet used (`_rehang`), and the second branching takes what is
left.  Both run on the node and arc numbers and the out/in-arc lists that
the SelectionGraph keeps; `verify_branching` maps the keys of given trees
to those numbers for the same check.

`edmonds_condition` decides the condition from one root, or from several
through `with_added_root`, by one dominator pass (Cooper, Harvey and
Kennedy, "A Simple, Fast Dominance Algorithm", 2001), and yields a minimum
cut: `certify` reads a failed hypothesis's bad sub-LOT off it, and
`oracle-check` and the tests run it as the reference for the construction.
`oracle.flow_cut_condition` finds the same cut by max-flow.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Optional, Sequence

from .selection import ArcKey, SelectionGraph


class Branching(NamedTuple):
    root: str
    arcs: tuple[ArcKey, ...]


class BranchingStall(RuntimeError):
    """The first branching stalled: some vertex set avoiding the roots is
    entered by fewer than two arcs.  Every other failure of
    `two_disjoint_branchings` is a plain RuntimeError."""


class CutWitness(NamedTuple):
    """A vertex set avoiding the root, entered by delta arcs from outside."""

    vertices: tuple[str, ...]
    delta: int


def cut_delta(sel: SelectionGraph, vertices) -> int:
    """The number of arcs that enter the vertex set from outside it."""
    vset = set(vertices)
    inside = [v in vset for v in sel.nodes]
    return sum(1 for s, d in zip(sel.src, sel.dst) if inside[d] and not inside[s])


def with_added_root(sel: SelectionGraph, roots: Sequence[str]) -> tuple[SelectionGraph, str]:
    """sel and its root when there is one root, else sel with an added root
    ":", which no vertex name can be, joined by an a- and a b-arc to each
    root: a set that avoids the roots keeps its delta (README step 3)."""
    if len(roots) == 1:
        return sel, roots[0]
    heads = [sel.node_number[r] for r in roots for _ in "ab"]
    return SelectionGraph(
        sel.nodes + (":",),
        list(sel.src) + [len(sel.nodes)] * len(heads),
        list(sel.dst) + heads,
        list(sel.keys) + [(":" + r, kind) for r in roots for kind in "ab"],
    ), ":"


_TWO_PATHS = -1  # _disjoint_paths' entry for a vertex no single arc cuts off
_UNREACHED = -2  # and for one the root does not reach


def _disjoint_paths(sel: SelectionGraph, root: int) -> list[int]:
    """For every vertex, the arc nearest the root among the arcs that lie on
    every path from the root to it: its number, or _TWO_PATHS when no arc
    does (the root included), or _UNREACHED when no path reaches it.

    Dominators of the graph with each arc subdivided: vertex v is node v and
    arc i is node n + i.  By Menger's theorem two arc-disjoint paths reach a
    vertex iff it is reachable and no arc node dominates it.
    """
    src, dst = sel.src, sel.dst
    out, into = sel.arc_lists
    n, m = len(out), len(src)

    def successors(x: int):
        return iter([n + i for i in out[x]]) if x < n else iter((dst[x - n],))

    # postorder numbers by iterative depth-first search
    post = [-1] * (n + m)
    order: list[int] = []
    seen = bytearray(n + m)
    seen[root] = 1
    stack = [(root, successors(root))]
    while stack:
        x, it = stack[-1]
        for y in it:
            if not seen[y]:
                seen[y] = 1
                stack.append((y, successors(y)))
                break
        else:
            stack.pop()
            post[x] = len(order)
            order.append(x)
    order.reverse()

    idom = [-1] * (n + m)
    idom[root] = root
    for i, u in enumerate(src):
        if seen[u]:
            idom[n + i] = u  # an arc node's only predecessor is its tail

    def intersect(a: int, b: int) -> int:
        while a != b:
            while post[a] < post[b]:
                a = idom[a]
            while post[b] < post[a]:
                b = idom[b]
        return a

    vertices = [v for v in order if v < n and v != root]
    changed = True
    while changed:
        changed = False
        for v in vertices:
            new = -1
            for i in into[v]:
                if idom[src[i]] == -1:
                    continue  # tail not reached yet, or unreachable
                new = n + i if new == -1 else intersect(n + i, new)
            if idom[v] != new:
                idom[v] = new
                changed = True

    top = [_UNREACHED] * n
    top[root] = _TWO_PATHS
    for v in vertices:  # a dominator precedes the vertices it dominates
        d = idom[v]
        if d < n:
            top[v] = top[d]
        else:  # the arc's tail is its arc node's immediate dominator
            above = top[src[d - n]]
            top[v] = d - n if above == _TWO_PATHS else above
    return top


def edmonds_condition(sel: SelectionGraph, root: str) -> tuple[bool, Optional[CutWitness]]:
    """delta(S) >= 2 for every nonempty S avoiding the root; else a minimum cut.

    The cut is read off the dominator tree: the unreachable vertices (delta
    0) if there are any, else the vertices whose top arc -- the dominating
    arc nearest the root -- is the first failing vertex's top arc a (delta
    1).  That is the cut a unit-capacity max-flow from the root to that
    vertex leaves.  The residual graph of every maximum flow reaches the same
    set, the source side of the smallest minimum cut.  With flow 1 the
    minimum cuts are the arcs on every path to the sink, and a leaves the
    smallest side: the vertices a does not dominate.  A vertex is dominated
    by a iff its top arc is a, since an arc above a on its dominator chain
    would dominate the sink too.
    """
    r = sel.node_number.get(root)
    if r is None:
        raise ValueError(f"unknown root {root!r}")
    top = _disjoint_paths(sel, r)
    failing = [t for t in top if t != _TWO_PATHS]
    if not failing:
        return True, None
    delta, cut_at = (0, _UNREACHED) if _UNREACHED in failing else (1, failing[0])
    cut = tuple(v for v, t in zip(sel.nodes, top) if t == cut_at)
    witness = CutWitness(cut, cut_delta(sel, cut))
    if witness.delta != delta:
        raise RuntimeError(f"cut {cut!r} has delta {witness.delta}, the dominator pass gave {delta}")
    return False, witness


def _tree(sel: SelectionGraph, is_root: bytearray) -> list[int]:
    """A breadth-first forest from the roots: the arc into each vertex, or -1
    at the roots and at unreachable vertices."""
    dst, (out, _) = sel.dst, sel.arc_lists
    parent = [-1] * len(out)
    seen = bytearray(is_root)
    queue = [v for v, r in enumerate(is_root) if r]
    for u in queue:
        for i in out[u]:
            v = dst[i]
            if not seen[v]:
                seen[v] = 1
                parent[v] = i
                queue.append(v)
    return parent


def _rehang(sel: SelectionGraph, is_root: bytearray, used: bytearray, parent: list[int], cut: int) -> bool:
    """Hang the subtree below tree arc cut from unused arcs other than cut.

    The forest spans the unused arcs.  Vertices outside the subtree keep
    their tree paths, which avoid cut, and the subtree hangs from its top
    vertex, so it stays reachable without cut iff the top vertex does.  One
    backward search from the top over unused arcs other than cut, through
    vertices of the subtree, looks for an arc whose tail lies outside it; a
    vertex is in the subtree iff its tree path up to a root meets the top.
    That walk stops at the first vertex in toward, the subtree vertices
    found so far, whose paths all meet the top: the answer is the same, and
    a deep subtree is not walked again for every arc into it.  Its first
    level re-hangs the top vertex alone.  On success each vertex
    on the path found takes its path arc as its tree arc; otherwise the tree
    is left alone and the result is False.
    """
    src, dst, (_, into) = sel.src, sel.dst, sel.arc_lists
    top = dst[cut]
    toward = {top: cut}  # subtree vertices found, each with its arc toward the top
    queue = [top]
    for y in queue:
        for i in into[y]:
            if used[i] or i == cut or src[i] in toward:
                continue
            x = src[i]
            while x not in toward and parent[x] >= 0:
                x = src[parent[x]]
            if x in toward:
                toward[src[i]] = i
                queue.append(src[i])
            elif is_root[x]:
                while y != top:
                    parent[y], i = i, toward[y]
                    y = dst[i]
                parent[top] = i
                return True
    return False


def _grow(
    sel: SelectionGraph, roots: list[int], used: bytearray, admits: Callable[[int], bool]
) -> Optional[list[list[int]]]:
    """The branching that takes, at each step, the smallest-index frontier
    arc that is not used, whose head is not reached, and that admits: it
    marks the arc used and adds it to the tree of its tail.  An arc is
    popped once, so admits must refuse an arc for good.  The arcs of each
    root's tree, in the order taken, or None when it stalls."""
    src, dst, (out, _) = sel.src, sel.dst, sel.arc_lists
    tree = [-1] * len(out)  # the tree of each vertex reached
    for k, r in enumerate(roots):
        tree[r] = k
    left = len(out) - len(roots)
    heap = [i for r in roots for i in out[r] if not used[i]]
    heapq.heapify(heap)
    chosen: list[list[int]] = [[] for _ in roots]
    while left:
        if not heap:
            return None
        i = heapq.heappop(heap)
        w = dst[i]
        if tree[w] >= 0 or not admits(i):
            continue  # dropped for good: reached only grows, and so does used
        used[i] = 1
        k = tree[w] = tree[src[i]]
        left -= 1
        chosen[k].append(i)
        for j in out[w]:
            if not used[j]:
                heapq.heappush(heap, j)
    return chosen


def two_disjoint_branchings(
    sel: SelectionGraph, roots: Sequence[str]
) -> tuple[tuple[Branching, ...], tuple[Branching, ...]]:
    """Two arc-disjoint branchings rooted at the roots.

    Each branching is one tree per root, in the order of roots: every other
    vertex is entered by one arc of one tree, and no root by any.  All roots
    count as reached at the start, which is the one-root construction from
    an added root joined by two arcs to each of them (README).  `_grow`
    grows both.  The first admits an arc only when its removal keeps every
    vertex reachable from the roots in the arcs not yet used, which
    preserves the cut condition for the second; a spanning forest of those
    arcs, re-hung when one of its own arcs is taken, decides that exactly,
    whatever forest is kept.  The second takes any arc that is left.  Both
    are verified on arc numbers, and only then are their (owner, kind) keys
    built.  The construction stalls exactly when some vertex set avoiding
    the roots has delta < 2, and a stall of the first branching raises
    BranchingStall: the README rules it out for a LOF that satisfies the
    hypothesis, and `edmonds_condition` finds the cut of any other
    selection graph.  A stall of the second branching or a failed
    verification, which the construction rules out, raises a plain
    RuntimeError.
    """
    number = sel.node_number
    is_root = bytearray(len(sel.nodes))
    for root in roots:
        if root not in number or is_root[number[root]]:
            raise ValueError(f"unknown or repeated root {root!r}")
        is_root[number[root]] = 1
    nums = [number[root] for root in roots]
    used = bytearray(len(sel.dst))
    parent = _tree(sel, is_root)  # spans the unused arcs
    dst = sel.dst
    # an arc off the tree can go at once, a tree arc if its subtree re-hangs;
    # one that fails fails for good, since used only grows
    first = _grow(sel, nums, used, lambda i: parent[dst[i]] != i or _rehang(sel, is_root, used, parent, i))
    if first is None:
        raise BranchingStall("first branching stalled: some cut has delta < 2")
    second = _grow(sel, nums, used, lambda i: True)
    if second is None:
        raise RuntimeError("second branching stalled after the first was built")
    keys, nodes = sel.keys, sel.nodes
    pair = []
    for chosen in (first, second):
        trees = list(zip(nums, chosen))
        bad = _first_fault(sel, trees)
        if bad >= 0:
            raise RuntimeError(f"constructed branching fails verification at {nodes[bad]!r}")
        pair.append(tuple(Branching(nodes[r], tuple([keys[i] for i in arcs])) for r, arcs in trees))
    return pair[0], pair[1]


def verify_branching(sel: SelectionGraph, *trees: Branching) -> tuple[bool, Optional[str]]:
    """Check that the trees form one branching rooted at their roots, each
    tree the arcs its own root reaches; the witness names the violated
    vertex.  One tree is a branching rooted at its root.

    The arcs are mapped to numbers in order (each known, none repeated),
    then the roots are looked up; `_first_fault` checks the rest.
    """
    number, nodes = sel.arc_number, sel.node_number
    seen = bytearray(len(sel.keys))
    numbered = []
    for b in trees:
        taken: list[int] = []
        for k in b.arcs:
            i = number.get(k)
            if i is None:
                return False, f"arc {k!r} not in the selection graph"
            if seen[i]:
                return False, f"arc {k!r} repeated"
            seen[i] = 1
            taken.append(i)
        if b.root not in nodes:
            return False, f"root {b.root!r} not a vertex"
        numbered.append((nodes[b.root], taken))
    bad = _first_fault(sel, numbered)
    return (True, None) if bad < 0 else (False, sel.nodes[bad])


def _first_fault(sel: SelectionGraph, trees: list[tuple[int, list[int]]]) -> int:
    """-1 when the trees, each a root node and distinct arcs, form a
    branching rooted at their roots with each tree reached from its own
    root, else the first failing node: first one whose in-arc count is not
    one (zero at a root, with a repeated root counted as an in-arc), then
    the first that no root reaches through its own tree's arcs, in node
    order."""
    src, dst = sel.src, sel.dst
    n = len(sel.nodes)
    missing = [1] * n  # in-arcs still wanted
    tree = [-1] * n  # the tree of each vertex's in-arcs
    out: list[list[int]] = [[] for _ in range(n)]
    for k, (r, arcs) in enumerate(trees):
        missing[r] -= 1
        for i in arcs:
            missing[dst[i]] -= 1
            tree[dst[i]] = k
            out[src[i]].append(dst[i])
    for v, d in enumerate(missing):
        if d:
            return v
    reached = bytearray(n)
    for k, (r, _) in enumerate(trees):
        reached[r] = 1
        queue = [r]
        for u in queue:
            for v in out[u]:
                if tree[v] == k and not reached[v]:
                    reached[v] = 1
                    queue.append(v)
    return reached.find(0)
