import random

import pytest
from hypothesis import settings, strategies as st

from lotcert import Multigraph, make_log
from lotcert.log_model import Log, reducedness_report

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

# One-vertex LOT, no edges.
TRIV = make_log(["x"], [])

# The unique reduced shape on a 3-vertex path.
PATH3 = make_log(["x", "y", "z"], [("e1", "x", "y", "z"), ("e2", "z", "y", "x")])

# PATH3 with its second edge reversed; the plus and minus link sides are trees.
PATH3_RHO = make_log(["x", "y", "z"], [("e1", "x", "y", "z"), ("e2", "y", "z", "x")])

# Violates compression: the label equals the target.
NONCOMP = make_log(["x", "y"], [("e", "x", "y", "y")])

# Reduced injective LOT whose subtree {e1,e2,e3} is a sub-LOT that is not
# boundary reduced (d is a leaf there and only labeled outside it).
BADSUB = make_log(
    ["a", "b", "c", "d", "p", "q", "r", "s"],
    [
        ("e1", "a", "b", "c"),
        ("e2", "b", "c", "a"),
        ("e3", "c", "d", "b"),
        ("e4", "b", "p", "r"),
        ("e5", "p", "q", "d"),
        ("e6", "q", "r", "s"),
        ("e7", "q", "s", "p"),
    ],
)


@pytest.fixture
def triv() -> Log:
    return TRIV


@pytest.fixture
def path3() -> Log:
    return PATH3


@pytest.fixture
def path3_rho() -> Log:
    return PATH3_RHO


@pytest.fixture
def noncomp() -> Log:
    return NONCOMP


@pytest.fixture
def badsub() -> Log:
    return BADSUB


@st.composite
def logs(draw, max_vertices=6, max_edges=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=max_edges))
    idx = st.integers(min_value=0, max_value=n - 1)
    edges = []
    for i in range(m):
        u, v, lab = draw(idx), draw(idx), draw(idx)
        edges.append((f"e{i + 1}", names[u], names[v], names[lab]))
    return make_log(names, edges)


@st.composite
def lofs(draw, max_vertices=7):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    names = [f"v{i}" for i in range(n)]
    edges = []
    k = 0
    for i in range(1, n):
        if draw(st.booleans()) and draw(st.booleans()):
            continue  # leave i in a new component
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        u, v = (parent, i) if draw(st.booleans()) else (i, parent)
        lab = draw(st.integers(min_value=0, max_value=n - 1))
        k += 1
        edges.append((f"e{k}", names[u], names[v], names[lab]))
    return make_log(names, edges)


def seeded_rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def path_lot(n: int, seed: int) -> Log:
    """A reduced injective LOT on a path of n vertices, seeded."""
    rng = random.Random(f"path:{n}:{seed}")
    names = [f"v{i}" for i in range(n)]
    while True:
        order = rng.sample(range(n), n)
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in zip(order, order[1:])]
        labels = rng.sample(range(n), n - 1)
        if any(lab in uv for uv, lab in zip(pairs, labels)):
            continue
        edges = [
            (f"e{i + 1}", names[u], names[v], names[lab])
            for i, ((u, v), lab) in enumerate(zip(pairs, labels))
        ]
        log = make_log(names, edges)
        if reducedness_report(log).reduced:
            return log


def nested_lot(k: int) -> Log:
    """The k-th LOT of a family whose relative certificates nest k levels
    deep: reduced and injective, on 2k + 3 vertices, each one a proper
    sub-LOT of the next.  The first is p0 p1 p2 with f1: p0 -> p1 : p2 and
    f2: p1 -> p2 : p0; the next adds a_i, b_i and the edges
    x_i: x -> a_i : b_i and y_i: a_i -> b_i : r, for x the newest vertex
    and r the one non-label vertex."""
    return _grown(["p0", "p1", "p2"], [("f1", "p0", "p1", "p2"), ("f2", "p1", "p2", "p0")], "p1", k)


def bad_nested_lot(k: int) -> Log:
    """nested_lot's chain grown k steps from q0 q1 q2 q3, with
    g1: q0 -> q1 : q2, g2: q1 -> q2 : q0 and g3: q2 -> q3 : q1, from the
    non-label vertex q3: injective on 2k + 4 vertices, reduced from k = 1
    on, with the one bad sub-LOT g1 g2 g3, whose leaf q3 labels none of
    its edges."""
    edges = [("g1", "q0", "q1", "q2"), ("g2", "q1", "q2", "q0"), ("g3", "q2", "q3", "q1")]
    return _grown(["q0", "q1", "q2", "q3"], edges, "q3", k)


def _grown(vertices: list, edges: list, root: str, k: int) -> Log:
    """The LOT grown k steps from vertices and edges, with root its one
    non-label vertex: each step adds a_i, b_i and the edges
    x_i: x -> a_i : b_i and y_i: a_i -> b_i : root, for x the newest
    vertex, and a_i becomes the root."""
    for i in range(k):
        x, a, b = vertices[-1], f"a{i}", f"b{i}"
        vertices += [a, b]
        edges += [(f"x{i}", x, a, b), (f"y{i}", a, b, root)]
        root = a
    return make_log(vertices, edges)


def degrees(g) -> dict:
    """Node degrees of a Multigraph; a loop counts twice."""
    deg = dict.fromkeys(g.nodes, 0)
    for _, u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def flipped(node: str) -> str:
    """The link node of the same vertex with the other sign."""
    return node[:-1] + ("-" if node.endswith("+") else "+")


def multigraph(nodes, edges) -> Multigraph:
    """A Multigraph on the given nodes and (key, u, v) edges, its integer
    tail and head numbered from the node order."""
    index = {n: i for i, n in enumerate(nodes)}
    return Multigraph(
        tuple(nodes),
        tuple(edges),
        [index[u] for _, u, _ in edges],
        [index[v] for _, _, v in edges],
    )


def induced_subgraph(g, nodes):
    """Full subgraph of a Multigraph: keeps the edges with both ends among the nodes."""
    nset = set(nodes)
    return multigraph(
        [n for n in g.nodes if n in nset],
        [e for e in g.edges if e[1] in nset and e[2] in nset],
    )


def edge_deleted_lofs(ns, seeds) -> list[Log]:
    """The reduced LOFs among random_reduced_injective_lot(n, s) with one to
    three edges deleted, drawn by a seeded generator; deleting edges keeps
    the labels distinct, so they are injective too."""
    from lotcert.oracle import random_reduced_injective_lot

    out = []
    for n in ns:
        for s in seeds:
            lot = random_reduced_injective_lot(n, s)
            rng = seeded_rng("edge-deleted", n, s)
            drop = set(rng.sample([e.eid for e in lot.edges], rng.randint(1, min(3, len(lot.edges)))))
            lof = Log(lot.vertices, tuple(e for e in lot.edges if e.eid not in drop))
            if lof.reducedness.reduced:
                out.append(lof)
    return out
