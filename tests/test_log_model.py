import itertools
import time

import pytest
from hypothesis import example, given, strategies as st

from conftest import BADSUB, NONCOMP, PATH3, PATH3_RHO, TRIV, logs, lofs, path_lot, seeded_rng
from lotcert import (
    ParseError,
    bad_sub_lot_witnesses,
    classify,
    enumerate_sub_lots,
    make_log,
    maximal_proper_sub_lots,
    non_label_vertices,
    parse_log,
    quotient_lof,
    reduce_log,
    reducedness_report,
    serialize_log,
)
from lotcert.log_model import (
    Log,
    _closure_table,
    _sub_lot,
    _valid_name,
    apply_reduction_move,
    find_reduction_move,
)
from lotcert.oracle import (
    block_reorient,
    fixpoint_maximal_sub_lots,
    random_lof,
    random_log,
    random_reduced_injective_lot,
    rescan_reduction_move,
    reorient,
)


# ---------------------------------------------------------------------------
# parsing and serialization


def _valid_name_by_scan(tok: str) -> bool:
    """_valid_name as a per-character scan, the reference for the test below."""
    return (
        bool(tok)
        and tok != "->"
        and not any(c in tok for c in ":#\t\n\r ")
        and tok == tok.strip()
    )


NAME_PIECES = [":", "#", "\t", "->", "-", ">", "\x0b", " ", "\n", "\r", "\xa0", "x", "é"]


@given(st.lists(st.sampled_from(NAME_PIECES)).map("".join) | st.text())
def test_valid_name_matches_scan(tok):
    assert _valid_name(tok) == _valid_name_by_scan(tok)


def _parse_log_by_regex(text: str) -> Log:
    """parse_log with a regex pass and a token check per token, the
    reference for the test below."""
    import re

    def check(tok, what, line, col):
        if not tok or ":" in tok or "#" in tok or tok == "->":
            raise ParseError(f"invalid {what} {tok!r}", line, col)

    token = re.compile(r"\S+")

    def tokens(line, start, end=None):
        end = len(line) if end is None else end
        return [(m.group(), m.start() + 1) for m in token.finditer(line, start, end)]

    vertices, vertex_set, header_seen, raw_edges, explicit_ids = [], set(), False, [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        if not header_seen:
            if not stripped.startswith("vertices:"):
                raise ParseError("expected 'vertices:' header", lineno, col)
            header_seen = True
            for tok, tcol in tokens(line, col - 1 + len("vertices:")):
                check(tok, "vertex name", lineno, tcol)
                if tok in vertex_set:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno, tcol)
                vertices.append(tok)
                vertex_set.add(tok)
            continue
        if not re.match(r"edge(?:[\s:]|\Z)", stripped):
            raise ParseError("expected an 'edge' line", lineno, col)
        head, sep, _ = stripped.partition(":")
        if not sep:
            raise ParseError("missing ':' after edge id", lineno, col)
        id_toks = tokens(line, col - 1 + len("edge"), col - 1 + len(head))
        if len(id_toks) > 1:
            raise ParseError("malformed edge id", lineno, col)
        eid = id_toks[0][0] if id_toks else None
        if eid is not None:
            check(eid, "edge id", lineno, id_toks[0][1])
            if eid in explicit_ids:
                raise ParseError(f"duplicate edge id {eid!r}", lineno, id_toks[0][1])
            explicit_ids.add(eid)
        toks = tokens(line, col + len(head))
        if len(toks) != 5 or toks[1][0] != "->" or toks[3][0] != ":":
            raise ParseError("expected '<src> -> <tgt> : <label>'", lineno, col)
        ends = (toks[0], toks[2], toks[4])
        for tok, tcol in ends:
            check(tok, "vertex name", lineno, tcol)
        for tok, tcol in ends:
            if tok not in vertex_set:
                raise ParseError(f"unknown vertex {tok!r}", lineno, tcol)
        raw_edges.append((eid, ends[0][0], ends[1][0], ends[2][0]))
    if not header_seen:
        raise ParseError("empty document, expected 'vertices:' header", max(1, text.count("\n") + 1))
    edges, counter = [], 1
    for eid, src, tgt, lab in raw_edges:
        if eid is None:
            while f"e{counter}" in explicit_ids:
                counter += 1
            eid = f"e{counter}"
            explicit_ids.add(eid)
        edges.append((eid, src, tgt, lab))
    return make_log(vertices, edges)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


TEXT_PIECES = [
    "vertices:", "vertices: x y z", "edge", "edge ", "edgee2:", "edge e1:", "edge:", ":", "#",
    "->", " -> ", " : ", "x", "y", "z", "q", "e1", "e2", " ", "\t", "\x0b", "\x1c", "\xa0",
    "\n", "\r\n", "\r", "\nedge: x -> y : z", "\nedgee2: z -> y : x", "\n edge e1 : y -> x : x",
]


@st.composite
def mutated_documents(draw):
    """The text of a drawn LOG with a few pieces inserted anywhere."""
    text = serialize_log(draw(logs()))
    for piece in draw(st.lists(st.sampled_from(TEXT_PIECES), max_size=3)):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + piece + text[i:]
    return text


@given(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=30).map("".join)
    | mutated_documents()
    | st.text()
)
@example("vertices: x y z\nedgee2: z -> y : x\n")  # the derandomized draws miss it
def test_parse_matches_regex_reference(text):
    parsed = _parse_outcome(parse_log, text)
    assert parsed == _parse_outcome(_parse_log_by_regex, text)
    if isinstance(parsed, Log):
        # parse_log builds without a second check; the checked constructor agrees
        assert Log(parsed.vertices, parsed.edges) == parsed


def test_parse_single_vertex():
    assert parse_log("vertices: x\n") == TRIV


def test_parse_two_edges():
    text = "vertices: x y z\nedge e1: x -> y : z\nedge e2: z -> y : x\n"
    assert parse_log(text) == PATH3


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nvertices: x y z # inline\n\nedge e1: x -> y : z\nedge e2: z -> y : x\n"
    assert parse_log(text) == PATH3


def test_parse_auto_edge_ids():
    log = parse_log("vertices: x y z\nedge: x -> y : z\nedge: z -> y : x\n")
    assert log.edge_ids() == ("e1", "e2")
    assert log == PATH3


def test_parse_auto_ids_skip_taken():
    log = parse_log("vertices: x y z\nedge e1: x -> y : z\nedge: z -> y : x\n")
    assert log.edge_ids() == ("e1", "e2")


def test_parse_unknown_vertex():
    with pytest.raises(ParseError) as exc:
        parse_log("vertices: x y\nedge e: x -> q : y\n")
    assert "unknown vertex 'q'" in str(exc.value)
    assert exc.value.line == 2


def test_parse_duplicate_vertex():
    with pytest.raises(ParseError):
        parse_log("vertices: x x\n")


def test_parse_reports_the_column_of_the_offending_token():
    # the unknown 'q' also occurs inside the edge id 'eq'
    with pytest.raises(ParseError) as exc:
        parse_log("vertices: a b\nedge eq: a -> q : b\n")
    assert (exc.value.line, exc.value.column) == (2, 15)
    # the first 'x' is not the duplicate
    with pytest.raises(ParseError) as exc:
        parse_log("vertices: x y x\n")
    assert (exc.value.line, exc.value.column) == (1, 15)


@pytest.mark.parametrize("line", ["edges: x -> y : x", "edgehead: x -> y : x", "edge_1: x -> y : x"])
def test_parse_requires_the_edge_keyword_to_end(line):
    # these once read as edges with ids 's', 'head' and '_1'
    with pytest.raises(ParseError) as exc:
        parse_log(f"vertices: x y\n  {line}\n")
    assert str(exc.value) == "line 2, column 3: expected an 'edge' line"
    assert (exc.value.line, exc.value.column) == (2, 3)
    for ok in ("edge: x -> y : x", "edge\tf: x -> y : x", "edge\xa0f : x -> y : x"):
        assert len(parse_log(f"vertices: x y\n{ok}\n").edges) == 1


def test_parse_duplicate_edge_id():
    with pytest.raises(ParseError):
        parse_log("vertices: x y\nedge e: x -> y : x\nedge e: y -> x : y\n")


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_log("vertices: x y\nedge e: x y\n")
    assert exc.value.line == 2


def test_serialize_single_vertex():
    assert serialize_log(TRIV) == "vertices: x\n"


def test_serialize_reoriented_edge_line():
    assert "edge e2: y -> z : x" in serialize_log(PATH3_RHO).splitlines()


@given(logs())
def test_round_trip(log):
    assert parse_log(serialize_log(log)) == log


def test_round_trip_with_unusual_names():
    log = make_log(
        ["x_1", "α", "a'b", "<w>"],
        [("e-1", "x_1", "α", "a'b"), ("e.2", "a'b", "<w>", "x_1")],
    )
    assert parse_log(serialize_log(log)) == log


def test_hash_starts_comment_even_inside_a_word():
    assert parse_log("vertices: a#b c\n").vertices == ("a",)


def test_log_rejects_unrepresentable_names():
    with pytest.raises(ValueError):
        make_log(["a#b"], [])
    with pytest.raises(ValueError):
        make_log(["a:b"], [])
    with pytest.raises(ValueError):
        make_log(["x"], [("e 1", "x", "x", "x")])


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(TRIV) == classify(PATH3).__class__("LOT", 1)
    assert classify(PATH3).kind == "LOT"
    cyclic = make_log(
        ["x", "y", "z"],
        [("e1", "x", "y", "z"), ("e2", "z", "y", "x"), ("e3", "x", "z", "y")],
    )
    assert classify(cyclic).kind == "GeneralLOG"
    assert classify(cyclic).components == 1
    forest = make_log(["x", "y", "z", "w"], [("e1", "x", "y", "z")])
    assert classify(forest).kind == "LOF"
    assert classify(forest).components == 3


# ---------------------------------------------------------------------------
# reducedness


def test_reducedness_path3():
    rep = reducedness_report(PATH3)
    assert rep.boundary_reduced.ok and rep.interior_reduced.ok
    assert rep.compressed.ok and rep.injective.ok


def test_reducedness_noncompressed_witness():
    rep = reducedness_report(NONCOMP)
    assert not rep.compressed.ok
    assert rep.compressed.witnesses == ("e",)


def test_reducedness_badsub_is_clean():
    rep = reducedness_report(BADSUB)
    assert rep.reduced and rep.injective.ok


def test_interior_witness():
    log = make_log(
        ["a", "b", "c", "z"],
        [("e1", "a", "b", "z"), ("e2", "a", "c", "z")],
    )
    rep = reducedness_report(log)
    assert not rep.interior_reduced.ok
    assert ("a", "e1", "e2") in rep.interior_reduced.witnesses


@given(logs())
def test_injective_implies_interior_reduced(log):
    rep = reducedness_report(log)
    if rep.injective.ok:
        assert rep.interior_reduced.ok


# ---------------------------------------------------------------------------
# reduction


def test_reduce_already_reduced():
    out, moves = reduce_log(PATH3)
    assert out == PATH3 and moves == ()


def test_reduce_compression():
    out, moves = reduce_log(NONCOMP)
    assert len(out.vertices) == 1 and not out.edges
    assert moves[0][0] == "compress" and moves[0][1] == "e"


def test_reduce_boundary_move():
    log = make_log(
        ["x", "y", "z", "w"],
        [("e1", "x", "y", "z"), ("e2", "z", "y", "x"), ("e3", "y", "w", "x")],
    )
    # w has valency 1 and never occurs as a label
    out, moves = reduce_log(log)
    assert ("boundary", "w", "e3") in moves
    assert out == PATH3


def test_reduce_moves_replay():
    log = make_log(
        ["x", "y", "z", "w"],
        [("e1", "x", "y", "z"), ("e2", "z", "y", "x"), ("e3", "y", "w", "x")],
    )
    out, moves = reduce_log(log)
    replay = log
    for move in moves:
        replay = apply_reduction_move(replay, move)
    assert replay == out


@given(logs())
def test_reduce_idempotent(log):
    out, _ = reduce_log(log)
    again, moves = reduce_log(out)
    assert moves == () and again == out
    assert find_reduction_move(out) is None


@given(logs())
def test_reduce_reaches_reduced_state(log):
    out, _ = reduce_log(log)
    assert reducedness_report(out).reduced


@given(lofs())
def test_reduce_preserves_forest_class(log):
    out, _ = reduce_log(log)
    assert classify(out).kind in ("LOF", "LOT")


def uniform_label_tree(n: int, seed: int) -> Log:
    """A random tree, each vertex joined to a random earlier one in a random
    direction, with uniformly drawn labels."""
    rng = seeded_rng("uniform-tree", n, seed)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        u, w = (i, j) if rng.random() < 0.5 else (j, i)
        edges.append((f"e{i}", names[u], names[w], names[rng.randrange(n)]))
    return make_log(names, edges)


def few_label_tree(n: int, k: int, seed: int) -> Log:
    """uniform_label_tree with every label drawn from the first k vertices."""
    rng = seeded_rng("few-label-tree", n, k, seed)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        u, w = (i, j) if rng.random() < 0.5 else (j, i)
        edges.append((f"e{i}", names[u], names[w], names[rng.randrange(k)]))
    return make_log(names, edges)


def one_label_star(m: int) -> Log:
    """m edges between a center and its leaves, in random directions, all
    labeled by one vertex outside the star."""
    rng = seeded_rng("star", m)
    names = ["c", "x"] + [f"v{i}" for i in range(m)]
    ends = [("c", f"v{i}") if rng.random() < 0.5 else (f"v{i}", "c") for i in range(m)]
    return make_log(names, [(f"e{i}", u, w, "x") for i, (u, w) in enumerate(ends)])


def rescanned_reduction(log: Log) -> tuple[Log, tuple]:
    """reduce_log by the rescanning reference move finder."""
    moves = []
    while (move := rescan_reduction_move(log)) is not None:
        moves.append(move)
        log = apply_reduction_move(log, move)
    return log, tuple(moves)


def test_reduction_moves_match_the_rescan():
    # random LOGs have loops and repeated labels; LOFs have arbitrary labels
    corpus = [random_log(n, m, s) for n in range(1, 11) for m in range(2 * n + 3) for s in range(2)]
    corpus += [random_lof(n, s) for n in range(2, 30) for s in range(6)]
    corpus.append(uniform_label_tree(256, 0))
    moved = 0
    for log in corpus:
        reduced = reduce_log(log)
        assert reduced == rescanned_reduction(log)
        moved += bool(reduced[1])
    assert moved > len(corpus) // 2


@pytest.mark.parametrize(
    "log, bound",
    [(uniform_label_tree(1024, 0), 2.5), (one_label_star(600), 2.0), (few_label_tree(1200, 3, 0), 1.0)],
    ids=["uniform-label-tree-1024", "one-label-star-600", "three-label-tree-1200"],
)
def test_reduce_log_time_bound(log, bound):
    # a scan of every edge pair per move takes 4.7 s on the uniform tree; a
    # rebuild that re-checks every name and renames every edge per move
    # takes 2.6 s on the three-label tree
    t0 = time.perf_counter()
    _, moves = reduce_log(log)
    elapsed = time.perf_counter() - t0
    assert moves
    assert elapsed < bound, f"reduce_log took {elapsed:.3f} s ({len(moves)} moves)"


# ---------------------------------------------------------------------------
# reorientation


def test_reorient_examples():
    assert reorient(PATH3, {"e2"}) == PATH3_RHO
    assert reorient(PATH3, set()) == PATH3
    assert reorient(reorient(PATH3, {"e1", "e2"}), {"e1", "e2"}) == PATH3


def test_reorient_unknown_edge():
    with pytest.raises(ValueError):
        reorient(PATH3, {"nope"})


def test_block_reorient_examples():
    assert block_reorient(PATH3, {"x"}) == PATH3_RHO
    assert block_reorient(PATH3, {"y"}) == PATH3


@given(logs())
def test_reorient_involution(log):
    ids = log.edge_ids()
    for k in range(min(len(ids), 3) + 1):
        flips = set(ids[:k])
        assert reorient(reorient(log, flips), flips) == log


def test_injective_reorientation_is_block():
    # with distinct labels, flipping edges = block-reorienting their labels
    from lotcert import oracle

    log = oracle.random_reduced_injective_lot(7, 5)
    flips = set(log.edge_ids()[::2])
    labels = {e.lab for e in log.edges if e.eid in flips}
    assert reorient(log, flips) == block_reorient(log, labels)


# ---------------------------------------------------------------------------
# sub-LOTs


def brute_force_sub_lots(log):
    """Independent enumeration: all edge subsets, filtered directly."""
    out = set()
    for r in range(1, len(log.edges) + 1):
        for combo in itertools.combinations(log.edges, r):
            vs = {v for e in combo for v in (e.src, e.tgt)}
            if any(e.lab not in vs for e in combo):
                continue
            if len(vs) != r + 1:
                continue  # not a tree
            adj = {v: [] for v in vs}
            for e in combo:
                adj[e.src].append(e.tgt)
                adj[e.tgt].append(e.src)
            seen = {next(iter(vs))}
            stack = list(seen)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == len(vs):
                out.add(frozenset(e.eid for e in combo))
    return out


def test_sub_lots_path3():
    subs = enumerate_sub_lots(PATH3)
    assert [s.edge_ids for s in subs] == [("e1", "e2")]
    assert subs[0].is_boundary_reduced


def test_sub_lots_triv():
    assert enumerate_sub_lots(TRIV) == ()


def test_sub_lots_badsub():
    subs = enumerate_sub_lots(BADSUB)
    bad = [s for s in subs if not s.is_boundary_reduced]
    assert [s.edge_ids for s in bad] == [("e1", "e2", "e3")]
    assert bad[0].vertices == ("a", "b", "c", "d")


def test_sub_lots_max_size():
    subs = enumerate_sub_lots(BADSUB, max_size=3)
    assert all(len(s.vertices) <= 3 for s in subs)
    assert [s.edge_ids for s in subs] == [("e1", "e2")]


@given(logs(max_vertices=5, max_edges=6))
def test_sub_lots_match_brute_force(log):
    fast = {frozenset(s.edge_ids) for s in enumerate_sub_lots(log)}
    assert fast == brute_force_sub_lots(log)


def reference_maximal_proper(subs, log):
    """Inclusion-maximal enumerated sub-LOTs other than the whole graph."""
    all_edges = set(log.edge_ids())
    proper = [s for s in subs if set(s.edge_ids) != all_edges]
    return [s for s in proper if not any(set(s.edge_ids) < set(t.edge_ids) for t in proper)]


def random_forests():
    """Reduced injective LOTs, LOTs with arbitrary labels and LOFs, n <= 11."""
    for n in range(3, 12):
        for seed in range(50):
            yield random_reduced_injective_lot(n, seed)
            yield random_lof(n, seed, split_chance=0.0)
    for n in range(1, 12):
        for seed in range(50):
            yield random_lof(n, seed)


def test_sub_lot_closures_match_enumeration():
    for log in random_forests():
        subs = enumerate_sub_lots(log)
        bad = [s for s in subs if not s.is_boundary_reduced]
        witnesses = bad_sub_lot_witnesses(log)
        assert bool(witnesses) == bool(bad)
        assert all(w in bad for w in witnesses)
        assert len(witnesses) <= len(log.edges)
        assert list(maximal_proper_sub_lots(log)) == reference_maximal_proper(subs, log)


def test_closure_is_the_smallest_sub_lot_containing_the_edge():
    for log in random_forests():
        subs = [frozenset(s.edge_ids) for s in enumerate_sub_lots(log)]
        table = _closure_table(log)
        for i, e in enumerate(log.edges):
            around = [s for s in subs if e.eid in s]
            closure = table[i]
            if not around:
                assert closure is None
            else:
                assert {log.edges[j].eid for j in closure} == frozenset.intersection(*around)


@given(lofs())
def test_sub_lot_layer_matches_enumeration_on_drawn_lofs(log):
    subs = enumerate_sub_lots(log)
    bad = [s for s in subs if not s.is_boundary_reduced]
    assert bool(bad_sub_lot_witnesses(log)) == bool(bad)
    assert list(maximal_proper_sub_lots(log)) == reference_maximal_proper(subs, log)


def rerooted_closures(log):
    """closure(e) per edge index, by joining each label to e along the tree rooted at e's source."""
    edges = log.edges
    adj = {v: [] for v in log.vertices}
    for i, e in enumerate(edges):
        adj[e.src].append((i, e.tgt))
        adj[e.tgt].append((i, e.src))
    result = []
    for i, e in enumerate(edges):
        towards = {e.src: None}  # vertex -> (edge, next vertex) on the way to e.src
        queue = [e.src]
        for x in queue:
            for j, y in adj[x]:
                if y not in towards:
                    towards[y] = (j, x)
                    queue.append(y)
        eset, inside, pending = {i}, {e.src, e.tgt}, [e.lab]
        while pending:
            x = pending.pop()
            if x not in towards:
                eset = None
                break
            while x not in inside:
                j, y = towards[x]
                eset.add(j)
                inside.add(x)
                pending.append(edges[j].lab)
                x = y
        result.append(None if eset is None else frozenset(eset))
    return result


def closure_corpus():
    """Random LOTs and LOFs with n = 3..40, reduced injective LOTs up to
    n = 64, and 128-vertex paths."""
    for n in range(3, 41):
        for seed in range(4):
            yield random_reduced_injective_lot(n, seed)
            yield random_lof(n, seed, split_chance=0.0)
            yield random_lof(n, seed)
    for n in range(41, 65):
        for seed in range(2):
            yield random_reduced_injective_lot(n, seed)
    for seed in range(6):
        yield path_lot(128, seed)


def _assert_closure_table_matches(log):
    table = _closure_table(log)
    assert table == rerooted_closures(log)
    # one shared set per closure class
    assert len({id(c) for c in table if c is not None}) == len({c for c in table if c is not None})
    distinct = {tuple(sorted(c)) for c in table if c is not None}
    bad = sorted(
        (t for t in distinct if not _sub_lot(log, t).is_boundary_reduced), key=lambda t: (len(t), t)
    )
    assert [_sub_lot(log, t) for t in bad] == list(bad_sub_lot_witnesses(log))
    assert maximal_proper_sub_lots(log) == fixpoint_maximal_sub_lots(log)


def test_closure_table_matches_references():
    cases = many_classes = 0
    for log in closure_corpus():
        _assert_closure_table_matches(log)
        cases += 1
        many_classes += len(set(log.closures)) >= 5
    assert cases == 38 * 12 + 24 * 2 + 6
    # maximal_proper_sub_lots runs one pass per closure class
    assert many_classes >= 150


@given(lofs(max_vertices=12))
def test_closure_table_matches_references_on_drawn_lofs(log):
    _assert_closure_table_matches(log)


@pytest.mark.parametrize("fn", [bad_sub_lot_witnesses, maximal_proper_sub_lots])
@pytest.mark.parametrize("shape", ["random", "path"])
def test_sub_lot_layer_at_512_vertices(fn, shape):
    lot = random_reduced_injective_lot(512, 0) if shape == "random" else path_lot(512, 0)
    t0 = time.perf_counter()
    fn(lot)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"{fn.__name__} took {elapsed:.3f} s on a {shape} LOT at n=512"


def test_closure_table_near_linear_on_a_4096_vertex_path():
    # walks taken in edge order run to the far end of the path: O(n^2)
    lot = path_lot(4096, 0)
    for fn in (_closure_table, bad_sub_lot_witnesses):
        t0 = time.perf_counter()
        fn(lot)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"{fn.__name__} took {elapsed:.3f} s on a path at n=4096"


def test_maximal_sub_lots_on_a_4096_vertex_path():
    # a pass per edge rather than per closure class takes 0.41 s
    lot = path_lot(4096, 0)
    t0 = time.perf_counter()
    maximal_proper_sub_lots(lot)  # closure table included
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.2, f"maximal_proper_sub_lots took {elapsed:.3f} s on a path at n=4096"


def test_sub_lot_witnesses_badsub():
    assert [w.edge_ids for w in bad_sub_lot_witnesses(BADSUB)] == [("e1", "e2", "e3")]
    assert bad_sub_lot_witnesses(PATH3) == bad_sub_lot_witnesses(TRIV) == ()


def test_sub_lot_layer_rejects_cycles():
    cyclic = make_log(["x", "y"], [("e1", "x", "y", "x"), ("e2", "y", "x", "y")])
    with pytest.raises(ValueError):
        bad_sub_lot_witnesses(cyclic)
    with pytest.raises(ValueError):
        maximal_proper_sub_lots(make_log(["x"], [("e1", "x", "x", "x")]))


# ---------------------------------------------------------------------------
# quotients


def test_quotient_identity():
    out, vmap = quotient_lof(PATH3, [], [])
    assert out == PATH3
    assert vmap == {v: v for v in PATH3.vertices}


def test_quotient_collapses_bad_sub_lot():
    subs = enumerate_sub_lots(BADSUB)
    part = next(s for s in subs if not s.is_boundary_reduced)
    out, vmap = quotient_lof(BADSUB, [part], [part.vertices[0]])
    assert len(out.vertices) == len(BADSUB.vertices) - (len(part.vertices) - 1)
    assert classify(out).kind == "LOT"
    # edges outside the part survive bijectively
    survivors = {e.eid for e in out.edges}
    assert survivors == set(BADSUB.edge_ids()) - set(part.edge_ids)
    # the edge labeled inside the part is relabeled to the representative
    assert next(e for e in out.edges if e.eid == "e5").lab == "a"


def test_quotient_whole_graph_to_point():
    subs = enumerate_sub_lots(PATH3)
    whole = subs[0]
    out, _ = quotient_lof(PATH3, [whole], ["y"])
    assert out.vertices == ("y",) and not out.edges


def test_quotient_rejects_overlapping_parts():
    subs = enumerate_sub_lots(BADSUB)
    small = next(s for s in subs if s.edge_ids == ("e1", "e2"))
    big = next(s for s in subs if s.edge_ids == ("e1", "e2", "e3"))
    with pytest.raises(ValueError):
        quotient_lof(BADSUB, [small, big], ["a", "a"])


def test_quotient_rejects_outside_representative():
    subs = enumerate_sub_lots(PATH3)
    with pytest.raises(ValueError):
        quotient_lof(PATH3, [subs[0]], ["nope"])


# ---------------------------------------------------------------------------
# non-label vertices


def test_non_label_examples():
    assert non_label_vertices(PATH3) == ("y",)
    assert non_label_vertices(TRIV) == ("x",)


def test_injective_lot_has_unique_non_label():
    from lotcert import oracle

    for seed in range(10):
        log = oracle.random_reduced_injective_lot(6, seed)
        assert len(non_label_vertices(log)) == 1
