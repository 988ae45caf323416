"""Cycle witnesses of the link checks are pinned, walk for walk.

A failing forest, bi-forest or coloring check returns a closed walk as its
witness.  The digest below covers every walk these checks return over a fixed
corpus of random LOGs (with loops and parallel corners in their links) and of
sign and angle choices that fail, so a change to the search order behind any
witness shows here even when every verdict stays the same.  Each
walk is also checked to be a closed walk of the graph that was checked, made
of distinct corners, and closed by a corner the check rejects.
"""

import hashlib

from conftest import seeded_rng
from lotcert import Multigraph, build_link, is_forest, verify_coloring_test
from lotcert.certify import lbf_check, strong_lbf_check
from lotcert.link_complex import CORNER_KINDS, verify_relative_coloring_test
from lotcert.log_model import enumerate_sub_lots
from lotcert.oracle import random_log

WITNESS_DIGEST = "32bec9a5391561ebcd185d9cdff994ffdbdf103c4c0750b3f84aebcca176f403"


def _corpus():
    for n in range(2, 8):
        for m in range(1, 7):
            for seed in range(6):
                yield random_log(n, m, seed)


def _closed_walk(walk, ends, allowed) -> None:
    """walk is a closed walk over distinct corners, each in allowed."""
    assert len(walk.nodes) == len(walk.edges) + 1 >= 2
    assert walk.nodes[0] == walk.nodes[-1]
    assert len(set(walk.edges)) == len(walk.edges)
    for i, key in enumerate(walk.edges):
        assert key in allowed, key
        assert sorted(ends[key]) == sorted(walk.nodes[i : i + 2]), key


def _witnesses():
    """(check, walk, extra) for every failing check over the corpus, in order."""
    loops = parallels = 0
    for number, log in enumerate(_corpus()):
        link = build_link(log)
        ends = {key: (u, v) for key, u, v in link.edges}
        pairs = [frozenset((u, v)) for _, u, v in link.edges]
        loops += sum(1 for _, u, v in link.edges if u == v)
        parallels += len(pairs) - len(set(pairs))
        rng = seeded_rng("witness", number)

        ok, walk = is_forest(Multigraph(link.nodes, link.edges, link.tail, link.head))
        if walk is not None:
            _closed_walk(walk, ends, ends)
            yield "is_forest", walk, None

        strong = strong_lbf_check(log)
        if strong.cycle is not None:
            sign = "+" if strong.cycle_side == "plus" else "-"
            side = {key for key, (u, v) in ends.items() if u[-1] == v[-1] == sign}
            _closed_walk(strong.cycle, ends, side)
            yield "strong_lbf_check", strong.cycle, strong.cycle_side

        for _ in range(3):
            eps = {v: rng.choice("+-") for v in log.vertices}
            res = lbf_check(log, eps)
            if res.cycle is None:
                continue
            on = {v + s for v, s in eps.items()}
            inside = res.cycle_side == "epsilon"
            side = {key for key, (u, v) in ends.items() if (u in on) == (v in on) == inside}
            _closed_walk(res.cycle, ends, side)
            yield "lbf_check", res.cycle, res.cycle_side

        subs = enumerate_sub_lots(log, max_size=3)
        for _ in range(3):
            angles = {(e.eid, k): rng.randint(0, 1) for e in log.edges for k in CORNER_KINDS}
            zero = {key for key, a in angles.items() if a == 0}
            res = verify_coloring_test(log, angles)
            if res.bad_cycle is not None:
                closing = res.bad_cycle.edges[-1]
                _closed_walk(res.bad_cycle, ends, zero | {closing})
                assert angles[closing] == res.bad_cycle_angle
                assert sum(angles[k] for k in res.bad_cycle.edges) == res.bad_cycle_angle
                yield "verify_coloring_test", res.bad_cycle, res.bad_cycle_angle

            parts, taken = [], set()
            for s in subs:
                if rng.random() < 0.5 and not taken & set(s.edge_ids):
                    parts.append(s)
                    taken |= set(s.edge_ids)
            res = verify_relative_coloring_test(log, parts, angles)
            if res.bad_cycle is not None:
                closing = res.bad_cycle.edges[-1]
                _closed_walk(res.bad_cycle, ends, zero | {closing})
                assert angles[closing] == res.bad_cycle_angle
                assert sum(angles[k] for k in res.bad_cycle.edges) == res.bad_cycle_angle
                if res.bad_cycle_angle == 0:
                    assert closing[0] not in taken
                yield "verify_relative_coloring_test", res.bad_cycle, res.bad_cycle_angle
    assert loops > 0 and parallels > 0


def test_witness_walks_are_pinned():
    found = list(_witnesses())
    # every check and every outcome it can report occurs in the corpus
    assert {(check, extra) for check, _, extra in found} == {
        ("is_forest", None),
        ("strong_lbf_check", "plus"),
        ("strong_lbf_check", "minus"),
        ("lbf_check", "epsilon"),
        ("lbf_check", "minus_epsilon"),
        ("verify_coloring_test", 0),
        ("verify_coloring_test", 1),
        ("verify_relative_coloring_test", 0),
        ("verify_relative_coloring_test", 1),
    }
    lines = [repr((check, walk.nodes, walk.edges, extra)) for check, walk, extra in found]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WITNESS_DIGEST
