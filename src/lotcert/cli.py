"""Command line front end.

Exit codes: 0 success, 1 property failure or an input nested too deeply
or too large to certify, 2 parse error or a file that cannot be read or
written, 3 hypothesis failure (including the non-generic relative case).
All outputs are UTF-8 with LF line endings and are deterministic functions
of inputs, flags and seeds.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import hashlib
import os
import re
import stat
import sys
from pathlib import Path

from . import arborescence, certify, log_model
from .link_complex import grow_forest, is_forest, link_to_dot, parse_corner_key
from .log_model import (
    Log,
    ParseError,
    bad_sub_lot_witnesses,
    non_label_vertices,
    parse_log,
    reduce_log,
    serialize_log,
)
from .selection import selection_to_dot

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3


_UNDECODED = re.compile("[\udc80-\udcff]")  # a non-UTF-8 byte under surrogateescape


def _load(path: str) -> Log:
    """Parse FILE as UTF-8 with a leading BOM dropped and newlines read as
    text mode reads them; a non-UTF-8 byte is a ParseError at its place."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    bad = _UNDECODED.search(text)
    if bad:
        lines = (text[: bad.start()] + "x").splitlines()  # the last one holds the byte
        message = f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}"
        raise ParseError(message, len(lines), len(lines[-1]))
    return parse_log(text)


def _write(path: Path, text: str) -> None:
    """Replace the contents of path with text.

    A regular file is overwritten in place and then cut to length, not
    emptied first: on ext4 (auto_da_alloc) rewriting a file that was
    truncated to zero forces a flush when it is closed, which stalls every
    certify call for as long as the disk takes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def cmd_validate(args) -> int:
    log = _load(args.file)
    rep, cls = log.reducedness, log.log_class
    payload = {
        "boundary_reduced": {"ok": rep.boundary_reduced.ok, "witnesses": list(rep.boundary_reduced.witnesses)},
        "interior_reduced": {"ok": rep.interior_reduced.ok, "witnesses": [list(w) for w in rep.interior_reduced.witnesses]},
        "compressed": {"ok": rep.compressed.ok, "witnesses": list(rep.compressed.witnesses)},
        "injective": {"ok": rep.injective.ok, "witnesses": [list(w) for w in rep.injective.witnesses]},
        "log_class": cls.kind,
        "components": cls.components,
    }
    ok = rep.reduced and rep.injective.ok and cls.kind in ("LOT", "LOF")
    if args.json:
        sys.stdout.write(certify.canonical_json(payload))
    else:
        for name in ("boundary_reduced", "interior_reduced", "compressed", "injective"):
            entry = payload[name]
            status = "ok" if entry["ok"] else f"FAIL {entry['witnesses']}"
            print(f"{name}: {status}")
        print(f"class: {cls.kind} ({cls.components} component(s))")
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_reduce(args) -> int:
    log = _load(args.file)
    reduced, moves = reduce_log(log)
    text = serialize_log(reduced)
    if args.output:
        _write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    for move in moves:
        print("# " + " ".join(str(x) for x in move), file=sys.stderr)
    return EXIT_OK


def cmd_certify(args) -> int:
    log = _load(args.file)
    cert = certify.certify_relative(log) if args.relative else certify.certify_lof(log)
    text = cert.to_json()
    if args.json:
        _write(Path(args.json), text)
    if args.dot:
        outdir = Path(args.dot)
        # the witnesses belong to the reduced LOG when reduction moved anything
        reduced = cert.witnesses.get("reduced_input")
        drawn = parse_log(reduced) if reduced is not None else log
        angles_raw = cert.witnesses.get("angles")
        angles = None
        if angles_raw:
            angles = {parse_corner_key(key): val for key, val in angles_raw.items()}
        partition_raw = cert.witnesses.get("partition")
        partition = None
        if partition_raw:
            partition = {parse_corner_key(key): color for key, color in partition_raw.items()}
        _write(outdir / "link.dot", link_to_dot(drawn.link, angles))
        sel = drawn.selection
        if partition is not None:
            partition = {a.key: partition.get(a.key, "black") for a in sel.arcs}
        _write(outdir / "selection.dot", selection_to_dot(sel, partition))

    top = "relative_coloring_test" if args.relative else "DR_claim"
    verdict = cert.verdicts[top]
    print(f"{top}: {verdict}")
    if not args.json:
        sys.stdout.write(text)
    if verdict is True:
        return EXIT_OK
    if verdict in (certify.HYPOTHESIS_FAILED, certify.NON_GENERIC):
        return EXIT_HYPOTHESIS
    return EXIT_PROPERTY


def cmd_export(args) -> int:
    log = _load(args.file)
    if args.what == "link":
        text = link_to_dot(log.link)
    else:
        text = selection_to_dot(log.selection)
    if args.dot:
        _write(Path(args.dot), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    from . import oracle  # imported by its only users, off the certify path

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    instances = []
    for i in range(args.count):
        instance_seed = args.seed * 1_000_003 + i
        log = oracle.random_reduced_injective_lot(args.n, instance_seed)
        text = serialize_log(log)
        name = f"lot_n{args.n}_s{args.seed}_{i:03d}.lot"
        _write(outdir / name, text)
        rep = log.reducedness
        bad = bad_sub_lot_witnesses(log)
        instances.append(
            {
                "file": name,
                "seed": instance_seed,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "vertices": len(log.vertices),
                "edges": len(log.edges),
                "flags": {
                    "reduced": rep.reduced,
                    "injective": rep.injective.ok,
                    "log_class": log.log_class.kind,
                    "all_sub_lots_boundary_reduced": not bad,
                    "bad_sub_lot_count": len(bad),
                },
            }
        )
    manifest = {
        "schema": 2,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "instances": instances,
    }
    _write(outdir / "manifest.json", certify.canonical_json(manifest))
    print(f"wrote {args.count} instance(s) to {outdir}")
    return EXIT_OK


def _names_a_bad_sub_lot(log: Log, cut: dict) -> bool:
    """Do the cut's vertices and leaf, with its edges, form a sub-LOT whose
    leaf has degree 1 and labels none of them (on an injective LOF, the one
    vertex that labels none), and is the cut entered by one arc?"""
    leaf, inside = cut["leaf"], set(cut["vertices"])
    vertices = tuple(v for v in log.vertices if v in inside or v == leaf)
    sub = log_model.SubLog(vertices, tuple(cut["edges"]), True, False)
    try:
        log_model.validate_sub_lot(log, sub)
    except ValueError:
        return False
    one_arc = arborescence.cut_delta(log.selection, inside) == cut["delta"] == 1
    return one_arc and leaf not in inside and log_model._bad_leaf(log_model._sub_edges(log, sub)) == leaf


def cmd_oracle_check(args) -> int:
    from . import oracle

    log = _load(args.file)
    cert = certify.certify_lof(log)
    checks = []

    g = log.link
    find = grow_forest(g, (), range(len(g.tail)))[0].find
    rank = len(g.tail) - g.node_count + len({find(u) for u in range(g.node_count)})
    # the link has at most 2^rank cycles; enumerate them under the sign-search cap
    if rank <= oracle._cap(None, oracle.DEFAULT_LBF_CAP):
        forest_fast = is_forest(g)[0]
        forest_slow = not oracle.enumerate_simple_cycles(g, max_len=len(g.edges))
        checks.append(("forest-vs-cycle-enumeration", forest_fast == forest_slow))

    sel = log.selection
    roots = non_label_vertices(log) or log.vertices[:1]
    if roots:
        # the production branchings start from every root; the references
        # see them as one added root joined by two arcs to each of them
        graph, root = arborescence.with_added_root(sel, roots)
        cut_result = arborescence.edmonds_condition(graph, root)
        ok_cut = cut_result[0]
        checks.append(
            ("cut-condition-vs-max-flow", cut_result == oracle.flow_cut_condition(graph, root))
        )
        try:
            ok_sets = oracle.exhaustive_cut_condition(graph, root)
            checks.append(("cut-condition-vs-subset-enumeration", ok_cut == ok_sets))
        except oracle.CapExceeded:
            pass
        try:
            arborescence.two_disjoint_branchings(sel, roots)
            constructed = True
        except RuntimeError:  # the construction stalled
            constructed = False
        checks.append(("branchings-iff-cut-condition", constructed == ok_cut))
        if log.log_class.kind in ("LOT", "LOF") and log.reducedness.injective.ok:
            # the branchings exist iff no closure is bad, reduced or not (README)
            no_bad = not bad_sub_lot_witnesses(log)
            checks.append(("branchings-iff-no-bad-closure", constructed == no_bad))
            # the certificate's cut names a bad sub-LOT exactly when a closure is bad
            cut = cert.witnesses.get("cut")
            named = no_bad if cut is None else not no_bad and _names_a_bad_sub_lot(log, cut)
            checks.append(("cut-iff-bad-closure", named))
        try:
            brute = oracle.exhaustive_branching_search(graph, root)
            checks.append(("branchings-vs-brute-force", constructed == (brute is not None)))
        except oracle.CapExceeded:
            pass

    try:
        hits = oracle.exhaustive_lbf_search(log)
        if cert.verdicts["lbf"] in (True, False):
            checks.append(("pipeline-vs-sign-search", cert.verdicts["lbf"] == bool(hits)))
    except oracle.CapExceeded:
        pass

    ok = True
    for name, good in checks:
        print(f"{name}: {'PASS' if good else 'FAIL'}")
        ok = ok and good
    return EXIT_OK if ok else EXIT_PROPERTY


def _at_least(low: int, name: str):
    """An argparse type for an int of at least low, named in the error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotcert",
        description="Asphericity certificates for labeled oriented graph complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="reducedness/injectivity report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce", help="apply reduction moves to a fixed point")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="produce an asphericity certificate")
    p.add_argument("file")
    p.add_argument("--relative", action="store_true")
    p.add_argument("--json", metavar="OUT")
    p.add_argument("--dot", metavar="DIR")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("export", help="DOT export of the link or selection graph")
    p.add_argument("file")
    p.add_argument("what", choices=["link", "selection"])
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("generate", help="reproducible random LOT corpus")
    p.add_argument("n", type=_at_least(3, "n"))  # the random LOT generator needs n >= 3
    p.add_argument("count", type=_at_least(0, "count"))
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle-check", help="cross-check fast paths against brute force")
    p.add_argument("file")
    p.set_defaults(func=cmd_oracle_check)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process on its first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RecursionError, MemoryError) as exc:
        # the exit code an uncaught exception gives, without the traceback
        print(f"error: input nested too deeply or too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    raise SystemExit(main())
