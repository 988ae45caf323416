import json
import os
import sys
from pathlib import Path

import orjson
import pytest

from conftest import BADSUB, NONCOMP, PATH3, TRIV, edge_deleted_lofs, nested_lot, path_lot
from lotcert import certify_lof, certify_relative, cli
from lotcert.cli import _parser, main
from lotcert.log_model import Log, bad_sub_lot_witnesses, parse_log, serialize_log
from lotcert.oracle import random_reduced_injective_lot


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, log in (("path3", PATH3), ("triv", TRIV), ("noncomp", NONCOMP), ("badsub", BADSUB)):
        p = tmp_path / f"{name}.lot"
        p.write_text(serialize_log(log), encoding="utf-8")
        out[name] = str(p)
    bad = tmp_path / "broken.lot"
    bad.write_text("vertices: x\nedge e: x -> q : x\n", encoding="utf-8")
    out["broken"] = str(bad)
    return out


def test_validate_exit_codes(files, capsys):
    assert main(["validate", files["path3"]]) == 0
    assert main(["validate", files["noncomp"]]) == 1
    out = capsys.readouterr().out
    assert "e" in out and "compressed" in out
    assert main(["validate", files["broken"]]) == 2


def test_validate_json(files, capsys):
    assert main(["validate", files["path3"], "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["log_class"] == "LOT"
    assert data["compressed"]["ok"] is True


def test_reduce_command(files, tmp_path, capsys):
    out = tmp_path / "reduced.lot"
    assert main(["reduce", files["noncomp"], "-o", str(out)]) == 0
    assert out.read_text() == "vertices: x\n"
    err = capsys.readouterr().err
    assert "compress" in err


def test_certify_exit_codes(files, tmp_path, capsys):
    assert main(["certify", files["path3"]]) == 0
    capsys.readouterr()
    assert main(["certify", files["badsub"]]) == 3
    out = capsys.readouterr().out
    assert "hypothesis-failed" in out
    assert main(["certify", files["badsub"], "--relative"]) == 0


def test_one_parser_keeps_no_options_between_calls(files, tmp_path, capsys):
    assert _parser() is _parser()
    out = tmp_path / "cert.json"
    assert main(["certify", files["badsub"], "--relative", "--json", str(out)]) == 0
    relative_text = out.read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["certify", files["badsub"]]) == 3
    stdout = capsys.readouterr().out
    assert stdout == "DR_claim: hypothesis-failed\n" + certify_lof(BADSUB).to_json()
    assert out.read_text(encoding="utf-8") == relative_text
    assert main(["validate", files["path3"], "--json"]) == 0
    capsys.readouterr()
    assert main(["validate", files["path3"]]) == 0
    assert capsys.readouterr().out.startswith("boundary_reduced: ok\n")


def test_certify_writes_canonical_json(files, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", files["path3"], "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 5 and data["verdicts"]["DR_claim"] is True
    again = tmp_path / "cert2.json"
    main(["certify", files["path3"], "--json", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_a_certificate_too_deep_for_orjson_is_written_by_the_stdlib_encoder(tmp_path, capsys):
    log = nested_lot(70)
    src, out = tmp_path / "nested.lot", tmp_path / "nested.json"
    src.write_text(serialize_log(log), encoding="utf-8")
    data = certify_relative(log).to_dict()
    with pytest.raises(orjson.JSONEncodeError):
        orjson.dumps(data)
    assert main(["certify", str(src), "--relative", "--json", str(out)]) == 0
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_a_deep_or_huge_input_gives_one_error_line(files, monkeypatch, capsys, error):
    # the exit code stays the one an uncaught exception gives; the traceback goes
    def fail(log):
        raise error

    monkeypatch.setattr(cli.certify, "certify_lof", fail)
    monkeypatch.setattr(cli.certify, "certify_relative", fail)
    for argv in (["certify", files["path3"]], ["certify", files["path3"], "--relative"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert type(error).__name__ in captured.err and "Traceback" not in captured.err

    def stalls(log):
        raise RuntimeError("stalled")

    # any other RuntimeError is not caught
    monkeypatch.setattr(cli.certify, "certify_lof", stalls)
    with pytest.raises(RuntimeError, match="stalled"):
        main(["certify", files["path3"]])


def test_certify_json_overwrites_a_longer_file(files, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", files["badsub"], "--relative", "--json", str(out)]) == 0
    longer = out.read_bytes()
    fresh = tmp_path / "fresh.json"
    assert main(["certify", files["triv"], "--json", str(fresh)]) == 0
    assert len(fresh.read_bytes()) < len(longer)
    main(["certify", files["triv"], "--json", str(out)])
    assert out.read_bytes() == fresh.read_bytes()
    assert main(["certify", files["triv"], "--json", os.devnull]) == 0


def test_certify_dot_exports(files, tmp_path):
    dotdir = tmp_path / "dots"
    assert main(["certify", files["path3"], "--json", str(tmp_path / "c.json"), "--dot", str(dotdir)]) == 0
    link = (dotdir / "link.dot").read_text()
    assert link.count(" -- ") == 8 and link.count("style=") == 8
    sel = (dotdir / "selection.dot").read_text()
    assert sel.count(" -> ") == 4 and "color=" in sel


def test_certify_relative_dot_draws_the_reduced_log(tmp_path, capsys):
    # not reduced: the certificate's angles and partition belong to the reduced LOG
    lot = tmp_path / "unreduced.lot"
    lot.write_text(
        "vertices: v0 v1 v2 v3 v4 v5\n"
        "edge e0: v4 -> v0 : v3\n"
        "edge e1: v5 -> v0 : v5\n"
        "edge e2: v1 -> v4 : v5\n"
        "edge e3: v2 -> v3 : v4\n"
        "edge e4: v4 -> v3 : v5\n",
        encoding="utf-8",
    )
    dotdir = tmp_path / "dots"
    out = tmp_path / "c.json"
    assert main(["certify", str(lot), "--relative", "--json", str(out), "--dot", str(dotdir)]) == 0
    reduced = parse_log(json.loads(out.read_text())["witnesses"]["reduced_input"])
    assert len(reduced.vertices) < 6
    link = (dotdir / "link.dot").read_text()
    assert link.count(" -- ") == link.count("style=") == 4 * len(reduced.edges)
    sel = (dotdir / "selection.dot").read_text()
    assert sel.count(" -> ") == sel.count("color=") == 2 * len(reduced.edges)
    assert all(f'"{v}"' in sel for v in reduced.vertices) and '"v1"' not in sel


def test_export_link(files, capsys):
    assert main(["export", files["path3"], "link"]) == 0
    out = capsys.readouterr().out
    assert out.count(" -- ") == 8
    assert out.count(";") == 6 + 8 + 0  # 6 nodes + 8 corners
    assert main(["export", files["triv"], "link"]) == 0
    out = capsys.readouterr().out
    assert out.count(" -- ") == 0 and out.count(";") == 2


def test_export_selection(files, capsys):
    assert main(["export", files["path3"], "selection"]) == 0
    out = capsys.readouterr().out
    assert out.count(" -> ") == 4 and out.count(";") == 3 + 4


def test_generate_manifest_and_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["generate", "3", "2", "7", str(d1)]) == 0
    assert main(["generate", "3", "2", "7", str(d2)]) == 0
    m1 = json.loads((d1 / "manifest.json").read_text())
    assert m1["count"] == 2 and len(m1["instances"]) == 2
    flags = m1["instances"][0]["flags"]
    assert flags["reduced"] and flags["injective"] and flags["log_class"] == "LOT"
    for f1 in d1.iterdir():
        f2 = d2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_generate_rejects_fewer_than_three_vertices(tmp_path, capsys):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "2", "1", "0", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument n: n must be at least 3, got 2" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_rejects_a_negative_count(tmp_path, capsys):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "8", "-3", "1", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument count: count must be at least 0, got -3" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_finds_bad_sub_lots_at_scale(tmp_path):
    # at 8 vertices a modest corpus contains hypothesis-violating instances
    d = tmp_path / "corpus"
    assert main(["generate", "8", "40", "11", str(d)]) == 0
    manifest = json.loads((d / "manifest.json").read_text())
    assert any(
        not inst["flags"]["all_sub_lots_boundary_reduced"]
        for inst in manifest["instances"]
    )


def test_generate_counts_closure_witnesses(tmp_path):
    d = tmp_path / "corpus"
    assert main(["generate", "8", "40", "11", str(d)]) == 0
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["schema"] == 2
    for inst in manifest["instances"]:
        log = parse_log((d / inst["file"]).read_text(encoding="utf-8"))
        flags = inst["flags"]
        assert flags["bad_sub_lot_count"] == len(bad_sub_lot_witnesses(log))
        assert flags["all_sub_lots_boundary_reduced"] == (flags["bad_sub_lot_count"] == 0)


def test_certify_dot_without_witnesses(files, tmp_path):
    # a hypothesis-failed certificate still exports unstyled graphs
    dotdir = tmp_path / "dots"
    assert main(["certify", files["badsub"], "--json", str(tmp_path / "c.json"), "--dot", str(dotdir)]) == 3
    assert "style=" not in (dotdir / "link.dot").read_text()
    assert (dotdir / "selection.dot").exists()


def test_certify_dot_and_oracle_check_build_one_selection_graph(files, tmp_path, capsys, monkeypatch):
    # the selection graph is kept on the LOG, so the certificate, its cut
    # and the DOT file or the oracle checks read the same one
    from lotcert import selection

    built = []
    build = selection.build_selection_graph
    for name, module in list(sys.modules.items()):
        if name.startswith("lotcert") and vars(module).get("build_selection_graph") is build:
            monkeypatch.setattr(module, "build_selection_graph", lambda log: built.append(log) or build(log))
    for name, code in (("path3", 0), ("badsub", 3)):
        for argv in (["certify", files[name], "--dot", str(tmp_path / name)], ["oracle-check", files[name]]):
            built.clear()
            assert main(argv) == (0 if argv[0] == "oracle-check" else code)
            assert len(built) == 1, argv
    capsys.readouterr()


def test_oracle_check(files, capsys):
    assert main(["oracle-check", files["path3"]]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["oracle-check", files["badsub"]]) == 0
    assert "cut-condition-vs-max-flow: PASS" in capsys.readouterr().out


def test_oracle_check_ties_the_branchings_to_the_closure_scan(files, tmp_path, capsys, monkeypatch):
    # on an injective forest the branchings are built iff no closure is bad,
    # and the certificate has a cut that names a bad sub-LOT iff one is
    for name in ("path3", "badsub"):
        assert main(["oracle-check", files[name]]) == 0
        out = capsys.readouterr().out
        assert "branchings-iff-no-bad-closure: PASS" in out and "cut-iff-bad-closure: PASS" in out
    # a LOG that is not an injective forest gets no such check
    cyclic = tmp_path / "cyclic.lot"
    cyclic.write_text("vertices: x y z\nedge: x -> y : z\nedge: z -> y : x\nedge: x -> z : y\n", encoding="utf-8")
    main(["oracle-check", str(cyclic)])
    out = capsys.readouterr().out
    assert "branchings-iff-no-bad-closure" not in out and "cut-iff-bad-closure" not in out
    # a scan that misses BADSUB's bad closure fails the check
    monkeypatch.setattr(cli, "bad_sub_lot_witnesses", lambda log: ())
    assert main(["oracle-check", files["badsub"]]) == 1
    out = capsys.readouterr().out
    assert "branchings-iff-no-bad-closure: FAIL" in out and "cut-iff-bad-closure: FAIL" in out
    monkeypatch.undo()


@pytest.mark.parametrize(
    "change",
    [
        {"leaf": "c"},
        {"leaf": "p"},
        {"edges": ["e1", "e2"]},
        {"edges": ["e1", "e2", "e3", "e4"]},
        {"vertices": ["a", "b"]},
        {"delta": 2},
    ],
)
def test_oracle_check_refuses_a_cut_that_names_no_bad_sub_lot(change, files, capsys, monkeypatch):
    # the cut's vertices and leaf, with its edges, must be a sub-LOT whose
    # leaf has degree 1 and labels none of them, entered by one arc
    def altered(log):
        cert = certify_lof(log)
        cert.witnesses["cut"] = dict(cert.witnesses["cut"], **change)
        return cert

    monkeypatch.setattr(cli.certify, "certify_lof", altered)
    assert main(["oracle-check", files["badsub"]]) == 1
    assert "cut-iff-bad-closure: FAIL" in capsys.readouterr().out


# Reduced injective LOFs that satisfy the hypothesis, each
# random_reduced_injective_lot(n, s) with the listed edges deleted.  Joining
# their components into one LOT by a search for connecting edges failed the
# hypothesis, so certify exited 1 with DR_claim False although the sign
# search finds 48, 224 and 2048 bi-forest sign choices.
FIXTURE_LOFS = {
    "lof_9_38": (9, 38, {"e5"}),
    "lof_13_66": (13, 66, {"e4", "e8"}),
    "lof_14_13": (14, 13, {"e2", "e3", "e9"}),
}
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("name", sorted(FIXTURE_LOFS))
def test_fixture_lofs_certify_and_pass_the_oracle_check(name, capsys):
    n, s, deleted = FIXTURE_LOFS[name]
    path = FIXTURES / f"{name}.lot"
    lot = random_reduced_injective_lot(n, s)
    assert parse_log(path.read_text(encoding="utf-8")) == Log(
        lot.vertices, tuple(e for e in lot.edges if e.eid not in deleted)
    )
    assert main(["certify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("DR_claim: True\n")
    assert main(["oracle-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "pipeline-vs-sign-search: PASS" in out and "FAIL" not in out


def test_oracle_check_of_a_lof_with_a_bad_sub_lot(tmp_path, capsys):
    # rooted at its two non-label vertices, the LOF's branching construction
    # stalls, and the added-root max-flow finds the cut that stops it
    (lof,) = [lof for lof in edge_deleted_lofs([8], range(150)) if bad_sub_lot_witnesses(lof)]
    assert lof.log_class.components == 2
    path = tmp_path / "lof.lot"
    path.write_text(serialize_log(lof), encoding="utf-8")
    assert main(["certify", str(path)]) == 3
    capsys.readouterr()
    assert main(["oracle-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "branchings-iff-cut-condition: PASS" in out and "FAIL" not in out
    assert "branchings-iff-no-bad-closure: PASS" in out and "cut-iff-bad-closure: PASS" in out


def test_only_a_failed_hypothesis_runs_the_dominator_pass(files, tmp_path, capsys, monkeypatch):
    # plain certify of an injective forest whose hypothesis fails runs one
    # dominator pass for its cut, a LOF's included; every other production
    # command and input runs none
    from lotcert import arborescence

    passes = []
    condition = arborescence.edmonds_condition
    monkeypatch.setattr(arborescence, "edmonds_condition", lambda *args: passes.append(args) or condition(*args))
    (lof,) = [lof for lof in edge_deleted_lofs([8], range(150)) if bad_sub_lot_witnesses(lof)]
    inputs = [files[name] for name in ("path3", "triv", "noncomp", "badsub")]
    for i, log in enumerate([lof, path_lot(64, 0)]):
        inputs.append(str(tmp_path / f"in{i}.lot"))
        Path(inputs[-1]).write_text(serialize_log(log), encoding="utf-8")
    # NONCOMP is an injective tree, not reduced, whose leaf x labels nothing
    failing = {files["noncomp"], files["badsub"], inputs[-2]}
    out, dots = str(tmp_path / "out"), str(tmp_path / "dots")
    for f in inputs:
        for argv in (
            ["validate", f, "--json"],
            ["reduce", f, "-o", out],
            ["certify", f, "--json", out, "--dot", dots],
            ["certify", f, "--relative", "--json", out],
            ["export", f, "selection"],
        ):
            passes.clear()
            assert main(argv) in (0, 1, 3), argv
            ran = argv[0] == "certify" and "--relative" not in argv and f in failing
            assert len(passes) == ran, argv
    assert main(["certify", inputs[-2], "--json", out]) == 3
    assert json.loads(Path(out).read_text(encoding="utf-8"))["witnesses"]["cut"]["delta"] == 1
    passes.clear()
    assert main(["generate", "8", "20", "1", str(tmp_path / "corpus")]) == 0
    assert passes == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, plain, relative",
    [
        ("vertices:\n", 0, 0),
        ("vertices: x\n", 0, 0),
        ("vertices: x y z w\nedge e1: x -> y : z\nedge e2: z -> y : x\n", 0, 0),
        (serialize_log(Log((*BADSUB.vertices, "w"), BADSUB.edges)), 3, 0),
        ("vertices: w q0 q1 q2 q3\nedge g1: q0 -> q1 : q2\nedge g2: q1 -> q2 : q0\nedge g3: q2 -> q3 : q1\n", 3, 0),
    ],
    ids=["empty", "lone-vertex", "isolated-root", "isolated-root-badsub", "isolated-root-not-reduced"],
)
def test_certify_exit_codes_from_zero_one_and_many_roots(text, plain, relative, tmp_path, capsys):
    # no root, one root, and a root on no edge beside the others; the
    # failing ones take their cut from the added root
    path = tmp_path / "in.lot"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(["certify", str(path), "--json", str(out)]) == plain
    cut = json.loads(out.read_text(encoding="utf-8"))["witnesses"].get("cut")
    assert (cut is not None and cut["delta"] == 1) == (plain == 3)
    assert main(["certify", str(path), "--relative", "--json", str(out)]) == relative
    assert main(["oracle-check", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_oracle_check_skips_subset_enumeration_above_the_cap(files, capsys, monkeypatch):
    monkeypatch.setenv("LOT_ORACLE_CAP", "6")
    assert main(["oracle-check", files["badsub"]]) == 0
    out = capsys.readouterr().out
    assert "cut-condition-vs-subset-enumeration" not in out
    assert "branchings-iff-cut-condition: PASS" in out
    monkeypatch.setenv("LOT_ORACLE_CAP", "7")
    assert main(["oracle-check", files["badsub"]]) == 0
    assert "cut-condition-vs-subset-enumeration: PASS" in capsys.readouterr().out


def test_oracle_check_skips_cycle_enumeration_above_the_cap(tmp_path, capsys, monkeypatch):
    # the link of an 8-vertex path LOT has cycle rank 13, a 16-vertex one's
    # is above the sign-search cap of 16: its cycles are not enumerated
    monkeypatch.delenv("LOT_ORACLE_CAP", raising=False)
    paths = {}
    for n in (8, 16):
        paths[n] = tmp_path / f"path{n}.lot"
        paths[n].write_text(serialize_log(path_lot(n, 0)), encoding="utf-8")
    for n, enumerated in ((8, True), (16, False)):
        assert main(["oracle-check", str(paths[n])]) == 0
        out = capsys.readouterr().out
        assert ("forest-vs-cycle-enumeration: PASS" in out) == enumerated
        assert "pipeline-vs-sign-search: PASS" in out and "FAIL" not in out
    # the cap follows LOT_ORACLE_CAP like the other caps
    monkeypatch.setenv("LOT_ORACLE_CAP", "12")
    assert main(["oracle-check", str(paths[8])]) == 0
    assert "forest-vs-cycle-enumeration" not in capsys.readouterr().out


def test_missing_file_is_a_parse_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.lot")]) == 2


@pytest.mark.parametrize("name", ["path3", "badsub"])
def test_certify_reads_a_file_with_a_byte_order_mark(files, tmp_path, capsys, name):
    bom = tmp_path / "bom.lot"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(files[name]).read_bytes())
    runs = []
    for path in (files[name], str(bom)):
        out = tmp_path / "cert.json"
        code = main(["certify", path, "--json", str(out)])
        runs.append((code, out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if name == "path3" else 3)


def test_an_undelimited_edge_keyword_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.lot"
    bad.write_text("vertices: x y\nedges: x -> y : x\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "line 2, column 1: expected an 'edge' line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "certify"])
def test_an_undecodable_byte_is_a_parse_error_at_its_line(tmp_path, capsys, command):
    bad = tmp_path / "latin1.lot"
    bad.write_bytes(b"vertices: x y z\nedge e1: x -> y : z\n# caf\xc3\xa9 \xe9\n")
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error: line 3, column 8: invalid UTF-8 byte 0xe9\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "certify"])
def test_a_directory_as_file_is_an_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["certify", "{path3}", "--json", "{dir}"], "Is a directory"),
        (["reduce", "{path3}", "-o", "{dir}"], "Is a directory"),
        (["certify", "{path3}", "--json", "{file}/x.json"], "File exists"),
        (["generate", "5", "2", "1", "{file}"], "File exists"),
    ],
    ids=["certify-json-to-a-directory", "reduce-to-a-directory", "certify-json-under-a-file", "generate-into-a-file"],
)
def test_an_output_that_cannot_be_written_is_an_error(files, tmp_path, capsys, argv, error):
    afile = tmp_path / "afile"
    afile.write_text("taken\n", encoding="utf-8")
    slots = {"path3": files["path3"], "dir": str(tmp_path), "file": str(afile)}
    assert main([arg.format(**slots) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err
    assert afile.read_text(encoding="utf-8") == "taken\n"
