"""The parity harness, scripts/parity.py, on a small corpus and no git."""

import importlib.util
import shutil
from pathlib import Path

import lotcert
from conftest import BADSUB, NONCOMP, PATH3, nested_lot
from lotcert import serialize_log

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(lotcert.__file__).parents[1]


def _parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_finds_no_difference_in_a_copy_and_exactly_an_altered_witness(tmp_path):
    parity = _parity()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, log in {"path3": PATH3, "noncomp": NONCOMP, "badsub": BADSUB, "nested": nested_lot(3)}.items():
        (corpus / f"{name}.lot").write_text(serialize_log(log), encoding="utf-8")
    for path in (ROOT / "tests" / "fixtures").glob("*.lot"):
        shutil.copy(path, corpus)
    copies = {name: tmp_path / name for name in ("same", "broken")}
    for copy in copies.values():
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    certify = copies["broken"] / "lotcert" / "certify.py"
    text = certify.read_text(encoding="utf-8")
    assert text.count("reoriented_strong_lbf=True") == 1
    certify.write_text(text.replace("reoriented_strong_lbf=True", "reoriented_strong_lbf=False"), encoding="utf-8")

    same = parity.compare(SRC, copies["same"], corpus, tmp_path / "same-runs")
    assert same.runs == 2 * 7 and same.differing == []
    broken = parity.compare(SRC, copies["broken"], corpus, tmp_path / "broken-runs")
    assert broken.runs == 2 * 7 and broken.differing
    assert all(what.endswith("reoriented_strong_lbf") for _, what in broken.differing), broken.differing
    # exactly the runs whose certificate holds the witness, at any depth
    written = (tmp_path / "same-runs" / "a").glob("*.*.json")
    holding = {p.stem for p in written if b'"reoriented_strong_lbf":true' in p.read_bytes()}
    assert {run for run, _ in broken.differing} == holding
