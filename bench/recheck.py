"""Re-check a certificate's witnesses with the library's own small checkers.

Runs outside every timed span.  Each function returns None when the
certificate holds up and a short reason when it does not.
"""

from __future__ import annotations

from lotcert.arborescence import Branching, verify_branching
from lotcert.certify import lbf_check
from lotcert.link_complex import curvature, verify_coloring_test, verify_relative_coloring_test
from lotcert.log_model import Log, SubLog
from lotcert.selection import build_selection_graph


def _corner_angles(raw: dict) -> dict:
    angles = {}
    for key, value in raw.items():
        owner, kind = key.rsplit(":", 1)
        angles[(owner, kind)] = value
    return angles


def plain(log: Log, cert: dict) -> str | None:
    """An exit-0 plain certificate: branchings, epsilon and angles."""
    w = cert["witnesses"]
    if cert["verdicts"]["DR_claim"] is not True:
        return "exit 0 without DR_claim"
    sel = build_selection_graph(log)
    arcs = [[tuple(k) for k in b["arcs"]] for b in w["branchings"]]
    for b, keys in zip(w["branchings"], arcs):
        ok, why = verify_branching(sel, Branching(b["root"], tuple(keys)))
        if not ok:
            return f"branching invalid at {why!r}"
    used = [k for keys in arcs for k in keys]
    if len(used) != len(set(used)):
        return "branchings share an arc"
    if not lbf_check(log, w["epsilon"]).ok:
        return "epsilon does not give two forests"
    if not verify_coloring_test(log, _corner_angles(w["angles"])).ok:
        return "angles fail the coloring test"
    return None


def hypothesis_failed(cert: dict, cut_delta: int | None) -> str | None:
    """An exit-3 plain certificate; cut_delta, when given, is the expected cut."""
    if cert["hypothesis"]["satisfied"] is not False:
        return "exit 3 with satisfied hypotheses"
    if cut_delta is not None and cert["witnesses"].get("cut", {}).get("delta") != cut_delta:
        return f"expected a delta={cut_delta} cut"
    return None


def relative(log: Log, cert: dict) -> str | None:
    """An exit-0 relative certificate: relative coloring test and curvature."""
    w = cert["witnesses"]
    if "reduced_input" in w:
        return "input unexpectedly needed reduction"
    parts = [
        SubLog(tuple(p["vertices"]), tuple(p["edges"]), True, p["boundary_reduced"])
        for p in w["parts"]
    ]
    angles = _corner_angles(w["angles"])
    if not verify_relative_coloring_test(log, parts, angles).ok:
        return "angles fail the relative coloring test"
    if any(k > 0 for k in curvature(log, angles).kappa_cells.values()):
        return "a cell has positive curvature"
    return None
