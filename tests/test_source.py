"""Properties of the source tree itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import lotcert

SRC = Path(lotcert.__file__).parent


def test_no_assert_statements_in_src():
    # python -O strips asserts, so a check that decides anything must be explicit
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imported_modules(tree) -> list[str]:
    """Every dotted name an import statement of the tree names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names += [module] + [f"{module}.{a.name}" for a in node.names]
    return names


def test_only_the_cli_imports_the_oracles():
    # brute-force references stay off the production path
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cli.py", "oracle.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}: {n}" for n in _imported_modules(tree) if n.split(".")[-1] == "oracle"]
    assert found == []


def test_importing_the_cli_leaves_the_oracles_unloaded():
    # the CLI imports them inside the two commands that use them
    code = "import sys, lotcert.cli; print(sorted(m for m in sys.modules if m.startswith('lotcert')))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = eval(out.stdout)
    assert "lotcert.cli" in loaded and "lotcert.oracle" not in loaded


def test_only_the_oracles_define_a_max_flow():
    # the cut condition and a failed hypothesis's cut are read off the
    # dominator tree; max-flow is the reference
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and "max_flow" in node.name:
                found.setdefault(path.name, []).append(node.name)
    assert found == {"oracle.py": ["_max_flow"]}


def test_one_heap_grower_builds_both_branchings():
    # both branchings come from arborescence._grow, on the out/in-arc lists
    # the selection graph keeps; no module rebuilds them or copies the loop
    defined, popping = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_prim", "_index"):
                defined.setdefault(path.name, []).append(node.name)
    assert defined == {}
    tree = ast.parse((SRC / "arborescence.py").read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            calls = [n.func for n in ast.walk(fn) if isinstance(n, ast.Call)]
            if any(isinstance(f, ast.Attribute) and f.attr == "heappop" for f in calls):
                popping.append(fn.name)
    assert popping == ["_grow"]


def test_plain_certify_imports_nothing_from_the_closure_layer():
    # the branchings or the dominator cut decide the hypothesis, so the
    # certify module names no closure function, and the added root that
    # oracle-check and certify share lives in arborescence alone
    closure_layer = {"bad_sub_lot_witnesses", "_bad_leaf", "_closure_table", "_closure", "closures"}
    tree = ast.parse((SRC / "certify.py").read_text(encoding="utf-8"))
    names = {n.split(".")[-1] for n in _imported_modules(tree)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & closure_layer == set()
    defined = {
        path.name: [n.name for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.FunctionDef)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert [name for name, fns in defined.items() if "with_added_root" in fns or "_with_added_root" in fns] == [
        "arborescence.py"
    ]
