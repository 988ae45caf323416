#!/usr/bin/env python3
"""Check that two source trees give the same exit codes and certificate bytes.

Usage: PYTHONPATH=src python scripts/parity.py REV

REV is checked out with `git worktree add --detach` into a temporary
directory, which is removed afterwards.  One corpus is written once, from
the working tree, and both trees read it:

* the six golden corpora of tests/test_acceptance.py;
* the first pass of each benchmark workload at seeds 1 and 2;
* all lot-relative pool members of bench/frozen.json;
* nested_lot and bad_nested_lot of tests/conftest.py for k = 1..30;
* tests/fixtures/*.lot.

Each tree runs in its own child process, with PYTHONPATH set to its src/,
and certifies every input through in-process `cli.main`, plain and with
--relative.  REV runs under PYTHONHASHSEED=0 and the working tree under 1,
so REV = HEAD on a clean checkout is also a hash-seed determinism check.
Each run compares the exit code (an uncaught exception counts as its type
and message), stdout, stderr and the certificate bytes.  For a differing
certificate the report names the first JSON path where the two differ,
and it counts the inputs per path.  The exit status is 0 iff no run
differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MODES = ("plain", "relative")
NESTED_MAX = 30
WORKLOAD_SEEDS = (1, 2)


def write_corpus(directory: Path) -> None:
    """Write the corpus into directory, one LOG text per `<name>.lot` file;
    an input that appears twice is written once, under its first name."""
    sys.dont_write_bytecode = True  # read tests/ and bench/ without leaving caches there
    for path in (ROOT / "bench", ROOT / "tests", ROOT / "src"):
        sys.path.insert(0, str(path))
    import conftest
    import test_acceptance
    import workloads
    from lotcert.log_model import serialize_log

    names: dict[str, str] = {}
    for corpus, (logs, _) in test_acceptance.golden_corpora().items():
        for i, log in enumerate(logs):
            names.setdefault(serialize_log(log), f"golden-{corpus}-{i}")
    frozen = workloads.load_frozen()
    for workload in workloads.WORKLOADS.values():
        for seed in WORKLOAD_SEEDS:
            for item in next(workloads.passes(workload, seed, frozen)):
                names.setdefault(item.text, f"{workload.name}-{seed}-{item.index}")
    for gen_seed, _, _ in frozen["lot-relative"]["pool"]:
        names.setdefault(workloads.inputs.to_text(*workloads.pool_lot(gen_seed)), f"pool-{gen_seed}")
    for k in range(1, NESTED_MAX + 1):
        names.setdefault(serialize_log(conftest.nested_lot(k)), f"nested-{k}")
        names.setdefault(serialize_log(conftest.bad_nested_lot(k)), f"bad-nested-{k}")
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.lot")):
        names.setdefault(path.read_text(encoding="utf-8"), f"fixture-{path.stem}")
    directory.mkdir(parents=True, exist_ok=True)
    for text, name in names.items():
        (directory / f"{name}.lot").write_text(text, encoding="utf-8")


def run_side(src: str, corpus: str, out: str) -> None:
    """The child: certify every input of corpus with the lotcert under src,
    writing each certificate and a results.json of the rest into out."""
    import contextlib
    import io

    import lotcert
    from lotcert import cli

    if not Path(lotcert.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"lotcert was imported from {lotcert.__file__}, not from {src}")
    results = {}
    start = time.perf_counter()
    for path in sorted(Path(corpus).glob("*.lot")):
        for mode in MODES:
            cert = Path(out, f"{path.stem}.{mode}.json")
            argv = ["certify", str(path), "--json", str(cert)] + (["--relative"] if mode == "relative" else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
            results[f"{path.stem}.{mode}"] = [code, stdout.getvalue(), stderr.getvalue()]
    seconds = time.perf_counter() - start
    Path(out, "results.json").write_text(json.dumps({"seconds": seconds, "runs": results}), encoding="utf-8")


def _side(src: Path, corpus: Path, out: Path, hash_seed: int) -> dict:
    out.mkdir(parents=True)
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import parity; parity.run_side(*sys.argv[1:])"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(hash_seed))
    subprocess.run([sys.executable, "-c", code, str(src), str(corpus), str(out)], env=env, cwd=out, check=True)
    return json.loads((out / "results.json").read_text(encoding="utf-8"))


def first_difference(a, b, path: str = "") -> str | None:
    """The path of the first value, in sorted-key order, where the JSON
    values a and b differ, or None when they are equal."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return where
            found = first_difference(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def _certificate_difference(a: Path, b: Path) -> str | None:
    """None when the two certificate files hold the same bytes or neither
    exists, else where they differ."""
    if not (a.exists() and b.exists()):
        return None if a.exists() == b.exists() else "(certificate written on one side only)"
    left, right = a.read_bytes(), b.read_bytes()
    if left == right:
        return None
    return first_difference(json.loads(left), json.loads(right)) or "(same JSON, different bytes)"


class Report(NamedTuple):
    runs: int
    differing: list  # (run, what): what is "exit", "stdout", "stderr" or a JSON path
    seconds: tuple  # each side's wall time over its runs

    def paths(self) -> dict:
        """Each difference and the inputs it occurs on."""
        inputs: dict = {}
        for run, what in self.differing:
            inputs.setdefault(what, set()).add(run.rsplit(".", 1)[0])
        return inputs


def compare(src_a: Path, src_b: Path, corpus: Path, workdir: Path) -> Report:
    """Certify corpus with the lotcert under src_a (PYTHONHASHSEED=0) and
    under src_b (PYTHONHASHSEED=1), each in its own child process, and
    compare every run."""
    a = _side(src_a, corpus, workdir / "a", 0)
    b = _side(src_b, corpus, workdir / "b", 1)
    differing = []
    for run, left in a["runs"].items():
        right = b["runs"][run]
        what = next((field for field, x, y in zip(("exit", "stdout", "stderr"), left, right) if x != y), None)
        what = what or _certificate_difference(workdir / "a" / f"{run}.json", workdir / "b" / f"{run}.json")
        if what is not None:
            differing.append((run, what))
    return Report(len(a["runs"]), differing, (a["seconds"], b["seconds"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = Path(tmp)
        write_corpus(work / "corpus")
        tree = work / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(tree), rev], check=True)
        try:
            report = compare(tree / "src", ROOT / "src", work / "corpus", work)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)
    for run, what in report.differing[:20]:
        print(f"differs: {run}: {what}")
    if len(report.differing) > 20:
        print(f"... and {len(report.differing) - 20} more")
    for what, inputs in sorted(report.paths().items()):
        print(f"{len(inputs):6d} inputs differ at {what}")
    print(f"{rev} (PYTHONHASHSEED=0) against the working tree (PYTHONHASHSEED=1): {report.runs} runs compared, {len(report.differing)} differ")
    print(f"wall time over the runs: {report.seconds[0]:.1f} s for {rev}, {report.seconds[1]:.1f} s for the working tree")
    return 1 if report.differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
