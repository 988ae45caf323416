"""Rebuild frozen.json: lot-random strata, default-seed pins, the relative pool.

Run from the repository root at the commit whose behaviour is the reference:

    python3 bench/freeze.py

The relative pool keeps generator seeds whose LOT has a sub-LOT that is not
boundary reduced and on which plain certify exits 3 with a delta=1 cut; the
exit code of certify --relative is recorded as observed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from lotcert import cli  # noqa: E402

REFERENCE_SAMPLE = 20000
PINNED = 300
POOL_SIZE = 2000


def _strata(n: int) -> dict:
    """The subtree-count cap (the reference 99th percentile) and the strata below it."""
    rng = random.Random("strata-reference")
    counts = [
        inputs.subtree_count(n, inputs.random_lot("random", n, rng)[1])
        for _ in range(REFERENCE_SAMPLE)
    ]
    cap = int(statistics.quantiles(counts, n=100)[98])
    kept = [c for c in counts if c <= cap]
    strata = workloads.WORKLOADS["lot-random"].pass_size
    return {"cap": cap, "bins": [int(b) for b in statistics.quantiles(kept, n=strata)]}


def _pins(workload: workloads.Workload, frozen: dict) -> list[list]:
    pins = []
    for batch in workloads.passes(workload, workloads.DEFAULT_SEED, frozen):
        for item in batch:
            pins.append([inputs.sha256(item.text), inputs.expected_plain_exit(item.edges)])
        if len(pins) >= PINNED:
            return pins[:PINNED]
    return pins


def _certify(path: Path, *flags: str) -> tuple[int, dict]:
    out = path.with_suffix(".json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["certify", str(path), *flags, "--json", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def _pool(tmp: Path) -> list[list]:
    pool = []
    gen_seed = 0
    while len(pool) < POOL_SIZE:
        vs, es = workloads.pool_lot(gen_seed)
        if inputs.has_bad_sub_lot(es):
            text = inputs.to_text(vs, es)
            path = tmp / "in.lot"
            path.write_text(text, encoding="utf-8")
            code, cert = _certify(path)
            if code == 3 and cert["witnesses"].get("cut", {}).get("delta") == 1:
                rel_code, _ = _certify(path, "--relative")
                pool.append([gen_seed, inputs.sha256(text), rel_code])
        gen_seed += 1
    return pool


def _dump(frozen: dict) -> str:
    """JSON with one pinned input or pool member per line."""
    blocks = []
    for name, entry in frozen.items():
        fields = []
        for key, value in entry.items():
            if isinstance(value, list) and value and isinstance(value[0], list):
                rows = ",\n    ".join(json.dumps(row) for row in value)
                fields.append(f'  "{key}": [\n    {rows}\n  ]')
            else:
                fields.append(f'  "{key}": {json.dumps(value)}')
        blocks.append(f'"{name}": {{\n' + ",\n".join(fields) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    frozen = {
        "lot-random": _strata(workloads.WORKLOADS["lot-random"].n),
        "lot-path": {},
    }
    for name in ("lot-random", "lot-path"):
        frozen[name]["default_seed"] = _pins(workloads.WORKLOADS[name], frozen)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        frozen["lot-relative"] = {"pool": _pool(Path(tmp))}
    codes = [c for _, _, c in frozen["lot-relative"]["pool"]]
    print({c: codes.count(c) for c in sorted(set(codes))}, file=sys.stderr)
    workloads.FROZEN_PATH.write_text(_dump(frozen), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
