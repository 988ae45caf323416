"""Scale probe: certify one random LOT per size n, each in a fresh child.

Report only, not gated.  Each child runs under a memory limit and a wall
clock limit; its status is ok, timeout, oom or error.  The probe stops at the
first failure and marks every larger size as not-attempted.  The table is
printed and written to .bench_out/scale_probe.json.
"""

from __future__ import annotations

import json

import run

SIZES = (8, 16, 24, 32, 48, 64, 128, 256, 512)
MEMORY_LIMIT = 1 << 30  # bytes of address space per child, well under the machine's memory
LIMIT_S = 60


def main() -> int:
    rows = []
    failed = False
    for n in SIZES:
        if failed:
            rows.append({"n": n, "status": "not-attempted"})
            print(json.dumps(rows[-1]))
            continue
        outdir = run.OUT / "scale-probe"
        lines, status, timed_out = run.child({"probe_n": n, "outdir": str(outdir)}, LIMIT_S, MEMORY_LIMIT)
        result = next((x["probe"] for x in lines if "probe" in x), None)
        if timed_out:
            row = {"n": n, "status": "timeout", "limit_s": LIMIT_S}
        elif (result is None and status < 0) or (result or {}).get("oom"):
            # MemoryError, or killed by a signal when an allocation failed outside Python
            row = {"n": n, "status": "oom", "limit_mib": MEMORY_LIMIT >> 20, "exit_status": status}
        elif result is None:
            row = {"n": n, "status": "error", "exit_status": status}
        else:
            row = {"n": n, "status": "ok", **result}
        failed = row["status"] != "ok"
        rows.append(row)
        print(json.dumps(row))
    report = {"memory_limit_mib": MEMORY_LIMIT >> 20, "wall_limit_s": LIMIT_S, "sizes": rows}
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "scale_probe.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0
