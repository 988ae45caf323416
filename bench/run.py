#!/usr/bin/env python3
"""lotcert benchmark: certify workloads end to end, or per module when traced.

    python3 bench/run.py --workload lot-random --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest
    python3 bench/run.py --scale-probe

Each run starts one child process (worker.py) with a memory limit and a
wall-clock limit.  The child imports lotcert from this checkout's src/,
sets up, and then certifies inputs through lotcert.cli.main in a closed
loop, one input at a time, until --seconds have passed.  Every output is
checked.  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-module metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracer import STAGES  # noqa: E402
MIN_INPUTS = 100  # so that at least 10 samples lie above the p90
MIN_TRACED_INPUTS = 10
MEMORY_LIMIT = 1536 << 20  # address space of a child, bytes
RUN_LIMIT_S = 150  # wall clock of a child; the whole run must end within 180 s
WORKLOADS = ("lot-random", "lot-path", "lot-relative")


def _limit_memory(limit: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def child(cfg: dict, limit_s: float, memory: int = MEMORY_LIMIT) -> tuple[list[dict], int | None, bool]:
    """Run worker.py; return its JSON lines, exit status and whether it timed out."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE,
        preexec_fn=_limit_memory(memory),
        cwd=ROOT,
    )
    lines: list[dict] = []
    buf = b""
    timed_out = False
    deadline = time.monotonic() + limit_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            if not sel.select(left):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            buf += chunk
            *complete, buf = buf.split(b"\n")
            for line in complete:
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError:
                    print(f"worker: {line.decode(errors='replace')}", file=sys.stderr)
    if timed_out:
        proc.kill()
    status = proc.wait()
    proc.stdout.close()
    return lines, status, timed_out


def end_to_end(summary: dict) -> dict:
    """Medians over passes where a pass gives its own figure, so that a slow
    spell of the machine during one pass does not decide the run."""
    passes = [p for p in summary["passes"] if p]
    lat = [s for p in passes for s in p]
    return {
        "latency_p50_ms": (statistics.median(statistics.median(p) for p in passes) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "throughput_per_s": (statistics.median(len(p) / sum(p) for p in passes), "1/s"),
        "peak_rss_mib": (summary["peak_rss_kib"] / 1024, "MiB"),
        "setup_s": (statistics.median(summary["setup_s"]), "s"),
    }


def per_layer(trace: dict) -> dict:
    n = trace["inputs"]
    metrics = {}
    for stage in STAGES:
        s = trace["stages"][stage]
        metrics[f"{stage}.self_ms"] = (s["self_s"] * 1e3 / n, "ms")
        metrics[f"{stage}.calls"] = (s["calls"] / n, "count")
    metrics["log_model.sub_lot_scan.found"] = (trace["scan_found"] / n, "count")
    metrics["log_model.sub_lot_scan.peak_mib"] = (trace["scan_peak_bytes"] / (1 << 20), "MiB")
    metrics["certify.relative.depth"] = (trace["relative_depth"], "count")
    metrics["trace.overhead_ratio"] = (trace["traced_s"] / trace["untraced_s"], "ratio")
    return metrics


def report(workload: str, seed: int, lines: list[dict], timed_out: bool, trace: bool) -> dict:
    """Print a readable summary and return the result object."""
    summary = next((x["summary"] for x in lines if "summary" in x), None)
    finished = [x for x in lines if "i" in x]
    if summary is None:
        # the child was stopped by its time or memory limit: the input in flight failed
        attempted = len(finished) + 1
        failed = sum(not x["ok"] for x in finished) + 1
        why = "time limit" if timed_out else "memory limit or crash"
        print(f"{workload}: child stopped ({why}) after {len(finished)} input(s)")
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    attempted, failed = summary["attempted"], summary["failed"]
    for reason in summary["reasons"]:
        print(f"FAILED {reason}")
    samples = sum(len(p) for p in summary["passes"])
    print(
        f"{workload} seed={seed}: {attempted} input(s) in {len(summary['passes'])} pass(es), "
        f"{samples} latency samples, closed loop, 1 client"
    )
    print(f"  fail_ratio {failed / attempted:.4f} ratio")
    if not trace:
        metrics = end_to_end(summary) if samples >= 2 else {}
    else:
        metrics = per_layer(summary["trace"])
        total = sum(s["self_s"] for s in summary["trace"]["stages"].values())
        for stage in STAGES:
            share = summary["trace"]["stages"][stage]["self_s"] / total
            print(f"  {stage:<28} {100 * share:5.1f}% of traced time")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def bench(args) -> int:
    outdir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "min_inputs": MIN_TRACED_INPUTS if args.trace else MIN_INPUTS,
        "outdir": str(outdir),
    }
    lines, status, timed_out = child(cfg, RUN_LIMIT_S)
    error = next((x["error"] for x in lines if "error" in x), None)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, lines, timed_out, bool(args.trace))
    shutil.rmtree(outdir / "in", ignore_errors=True)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny pass of every workload")
    parser.add_argument("--scale-probe", action="store_true", help="certify one LOT per size n")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lotcert" / "__init__.py").is_file():
        print(f"error: no lotcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.scale_probe:
        import probe

        return probe.main()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
