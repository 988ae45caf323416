"""Child process of the benchmark: set up, run one pass, stream results.

Invoked by run.py as ``python3 bench/worker.py CONFIG_JSON``.  It writes
one JSON object per line to its standard output: ``{"i", "ok"}`` per
finished input, then one ``{"summary": ...}`` line.  What the program prints goes to /dev/null.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5


def emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def import_program():
    """(Re-)import lotcert from this checkout's src/ and return lotcert.cli."""
    for name in [m for m in sys.modules if m == "lotcert" or m.startswith("lotcert.")]:
        del sys.modules[name]
    cli = importlib.import_module("lotcert.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"lotcert imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    """One workload run: inputs on disk, certify calls, re-checks."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.workload = workloads.WORKLOADS[cfg["workload"]]
        self.frozen = workloads.load_frozen()
        self.dir = Path(cfg["outdir"])
        (self.dir / "in").mkdir(parents=True, exist_ok=True)
        self.out_plain = self.dir / "plain.json"
        self.out_relative = self.dir / "relative.json"

    def setup(self):
        """Import, generate and write the first pass, one untimed warm-up call."""
        cli = import_program()
        stream = workloads.passes(self.workload, self.cfg["seed"], self.frozen)
        batch = self.write(next(stream))
        vs, es = workloads.warmup_lot(self.workload)
        warm = self.dir / "warmup.lot"
        warm.write_text(inputs.to_text(vs, es), encoding="utf-8")
        self.call(cli, warm)
        return cli, stream, batch

    def write(self, batch: list) -> list:
        for item in batch:
            item.path = self.dir / "in" / f"{item.index:06d}.lot"
            item.path.write_text(item.text, encoding="utf-8")
        return batch

    def call(self, cli, path: Path) -> tuple[int, int | None, float]:
        """The timed unit: certify, then certify --relative on lot-relative."""
        t0 = time.perf_counter()
        code = cli.main(["certify", str(path), "--json", str(self.out_plain)])
        rel_code = None
        if self.workload.relative:
            rel_code = cli.main(["certify", str(path), "--relative", "--json", str(self.out_relative)])
        return code, rel_code, time.perf_counter() - t0

    def outputs(self) -> tuple[bytes, bytes | None]:
        rel = self.out_relative.read_bytes() if self.workload.relative else None
        return self.out_plain.read_bytes(), rel

    def check(self, item, code: int, rel_code: int | None, recheck, parse_log) -> str | None:
        """Why this input's outputs are wrong, or None; outside all timed spans."""
        if item.frozen_sha is not None and inputs.sha256(item.text) != item.frozen_sha:
            return "input differs from the frozen default-seed input"
        expected = item.expected_plain
        if expected is None:
            expected = inputs.expected_plain_exit(item.edges)
        if self.cfg.get("alter_expected") and item.index == 0:
            expected = 1 - expected if expected in (0, 1) else 0
        if code != expected:
            return f"certify exit {code}, expected {expected}"
        log = parse_log(item.text)
        cert = json.loads(self.out_plain.read_text(encoding="utf-8"))
        why = recheck.plain(log, cert) if code == 0 else recheck.hypothesis_failed(
            cert, 1 if self.workload.relative else None
        )
        if why or not self.workload.relative:
            return why
        if rel_code != item.expected_relative:
            return f"certify --relative exit {rel_code}, expected {item.expected_relative}"
        if rel_code == 0:
            return recheck.relative(log, json.loads(self.out_relative.read_text(encoding="utf-8")))
        return None


def traced_calls(runner: Runner, cli, trace, item) -> tuple[tuple, float, bool]:
    """Untraced, traced and scan-peak calls on one input.

    Returns the untraced call's result, the traced call's seconds, and
    whether all three calls wrote the same bytes and exit codes.  Odd inputs
    run the traced call first, so that warm caches favour neither side.
    """
    results = {}
    order = ("spans", "plain") if item.index % 2 else ("plain", "spans")
    for mode in order + ("peak",):
        if mode == "spans":
            trace.spans_on(item.index)
        elif mode == "peak":
            trace.peak_on()
        try:
            code, rel_code, seconds = runner.call(cli, item.path)
        finally:
            trace.off()
        results[mode] = ((code, rel_code, seconds), (code, rel_code, runner.outputs()))
    outputs = [out for _, out in results.values()]
    same = all(out == outputs[0] for out in outputs)
    return results["plain"][0], results["spans"][0][2], same


def items(runner: Runner, stream, batch: list):
    """The inputs pass after pass, each pass written to disk before it starts."""
    while batch is not None:
        yield from batch
        batch = next(stream, None)
        if batch is not None:
            runner.write(batch)


def run(cfg: dict) -> dict:
    runner = Runner(cfg)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, stream, batch = runner.setup()
        setup_s.append(time.perf_counter() - t0)

    import recheck  # bound to the program as imported by the last set-up
    from lotcert.log_model import parse_log

    trace = tracer.Tracer() if cfg["trace"] else None
    traced_s = untraced_s = 0.0
    scan_peaks = []
    passes: list[list[float]] = []  # latencies of the inputs that passed, per pass
    failed = 0
    reasons = []
    max_inputs = cfg.get("max_inputs")
    done = 0
    start = time.perf_counter()
    for item in items(runner, stream, batch):
        try:
            why = None
            if trace is None:
                code, rel_code, seconds = runner.call(cli, item.path)
            else:
                (code, rel_code, seconds), t_seconds, same = traced_calls(runner, cli, trace, item)
                scan_peaks.append(trace.scan_peak)
                untraced_s += seconds
                traced_s += t_seconds
                if not same:
                    why = "tracing changed the output"
            why = why or runner.check(item, code, rel_code, recheck, parse_log)
        except Exception as exc:  # an input that raises is a failed input
            why = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            seconds = None
        if item.index % runner.workload.pass_size == 0:
            passes.append([])
        if why:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"input {item.index}: {why}")
        else:
            passes[-1].append(seconds)
        emit({"i": item.index, "ok": not why})
        done = item.index + 1
        if max_inputs is not None and done >= max_inputs:
            break
        enough = time.perf_counter() - start >= cfg["seconds"] and done >= cfg["min_inputs"]
        if enough and (trace is not None or done % runner.workload.pass_size == 0):
            break

    summary = {
        "attempted": done,
        "failed": failed,
        "reasons": reasons,
        "passes": passes,
        "setup_s": setup_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace is not None:
        summary["trace"] = trace_summary(trace, scan_peaks, traced_s, untraced_s, runner.dir)
    return summary


def trace_summary(trace, scan_peaks, traced_s, untraced_s, outdir: Path) -> dict:
    spans = trace.spans
    own = tracer.self_times(spans)
    stages = {name: {"self_s": 0.0, "calls": 0} for name in tracer.STAGES}
    for (stage, *_), seconds in zip(spans, own):
        stages[stage]["self_s"] += seconds
        stages[stage]["calls"] += 1
    with open(outdir / "spans.jsonl", "w", encoding="utf-8") as f:
        for stage, t0, t1, parent, input_id in spans:
            f.write(json.dumps([stage, t0, t1, parent, input_id]) + "\n")
    return {
        "inputs": len(scan_peaks),
        "stages": stages,
        "scan_found": trace.scan_found,
        "scan_peak_bytes": statistics.fmean(scan_peaks) if scan_peaks else 0.0,
        "relative_depth": tracer.relative_depth(spans),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }


def probe(cfg: dict) -> dict:
    """Certify one random LOT of size probe_n; time, exit code and peak RSS."""
    n = cfg["probe_n"]
    vs, es = inputs.random_lot("random", n, random.Random(f"probe:{n}"))
    path = Path(cfg["outdir"]) / f"lot_n{n}.lot"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(inputs.to_text(vs, es), encoding="utf-8")
    cli = import_program()
    t0 = time.perf_counter()
    try:
        code = cli.main(["certify", str(path), "--json", str(path.with_suffix(".json"))])
    except MemoryError:
        return {"oom": True}
    return {
        "seconds": time.perf_counter() - t0,
        "exit_code": code,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    if "probe_n" in cfg:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result = probe(cfg)
        emit({"probe": result})
        return 0
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            summary = run(cfg)
    except tracer.StageMissing as exc:
        print(f"traced pass failed: {exc}", file=sys.stderr)
        emit({"error": f"stage missing: {exc}"})
        return 1
    emit({"summary": summary})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
