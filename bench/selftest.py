"""Benchmark self-test: a tiny pass of every workload and its failure paths.

Checks that every stage names a function that exists and is bound at least
once, that a stage naming a missing function fails loudly, that traced and
untraced passes write byte-identical certificates (a difference counts as a
failed input), and that an expected exit code altered on purpose shows up
in fail_ratio.
"""

from __future__ import annotations

import sys

import run
import tracer
import workloads


def _tiny(workload: str, **extra) -> dict:
    cfg = {
        "workload": workload,
        "seed": 1,
        "seconds": 0,
        "trace": True,
        "min_inputs": 2,
        "max_inputs": 2,
        "outdir": str(run.OUT / f"selftest-{workload}"),
        **extra,
    }
    lines, _, timed_out = run.child(cfg, run.RUN_LIMIT_S)
    return run.report(workload, cfg["seed"], lines, timed_out, cfg["trace"])


def main() -> int:
    problems = []
    sys.path.insert(0, str(run.ROOT / "src"))
    bound = {stage for stage, *_ in tracer.bindings(tracer.STAGES)}
    problems += [f"stage {s} binds no function" for s in tracer.STAGES if s not in bound]
    try:
        tracer.bindings({"missing": ["lotcert.log_model:no_such_function"]})
        problems.append("a missing stage function did not raise StageMissing")
    except tracer.StageMissing:
        pass

    for workload in workloads.WORKLOADS:
        result = _tiny(workload)
        if not result["correct"]:
            problems.append(f"{workload}: tiny traced pass not correct: {result}")
        missing = {f"{s}.calls" for s in tracer.STAGES} - set(result["metrics"])
        if missing:
            problems.append(f"{workload}: no metrics for {sorted(missing)}")

    result = _tiny("lot-relative", trace=False, alter_expected=True)
    if result["correct"] or result["failed"] != 1 or result["attempted"] != 2:
        problems.append(f"altered expected exit code not counted: {result}")

    for problem in problems:
        print(f"SELFTEST FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0
