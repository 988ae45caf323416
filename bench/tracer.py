"""Spans around the program's public functions, recorded from outside it.

Each stage names the functions that make it up.  Installing the tracer
replaces each function under every name that binds it -- the defining
module, modules that imported it by name, the package namespace, or the
class for methods -- so calls through any of those names are seen.  A stage
whose function no longer exists raises StageMissing: a renamed function must
fail the traced pass, never report zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

STAGES = {
    "log_model.parse": ["lotcert.log_model:parse_log"],
    "log_model.checks": ["lotcert.log_model:reducedness_report", "lotcert.log_model:classify"],
    "log_model.sub_lot_scan": ["lotcert.log_model:enumerate_sub_lots"],
    "log_model.reduce": ["lotcert.log_model:reduce_log"],
    "log_model.quotient": ["lotcert.log_model:quotient_lof"],
    "selection.build": ["lotcert.selection:build_selection_graph"],
    "arborescence.cut_condition": ["lotcert.arborescence:edmonds_condition"],
    "arborescence.branchings": ["lotcert.arborescence:two_disjoint_branchings"],
    "link_complex.build_link": ["lotcert.link_complex:build_link"],
    "link_complex.forest": [
        "lotcert.link_complex:is_forest",
        "lotcert.link_complex:is_relative_forest",
        "lotcert.link_complex:bridges",
    ],
    "link_complex.coloring": [
        "lotcert.link_complex:curvature",
        "lotcert.link_complex:verify_coloring_test",
        "lotcert.link_complex:verify_relative_coloring_test",
    ],
    "certify.plain": ["lotcert.certify:certify_lof"],
    "certify.relative": ["lotcert.certify:certify_relative"],
    "certify.json": ["lotcert.certify:Certificate.to_json"],
    "cli": ["lotcert.cli:main"],
}
SCAN = "log_model.sub_lot_scan"
RELATIVE = "certify.relative"


class StageMissing(RuntimeError):
    """A stage names a function that the program no longer defines."""


def _resolve(target: str):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    owner = None
    for part in qualname.split("."):
        if not hasattr(obj, part):
            raise StageMissing(f"{target} does not exist")
        owner, obj = obj, getattr(obj, part)
    if not callable(obj):
        raise StageMissing(f"{target} is not a function")
    return owner, qualname.split(".")[-1], obj


def bindings(stages: dict) -> list[tuple[str, object, str, object]]:
    """(stage, namespace, attribute, function) for every name binding a stage function."""
    found = []
    for stage, targets in stages.items():
        for target in targets:
            owner, attr, fn = _resolve(target)
            if isinstance(owner, type):
                found.append((stage, owner, attr, fn))
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "lotcert" or name.startswith("lotcert.")):
                    continue
                for key, value in vars(module).items():
                    if value is fn:
                        found.append((stage, module, key, fn))
    return found


class Tracer:
    """In-memory spans: [stage, start, end, parent span index, input id]."""

    def __init__(self):
        self.binds = bindings(STAGES)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input_id = -1
        self.scan_found = 0
        self.scan_peak = 0
        self._span_wrappers = {fn: self._span_wrapper(stage, fn) for stage, _, _, fn in self.binds}
        scan_fns = {fn for stage, _, _, fn in self.binds if stage == SCAN}
        self._peak_wrappers = {fn: self._peak_wrapper(fn) for fn in scan_fns}

    def _span_wrapper(self, stage: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts_scan = stage == SCAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [stage, clock(), 0.0, stack[-1] if stack else -1, self.input_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts_scan:
                self.scan_found += len(result)
            return result

        return traced

    def _peak_wrapper(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.scan_peak = max(self.scan_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _install(self, wrappers: dict) -> None:
        for _, namespace, attr, fn in self.binds:
            if fn in wrappers:
                setattr(namespace, attr, wrappers[fn])

    def spans_on(self, input_id: int) -> None:
        self.input_id = input_id
        self._install(self._span_wrappers)

    def peak_on(self) -> None:
        self.scan_peak = 0
        self._install(self._peak_wrappers)

    def off(self) -> None:
        for _, namespace, attr, fn in self.binds:
            setattr(namespace, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def relative_depth(spans: list[list]) -> int:
    """Deepest nesting of certify.relative spans."""
    depth = [0] * len(spans)
    for i, (stage, _, _, parent, _) in enumerate(spans):
        depth[i] = (depth[parent] if parent >= 0 else 0) + (stage == RELATIVE)
    return max(depth, default=0)
