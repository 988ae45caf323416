"""The three workloads: how each turns a seed into a stream of input passes.

lot-random   random (Pruefer) reduced injective LOTs at n=24, plain certify.
             The time and memory of certify at the parent of this benchmark
             grow with the number of subtrees of the input tree, which is
             heavy tailed (median ~10k, 1% above ~60k, up to ~200k in 40k
             samples).  So that runs with different seeds see the same cost
             profile, each pass of 50 draws one tree from each of 50
             equal-probability strata of that count (stratified sampling),
             and trees above the reference 99th percentile are left out:
             one such tree would decide a run's peak memory alone.  Growth
             beyond that is what the scale probe measures.  The cap and the
             strata are frozen from a reference sample.
lot-path     path-shaped reduced injective LOTs at n=128, plain certify.
lot-relative reduced injective LOTs at n=16 from a frozen pool of generator
             seeds, each with a sub-LOT that is not boundary reduced; certify
             (exit 3) and then certify --relative.  The seed permutes the pool.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import inputs

FROZEN_PATH = Path(__file__).with_name("frozen.json")
DEFAULT_SEED = 0
RELATIVE_N = 16


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    n: int
    relative: bool
    binned: bool
    pass_size: int  # a run ends on a pass boundary; per-pass figures are medianed




WORKLOADS = {
    w.name: w
    for w in (
        Workload("lot-random", "random", 24, relative=False, binned=True, pass_size=50),
        Workload("lot-path", "path", 128, relative=False, binned=False, pass_size=25),
        Workload("lot-relative", "random", RELATIVE_N, relative=True, binned=False, pass_size=100),
    )
}


@dataclass
class Input:
    index: int
    text: str
    edges: list
    expected_plain: Optional[int]  # None: decided by the closure oracle later
    expected_relative: Optional[int]  # only on lot-relative
    frozen_sha: Optional[str]
    path: Optional[Path] = None  # set once the input is written


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text(encoding="utf-8"))


def pool_lot(gen_seed: int) -> tuple[list[str], list[tuple]]:
    """The lot-relative pool member with this generator seed."""
    return inputs.random_lot("random", RELATIVE_N, random.Random(f"relative-pool:{gen_seed}"))


def warmup_lot(workload: Workload) -> tuple[list[str], list[tuple]]:
    """A fixed input for the untimed warm-up call, the same for every seed."""
    if workload.relative:
        return pool_lot(load_frozen()["lot-relative"]["pool"][0][0])
    return inputs.random_lot(workload.shape, workload.n, random.Random(f"warmup:{workload.name}"))


def _binned_pass(n: int, strata: dict, rng: random.Random) -> list[tuple]:
    bounds = strata["bins"]
    slots: list = [None] * (len(bounds) + 1)
    missing = len(slots)
    while missing:
        lot = inputs.random_lot("random", n, rng)
        count = inputs.subtree_count(n, lot[1])
        if count > strata["cap"]:
            continue
        b = bisect.bisect_right(bounds, count)
        if slots[b] is None:
            slots[b] = lot
            missing -= 1
    rng.shuffle(slots)
    return slots


def passes(workload: Workload, seed: int, frozen: dict) -> Iterator[list[Input]]:
    """Endless passes of inputs; lot-relative ends with its pool."""
    entry = frozen[workload.name]
    pinned = entry.get("default_seed", []) if seed == DEFAULT_SEED else []
    rng = random.Random(f"{workload.name}:{seed}")
    index = 0
    if workload.relative:
        pool = list(entry["pool"])
        rng.shuffle(pool)
        size = workload.pass_size
        for start in range(0, len(pool) - size + 1, size):
            batch = []
            for gen_seed, sha, code in pool[start : start + size]:
                vs, es = pool_lot(gen_seed)
                batch.append(Input(index, inputs.to_text(vs, es), es, 3, code, sha))
                index += 1
            yield batch
        return
    while True:
        if workload.binned:
            lots = _binned_pass(workload.n, entry, rng)
        else:
            lots = [inputs.random_lot(workload.shape, workload.n, rng) for _ in range(workload.pass_size)]
        batch = []
        for vs, es in lots:
            sha, code = pinned[index] if index < len(pinned) else (None, None)
            batch.append(Input(index, inputs.to_text(vs, es), es, code, None, sha))
            index += 1
        yield batch
