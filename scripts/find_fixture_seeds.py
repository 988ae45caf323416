#!/usr/bin/env python3
"""Scan generator seeds for LOTs containing a non-boundary-reduced sub-LOT.

For every hit the script reports whether the plain pipeline fails with the
expected delta=1 cut and whether the relative pipeline certifies the
instance.  The seed lists frozen into the test suite come from runs of this
script.

Usage: python scripts/find_fixture_seeds.py [n] [max_seed]
"""

import sys

from lotcert import bad_sub_lot_witnesses, certify_lof, certify_relative
from lotcert.oracle import random_reduced_injective_lot


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    max_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    hits = 0
    generic = 0
    for seed in range(max_seed):
        log = random_reduced_injective_lot(n, seed)
        bad = bad_sub_lot_witnesses(log)
        if not bad:
            continue
        hits += 1
        cert = certify_lof(log)
        cut = cert.witnesses.get("cut", {})
        rel = certify_relative(log)
        ok = rel.verdicts["relative_coloring_test"] is True
        generic += ok
        print(
            f"n={n} seed={seed:4d} bad_sub_lots={len(bad)} "
            f"cut_delta={cut.get('delta')} relative={'ok' if ok else rel.verdicts['relative_coloring_test']}"
        )
    print(f"\n{hits} instances with bad sub-LOTs, {generic} certified relatively")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
