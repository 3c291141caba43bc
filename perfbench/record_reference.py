#!/usr/bin/env python3
"""Record the reference block-error counts the benchmark checks against.

For each sweep workload, size (full and tiny) and pool seed, runs the same
call the benchmark times and stores its block-error count in
reference.json.  A benchmark operation passes when its BLER lies in the
Wilson 95% interval of the recorded count for the same seed and trial
count.  Run from the repository root (takes about 15 minutes on 2 cores):

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    import bench

    table: dict[str, dict[str, list[int]]] = {}
    for wl in bench.WORKLOADS.values():
        if wl.kind == "search":
            continue
        tgt, _ = bench.set_up(wl)
        table[wl.name] = {}
        for work in (wl.tiny_work, wl.work):
            errors = []
            for seed in range(bench.POOL):
                rep = bench.call(wl, tgt, work, seed)
                errors.append(rep.block_errors)
            table[wl.name][str(work)] = errors
            print(f"{wl.name} trials={work}: {sum(errors)} errors over "
                  f"{bench.POOL} seeds", file=sys.stderr)
    doc = {"git_rev": bench.git_rev(), "src_sha256": bench.src_digest(),
           "pool": bench.POOL, "block_errors": table}
    bench.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
