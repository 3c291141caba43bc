#!/usr/bin/env python3
"""Hunt for a low-weight codeword of the modified z=48 rate-1/2 QC code.

Two variants of the modified matrix exist depending on how the z=96 base
table is rescaled to z=48:

* ``mod``   — shift exponents reduced modulo 48.  The published minimum
  distances (16 unmodified, 23 modified) reproduce on this variant; a
  weight-23 witness typically appears within a few thousand iterations.
  This matrix contains 4-cycles (block rows 5 and 11 collide).
* ``floor`` — proportional shifts floor(b*z/96), the variant used by the
  ``wimax1152`` preset.  It is 4-cycle free; searches here have not
  produced anything below weight 26, so its true minimum distance appears
  to be larger.

The search prints every improvement; each reported witness is verified
against the parity checks (``low_weight_search`` raises ``WitnessError``
for one that is zero or not a codeword).
"""

import argparse
import sys
import time

import numpy as np

from qclattice import qc
from qclattice.gf2 import rref
from qclattice.wmin import low_weight_search


def build_matrix(scaling: str):
    if scaling == "floor":
        P = qc.wimax_proto_1152()
    elif scaling == "mod":
        P = qc.scale_shifts(qc.wimax_proto_2304(), 1152)
        P = qc.apply_edits(P, qc.parse_edits(qc.bundled_text("wimax_r12_edits_n1152.txt")))
    else:
        raise ValueError(f"unknown scaling {scaling!r}")
    return qc.expand(P)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scaling", choices=("mod", "floor"), default="mod")
    ap.add_argument("--iterations", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--stop-at", type=int, default=23)
    ap.add_argument("--chunk", type=int, default=500,
                    help="iterations per progress check")
    args = ap.parse_args()

    H = build_matrix(args.scaling)
    print(f"searching {H.rows}x{H.cols} ({args.scaling} scaling), "
          f"k = {H.cols - len(rref(H.a)[1])}")

    best = None
    t0 = time.time()
    done = 0
    while done < args.iterations:
        chunk = min(args.chunk, args.iterations - done)
        w, c = low_weight_search(H, chunk, seed=args.seed + done,
                                 stop_at=args.stop_at)
        done += chunk
        if best is None or w < best:
            best = w
            print(f"[{time.time() - t0:7.0f}s, {done} iters] weight {w} witness, "
                  f"support {np.nonzero(c)[0].tolist()}")
        if best <= args.stop_at:
            print(f"reached stop-at weight {args.stop_at}")
            break
    print(f"best found: {best} (upper bound on d_min)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
