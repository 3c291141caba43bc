"""The benchmark's reference counts, checked exactly in the test suite.

``perfbench/reference.json`` holds the block-error count of every seeded
call that the benchmark times (``perfbench/bench.py``: ``sweep_code`` on
example1 level 0 at 9.5 dB, ``sweep_lattice`` on wimax1152 at VNR 2 dB, a
fixed trial count each, no early stop).  The benchmark accepts a run whose
BLER lies in the Wilson interval of the recorded count; these tests demand
the exact count on a cheap subset, so that a change to seeded outputs fails
here and not only in a benchmark run.  The file is read, never written.

A change that alters seeded outputs on purpose must re-record the file
with ``python3 perfbench/record_reference.py`` and say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from qclattice import sim

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def block_errors():
    return json.loads(REFERENCE.read_text())["block_errors"]


def test_code_example1_all_seeds(example1_bundle, block_errors):
    b = example1_bundle
    want = block_errors["code-example1"]["32"]
    got = [sim.sweep_code(b.pair.h0, b.plan0, [9.5], max_trials=32, target_errors=32,
                          seed=seed)[0].block_errors for seed in range(len(want))]
    assert len(got) == 160
    assert got == want


@pytest.mark.parametrize("seed", [27, 91, 94, 129])
def test_lattice_wimax1152_seeds_with_errors(wimax_bundle, block_errors, seed):
    # the only seeds of the 160 whose 512 trials have a block error
    b = wimax_bundle
    rep = sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, [2.0],
                            max_trials=512, target_errors=512, seed=seed)[0]
    assert rep.block_errors == block_errors["lattice-wimax1152"]["512"][seed] > 0
