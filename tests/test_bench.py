"""The benchmark's workloads still run on the package as it is.

``perfbench/bench.py`` reads the package's lattice object by attribute
(``BUILTIN_LATTICES[name].cache_clear()``, ``get_bundle`` and a bundle's
``proto``, ``pair``, ``plan0``, ``plan1``, ``plans`` and
``profile.normalized_volume``); a refactor that breaks one would otherwise
show only as a failed benchmark run.  Each workload runs its set-up, one
operation at its tiny size and the output check, in this process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        # bench.py imports its sibling tracing.py by plain name
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("_perfbench_bench",
                                                      PERFBENCH / "bench.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while the file executes
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("workload", ["code-example1", "lattice-wimax1152",
                                      "distance-wimax1152"])
def test_workload_runs_and_checks(bench, workload):
    wl = bench.WORKLOADS[workload]
    tgt, seconds = bench.set_up(wl)
    assert seconds > 0
    seed = bench.stream_seed(1, 1, wl)
    out = bench.call(wl, tgt, wl.tiny_work, seed)
    problems, _ = bench.check(wl, tgt, out, wl.tiny_work,
                              bench.load_reference(wl, wl.tiny_work), seed)
    assert problems == []
