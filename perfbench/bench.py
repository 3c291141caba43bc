"""Workloads, timed operations, output checks and metrics of the benchmark.

Imported by run.py after it has pinned BLAS threads and put this checkout's
``src/`` on sys.path.  One operation is one timed call into qclattice: a
one-point ``sweep_code`` or ``sweep_lattice`` of a fixed trial count (no
early stop on errors), or one ``low_weight_search`` of a fixed iteration
count (no ``stop_at``).  An operation fails if it raises or fails its
output check; block errors are measurements, not failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import qclattice
from qclattice import presets, qc, sim, wmin
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

POOL = 160       # sweep seeds 0..POOL-1 have a recorded reference BLER
STRIDE = 16      # workload seeds s and s+1 start STRIDE streams apart
SETUP_REPS = 9   # set-ups per run; setup_s is their median
WARMUP_S = 5.0   # untimed operations before the timed phase
Z95 = 1.959963984540054


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    kind: str          # "code", "lattice" or "search"
    point_db: float    # SNR (code) or VNR (lattice) in dB; unused by search
    work: int          # trials (sweeps) or iterations (search) per operation
    tiny_work: int     # the same for --size tiny


WORKLOADS = {w.name: w for w in (
    Workload("code-example1", "example1", "code", 9.5, 1024, 32),
    Workload("lattice-wimax1152", "wimax1152", "lattice", 2.0, 512, 16),
    Workload("distance-wimax1152", "wimax1152", "search", 0.0, 40, 2),
)}

END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_share": "ratio"}
PER_LAYER_UNITS = {
    "codec.bp_s": "s", "codec.bp_frames": "count",
    "codec.bp_frame_iters": "count", "codec.bp_edge_iters": "count",
    "codec.bp_ns_per_edge_iter": "ns", "codec.bp_converged_ratio": "ratio",
    "codec.llr_s": "s", "codec.llr_values": "count",
    "codec.encode_s": "s", "codec.encode_frames": "count",
    "codec.multistage_self_s": "s", "codec.tanner_s": "s", "sim.self_s": "s",
    "wmin.rref_s": "s", "wmin.rref_calls": "count", "wmin.self_s": "s",
    "gf2.nullspace_s": "s",
    "presets.bundle_s": "s", "gf2.triangularize_s": "s", "codec.maps_s": "s",
    "trace.overhead_pct": "%", "trace.rate_delta_per_s": "1/s",
}


@dataclass
class Target:
    """What one set-up built: the bundle, and H_qc for the search."""

    bundle: presets.LatticeBundle
    H: qclattice.BitMatrix | None
    maps_s: float      # first encode_batch minus a steady one, summed over plans


def stream_seed(run_seed: int, i: int, wl: Workload) -> int:
    """Seed of operation i (0 is the warm-up); sweeps draw from the pool."""
    s = run_seed * STRIDE + i
    return s if wl.kind == "search" else s % POOL


def _encode_one(plan, rows: int) -> float:
    t0 = perf_counter()
    plan.encode_batch(np.zeros((1, rows), dtype=np.uint8),
                      np.zeros((1, plan.num_info), dtype=np.uint8))
    return perf_counter() - t0


def set_up(wl: Workload) -> tuple[Target, float]:
    """Build everything the workload needs, uncached; returns its wall time."""
    presets.BUILTIN_LATTICES[wl.preset].cache_clear()
    t0 = perf_counter()
    bundle = presets.get_bundle(wl.preset)
    H = None
    maps_s = 0.0
    if wl.kind == "search":
        H = qc.expand(bundle.proto)
    else:
        levels = [(bundle.plan0, bundle.pair.h0)]
        if wl.kind == "lattice":
            levels.append((bundle.plan1, bundle.pair.h1))
        for plan, h in levels:
            first = _encode_one(plan, h.rows)
            maps_s += first - _encode_one(plan, h.rows)
    return Target(bundle, H, maps_s), perf_counter() - t0


def call(wl: Workload, tgt: Target, work: int, seed: int):
    b = tgt.bundle
    if wl.kind == "code":
        return sim.sweep_code(b.pair.h0, b.plan0, [wl.point_db], max_trials=work,
                              target_errors=work, seed=seed, label=wl.name)[0]
    if wl.kind == "lattice":
        return sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume,
                                 [wl.point_db], max_trials=work,
                                 target_errors=work, seed=seed, label=wl.name)[0]
    return wmin.low_weight_search(tgt.H, work, seed)


def wilson(errors: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    p = errors / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def check_sweep(rep, work: int, ref_errors: int) -> list[str]:
    problems = []
    if rep.trials != work:
        problems.append(f"trials {rep.trials} != {work}")
        return problems
    if not 0 <= rep.block_errors <= rep.trials:
        problems.append(f"block_errors {rep.block_errors} out of range")
    if rep.stage0_errors + rep.stage1_errors + rep.integer_errors != rep.block_errors:
        problems.append(f"stage errors {rep.stage0_errors}+{rep.stage1_errors}+"
                        f"{rep.integer_errors} != block_errors {rep.block_errors}")
    if rep.bler != rep.block_errors / rep.trials:
        problems.append(f"bler {rep.bler} != {rep.block_errors}/{rep.trials}")
    lo, hi = wilson(ref_errors, work)
    if not lo - 1e-12 <= rep.bler <= hi + 1e-12:
        problems.append(f"bler {rep.bler} outside reference Wilson 95% interval "
                        f"[{lo:.5f}, {hi:.5f}] ({ref_errors}/{work})")
    return problems


def check_witness(H, weight: int, c) -> list[str]:
    """Independent of wmin's own assert, which ``python -O`` removes."""
    c = np.asarray(c)
    if c.shape != (H.cols,) or not np.isin(c, (0, 1)).all():
        return [f"witness is not a binary vector of length {H.cols}"]
    problems = []
    if not c.any():
        problems.append("witness is the zero word")
    if ((H.a.astype(np.int64) @ c.astype(np.int64)) & 1).any():
        problems.append("witness violates H c = 0")
    if int(c.sum()) != weight:
        problems.append(f"reported weight {weight} != witness weight {int(c.sum())}")
    return problems


def check(wl: Workload, tgt: Target, out, work: int, ref: list[int] | None,
          seed: int) -> tuple[list[str], dict]:
    if wl.kind == "search":
        weight, c = out
        return check_witness(tgt.H, weight, c), {"weight": int(weight)}
    summary = {"block_errors": out.block_errors, "stage0_errors": out.stage0_errors,
               "stage1_errors": out.stage1_errors,
               "integer_errors": out.integer_errors,
               "iterations_mean": out.iterations_mean}
    return check_sweep(out, work, ref[seed]), summary


def load_reference(wl: Workload, work: int) -> list[int] | None:
    if wl.kind == "search":
        return None
    table = json.loads(REFERENCE.read_text())["block_errors"][wl.name][str(work)]
    if len(table) != POOL:
        raise ValueError(f"reference for {wl.name} has {len(table)} seeds, not {POOL}")
    return table


def git_rev() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, r = line.partition(" ")
        if r == name:
            return sha
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    pkg = Path(qclattice.__file__).resolve().parent
    h = hashlib.sha256()
    for p in sorted(pkg.rglob("*")):
        if p.is_file() and p.suffix in (".py", ".txt"):
            h.update(str(p.relative_to(pkg)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(args, wl: Workload, work: int, ops: list[dict]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "work_unit": "iterations" if wl.kind == "search" else "trials",
        "work_per_op": work, "ops": len(ops),
        "total_work": work * len(ops),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_rev": git_rev(), "src_sha256": src_digest(),
    }


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    work = wl.tiny_work if tiny else wl.work
    reps = 1 if tiny else SETUP_REPS
    ref = load_reference(wl, work)
    tracer = Tracer() if args.trace else None

    setup_times, maps = [], []

    def set_up_once() -> Target:
        if tracer:
            tracer.phase = f"setup{len(setup_times)}"
            tracer.install()
        try:
            tgt, dt = set_up(wl)
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(dt)
        maps.append(tgt.maps_s)
        return tgt

    tgt = set_up_once()
    # Untimed warm-up.  The first call of a process ran about 25% slower
    # than later ones, and on a shared machine the first seconds after idle
    # ran up to 40% faster than the sustained speed; both would skew a run.
    warm_end = perf_counter() + (0 if tiny else WARMUP_S)
    warmups = 0
    while warmups == 0 or perf_counter() < warm_end:
        call(wl, tgt, work, stream_seed(args.seed, 0, wl))
        warmups += 1

    root = "wmin.search" if wl.kind == "search" else "sim.sweep"
    ops: list[dict] = []
    min_ops = 2 if tracer else 1
    start = perf_counter()
    while len(ops) < min_ops or perf_counter() < start + args.seconds:
        # The other set-ups are spread evenly over the timed phase, so that
        # their median sees the same machine as the operations do; each
        # builds everything anew and its result is dropped.
        if (len(setup_times) < reps and
                perf_counter() >= start + args.seconds * len(setup_times) / reps):
            set_up_once()
            continue
        i = len(ops) + 1
        seed = stream_seed(args.seed, i, wl)
        traced = tracer is not None and i % 2 == 0
        op = {"i": i, "seed": seed, "traced": traced, "phase": f"op{i}"}
        if traced:
            tracer.phase = op["phase"]
            tracer.install()
        try:
            with tracer.span(root) if traced else nullcontext():
                t0 = perf_counter()
                out = call(wl, tgt, work, seed)
                op["seconds"] = perf_counter() - t0
            op["problems"], op["result"] = check(wl, tgt, out, work, ref, seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op["problems"] = ["raised: " + traceback.format_exc().splitlines()[-1]]
        finally:
            if traced:
                tracer.uninstall()
        if "seconds" in op:
            op["rate"] = work / op["seconds"]
        for p in op["problems"]:
            print(f"op {i} (seed {seed}) failed: {p}", file=sys.stderr)
        ops.append(op)

    while len(setup_times) < reps:
        set_up_once()
    failed = sum(1 for op in ops if op["problems"])

    def rate(sel):
        # Work over the wall time of the calls, summed over the run: of the
        # per-run figures tried, it varied least from run to run.
        timed = [op for op in ops if "seconds" in op and sel(op)]
        seconds = sum(op["seconds"] for op in timed)
        return work * len(timed) / seconds if seconds else 0.0

    if tracer:
        values = layer_metrics(tracer, [op["phase"] for op in ops if op["traced"]],
                               [f"setup{k}" for k in range(reps)])
        values["codec.maps_s"] = statistics.median(maps)
        plain = rate(lambda op: not op["traced"])
        traced_rate = rate(lambda op: op["traced"])
        values["trace.rate_delta_per_s"] = traced_rate - plain
        values["trace.overhead_pct"] = (
            100.0 * (plain - traced_rate) / plain if plain else 0.0)
        units = PER_LAYER_UNITS
    else:
        values = {
            "work_per_s": rate(lambda op: True),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (len(ops) - failed) / len(ops),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    prov = provenance(args, wl, work, ops)
    record = {"provenance": prov, "metrics": metrics, "setup_s": setup_times,
              "maps_s": maps,
              "warmup_ops": warmups,
              "ops": ops,
              "spans": tracer.dump() if tracer else []}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
     ).write_text(json.dumps(record))

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0
