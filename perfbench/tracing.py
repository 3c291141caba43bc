"""In-memory spans around calls into qclattice's layers.

A :class:`Tracer` replaces a fixed set of qclattice functions and methods
with timing wrappers, records one span per call (name, parent span, phase,
start, end, counts), and restores the originals on :meth:`Tracer.uninstall`.
Nothing inside ``src/qclattice`` is changed on disk; the wrappers live only
in the benchmark's process.

A layer's self time is its span's duration minus the durations of its child
spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    phase: str
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _bp_counts(args, out):
    graph = args[0]
    _, iters, conv = out
    frame_iters = int(iters.sum())
    return {"frames": int(iters.size), "frame_iters": frame_iters,
            "edge_iters": frame_iters * int(graph.n_edges),
            "converged": int(conv.sum())}


# (module, attribute, span name, counter).  "Class.method" wraps a method on
# the class; a plain name is replaced in every qclattice module that binds
# the same function object (e.g. codec.bp_decode_batch and the copy sim
# imported).  A target missing from the program is skipped and its layer
# reads 0.
TARGETS = [
    ("qclattice.codec", "bp_decode_batch", "codec.bp", _bp_counts),
    ("qclattice.codec", "wrapped_llr", "codec.llr",
     lambda args, out: {"values": int(out.size)}),
    ("qclattice.codec", "EncoderPlan.encode_batch", "codec.encode",
     lambda args, out: {"frames": int(out.shape[0])}),
    ("qclattice.codec", "MultistageDecoder.decode_batch", "codec.multistage", None),
    ("qclattice.codec", "TannerGraph.__init__", "codec.tanner", None),
    ("qclattice.gf2", "triangularize", "gf2.triangularize", None),
    ("qclattice.gf2", "nullspace_basis", "gf2.nullspace", None),
    ("qclattice.wmin", "_rref_packed", "wmin.rref", None),
    ("qclattice.presets", "get_bundle", "presets.bundle", None),
]


class Tracer:
    """Records spans while installed; ``phase`` labels every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._open[-1] if self._open else None, self.phase,
                 perf_counter())
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.t1 = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if counter is not None:
                s.counts = counter(args, out)
            return out
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, counter in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    continue
                self._patch(cls, meth, orig, self._wrap(orig, name, counter))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, name, counter)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").partition(".")[0] != "qclattice":
                    continue
                if getattr(m, attr, None) is orig:
                    self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, new) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[list]:
        return [[s.name, s.parent, s.phase, s.t0, s.t1, s.counts]
                for s in self.spans]


def layer_metrics(tracer: Tracer, op_phases: list[str],
                  setup_phases: list[str]) -> dict[str, float]:
    """Per-layer figures: per traced operation (mean) for the timed phase,
    per set-up (median over repetitions) for the set-up layers."""
    selfs = tracer.self_times()
    ops = set(op_phases)
    n_ops = max(len(op_phases), 1)
    tot: dict[str, float] = {}
    self_tot: dict[str, float] = {}
    cnt: dict[str, float] = {}
    for s, st in zip(tracer.spans, selfs):
        if s.phase not in ops:
            continue
        tot[s.name] = tot.get(s.name, 0.0) + s.dur
        self_tot[s.name] = self_tot.get(s.name, 0.0) + st
        cnt[s.name + ".calls"] = cnt.get(s.name + ".calls", 0) + 1
        for k, v in s.counts.items():
            cnt[f"{s.name}.{k}"] = cnt.get(f"{s.name}.{k}", 0) + v

    def per_op(table, key):
        return table.get(key, 0.0) / n_ops

    def per_setup(name):
        if not setup_phases:
            return 0.0
        return statistics.median(
            sum(s.dur for s in tracer.spans if s.phase == p and s.name == name)
            for p in setup_phases)

    bp_frames = cnt.get("codec.bp.frames", 0)
    edge_iters = cnt.get("codec.bp.edge_iters", 0)
    return {
        "codec.bp_s": per_op(tot, "codec.bp"),
        "codec.bp_frames": per_op(cnt, "codec.bp.frames"),
        "codec.bp_frame_iters": per_op(cnt, "codec.bp.frame_iters"),
        "codec.bp_edge_iters": per_op(cnt, "codec.bp.edge_iters"),
        "codec.bp_ns_per_edge_iter":
            tot.get("codec.bp", 0.0) * 1e9 / edge_iters if edge_iters else 0.0,
        "codec.bp_converged_ratio":
            cnt.get("codec.bp.converged", 0) / bp_frames if bp_frames else 0.0,
        "codec.llr_s": per_op(tot, "codec.llr"),
        "codec.llr_values": per_op(cnt, "codec.llr.values"),
        "codec.encode_s": per_op(tot, "codec.encode"),
        "codec.encode_frames": per_op(cnt, "codec.encode.frames"),
        "codec.multistage_self_s": per_op(self_tot, "codec.multistage"),
        "codec.tanner_s": per_op(tot, "codec.tanner"),
        "sim.self_s": per_op(self_tot, "sim.sweep"),
        "wmin.rref_s": per_op(tot, "wmin.rref"),
        "wmin.rref_calls": per_op(cnt, "wmin.rref.calls"),
        "wmin.self_s": per_op(self_tot, "wmin.search"),
        "gf2.nullspace_s": per_op(tot, "gf2.nullspace"),
        "presets.bundle_s": per_setup("presets.bundle"),
        "gf2.triangularize_s": per_setup("gf2.triangularize"),
    }
