"""Sequential lattice encoding and multistage sum-product decoding.

Encoding solves each level's parity checks for a prescribed syndrome (the
level-1 syndrome comes from the level-0 codeword), which is realized as a
syndrome column prepended at the left of the parity-check matrix plus a
dummy coordinate pinned to bit 1 at the head of each component codeword.
The transmitted integer point is

    x = (3 + 4*z0,  c0 + 2*c1 + 4*zvec)

so coordinate 0 always satisfies x_0 = 3 (mod 4).

Decoding runs a flooding tanh-rule sum-product decoder per level on the
mod-2 wrapped channel: decode level 0, subtract, halve, decode level 1 at
sigma/2, then round out the integer part.  Pinning the dummy bit to 1 is
realized exactly by folding the syndrome column into per-check sign flips
(a +/-1 tanh factor), with all real messages clipped to +/-30; input LLRs
saturate at +/-64.

The BP kernel works frame-minor: every message array is (edges, frames)
with one contiguous row per edge, edges laid out slot-major within groups
of equal-degree checks (see :class:`TannerGraph`).  Gathers are whole-row
``np.take(..., axis=0)`` copies, per-check and per-variable sums are adds
of contiguous slot blocks in the summation order of ``np.add.reduceat``,
and each iteration updates a few preallocated buffers in place.  The
results are bit-identical to the straightforward (frames, edges) form with
``reduceat`` sums, which ``tests/oracles.py`` keeps as the reference.

LLR sign convention: positive favors bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import NestedPair
from .gf2 import BitMatrix, TriangulationPlan, solve_coset, solve_coset_many, triangularize

LLR_SAT = 64.0      # saturation used to pin known bits
MSG_CLIP = 30.0     # message clip inside the sum-product updates
_TINY = 1e-300
_ATANH_CAP = 1.0 - 1e-15


class OddDotError(ValueError):
    """A level-1 congruence row had an odd dot product (nesting violation)."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

class EncoderPlan:
    """Triangulation plan for one level plus cached affine encode maps."""

    def __init__(self, matrix: BitMatrix):
        self.matrix = matrix
        self.plan: TriangulationPlan = triangularize(matrix)
        self._info_map: np.ndarray | None = None
        self._syn_map: np.ndarray | None = None

    @property
    def free_cols(self) -> np.ndarray:
        return self.plan.free_cols

    @property
    def num_info(self) -> int:
        return int(self.plan.free_cols.size)

    def _maps(self) -> tuple[np.ndarray, np.ndarray]:
        # solve_coset is GF(2)-linear in (syndrome, info), so the images of
        # the unit vectors determine it; built once, reused for batches.
        if self._info_map is None:
            m, k = self.matrix.rows, self.num_info
            self._info_map = solve_coset_many(
                self.plan, self.matrix, np.zeros((k, m), dtype=np.uint8),
                np.eye(k, dtype=np.uint8))
            self._syn_map = solve_coset_many(
                self.plan, self.matrix, np.eye(m, dtype=np.uint8),
                np.zeros((m, k), dtype=np.uint8), check=False)
        return self._info_map, self._syn_map

    def encode_batch(self, syndromes: np.ndarray, infos: np.ndarray) -> np.ndarray:
        """Solve for (batch, n) codewords; identical to solve_coset row-wise.

        Syndromes must be achievable; achievability is not re-checked here
        (the cached map reproduces solve_coset exactly on achievable input).
        """
        info_map, syn_map = self._maps()
        acc = infos.astype(np.float32) @ info_map.astype(np.float32)
        if syndromes.any():
            acc += syndromes.astype(np.float32) @ syn_map.astype(np.float32)
        return (acc.astype(np.int64) & 1).astype(np.uint8)


def plan_level(H: BitMatrix) -> EncoderPlan:
    """Reusable encoder plan; the plan's free columns are the info positions."""
    return EncoderPlan(H)


def stage_syndrome(level1_rows: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """Level-1 syndrome of a level-0 codeword: s_j = ((h_j . c0) mod 4) / 2.

    Every dot product must be even (guaranteed by nesting); an odd dot
    raises :class:`OddDotError`.
    """
    rows = np.asarray(level1_rows, dtype=np.int64)
    dots = rows @ np.asarray(c0, dtype=np.int64)
    if (dots & 1).any():
        bad = int(np.nonzero(dots & 1)[0][0])
        raise OddDotError(f"row {bad} has odd dot product {int(dots[bad])}")
    return ((dots % 4) // 2).astype(np.uint8)


def _stage_syndrome_batch(rows_t: np.ndarray, C0: np.ndarray) -> np.ndarray:
    """Relaxed batch syndrome used by the decoder: bit 1 of (dot mod 4).

    Hard decisions from an unconverged stage may violate parity, so odd
    dots are tolerated here rather than raised.
    """
    dots = (C0.astype(np.float32) @ rows_t).astype(np.int64)
    return ((dots % 4) // 2).astype(np.uint8)


@dataclass(frozen=True)
class LatticeWord:
    """One encoded (or decoded) lattice point and its per-level pieces."""

    c0: np.ndarray    # (n,) level-0 codeword
    c1: np.ndarray    # (n,) level-1 codeword
    s1: np.ndarray    # level-1 syndrome solved by c1
    zvec: np.ndarray  # (n,) integer part
    z0: int           # integer part of the dummy coordinate
    x: np.ndarray     # (n+1,) transmitted point; x[0] = 3 + 4*z0


def assemble_point(c0, c1, zvec, z0: int) -> np.ndarray:
    x = np.empty(len(c0) + 1, dtype=np.int64)
    x[0] = 3 + 4 * int(z0)
    x[1:] = c0.astype(np.int64) + 2 * c1.astype(np.int64) + 4 * np.asarray(zvec, dtype=np.int64)
    return x


def encode_lattice(pair: NestedPair, plans: tuple[EncoderPlan, EncoderPlan],
                   info0, info1, zvec, z0: int = 0) -> LatticeWord:
    """Sequential two-level encode.

    Level 0 solves for syndrome zero; the level-1 syndrome is derived from
    c0 and solved next; the integer parts translate the point by 4Z^n.
    """
    plan0, plan1 = plans
    info0 = np.asarray(info0, dtype=np.uint8)
    info1 = np.asarray(info1, dtype=np.uint8)
    c0 = solve_coset(plan0.plan, pair.h0, np.zeros(pair.h0.rows, dtype=np.uint8), info0)
    s1 = stage_syndrome(pair.h1.a, c0)
    c1 = solve_coset(plan1.plan, pair.h1, s1, info1)
    zvec = np.asarray(zvec, dtype=np.int64)
    return LatticeWord(c0=c0, c1=c1, s1=s1, zvec=zvec, z0=int(z0),
                       x=assemble_point(c0, c1, zvec, z0))


# ---------------------------------------------------------------------------
# wrapped-Gaussian LLRs for the mod-2 channel
# ---------------------------------------------------------------------------

def wrapped_llr(y, sigma: float, window: int | None = None) -> np.ndarray:
    """Log-likelihood ratio of bit 0 (even integers) vs bit 1 (odd) under
    Gaussian noise wrapped mod 2.

        llr_i = ln sum_k exp(-(y_i-2k)^2/2s^2) - ln sum_k exp(-(y_i-1-2k)^2/2s^2)

    The sums run over |k - round(y_i/2)| <= max(3, ceil(6 sigma)), which is
    accurate to better than 1e-9 relative error against a much wider window.
    Positive output favors bit 0.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = np.asarray(y, dtype=np.float64)
    w = window if window is not None else max(3, math.ceil(6 * sigma))
    kc = np.rint(y / 2.0)
    inv = 1.0 / (2.0 * sigma * sigma)
    num = None
    den = None
    for dk in range(-w, w + 1):
        shift = 2.0 * (kc + dk)
        t0 = -((y - shift) ** 2) * inv
        t1 = -((y - 1.0 - shift) ** 2) * inv
        num = t0 if num is None else np.logaddexp(num, t0)
        den = t1 if den is None else np.logaddexp(den, t1)
    return num - den


def wrapped_log_density(y, sigma: float, bit: int, window: int | None = None) -> np.ndarray:
    """Log density of the wrapped channel output given a transmitted bit.

    The density of (bit + noise) mod 2 on [0, 2); used by oracles and the
    normalization test.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = np.asarray(y, dtype=np.float64)
    w = window if window is not None else max(3, math.ceil(6 * sigma))
    kc = np.rint((y - bit) / 2.0)
    inv = 1.0 / (2.0 * sigma * sigma)
    out = None
    for dk in range(-w, w + 1):
        t = -((y - bit - 2.0 * (kc + dk)) ** 2) * inv
        out = t if out is None else np.logaddexp(out, t)
    return out - 0.5 * math.log(2.0 * math.pi * sigma * sigma)


# ---------------------------------------------------------------------------
# flooding sum-product decoder (batched, syndrome-aware)
# ---------------------------------------------------------------------------

class TannerGraph:
    """Edge layout of a parity-check matrix for vectorized flooding BP.

    Checks are grouped by degree.  Inside a group of ``m`` checks of degree
    ``d`` the edges sit slot-major: edge ``j`` of the group's check ``i``
    (edges of a check in ascending variable order) is row ``j*m + i`` of the
    group's block, so a (d*m, batch) block reshapes to (d, m, batch) and a
    per-check reduction is a reduction over axis 0.  Variables are grouped by
    degree the same way (edges of a variable in ascending check order), with
    ``vgather`` mapping the variable-side slots to edge rows.
    """

    def __init__(self, H: BitMatrix):
        self.n_checks, self.n_vars = H.shape
        chk, var = np.nonzero(H.a)          # row-major: grouped by check
        self.n_edges = int(chk.size)

        deg_chk = np.bincount(chk, minlength=self.n_checks)
        self.idle_chk = np.nonzero(deg_chk == 0)[0]
        active = np.nonzero(deg_chk)[0]
        self.chk_perm = active[np.argsort(deg_chk[active], kind="stable")]
        self.chk_groups, eperm = _slot_layout(
            deg_chk, self.chk_perm, np.arange(self.n_edges))

        deg_var = np.bincount(var, minlength=self.n_vars)
        self.var_perm = np.argsort(deg_var, kind="stable")
        self.var_row = np.empty(self.n_vars, dtype=np.int64)
        self.var_row[self.var_perm] = np.arange(self.n_vars)
        edge_row = np.empty(self.n_edges, dtype=np.int64)
        edge_row[eperm] = np.arange(self.n_edges)
        self.vpos = self.var_row[var[eperm]]
        var_order = edge_row[np.argsort(var, kind="stable")]
        n_idle = int((deg_var == 0).sum())    # degree-0 variables come first
        self.var_groups, self.vgather = _slot_layout(
            deg_var, self.var_perm[n_idle:], var_order, n_idle)


def _slot_layout(deg, nodes, edge_ids, node0=0):
    """Slot-major layout of the edges of ``nodes`` (sorted by degree).

    ``edge_ids`` lists every edge grouped by node in ascending node order.
    Returns the groups ``(row0, d, m, node_row)`` -- rows ``row0 : row0+d*m``
    hold slot ``j`` of the group's ``i``-th node at ``row0 + j*m + i``, and
    the group's nodes sit at rows ``node_row : node_row+m`` of a node array
    whose first ``node0`` rows are not in ``nodes`` -- and the edge ids in
    that row order.
    """
    start = np.concatenate([[0], np.cumsum(deg)])[:-1]
    groups, rows = [], []
    row0 = 0
    for d in np.unique(deg[nodes]):
        group = nodes[deg[nodes] == d]
        m = group.size
        rows.append(edge_ids[start[group][None, :] + np.arange(d)[:, None]].ravel())
        groups.append((row0, int(d), m, node0))
        row0 += int(d) * m
        node0 += m
    ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return groups, ids.astype(np.int64)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in numpy's pairwise order (8 accumulators, blocks of
    at most 128), i.e. the order numpy's own float add reductions use."""
    n = a.shape[0]
    if n < 8:
        res = a[0].copy()
        for i in range(1, n):
            res += a[i]
        return res
    if n <= 128:
        r = a[:8].copy()
        stop = n - n % 8
        for i in range(8, stop, 8):
            r += a[i:i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        res = r[0] + r[1]
        for i in range(stop, n):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a[:n2]) + _pairwise_sum(a[n2:])


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """Per-node sum of a (d, m, batch) slot block: slot 0 plus the pairwise
    sum of the rest -- the summation order of ``np.add.reduceat`` over a
    node's consecutive edges."""
    if x.shape[0] == 1:
        return x[0].copy()
    return x[0] + _pairwise_sum(x[1:])


def _rows(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Contiguous (rows, cols) view of the head of a flat work buffer."""
    return buf[:rows * cols].reshape(rows, cols)


def bp_decode_batch(graph: TannerGraph, llrs: np.ndarray,
                    syndromes: np.ndarray | None = None,
                    max_iter: int = 100) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flooding tanh-rule sum-product decoding of a batch of frames.

    ``llrs`` is (batch, n); ``syndromes`` (batch, m) sets per-check target
    parities (None means all zero).  Returns ``(hard, iterations,
    converged)``; a frame exits as soon as its hard decision satisfies every
    check (iteration 0 checks the channel decisions alone).  Non-converged
    frames keep their final hard decisions.  Frame results do not depend on
    how the batch is composed.  ``max_iter`` must be >= 0.
    """
    B, n = llrs.shape
    if n != graph.n_vars:
        raise ValueError(f"llr length {n} != {graph.n_vars} variables")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if syndromes is None:
        syndromes = np.zeros((B, graph.n_checks), dtype=np.uint8)
    syndromes = syndromes.astype(np.uint8)
    E = graph.n_edges

    iters_out = np.full(B, max_iter, dtype=np.int64)
    conv_out = np.zeros(B, dtype=bool)

    # frame-minor layout: one row per (permuted) variable, edge or check,
    # one column per frame still decoding
    llr = np.clip(np.asarray(llrs, dtype=np.float64), -LLR_SAT, LLR_SAT)
    llr = np.ascontiguousarray(llr[:, graph.var_perm].T)
    syn = np.ascontiguousarray(syndromes[:, graph.chk_perm].T)
    # frames whose idle (degree-0) checks demand parity 1 can never converge
    never = (syndromes[:, graph.idle_chk] != 0).any(axis=1) \
        if graph.idle_chk.size else np.zeros(B, dtype=bool)
    active = np.arange(B)

    hard_t = np.zeros((n, B), dtype=bool)
    post = llr.copy()
    c2v = np.zeros((E, B))
    # work buffers for the whole call; an iteration views their head
    buf_x = np.empty(E * B)
    buf_y = np.empty(E * B)
    buf_u = np.empty(E * B, dtype=np.uint8)
    buf_s = np.empty(E * B, dtype=np.uint8)

    for it in range(max_iter + 1):
        nb = active.size
        hard = post < 0
        hard_e = np.take(hard.view(np.uint8), graph.vpos, axis=0,
                         out=_rows(buf_u, E, nb), mode="clip")
        bad = never.copy()
        for e0, d, m, r0 in graph.chk_groups:
            par = np.bitwise_xor.reduce(hard_e[e0:e0 + d * m].reshape(d, m, nb), axis=0)
            par ^= syn[r0:r0 + m]
            bad |= par.any(axis=0)
        ok = ~bad
        if ok.any():
            done = active[ok]
            hard_t[:, done] = hard[:, ok]
            iters_out[done] = it
            conv_out[done] = True
            if ok.all():
                break
            active = active[bad]
            nb = active.size
            post = np.compress(bad, post, axis=1)
            c2v = np.compress(bad, c2v, axis=1)
            llr = np.compress(bad, llr, axis=1)
            syn = np.compress(bad, syn, axis=1)
            never = never[bad]
        if it == max_iter:
            hard_t[:, active] = post < 0
            break

        # check-node update (tanh rule with sign/log-magnitude exclusion)
        x = np.take(post, graph.vpos, axis=0, out=_rows(buf_x, E, nb), mode="clip")
        x -= c2v
        np.clip(x, -MSG_CLIP, MSG_CLIP, out=x)
        x *= 0.5
        np.tanh(x, out=x)
        neg = np.less(x, 0.0, out=_rows(buf_u, E, nb).view(bool)).view(np.uint8)
        np.abs(x, out=x)
        np.maximum(x, _TINY, out=x)
        lt = np.log(x, out=x)
        excl = _rows(buf_y, E, nb)
        sign = _rows(buf_s, E, nb)
        for e0, d, m, r0 in graph.chk_groups:
            rows = slice(e0, e0 + d * m)
            lt_g = lt[rows].reshape(d, m, nb)
            np.subtract(_slot_sum(lt_g), lt_g, out=excl[rows].reshape(d, m, nb))
            # outgoing sign: parity of the other edges' signs and the syndrome
            neg_g = neg[rows].reshape(d, m, nb)
            others = np.bitwise_xor.reduce(neg_g, axis=0)
            others ^= syn[r0:r0 + m]
            np.bitwise_xor(others, neg_g, out=sign[rows].reshape(d, m, nb))
        # every log term is <= 0, so each check's rounded sum is <= each of
        # its terms and excl <= 0 needs no clamp
        np.exp(excl, out=excl)
        np.minimum(excl, _ATANH_CAP, out=excl)
        np.arctanh(excl, out=c2v)
        # 2*atanh(.) with the sign applied: scale by +2 or -2 (both exact)
        sign = sign.view(np.int8)
        sign *= -4
        sign += 2
        np.copyto(x, sign)
        c2v *= x

        # variable-node update; degree-0 variables keep post = llr
        g = np.take(c2v, graph.vgather, axis=0, out=_rows(buf_x, E, nb), mode="clip")
        for s0, d, m, v0 in graph.var_groups:
            rows = slice(v0, v0 + m)
            np.add(llr[rows], _slot_sum(g[s0:s0 + d * m].reshape(d, m, nb)),
                   out=post[rows])

    return (np.ascontiguousarray(hard_t[graph.var_row].T, dtype=np.uint8),
            iters_out, conv_out)


def spa_decode(H_ext: BitMatrix, llr: np.ndarray, max_iter: int = 100
               ) -> tuple[np.ndarray, int, bool]:
    """Decode one frame against an extended matrix [syndrome column | H].

    Column 0 is the dummy coordinate, treated as known bit 1: its channel
    LLR is ignored and its effect on each check is folded in exactly (the
    pinned tanh factor is a sign flip wherever the syndrome column has a 1).
    Returns ``(hard, iterations, converged)`` with ``hard[0] = 1``;
    non-convergence is reported via the flag, never an error.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (H_ext.cols,):
        raise ValueError(f"llr length {llr.shape} != {H_ext.cols} columns")
    graph = TannerGraph(BitMatrix(H_ext.a[:, 1:]))
    syn = H_ext.a[:, 0].reshape(1, -1)
    hard, iters, conv = bp_decode_batch(graph, llr[1:].reshape(1, -1), syn,
                                        max_iter=max_iter)
    full = np.empty(H_ext.cols, dtype=np.uint8)
    full[0] = 1
    full[1:] = hard[0]
    return full, int(iters[0]), bool(conv[0])


# ---------------------------------------------------------------------------
# multistage decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageDiag:
    """Per-stage convergence report of one multistage decode."""

    stage0_iterations: int
    stage0_converged: bool
    stage1_iterations: int
    stage1_converged: bool


class MultistageDecoder:
    """Reusable multistage decoder for one nested pair."""

    def __init__(self, pair: NestedPair, level1_rows: np.ndarray | None = None,
                 max_iter: int = 100):
        self.pair = pair
        self.graph0 = TannerGraph(pair.h0)
        self.graph1 = TannerGraph(pair.h1)
        rows = pair.h1.a if level1_rows is None else np.asarray(level1_rows)
        self.rows1_t = rows.T.astype(np.float32)
        self.max_iter = max_iter

    def decode_batch(self, Y: np.ndarray, sigma: float):
        """Decode (batch, n+1) received points.

        Returns ``(c0, c1, z, diag)`` where z is (batch, n+1) with column 0
        holding z0, and diag is a dict of per-stage iteration/convergence
        arrays.
        """
        Y = np.asarray(Y, dtype=np.float64)
        B = Y.shape[0]
        n = self.pair.n

        llr0 = wrapped_llr(Y[:, 1:], sigma)
        c0, it0, cv0 = bp_decode_batch(self.graph0, llr0, None, self.max_iter)

        s1 = _stage_syndrome_batch(self.rows1_t, c0)
        ext0 = np.concatenate([np.ones((B, 1), dtype=np.uint8), c0], axis=1)
        y1 = (Y - ext0) / 2.0
        llr1 = wrapped_llr(y1[:, 1:], sigma / 2.0)
        c1, it1, cv1 = bp_decode_batch(self.graph1, llr1, s1, self.max_iter)

        ext1 = np.concatenate([np.ones((B, 1), dtype=np.uint8), c1], axis=1)
        z = np.rint((Y - ext0 - 2.0 * ext1) / 4.0).astype(np.int64)
        diag = {"it0": it0, "conv0": cv0, "it1": it1, "conv1": cv1, "s1": s1}
        return c0, c1, z, diag


def decode_multistage(y: np.ndarray, sigma: float, fam, pair: NestedPair,
                      level1_rows: np.ndarray | None = None,
                      max_iter: int = 100,
                      decoder: MultistageDecoder | None = None
                      ) -> tuple[LatticeWord, StageDiag]:
    """Multistage decode of one received point of length n+1.

    Stage 0 decodes the level-0 code on the mod-2 channel; its codeword is
    subtracted and the residual halved for stage 1 at sigma/2 (driven by the
    derived level-1 syndrome); rounding recovers the integer part.  Stage
    failures fall back to hard decisions and are reported in the diag.
    """
    if decoder is None:
        decoder = MultistageDecoder(pair, level1_rows, max_iter)
    y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    c0, c1, z, diag = decoder.decode_batch(y, sigma)
    word = LatticeWord(c0=c0[0], c1=c1[0], s1=diag["s1"][0],
                       zvec=z[0, 1:], z0=int(z[0, 0]),
                       x=assemble_point(c0[0], c1[0], z[0, 1:], int(z[0, 0])))
    sd = StageDiag(stage0_iterations=int(diag["it0"][0]),
                   stage0_converged=bool(diag["conv0"][0]),
                   stage1_iterations=int(diag["it1"][0]),
                   stage1_converged=bool(diag["conv1"][0]))
    return word, sd
