"""Sequential lattice encoding and multistage sum-product decoding.

Encoding is sequential and batched, in one function (:func:`encode_lattice`,
which the lattice sweep calls once per batch): solve level 0 for syndrome
zero, take the level-1 syndrome from c0 (:func:`stage_syndrome`), solve
level 1 for it.  It takes the two levels' encoder plans and reads H0 and
H1 from them, so a plan and its matrix cannot disagree.  A prescribed
syndrome is realized as a syndrome column prepended at the left of the
parity-check matrix plus a dummy coordinate pinned to bit 1 at the head of
each component codeword.  The transmitted integer point is

    x = (3 + 4*z0,  c0 + 2*c1 + 4*zvec)

so coordinate 0 always satisfies x_0 = 3 (mod 4).  Nesting makes every
level-1 dot product with c0 even; the encoder refuses an odd one
(:class:`OddDotError`), while the decoder tolerates it, since an
unconverged level-0 decision may break parity.  Each level's
:class:`EncoderPlan` is that level's one GF(2) elimination: its RREF also
gives the level's rank and, for level 0, the nesting test
(:meth:`EncoderPlan.in_row_space`), which is how a preset bundle or
``qclattice build`` runs two eliminations in all.

Decoding runs a flooding tanh-rule sum-product decoder per level on the
mod-2 wrapped channel: decode level 0, subtract, halve, decode level 1 at
sigma/2, then round out the integer part.  Pinning the dummy bit to 1 is
realized exactly by folding the syndrome column into per-check sign flips
(a +/-1 tanh factor), with all real messages clipped to +/-30 (+/-15 in
the half-LLR domain the kernel works in, see below); input LLRs saturate
at +/-64.

The channel LLRs come from a closed form of the wrapped-Gaussian sums
(:func:`wrapped_llr`): two exps and one log per value, a series cut at its
first coefficient below e^-45, evaluated in blocks of ``_LLR_BLOCK``
values (2^14), so its scratch is at most 768 KiB and the output is its
only array of the input's size.  The encode assembles each point in place
in one array, and the multistage decoder works in one residual array of
the received points' size, which it leaves unchanged.

The BP kernel works frame-minor: every message array is (edges, frames)
with one contiguous row per edge, edges laid out slot-major within groups
of equal-degree checks (see :class:`TannerGraph`; degree-0 nodes are one
more group, with no path of their own).  Gathers are whole-row
``np.take(..., axis=0)`` copies, and each iteration updates preallocated
buffers in place.  The check update works in the product domain: t =
tanh(x/2) once per edge, each edge's product over the other edges of its
check from prefix and suffix products over the check's slots (the syndrome
enters as a +/-1 factor), then 2 atanh -- two transcendentals per edge.
Per-variable sums are plain sums over contiguous slot blocks, whose order
may differ from the frozen log-domain kernel's, so messages may differ
from it in the last ulp.  ``tests/oracles.py`` keeps that kernel and the
earlier LLR code as references.

The kernel runs in the half-LLR domain: the clipped channel LLRs are
halved once per tile, so ``post``, ``llr`` and every message hold x/2 for
the LLR x above.  A variable-to-check message is then clipped at
+/-``MSG_CLIP``/2 = +/-15 and fed to tanh as it is, and atanh of the
exclusive product is the check-to-variable message itself, with no
halving or doubling pass over the (edges, frames) arrays.  This is exact:
scaling by 2 or 1/2 commutes with IEEE rounding of sums and differences,
clip(2u, +/-30)/2 = clip(u, +/-15), and halving keeps every sign, so the
hard decisions, iteration counts and convergence flags are those of the
full-domain rule.  The one caveat is the subnormal range: a value whose
half falls below 2^-1022 can lose its last bit, so the two domains could
part only on LLRs or messages within about 1e-308 of zero.

A batch is decoded in frame tiles of about ``_TILE_EDGE_FRAMES`` edge-frames
each (2^19, so one float64 (edges, tile) array is about 4 MB): the work
arrays are O(edges * tile) whatever the batch size, and each tile's results
are written straight into the (batch, ...) outputs.  Frames are decoded
independently, so the results do not depend on the tiling.  The work
buffers (:class:`_Work`) are allocated once per call and shared by its
tiles; nothing of edge or node size is allocated inside the iteration
loop.  Two (edges, tile) buffers hold the messages: ``c2v`` lives in one,
and the other is the scratch (t, then the variable-side gather g); the
exclusive products are written over ``c2v``, which is dead once t is
formed, and atanh runs in place.  As frames converge, their columns are
dropped by gathering the rest into a pair's spare buffer
(:func:`_compact`).  ``c2v`` starts unset: iteration 0 skips the
subtraction and its atanh writes ``c2v`` before anything reads it.

LLR sign convention: positive favors bit 0.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .codes import NestedPair
from .gf2 import BitMatrix, InconsistentSyndromeError, rref

LLR_SAT = 64.0      # saturation used to pin known bits
MSG_CLIP = 30.0     # message clip inside the sum-product updates
_ATANH_CAP = 1.0 - 1e-15   # |excl| cap for atanh: only a degree-1 check reaches 1
_TILE_EDGE_FRAMES = 1 << 19  # BP work per frame tile: edges * frames
_LLR_BLOCK = 1 << 14         # values per block of wrapped_llr's scratch


class OddDotError(ValueError):
    """A level-1 congruence row had an odd dot product (nesting violation)."""


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

class EncoderPlan:
    """Affine encode maps for one level, built from one RREF of ``[H | I]``.

    Row operations that bring ``[H | I_m]`` to reduced row-echelon form
    ``[R_H | T]`` give ``T H = R_H``.  The r pivot columns of ``R_H`` are
    solved for; the other columns, ``free_cols``, carry the information
    bits.  With them fixed, ``H c^T = s^T`` has the unique solution

        c[free_cols] = info,  c[pivot_cols] = info @ R_H[:r, free_cols]^T
                                              + s @ T[:r]^T  (mod 2).

    The last m - r rows of ``T`` span the left nullspace of H: a syndrome
    is achievable iff it is orthogonal to all of them.  Only these three
    blocks are kept, as uint8.  Their float32 copies (sums of at most m + k
    ones are exact) are made once, by the first encode, so a plan that never
    encodes (a bundle built for a distance search) never holds them.

    ``R_H[:r]`` is also the RREF of H alone (row operations keep its row
    space), so the plan answers row-space membership
    (:meth:`in_row_space`) and the rank r = n - ``num_info`` without
    another elimination.
    """

    def __init__(self, matrix: BitMatrix):
        self.matrix = matrix
        m, n = matrix.shape
        R, pivots = rref(np.hstack([matrix.a, np.eye(m, dtype=np.uint8)]))
        r = sum(p < n for p in pivots)
        self.pivot_cols = np.array(pivots[:r], dtype=np.int64)
        self.free_cols = np.setdiff1d(np.arange(n), self.pivot_cols)
        self._blocks = tuple(b.T.copy() for b in
                             (R[:r, self.free_cols], R[:r, n:], R[r:, n:]))
        self._maps: tuple[np.ndarray, ...] | None = None

    @property
    def num_info(self) -> int:
        return int(self.free_cols.size)

    def in_row_space(self, rows: np.ndarray) -> np.ndarray:
        """Which of the (batch, n) ``rows`` lie in the GF(2) row space of H,
        as a (batch,) bool array.

        ``R_H[:r]`` is a basis that is the identity on the pivots, so v is
        in the row space iff ``v[free] == v[pivots] @ R_H[:r, free]``
        (mod 2): one float32 product on the kept block and no elimination,
        exact since each entry sums at most r < 2^24 values of 0 or 1.
        """
        V = np.atleast_2d(np.asarray(rows, dtype=np.uint8)) & 1
        n = self.matrix.cols
        if V.ndim != 2 or V.shape[1] != n:
            raise ValueError(f"rows of length {V.shape[-1]} tested against a row "
                             f"space of length {n}")
        combo = (V[:, self.pivot_cols].astype(np.float32)
                 @ self._blocks[0].T.astype(np.float32))
        return ((combo.astype(np.int64) & 1) == V[:, self.free_cols]).all(axis=1)

    def encode_batch(self, syndromes: np.ndarray, infos: np.ndarray) -> np.ndarray:
        """Solve ``H c^T = s^T`` for (batch, n) codewords with ``c`` equal
        to the info bits on ``free_cols``.

        Raises :class:`InconsistentSyndromeError` if a syndrome is not
        achievable (checked whenever any syndrome is nonzero).
        """
        if self._maps is None:
            self._maps = tuple(b.astype(np.float32) for b in self._blocks)
        info_map, syn_map, left_null = self._maps
        acc = infos.astype(np.float32) @ info_map
        if syndromes.any():
            s = syndromes.astype(np.float32)
            if ((s @ left_null).astype(np.int64) & 1).any():
                raise InconsistentSyndromeError(
                    "syndrome outside the column space of the parity-check matrix")
            acc += s @ syn_map
        c = np.empty((infos.shape[0], self.matrix.cols), dtype=np.uint8)
        c[:, self.free_cols] = infos & 1
        c[:, self.pivot_cols] = acc.astype(np.int64) & 1
        return c


def stage_syndrome(level1_rows: np.ndarray, c0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level-1 syndromes of a (batch, n) stack of level-0 words:
    s_j = bit 1 of ((h_j . c0) mod 4), which is ((h_j . c0) mod 4) / 2 when
    the dot is even.

    Returns ``(s, odd)``, both (batch, rows): ``odd`` flags the odd dots.
    Nesting makes every dot with a level-0 codeword even, so the encoder
    refuses any odd dot; the decoder ignores them, since hard decisions
    from an unconverged stage may break parity.  The float32 products of
    0/1 entries are exact.
    """
    dots = (c0.astype(np.float32) @ level1_rows.T.astype(np.float32)).astype(np.int64)
    return ((dots >> 1) & 1).astype(np.uint8), (dots & 1).astype(bool)


def encode_lattice(plans: tuple[EncoderPlan, EncoderPlan],
                   infos0: np.ndarray, infos1: np.ndarray,
                   z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential two-level encode of a batch of lattice points.

    ``plans`` are the encoder plans of H0 and H1, which are read from their
    ``matrix``.  ``infos0`` (batch, k0) and ``infos1`` (batch, k1) are the
    info bits and ``z`` (batch, n+1) the integer parts, z0 in column 0.
    Level 0 solves for syndrome zero; the level-1 syndrome is derived from
    c0 and solved next; the integer parts translate the point by
    4Z^(n+1).  Returns ``(c0, c1, x)`` with x = (3 + 4*z0, c0 + 2*c1 +
    4*zvec) row by row.

    Raises :class:`OddDotError` if a level-1 row has an odd dot product
    with c0, i.e. the pair is not nested.
    """
    plan0, plan1 = plans
    z = np.asarray(z, dtype=np.int64)
    c0 = plan0.encode_batch(np.zeros((z.shape[0], plan0.matrix.rows), dtype=np.uint8), infos0)
    s1, odd = stage_syndrome(plan1.matrix.a, c0)
    if odd.any():
        b, j = np.argwhere(odd)[0]
        raise OddDotError(f"level-1 row {j} has an odd dot product with the "
                          f"level-0 codeword of point {b}: the pair is not nested")
    c1 = plan1.encode_batch(s1, infos1)
    x = 4 * z
    x[:, 0] += 3
    x[:, 1:] += c0
    x[:, 1:] += 2 * c1
    return c0, c1, x


# ---------------------------------------------------------------------------
# wrapped-Gaussian LLRs for the mod-2 channel
# ---------------------------------------------------------------------------

# The range of sigma.  Below it, sigma^2 is not a normal float and 4a =
# 2/sigma^2 overflows.  Above it the LLR sums grow too long: they keep
# every coefficient down to e^-45, about sqrt(45/2) sigma = 4.74 sigma of
# each kind, and each costs 4 Horner steps per block.  At the top (sigma
# MAX_LLR_WINDOW/6 = 1.09e4, SNR -81 dB) that is 51,811 terms, 0.36 s per
# 1000 values on a 2-core VM; SNR -300 dB (sigma 1e15) would never finish.
MAX_LLR_WINDOW = 2 ** 16
SIGMA_RANGE = (math.sqrt(sys.float_info.min), MAX_LLR_WINDOW / 6)


def check_sigma(sigma: float) -> float:
    """``sigma`` as a float; ValueError unless it lies in SIGMA_RANGE."""
    sigma = float(sigma)
    if not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
        raise ValueError(f"sigma must be in [{SIGMA_RANGE[0]:.3g}, {SIGMA_RANGE[1]:.4g}], "
                         f"got {sigma:.4g}")
    return sigma


def _llr_coefficients(sigma: float) -> tuple[float, list, list]:
    """``(a, c, d)`` of :func:`_wrapped_sums` for one sigma: a = 1/(2 sigma^2)
    and the coefficients c_k, d_k, k = 1, 2, ..., as long as they are at
    least e^-45.  Both fall with k, and d_k < c_k, so the loop runs while
    c_k is kept."""
    a = 1.0 / (2.0 * sigma * sigma)
    c, d = [], []
    k = 1
    while 4.0 * k * (k - 1) * a <= 45.0:
        c.append(math.exp(-4.0 * k * (k - 1) * a))
        if 4.0 * k * k * a <= 45.0:
            d.append(math.exp(-4.0 * k * k * a))
        k += 1
    return a, c, d


def _fold(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Distance e = |y - 2 round(y/2)| in [0, 1] from y to 2Z, written to
    ``out`` (the subtraction is exact)."""
    np.multiply(y, 0.5, out=out)
    np.rint(out, out=out)
    out *= -2.0
    out += y
    return np.abs(out, out=out)


def _wrapped_sums(e: np.ndarray, a: float, c: list, d: list,
                  work) -> tuple[np.ndarray, np.ndarray]:
    """``(S(e), S(1 - e))``, where for e in [0, 1] and a = 1/(2 sigma^2)

        sum_{k in Z} exp(-(e - 2k)^2 a) = exp(-e^2 a) S(e),
        S(e) = 1 + sum_{k>=1} c_k q^k + d_k p^k,
        p = exp(-4 e a),  q = exp(-4 (1-e) a),
        c_k = exp(-4 k (k-1) a),  d_k = exp(-4 k^2 a),

    and S(1 - e) is the same sum with p and q swapped.  Two exps per value;
    the powers go by Horner's rule.  Every term is at most its coefficient
    and S >= 1, so nothing overflows.  The sums stop where the coefficients
    fall below e^-45 (:func:`_llr_coefficients`): together the dropped
    terms cannot move S by a relative 1e-18.

    ``work`` holds five float64 arrays of e's shape (p, q, the two sums and
    the Horner term); the sums are returned as two of them.
    """
    p, q, s0, s1, h = work
    np.multiply(e, -4.0 * a, out=p)
    np.exp(p, out=p)
    np.subtract(1.0, e, out=q)
    q *= -4.0 * a
    np.exp(q, out=q)
    s0.fill(1.0)
    s1.fill(1.0)
    for x, coef, s in ((q, c, s0), (p, d, s0), (p, c, s1), (q, d, s1)):
        if coef:
            np.multiply(x, coef[-1], out=h)
            for ck in coef[-2::-1]:
                h += ck
                h *= x
            s += h
    return s0, s1


def wrapped_llr(y, sigma: float) -> np.ndarray:
    """Log-likelihood ratio of bit 0 (even integers) vs bit 1 (odd) under
    Gaussian noise wrapped mod 2.

        llr_i = ln sum_k exp(-(y_i-2k)^2/2s^2) - ln sum_k exp(-(y_i-1-2k)^2/2s^2)

    Each sum runs over all integers of its parity.  In closed form, with
    e = |y_i - 2 round(y_i/2)| and a = 1/(2 sigma^2),

        llr_i = (1 - 2e) a + ln S(e) - ln S(1 - e)

    (see :func:`_wrapped_sums`): two exps and one log per value.  The
    series S stops at its first coefficient below e^-45, accurate to better
    than 1e-9 relative error against a much wider window.  Positive
    output favors bit 0; the output has the shape of ``y``.  Raises
    ``ValueError`` unless sigma is in SIGMA_RANGE, also for an empty ``y``.

    The values go in blocks of at most ``_LLR_BLOCK``, whole rows of the
    last axis where they fit, so the six scratch arrays (e, p, q, the two
    sums and the Horner term) are block-sized and allocated once per call,
    and a strided view such as ``Y[:, 1:]`` is read in place: the output
    is the only allocation of the input's size.  Every step is
    elementwise, so the result does not depend on the blocking.
    """
    sigma = check_sigma(sigma)
    a, c, d = _llr_coefficients(sigma)
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(y.shape)
    if y.size == 0:
        return out
    rows = y.reshape(-1, y.shape[-1] if y.ndim else 1)
    flat = out.reshape(rows.shape)
    n = rows.shape[1]
    step_r, step_c = max(1, _LLR_BLOCK // n), min(n, _LLR_BLOCK)
    scratch = np.empty((6, min(y.size, step_r * step_c)))
    for r0 in range(0, rows.shape[0], step_r):
        for c0 in range(0, n, step_c):
            blk = (slice(r0, r0 + step_r), slice(c0, c0 + step_c))
            yb = rows[blk]
            e, *work = (b[:yb.size].reshape(yb.shape) for b in scratch)
            _fold(yb, e)
            s0, s1 = _wrapped_sums(e, a, c, d, work)
            s0 /= s1
            np.log(s0, out=s0)
            np.multiply(e, -2.0 * a, out=s1)
            s1 += a
            np.add(s0, s1, out=flat[blk])
    return out


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

    Degree-0 nodes, all-zero rows or columns of H, form a ``d = 0`` group
    like any other, so the kernel needs no side path for them: a reduction
    over no edges gives its identity, 0.  An idle check's parity is then 0,
    so one whose syndrome bit is 1 keeps its frame from converging; an idle
    variable's sum is 0, so its posterior stays its channel LLR.
    """

    def __init__(self, H: BitMatrix):
        self.n_checks, self.n_vars = H.shape
        chk, var = np.nonzero(H.a)          # row-major: grouped by check
        self.n_edges = int(chk.size)

        deg_chk = np.bincount(chk, minlength=self.n_checks)
        self.chk_perm = np.argsort(deg_chk, kind="stable")
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
        self.var_groups, self.vgather = _slot_layout(deg_var, self.var_perm, var_order)


def _slot_layout(deg, nodes, edge_ids):
    """Slot-major layout of the edges of ``nodes`` (every node, sorted by
    degree).

    ``edge_ids`` lists every edge grouped by node in ascending node order.
    Returns the groups ``(row0, d, m, node_row)`` -- rows ``row0 : row0+d*m``
    hold slot ``j`` of the group's ``i``-th node at ``row0 + j*m + i``, and
    the group's nodes sit at rows ``node_row : node_row+m`` of a node array
    in ``nodes`` order -- and the edge ids in that row order.
    """
    start = np.concatenate([[0], np.cumsum(deg)])[:-1]
    groups, rows = [], []
    row0 = node0 = 0
    for d in np.unique(deg[nodes]):
        group = nodes[deg[nodes] == d]
        m = group.size
        rows.append(edge_ids[start[group][None, :] + np.arange(d)[:, None]].ravel())
        groups.append((row0, int(d), m, node0))
        row0 += int(d) * m
        node0 += m
    ids = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return groups, ids.astype(np.int64)


def _exclusive_products(t: np.ndarray, sgn: np.ndarray, out: np.ndarray) -> None:
    """For a (d, m, batch) slot block ``t`` of m checks, write to ``out``
    each edge's signed product ``sgn * prod(t over the check's other
    edges)``: prefix products forward into ``out``, suffix products
    backward over ``t``, then every middle slot's prefix times the suffix
    after it in one call.  Each element is the product of the same two
    operands as in the slot-by-slot loop that ``tests/oracles.py`` keeps,
    so the bits are the same.

    ``t`` is tanh of the half-domain variable-to-check message, clipped
    to +/-``MSG_CLIP``/2 = +/-15: the same values the full-domain rule
    gets from tanh(x/2) with x clipped to +/-30, exactly (see the module
    docstring for the subnormal caveat).  So |t| <= tanh(15) < _ATANH_CAP
    and a product over one or more edges needs no cap; a degree-1 check
    has an empty product, which is capped here, and a degree-0 check has
    no edge to write.  In the kernel ``t`` is a block of the edge scratch
    buffer and ``out`` of the ``c2v`` buffer, whose old messages are dead
    once ``t`` is formed; atanh of ``out`` is the new half-domain
    check-to-variable message.
    """
    d = t.shape[0]
    if d < 2:
        np.multiply(sgn, _ATANH_CAP, out=out[:d])
        return
    np.multiply(sgn, t[0], out=out[1])
    for j in range(2, d):
        np.multiply(out[j - 1], t[j - 1], out=out[j])
    for j in range(d - 2, 0, -1):
        t[j] *= t[j + 1]
    out[1:d - 1] *= t[2:]
    np.multiply(sgn, t[1], out=out[0])


def _rows(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Contiguous (rows, cols) view of the head of a flat work buffer."""
    return buf[:rows * cols].reshape(rows, cols)


class _Work:
    """Flat work buffers of one :func:`bp_decode_batch` call, sized for its
    largest tile; every array of a tile is a (rows, frames) view of the
    head of one of them (:func:`_rows`).

    An array that shrinks as frames converge (``c2v``, ``post``, ``llr``,
    ``syn``, ``sgn``) owns a pair of buffers: it lives at the head of
    ``pair[0]``, and :func:`_compact` moves its kept columns to
    ``pair[1]`` and swaps the two.  The spare of ``c2v``'s pair is the
    iteration's edge scratch (``t``, then ``g``).
    """

    def __init__(self, graph: TannerGraph, size: int):
        E, n, m = graph.n_edges, graph.n_vars, graph.n_checks

        def pair(rows, dtype=np.float64):
            return [np.empty(rows * size, dtype), np.empty(rows * size, dtype)]

        self.c2v, self.post, self.llr, self.sgn = pair(E), pair(n), pair(n), pair(m)
        self.syn = pair(m, np.uint8)
        self.hard, self.hard_done, self.hard_t = (np.empty(n * size, dtype=bool)
                                                  for _ in range(3))
        self.hard_e = np.empty(E * size, dtype=np.uint8)
        self.par = np.empty(m * size, dtype=np.uint8)


def _compact(pair: list[np.ndarray], a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Gather the columns ``keep`` (indices) of ``a``, the array at the
    head of ``pair[0]``, into the head of ``pair[1]``; swap the pair and
    return the new view."""
    out = np.take(a, keep, axis=1, out=_rows(pair[1], a.shape[0], keep.size), mode="clip")
    pair.reverse()
    return out


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

    The batch runs as ceil(batch * edges / ``_TILE_EDGE_FRAMES``) equal
    tiles of consecutive frames (the last one may be shorter), so the work
    memory is O(edges * tile) for any batch size; the results are those of
    one call over the whole batch, since frames are independent.  The work
    buffers (:class:`_Work`) are allocated once per call and shared by the
    tiles.
    """
    B, n = llrs.shape
    if n != graph.n_vars:
        raise ValueError(f"llr length {n} != {graph.n_vars} variables")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if syndromes is None:
        syndromes = np.zeros((B, graph.n_checks), dtype=np.uint8)
    syndromes = syndromes.astype(np.uint8)

    hard = np.empty((B, n), dtype=np.uint8)
    iters = np.full(B, max_iter, dtype=np.int64)
    conv = np.zeros(B, dtype=bool)
    tiles = max(1, -(-B * graph.n_edges // _TILE_EDGE_FRAMES))
    size = max(1, -(-B // tiles))
    work = _Work(graph, size)
    for lo in range(0, B, size):
        rows = slice(lo, lo + size)
        _bp_tile(graph, llrs[rows], syndromes[rows], max_iter, work,
                 hard[rows], iters[rows], conv[rows])
    return hard, iters, conv


def _bp_tile(graph: TannerGraph, llrs: np.ndarray, syndromes: np.ndarray,
             max_iter: int, work: _Work, hard_out: np.ndarray,
             iters_out: np.ndarray, conv_out: np.ndarray) -> None:
    """Decode one tile of :func:`bp_decode_batch` into its output views
    (``iters_out`` arrives filled with max_iter, ``conv_out`` with False).
    Messages, ``post`` and ``llr`` are in the half-LLR domain (see the
    module docstring)."""
    B, n = llrs.shape
    E, m = graph.n_edges, graph.n_checks
    clip = 0.5 * MSG_CLIP

    # frame-minor layout: one row per (permuted) variable, edge or check,
    # one column per frame still decoding
    post = _rows(work.post[0], n, B)
    np.copyto(post, np.asarray(llrs, dtype=np.float64).T)
    llr = np.take(post, graph.var_perm, axis=0, out=_rows(work.llr[0], n, B), mode="clip")
    np.clip(llr, -LLR_SAT, LLR_SAT, out=llr)
    llr *= 0.5
    np.copyto(post, llr)
    syn = np.take(syndromes.T, graph.chk_perm, axis=0,
                  out=_rows(work.syn[0], m, B), mode="clip")
    sgn = np.multiply(syn, -2.0, out=_rows(work.sgn[0], m, B))
    sgn += 1.0                 # the syndrome as a +/-1 tanh factor
    active = np.arange(B)
    hard_t = _rows(work.hard_t, n, B)
    c2v = None                 # unset until the first check update writes it

    for it in range(max_iter + 1):
        nb = active.size
        hard = np.less(post, 0.0, out=_rows(work.hard, n, nb))
        hard_e = np.take(hard.view(np.uint8), graph.vpos, axis=0,
                         out=_rows(work.hard_e, E, nb), mode="clip")
        par = _rows(work.par, m, nb)
        for e0, d, mg, r0 in graph.chk_groups:
            np.bitwise_xor.reduce(hard_e[e0:e0 + d * mg].reshape(d, mg, nb), axis=0,
                                  out=par[r0:r0 + mg])
        par ^= syn
        bad = par.any(axis=0)
        if not bad.all():
            ok = np.flatnonzero(~bad)
            done = active[ok]
            hard_t[:, done] = np.take(hard, ok, axis=1, mode="clip",
                                      out=_rows(work.hard_done, n, ok.size))
            iters_out[done] = it
            conv_out[done] = True
            if ok.size == nb:
                break
            keep = np.flatnonzero(bad)
            active = active[keep]
            nb = active.size
            post = _compact(work.post, post, keep)
            llr = _compact(work.llr, llr, keep)
            syn = _compact(work.syn, syn, keep)
            sgn = _compact(work.sgn, sgn, keep)
            if c2v is not None:
                c2v = _compact(work.c2v, c2v, keep)
        if it == max_iter:
            hard_t[:, active] = np.less(post, 0.0, out=_rows(work.hard, n, nb))
            break

        # check-node update in the product domain: t = tanh(half message)
        # per edge, exclusive products per check (written over the dead
        # c2v), then atanh
        t = np.take(post, graph.vpos, axis=0, out=_rows(work.c2v[1], E, nb), mode="clip")
        if c2v is not None:
            t -= c2v
        np.clip(t, -clip, clip, out=t)
        np.tanh(t, out=t)
        c2v = _rows(work.c2v[0], E, nb)
        for e0, d, mg, r0 in graph.chk_groups:
            rows = slice(e0, e0 + d * mg)
            _exclusive_products(t[rows].reshape(d, mg, nb),
                                sgn[r0:r0 + mg], c2v[rows].reshape(d, mg, nb))
        np.arctanh(c2v, out=c2v)

        # variable-node update
        g = np.take(c2v, graph.vgather, axis=0, out=_rows(work.c2v[1], E, nb), mode="clip")
        for s0, d, mv, v0 in graph.var_groups:
            np.add.reduce(g[s0:s0 + d * mv].reshape(d, mv, nb), axis=0,
                          out=post[v0:v0 + mv])
        post += llr

    hard_out[:] = hard_t[graph.var_row].T


# ---------------------------------------------------------------------------
# multistage decoding
# ---------------------------------------------------------------------------

class MultistageDecoder:
    """Reusable multistage decoder for one nested pair."""

    def __init__(self, pair: NestedPair, max_iter: int = 100):
        self.pair = pair
        self.graph0 = TannerGraph(pair.h0)
        self.graph1 = TannerGraph(pair.h1)
        self.max_iter = max_iter

    def decode_batch(self, Y: np.ndarray, sigma: float):
        """Decode (batch, n+1) received points.

        Returns ``(c0, c1, z, diag)`` where z is (batch, n+1) with column 0
        holding z0, and diag is a dict of per-stage iteration/convergence
        arrays.  ``Y`` is left as it is.  The stages share one (batch, n+1)
        residual: (Y - (1, c0))/2 gives the level-1 LLRs; subtracting
        (1, c1) and halving again gives (Y - (1, c0) - 2 (1, c1))/4, since
        halving is exact outside the subnormal range (whose values round to
        0 either way), and that is rounded in place to z.
        """
        Y = np.asarray(Y, dtype=np.float64)

        llr = wrapped_llr(Y[:, 1:], sigma)
        c0, it0, cv0 = bp_decode_batch(self.graph0, llr, None, self.max_iter)
        del llr

        s1, _ = stage_syndrome(self.pair.h1.a, c0)
        r = np.empty_like(Y)
        np.subtract(Y[:, 0], 1.0, out=r[:, 0])
        np.subtract(Y[:, 1:], c0, out=r[:, 1:])
        r *= 0.5
        llr = wrapped_llr(r[:, 1:], sigma / 2.0)
        c1, it1, cv1 = bp_decode_batch(self.graph1, llr, s1, self.max_iter)
        del llr

        r[:, 0] -= 1.0
        r[:, 1:] -= c1
        r *= 0.5
        z = np.rint(r, out=r).astype(np.int64)
        diag = {"it0": it0, "conv0": cv0, "it1": it1, "conv1": cv1}
        return c0, c1, z, diag
