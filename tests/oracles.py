"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from scratch (plain loops, direct
definitions) rather than calling the library's own code paths, except:

* :func:`wrapped_log_density`, which builds a density from the library's
  closed-form wrapped sums so that tests can check those sums;
* :func:`kernel_rank`, the library kernel's pivot count, for matrices too
  large for :func:`ref_rank`;
* :func:`toy_nearest_point_errors`, which decodes the lattice sweep's own
  draws (:func:`qclattice.sim.trial_draws`) so that the two compare
  trial by trial.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qclattice import codec, codes, qc, sim
from qclattice.codec import _fold, _llr_coefficients, _wrapped_sums
from qclattice.gf2 import pack, rref_words


def ref_rank(a) -> int:
    """Textbook GF(2) elimination on python lists."""
    rows = [list(int(x) & 1 for x in row) for row in np.asarray(a)]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def kernel_rank(M) -> int:
    """GF(2) rank of a ``BitMatrix``: the pivots of one library RREF."""
    return len(rref_words(pack(M.a), M.cols))


def ref_solve(a, s):
    """Any GF(2) solution of ``a x = s``, or None if inconsistent."""
    a = np.asarray(a)
    m, n = a.shape
    aug = [list(int(x) & 1 for x in row) + [int(s[i]) & 1] for i, row in enumerate(a)]
    piv_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(m):
            if i != r and aug[i][c]:
                aug[i] = [x ^ y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n]:
            return None
    x = np.zeros(n, dtype=np.uint8)
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return x


def exhaustive_nullspace(a) -> list[tuple[int, ...]]:
    """All vectors (including zero) with a v = 0, by full enumeration."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        v = np.array(bits, dtype=np.int64)
        if not (a @ v % 2).any():
            out.append(bits)
    return out


def brute_four_cycle(a) -> bool:
    """Two rows sharing ones in two columns, via the column gram matrix."""
    af = np.asarray(a, dtype=np.float64)
    g = af.T @ af
    np.fill_diagonal(g, 0.0)
    return bool((g >= 2).any())


def wide_llr(y: float, sigma: float, half_width: int = 60) -> float:
    """Wrapped-channel LLR by direct summation over a wide window."""
    num = sum(math.exp(-((y - 2 * k) ** 2) / (2 * sigma * sigma))
              for k in range(-half_width, half_width + 1))
    den = sum(math.exp(-((y - 1 - 2 * k) ** 2) / (2 * sigma * sigma))
              for k in range(-half_width, half_width + 1))
    return math.log(num) - math.log(den)


def ref_wrapped_llr(y, sigma: float, window: int | None = None) -> np.ndarray:
    """Frozen copy of the original ``codec.wrapped_llr``: a chain of 2w+1
    ``np.logaddexp`` calls per hypothesis over |k - round(y/2)| <= w, kept so
    that the closed-form kernel can be checked against it."""
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


def ref_llr_coefficients(sigma: float) -> tuple[float, list, list]:
    """Frozen copy of the earlier ``codec._llr_coefficients``: the e^-45
    coefficient cut inside the window w = max(3, ceil(6 sigma)), kept so
    that the cut alone can be checked to give the same lists."""
    w = max(3, math.ceil(6 * sigma))
    a = 1.0 / (2.0 * sigma * sigma)
    c = [math.exp(-4.0 * k * (k - 1) * a) for k in range(1, w + 1)
         if 4.0 * k * (k - 1) * a <= 45.0]
    d = [math.exp(-4.0 * k * k * a) for k in range(1, w + 1)
         if 4.0 * k * k * a <= 45.0]
    return a, c, d


def wrapped_logpdf(y, sigma: float, bit: int, half_width: int = 60):
    """Log density of (bit + noise) mod 2 at y, direct sum."""
    y = np.asarray(y, dtype=np.float64)
    total = np.zeros_like(y)
    for k in range(-half_width, half_width + 1):
        total += np.exp(-((y - bit - 2 * k) ** 2) / (2 * sigma * sigma))
    return np.log(total) - 0.5 * math.log(2 * math.pi * sigma * sigma)


def wrapped_log_density(y, sigma: float, bit: int) -> np.ndarray:
    """Log density of the wrapped channel output given a transmitted bit.

    The density of (bit + noise) mod 2 on [0, 2), summed over the same
    window as ``codec.wrapped_llr``: with e the distance from y - bit to 2Z,
    -e^2 a + ln S(e) - ln(2 pi sigma^2)/2, where a = 1/(2 sigma^2) and S is
    ``codec._wrapped_sums``.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64) - bit)
    a, c, d = _llr_coefficients(sigma)
    e = _fold(y, np.empty_like(y))
    s0, _ = _wrapped_sums(e, a, c, d, np.empty((5,) + e.shape))
    np.log(s0, out=s0)
    e *= e
    e *= a
    s0 -= e
    s0 -= 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    return s0.reshape(y.shape)


def ml_decode_wrapped(codebook: np.ndarray, y: np.ndarray, sigma: float) -> int:
    """Index of the ML codeword for a wrapped-Gaussian channel output."""
    best, best_ll = 0, -np.inf
    for idx, word in enumerate(codebook):
        ll = float(np.sum(wrapped_logpdf(y, sigma, 0) * (word == 0)
                          + wrapped_logpdf(y, sigma, 1) * (word == 1)))
        if ll > best_ll:
            best, best_ll = idx, ll
    return best


def _congruences(pair) -> tuple[np.ndarray, np.ndarray]:
    """H1 and H0 of ``pair`` as integer matrices: mod 4 and mod 2 rows."""
    return pair.h1.a.astype(np.int64), pair.h0.a.astype(np.int64)


def lattice_points_in_box(pair, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All integer points in [lo, hi]^n satisfying the two-level congruences
    of ``pair``: H1 x = 0 (mod 4) and H0 x = 0 (mod 2)."""
    h1, h0 = _congruences(pair)
    out = []
    for point in itertools.product(range(lo, hi + 1), repeat=pair.n):
        x = np.array(point, dtype=np.int64)
        if (h1 @ x % 4 == 0).all() and (h0 @ x % 2 == 0).all():
            out.append(point)
    return out


def nearest_lattice_point(pair, y: np.ndarray, reach: int = 3) -> np.ndarray:
    """Nearest congruence-satisfying point, enumerating around round(y)."""
    h1, h0 = _congruences(pair)
    center = np.rint(y).astype(np.int64)
    best = None
    best_d = np.inf
    ranges = [range(int(c - reach), int(c + reach + 1)) for c in center]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=np.int64)
        if (h1 @ x % 4).any() or (h0 @ x % 2).any():
            continue
        d = float(np.sum((y - x) ** 2))
        if d < best_d:
            best_d = d
            best = x
    assert best is not None, "reach too small to find any lattice point"
    return best


def toy_lattice():
    """The smallest two-level lattice: the all-{0} 1x2 prototype at z = 2
    (n = 4, k0 = k1 = 1, H1 = H0).  Returns ``(pair, plans, V)`` with
    V = 4^(2 - 0.2 - 0.2) the normalized volume at length N = 5."""
    pair = codes.make_pair_row_sums(qc.ProtoMatrix.from_shifts([[0, 0]], 2), [(0,)])
    plans = (codec.EncoderPlan(pair.h0), codec.EncoderPlan(pair.h1))
    return pair, plans, 4.0 ** (2 - 0.2 - 0.2)


def toy_nearest_point_errors(seed: int, trials: int, sigma: float) -> int:
    """Block errors of exact nearest-point decoding of :func:`toy_lattice`
    on the trials [0, trials) that ``sweep_lattice`` runs at point 0 of
    ``seed`` (integer parts within sim.ZRANGE), from the same draws.

    The lattice is the union of four cosets of 4Z^4, one per point of
    [0, 3]^4, so the nearest point is the nearest of the coset rounds; the
    dummy coordinate rounds in 3 + 4Z.
    """
    pair, plans, _ = toy_lattice()
    reps = np.array(lattice_points_in_box(pair, 0, 3), dtype=np.int64)
    assert len(reps) == 4
    bits, z, noise = sim.trial_draws(seed, 0, 0, trials,
                                     sim._lattice_fields(1, 1, pair.n))
    _, _, x = codec.encode_lattice(plans, bits[:, :1], bits[:, 1:],
                                   np.roll(z, 1, axis=1))
    y = x + sigma * noise
    x0 = 3 + 4 * np.rint((y[:, 0] - 3) / 4).astype(np.int64)
    y = y[:, None, 1:]
    cand = reps + 4 * np.rint((y - reps) / 4).astype(np.int64)
    best = cand[np.arange(trials), np.argmin(((y - cand) ** 2).sum(axis=2), axis=1)]
    return int(((x0 != x[:, 0]) | (best != x[:, 1:]).any(axis=1)).sum())


def tree_bitwise_map(H, syndrome, llr) -> np.ndarray:
    """Exact per-bit MAP for a code given by H with target parities.

    Enumerates every binary configuration, weights by exp(-llr . w), keeps
    those whose checks match the syndrome, and returns the per-bit argmax.
    Costs 2^n, so only for tiny codes.
    """
    H = np.asarray(H, dtype=np.int64)
    syndrome = np.asarray(syndrome, dtype=np.int64)
    llr = np.asarray(llr, dtype=np.float64)
    n = H.shape[1]
    p1 = np.zeros(n)
    p0 = np.zeros(n)
    for bits in itertools.product((0, 1), repeat=n):
        w = np.array(bits, dtype=np.int64)
        if ((H @ w) % 2 != syndrome % 2).any():
            continue
        weight = math.exp(float(-np.dot(llr, w)))
        p1 += weight * w
        p0 += weight * (1 - w)
    assert (p0 + p1 > 0).all(), "no configuration matches the syndrome"
    return (p1 > p0).astype(np.uint8)


def ref_bp_decode_batch(H, llrs, syndromes=None, max_iter: int = 100):
    """Frozen copy of the original flooding sum-product kernel.

    Kept verbatim (boolean-mask sign flips, axis-1 fancy-index gathers,
    fresh temporaries every iteration) as the reference for
    ``codec.bp_decode_batch``.  It builds its own edge lists from ``H`` (a
    0/1 array or BitMatrix) instead of using ``codec.TannerGraph``.

    It works in the log domain and the kernel in the product domain, so
    the two agree bit for bit only on tame graphs: the preset matrices,
    the hand-built ``idle-row`` and ``edge-degrees`` matrices of
    ``test_codec.py::KERNEL_CASES``, and random graphs up to 2 iterations.
    On small random graphs with idle or repeated rows and contradictory
    syndromes they part from 3 iterations on, in 1 to 10 of 3,000 cases of
    ``test_idle_nodes_anywhere``'s generator: messages sit at the clip,
    where atanh magnifies the two domains' rounding.  ``test_idle_nodes_anywhere`` caps its iterations for that
    reason.
    """
    a = np.asarray(getattr(H, "a", H), dtype=np.uint8)
    n_checks, n_vars = a.shape
    chk, var = np.nonzero(a)
    chk = chk.astype(np.int64)
    var = var.astype(np.int64)
    n_edges = int(chk.size)
    deg_chk = np.bincount(chk, minlength=n_checks)
    active_chk = np.nonzero(deg_chk)[0]
    idle_chk = np.nonzero(deg_chk == 0)[0]
    chk_ptr = np.concatenate([[0], np.cumsum(deg_chk[active_chk])])[:-1].astype(np.int64)
    chk_pos = np.searchsorted(active_chk, chk).astype(np.int64)
    var_order = np.argsort(var, kind="stable").astype(np.int64)
    deg_var = np.bincount(var, minlength=n_vars)
    active_var = np.nonzero(deg_var)[0]
    var_ptr = np.concatenate([[0], np.cumsum(deg_var[active_var])])[:-1].astype(np.int64)

    B, n = llrs.shape
    assert n == n_vars
    if syndromes is None:
        syndromes = np.zeros((B, n_checks), dtype=np.uint8)
    syndromes = syndromes.astype(np.uint8)

    hard_out = np.zeros((B, n), dtype=np.uint8)
    iters_out = np.full(B, max_iter, dtype=np.int64)
    conv_out = np.zeros(B, dtype=bool)

    llrs = np.clip(llrs, -64.0, 64.0)
    never = (syndromes[:, idle_chk] != 0).any(axis=1) \
        if idle_chk.size else np.zeros(B, dtype=bool)

    syn_active_all = syndromes[:, active_chk]
    active = np.arange(B)

    post = llrs.copy()
    c2v = np.zeros((B, n_edges), dtype=np.float64)
    llr_act = llrs
    syn_act = syn_active_all
    syn_edge = syn_active_all[:, chk_pos].astype(np.int8)
    never_act = never

    for it in range(max_iter + 1):
        hard = (post < 0).astype(np.uint8)
        par = np.add.reduceat(hard[:, var], chk_ptr, axis=1) & 1
        ok = (par == syn_act).all(axis=1) & ~never_act
        if ok.any():
            done = active[ok]
            hard_out[done] = hard[ok]
            iters_out[done] = it
            conv_out[done] = True
            keep = ~ok
            if not keep.any():
                return hard_out, iters_out, conv_out
            active = active[keep]
            post = post[keep]
            c2v = c2v[keep]
            llr_act = llr_act[keep]
            syn_act = syn_act[keep]
            syn_edge = syn_edge[keep]
            never_act = never_act[keep]
        if it == max_iter:
            hard_out[active] = (post < 0).astype(np.uint8)
            break

        v2c = post[:, var] - c2v
        np.clip(v2c, -30.0, 30.0, out=v2c)
        th = np.tanh(0.5 * v2c)
        neg = (th < 0).astype(np.int8)
        mag = np.abs(th)
        np.maximum(mag, 1e-300, out=mag)
        lt = np.log(mag)
        lsum = np.add.reduceat(lt, chk_ptr, axis=1)
        nsum = np.add.reduceat(neg, chk_ptr, axis=1)
        excl_log = lsum[:, chk_pos] - lt
        np.minimum(excl_log, 0.0, out=excl_log)
        parity = (nsum[:, chk_pos] - neg + syn_edge) & 1
        emag = np.exp(excl_log)
        np.minimum(emag, 1.0 - 1e-15, out=emag)
        c2v = 2.0 * np.arctanh(emag)
        c2v[parity == 1] *= -1.0

        vsum = np.add.reduceat(c2v[:, var_order], var_ptr, axis=1)
        post = llr_act.copy()
        post[:, active_var] += vsum

    return hard_out, iters_out, conv_out


def ref_exclusive_products(t: np.ndarray, sgn: np.ndarray, out: np.ndarray) -> None:
    """Frozen copy of the slot-by-slot loop that ``codec._exclusive_products``
    replaced: prefix products forward, then each middle slot's suffix
    product and ``t``'s own suffix product together, one slot at a time;
    same in-place contract on (d, m, batch) blocks."""
    d = t.shape[0]
    if d == 1:
        np.multiply(sgn, codec._ATANH_CAP, out=out[0])
        return
    np.multiply(sgn, t[0], out=out[1])
    for j in range(2, d):
        np.multiply(out[j - 1], t[j - 1], out=out[j])
    for j in range(d - 2, 0, -1):
        out[j] *= t[j + 1]
        t[j] *= t[j + 1]
    np.multiply(sgn, t[1], out=out[0])


def ref_rref(a) -> tuple[np.ndarray, list[int]]:
    """Frozen copy of the uint8-row GF(2) RREF that the packed-word kernel
    in ``qclattice.gf2`` replaced; same ``(R, pivot_cols)`` contract."""
    R = np.asarray(a, dtype=np.uint8) & 1
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def ref_nullspace_basis(a) -> list[np.ndarray]:
    """Frozen copy of the loop-built nullspace basis that the vectorized
    ``qclattice.gf2.nullspace_basis`` replaced."""
    R, pivots = ref_rref(a)
    n = R.shape[1]
    piv_set = set(pivots)
    basis = []
    for f in range(n):
        if f in piv_set:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = R[i, f]
        basis.append(v)
    return basis


def ref_rref_words(W: np.ndarray, n: int) -> list[int]:
    """Frozen copy of the column-at-a-time packed-word RREF that the
    chunked kernel ``qclattice.gf2.rref_words`` replaced; same in-place
    contract on rows packed as little-endian uint64 words."""
    m = W.shape[0]
    one = np.uint64(1)
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        col = (W[:, c >> 6] >> np.uint64(c & 63)) & one
        below = np.flatnonzero(col[r:])
        if below.size == 0:
            continue
        p = r + int(below[0])
        if p != r:
            W[[r, p]] = W[[p, r]]
            col[[r, p]] = col[[p, r]]
        col[r] = 0
        hits = np.flatnonzero(col)
        if hits.size:
            W[hits] ^= W[r]
        pivots.append(c)
    return pivots


def _ref_pack(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    out = np.zeros((m, (n + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(a, axis=1, bitorder="little")
    return out.view("<u8")


def _ref_unpack(W: np.ndarray, n: int) -> np.ndarray:
    return np.unpackbits(W.view(np.uint8), axis=1, bitorder="little")[:, :n]


def ref_low_weight_search(H, iterations: int, seed: int,
                          stop_at: int | None = None) -> tuple[int, np.ndarray]:
    """Frozen copy of ``qclattice.wmin.low_weight_search`` before the chunked
    kernel: the generator and every iteration's RREF come from the frozen
    column-at-a-time kernel, and the pair overlaps run over all n columns.
    Returns ``(weight, witness)``."""
    n = H.a.shape[1]
    W = _ref_pack(H.a)
    pivots = ref_rref_words(W, n)
    R = _ref_unpack(W, n)
    free = np.setdiff1d(np.arange(n), pivots)
    G0 = np.zeros((free.size, n), dtype=np.uint8)
    G0[np.arange(free.size), free] = 1
    G0[:, pivots] = R[: len(pivots), free].T
    rng = np.random.default_rng(seed)
    best_w = n + 1
    best_c = None
    for _ in range(iterations):
        perm = rng.permutation(n)
        W = _ref_pack(G0[:, perm])
        npiv = len(ref_rref_words(W, n))
        R = _ref_unpack(W[:npiv], n)
        w_rows = R.sum(axis=1).astype(np.int64)
        i_best = int(np.argmin(w_rows))
        if w_rows[i_best] < best_w:
            best_w = int(w_rows[i_best])
            c = np.zeros(n, dtype=np.uint8)
            c[perm] = R[i_best]
            best_c = c
        if R.shape[0] >= 2:
            Rf = R.astype(np.float32)
            overlap = Rf @ Rf.T
            pair_w = w_rows[:, None] + w_rows[None, :] - 2 * overlap.astype(np.int64)
            np.fill_diagonal(pair_w, n + 1)
            ij = int(np.argmin(pair_w))
            i, j = divmod(ij, R.shape[0])
            if pair_w[i, j] < best_w and pair_w[i, j] > 0:
                best_w = int(pair_w[i, j])
                c = np.zeros(n, dtype=np.uint8)
                c[perm] = R[i] ^ R[j]
                best_c = c
        if stop_at is not None and best_w <= stop_at:
            break
    return best_w, best_c


def ref_lightest(R: np.ndarray, pivots) -> tuple[int, int, int]:
    """The low-weight search's full row-and-pair table before the +/-1 scan:
    for RREF rows ``R`` (unpacked, with ``pivots``), entry (i, j) is the
    weight of rows i + j, from overlaps over the non-pivot columns, and
    entry (i, i) the weight of row i less 1/2.  Returns ``(i, j, weight)``
    of the table's first argmin in row-major order."""
    w = R.sum(axis=1).astype(np.float32)
    F = np.delete(R, pivots, axis=1).astype(np.float32)
    table = w[:, None] + w[None, :] - 2 * (F @ F.T)
    np.fill_diagonal(table, w - 0.5)
    i, j = divmod(int(np.argmin(table)), len(R))
    return i, j, int(table[i, j] + 0.5 * (i == j))
