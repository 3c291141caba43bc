"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from scratch (plain loops, direct
definitions) rather than calling the library's own code paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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


def wrapped_logpdf(y, sigma: float, bit: int, half_width: int = 60):
    """Log density of (bit + noise) mod 2 at y, direct sum."""
    y = np.asarray(y, dtype=np.float64)
    total = np.zeros_like(y)
    for k in range(-half_width, half_width + 1):
        total += np.exp(-((y - bit - 2 * k) ** 2) / (2 * sigma * sigma))
    return np.log(total) - 0.5 * math.log(2 * math.pi * sigma * sigma)


def ml_decode_wrapped(codebook: np.ndarray, y: np.ndarray, sigma: float) -> int:
    """Index of the ML codeword for a wrapped-Gaussian channel output."""
    best, best_ll = 0, -np.inf
    for idx, word in enumerate(codebook):
        ll = float(np.sum(wrapped_logpdf(y, sigma, 0) * (word == 0)
                          + wrapped_logpdf(y, sigma, 1) * (word == 1)))
        if ll > best_ll:
            best, best_ll = idx, ll
    return best


def lattice_points_in_box(rows, m1: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All integer points in [lo, hi]^n satisfying the two-level congruences."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[1]
    out = []
    for point in itertools.product(range(lo, hi + 1), repeat=n):
        x = np.array(point, dtype=np.int64)
        dots = rows @ x
        if (dots[:m1] % 4 == 0).all() and (dots[m1:] % 2 == 0).all():
            out.append(point)
    return out


def nearest_lattice_point(rows, m1: int, y: np.ndarray, reach: int = 3) -> np.ndarray:
    """Nearest congruence-satisfying point, enumerating around round(y)."""
    rows = np.asarray(rows, dtype=np.int64)
    n = len(y)
    center = np.rint(y).astype(np.int64)
    best = None
    best_d = np.inf
    ranges = [range(int(c - reach), int(c + reach + 1)) for c in center]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=np.int64)
        dots = rows @ x
        if (dots[:m1] % 4).any() or (dots[m1:] % 2).any():
            continue
        d = float(np.sum((y - x) ** 2))
        if d < best_d:
            best_d = d
            best = x
    assert best is not None, "reach too small to find any lattice point"
    return best


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
    fresh temporaries every iteration) so that a rewritten
    ``codec.bp_decode_batch`` can be checked bit for bit against it.  It
    builds its own edge lists from ``H`` (a 0/1 array or BitMatrix) instead
    of using ``codec.TannerGraph``.
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
