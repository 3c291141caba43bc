"""Minimum-distance tooling.

Two complementary probes of the minimum Hamming weight of a binary code
given by a parity-check matrix:

* :func:`exact_dmin` enumerates the whole code (only for dimension k <= 28)
  and is exact; it doubles as the oracle for the randomized search.
* :func:`low_weight_search` is an information-set-decoding style randomized
  search (random column permutation, elimination, scan of single rows and
  row pairs of the systematic generator).  It certifies an upper bound only.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitMatrix, nullspace_basis, rref

MAX_EXACT_DIM = 28


class TooLargeError(ValueError):
    """Code dimension too large for exhaustive enumeration."""


class WitnessError(RuntimeError):
    """A search returned a witness that is zero or violates H c = 0."""


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _pack_rows(rows: list[np.ndarray], n: int) -> np.ndarray:
    """Pack binary vectors into little-endian uint64 words, (len, words)."""
    nwords = (n + 63) // 64
    out = np.zeros((len(rows), nwords), dtype=np.uint64)
    for i, v in enumerate(rows):
        idx = np.nonzero(v)[0]
        np.bitwise_or.at(out[i], idx // 64, np.uint64(1) << (idx % 64).astype(np.uint64))
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    return _POP8[words.view(np.uint8)].reshape(*words.shape, 8).sum(axis=(-2, -1))


def exact_dmin(H: BitMatrix) -> int:
    """Exact minimum nonzero weight of the nullspace of ``H``.

    Enumerates all 2^k - 1 nonzero codewords via doubling tables of packed
    words; requires k = cols - rank(H) <= 28 and raises
    :class:`TooLargeError` otherwise.  A code with k = 0 has no nonzero
    codeword and raises ValueError.
    """
    basis = nullspace_basis(H)
    k = len(basis)
    if k > MAX_EXACT_DIM:
        raise TooLargeError(f"dimension k={k} exceeds {MAX_EXACT_DIM}")
    if k == 0:
        raise ValueError("code is trivial (full column rank); no nonzero codeword")
    n = H.cols
    masks = _pack_rows(basis, n)

    k_lo = min(k, 16)
    lo = np.zeros((1 << k_lo, masks.shape[1]), dtype=np.uint64)
    for i in range(k_lo):
        lo[1 << i: 2 << i] = lo[: 1 << i] ^ masks[i]
    best = int(_popcount(lo[1:]).min())

    if k_lo < k:
        hi = np.zeros((1 << (k - k_lo), masks.shape[1]), dtype=np.uint64)
        for i in range(k - k_lo):
            hi[1 << i: 2 << i] = hi[: 1 << i] ^ masks[k_lo + i]
        for p in range(1, hi.shape[0]):
            w = int(_popcount(lo ^ hi[p]).min())
            if w < best:
                best = w
    return best


def _rref_packed(W: np.ndarray, n: int) -> int:
    """In-place RREF of a bit-packed matrix; returns the number of pivots.

    Produces the same (unique) reduced form as :func:`qclattice.gf2.rref`,
    an order of magnitude faster on wide matrices.
    """
    k = W.shape[0]
    r = 0
    one = np.uint64(1)
    for c in range(n):
        w, b = divmod(c, 64)
        bshift = np.uint64(b)
        col = (W[r:, w] >> bshift) & one
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            W[[r, p]] = W[[p, r]]
        col_all = (W[:, w] >> bshift) & one
        hits = np.nonzero(col_all)[0]
        hits = hits[hits != r]
        if hits.size:
            W[hits] ^= W[r]
        r += 1
        if r == k:
            break
    return r


def low_weight_search(H: BitMatrix, iterations: int, seed: int,
                      stop_at: int | None = None) -> tuple[int, np.ndarray]:
    """Randomized low-weight codeword search on the nullspace of ``H``.

    Each iteration permutes the columns of a generator matrix, row-reduces,
    and scans all single rows and row pairs (a Stern-style search with p=2).
    Returns ``(weight, witness)`` for the best codeword found; the witness
    always satisfies ``H c^T = 0``.  Deterministic for a given seed.

    ``stop_at`` ends the search as soon as a codeword of weight <= stop_at
    is found, which lets design loops prune candidates early.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    basis = nullspace_basis(H)
    if not basis:
        raise ValueError("code is trivial (full column rank); nothing to search")
    G0 = np.array(basis, dtype=np.uint8)
    k, n = G0.shape
    rng = np.random.default_rng(seed)

    best_w = n + 1
    best_c: np.ndarray | None = None

    for _ in range(iterations):
        perm = rng.permutation(n)
        packed = np.packbits(G0[:, perm], axis=1, bitorder="little")
        W = np.zeros((k, (n + 63) // 64 * 8), dtype=np.uint8)
        W[:, : packed.shape[1]] = packed
        W = W.view(np.uint64)
        npiv = _rref_packed(W, n)
        R = np.unpackbits(W[:npiv].view(np.uint8), axis=1,
                          bitorder="little")[:, :n]
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

    if best_c is None or not best_c.any() or H.mul_vec(best_c).any():
        raise WitnessError("low-weight search produced no nonzero codeword of H")
    return best_w, best_c
