"""Minimum-distance tooling.

Two complementary probes of the minimum Hamming weight of a binary code
given by a parity-check matrix:

* :func:`exact_dmin` enumerates the whole code (only for dimension k <= 28)
  and is exact; it doubles as the oracle for the randomized search.
* :func:`low_weight_search` is an information-set-decoding style randomized
  search (random column permutation, elimination, one argmin over a float32
  table of the weights of single rows and row pairs of the systematic
  generator).  It certifies an upper bound only.  The pivot columns of the
  eliminated generator are an identity, so two distinct rows overlap only
  on the non-pivot columns; the table takes its overlaps (one float32
  matmul) over those columns alone.

The search eliminates its permutations a block at a time: one call of the
stacked kernel :func:`qclattice.gf2.rref_words` row-reduces ``_BLOCK``
permuted generators together (the last block may hold fewer), which shares
the kernel's per-chunk numpy overhead across the block.  Each RREF is
unique and the permutations are drawn in the same order from the same
generator, so every seed's search path is the one of a search that
eliminates one permutation at a time.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitMatrix, nullspace_basis, pack, unpack
# the search's own name for the kernel; perfbench/tracing.py times the
# block eliminations (the wmin.rref layer) through it
from .gf2 import rref_words as _rref_packed

MAX_EXACT_DIM = 28
# permutations per call of the stacked elimination
_BLOCK = 16


class TooLargeError(ValueError):
    """Code dimension too large for exhaustive enumeration."""


class WitnessError(RuntimeError):
    """A search returned a witness that is zero or violates H c = 0."""


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
    masks = pack(np.array(basis))

    k_lo = min(k, 16)
    lo = np.zeros((1 << k_lo, masks.shape[1]), dtype=np.uint64)
    for i in range(k_lo):
        lo[1 << i: 2 << i] = lo[: 1 << i] ^ masks[i]
    best = int(np.bitwise_count(lo[1:]).sum(axis=1).min())

    if k_lo < k:
        hi = np.zeros((1 << (k - k_lo), masks.shape[1]), dtype=np.uint64)
        for i in range(k - k_lo):
            hi[1 << i: 2 << i] = hi[: 1 << i] ^ masks[k_lo + i]
        for p in range(1, hi.shape[0]):
            w = int(np.bitwise_count(lo ^ hi[p]).sum(axis=1).min())
            if w < best:
                best = w
    return best


def _eliminated(G0T: np.ndarray, iterations: int, rng: np.random.Generator):
    """Yield ``(perm, W, pivots)`` for each iteration in order: the column
    permutation, the packed RREF of the permuted generator (whose transpose
    is ``G0T``) and its pivots.  Permutations are drawn and eliminated a
    block at a time; every block but the last holds ``_BLOCK``."""
    n, k = G0T.shape
    for start in range(0, iterations, _BLOCK):
        size = min(_BLOCK, iterations - start)
        perms = [rng.permutation(n) for _ in range(size)]
        W = np.empty((size, k, (n + 63) // 64), dtype=np.uint64)
        for b, perm in enumerate(perms):
            W[b] = pack(G0T[perm].T)
        yield from zip(perms, W, _rref_packed(W, n))


def low_weight_search(H: BitMatrix, iterations: int, seed: int,
                      stop_at: int | None = None) -> tuple[int, np.ndarray]:
    """Randomized low-weight codeword search on the nullspace of ``H``.

    Each iteration permutes the columns of a generator matrix, row-reduces,
    and scans all single rows and row pairs (a Stern-style search with p=2)
    in one table: entry (i, j) is the weight of rows i + j, entry (i, i) is
    that of row i less 1/2, so that a row wins a tie with a pair.  The
    table's argmin replaces the best codeword so far when it is lighter.
    Returns ``(weight, witness)`` for the best codeword found; the witness
    always satisfies ``H c^T = 0``.  Deterministic for a given seed (at least 0).

    ``stop_at`` (at least 1) ends the search as soon as a codeword of weight
    <= stop_at is found, for a user who only needs a bound that low.

    The iterations run in blocks of ``_BLOCK`` permutations (the last block
    may be shorter): a block's permutations are drawn in iteration order,
    eliminated in one stacked call and then scanned in order, with
    ``stop_at`` checked after each.  A search that stops inside a block
    leaves that block's later eliminations unused.  The result is
    bit-identical to eliminating one permutation per iteration.
    """
    for name, value, least in (("iterations", iterations, 1), ("seed", seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if stop_at is not None and stop_at < 1:
        raise ValueError(f"stop_at must be >= 1 (a nonzero codeword has weight "
                         f">= 1), got {stop_at}")
    basis = nullspace_basis(H)
    if not basis:
        raise ValueError("code is trivial (full column rank); nothing to search")
    G0 = np.array(basis, dtype=np.uint8)
    k, n = G0.shape
    # column permutations become row gathers on a transposed copy
    G0T = np.ascontiguousarray(G0.T)
    rng = np.random.default_rng(seed)

    best_w = n + 1
    best = None    # (perm, packed word) of the best codeword so far

    for perm, W, pivots in _eliminated(G0T, iterations, rng):
        rows = W[: len(pivots)]
        # weights from the packed rows, whose padding bits are zero
        w_f = np.bitwise_count(rows).sum(axis=1).astype(np.float32)
        Rf = np.delete(unpack(rows, n), pivots, axis=1).astype(np.float32)
        # pair weights w_i + w_j - 2 overlap_ij, made in place in the float32
        # overlap matrix, with w_i - 1/2 on the diagonal: every value is a
        # multiple of 1/2 below 2n < 2^23, so each step is exact
        table = Rf @ Rf.T
        table *= -2.0
        table += w_f[:, None]
        table += w_f[None, :]
        np.fill_diagonal(table, w_f - 0.5)
        i, j = divmod(int(np.argmin(table)), len(rows))
        if table[i, j] < best_w - 0.5:
            # a copy, not a view, which would pin the whole elimination block
            word = rows[i] ^ rows[j] if i != j else rows[i].copy()
            best_w = int(np.bitwise_count(word).sum())
            best = perm, word
        if stop_at is not None and best_w <= stop_at:
            break

    # the first iteration sets best: its table is below n + 1/2
    perm, word = best
    c = np.zeros(n, dtype=np.uint8)
    c[perm] = unpack(word[None], n)[0]
    if not c.any() or H.mul_vec(c).any():
        raise WitnessError("low-weight search produced no nonzero codeword of H")
    return best_w, c
