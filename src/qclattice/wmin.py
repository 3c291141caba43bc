"""Minimum-distance tooling.

Two complementary probes of the minimum Hamming weight of a binary code
given by a parity-check matrix:

* :func:`exact_dmin` enumerates the whole code (only for dimension k <= 28)
  and is exact; it doubles as the oracle for the randomized search.
* :func:`low_weight_search` is an information-set-decoding style randomized
  search (random column permutation, elimination, one scan of a table of
  the weights of single rows and row pairs of the systematic generator).
  It certifies an upper bound only.  The pivot columns of the eliminated
  generator are an identity, so the weight of a pair of distinct rows is 2
  plus their Hamming distance d_ij on the m non-pivot columns.  With
  s = 1 - 2 bit over those columns, s_i . s_j = m - 2 d_ij, so one float32
  matmul of +/-1 entries gives every pair's weight as (m + 4 - s_i . s_j)/2,
  and the table's lightest entry is its image's largest.  The table is
  symmetric and its first lightest entry in row-major order lies on or
  above the diagonal, so the scan multiplies each of ``_SCAN_BLOCKS`` row
  blocks only against the columns from the block's first row on.

The search eliminates its permutations a block at a time: one call of the
stacked kernel :func:`qclattice.gf2.rref_words` row-reduces up to
``_BLOCK`` permuted generators together, which shares the kernel's
per-chunk numpy overhead across the block.  A search with ``stop_at``
grows its blocks from 1 to ``_BLOCK`` (1, 2, 4, ...), so an early stop
leaves few eliminations unused.

The generator from :func:`qclattice.gf2.nullspace_basis` is systematic:
row j has a unit column, equal to e_j, and the other r = n - k columns
are its non-unit columns.  Each permuted generator is laid out as its
non-unit columns in permuted order, then its unit part, and its rows are
sorted so that the row whose unit column comes last is first.  The kernel
eliminates the non-unit columns only, each row limited to the non-unit
columns before its own unit column, and pivots each such column on the
candidate whose unit column comes last; the unit columns cost no chunk
step, and the result is the permuted generator's unique RREF (the
reasoning is in :func:`low_weight_search`).  The non-unit columns are
packed from their columns gathered as rows, eight of them OR-ed into
each byte, with no transposing copy of the bits.  Each RREF is unique and
the permutations are drawn in the same order from the same generator, so
every seed's search path is the one of a search that eliminates one
permutation at a time over all its columns.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

import numpy as np

from .gf2 import BitMatrix, nullspace_basis, pack, unpack
# the search's own name for the kernel; perfbench/tracing.py times the
# block eliminations (the wmin.rref layer) through it
from .gf2 import rref_words as _rref_packed

MAX_EXACT_DIM = 28
# permutations per call of the stacked elimination (at most)
_BLOCK = 16
# row blocks of the upper-triangle pair scan (4 and 6 measured best on the
# wimax1152 H_qc)
_SCAN_BLOCKS = 4


class TooLargeError(ValueError):
    """Code dimension too large for exhaustive enumeration."""


class WitnessError(RuntimeError):
    """A search returned a witness that is zero or violates H c = 0, or its
    weight table disagreed with the word it picked."""


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
    masks = pack(basis)

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


def _block_sizes(iterations: int, stop_at: int | None) -> Iterable[int]:
    """Permutations per stacked elimination, in iteration order: ``_BLOCK``
    each, or 1, 2, 4, ... up to ``_BLOCK`` with ``stop_at``, so a stop
    leaves fewer eliminations unused than it ran; the last block is cut to
    the iteration budget."""
    size = _BLOCK if stop_at is None else 1
    while iterations > 0:
        yield min(size, iterations)
        iterations -= size
        size = min(2 * size, _BLOCK)


def _pack_permuted(G0T: np.ndarray, perm: np.ndarray, out: np.ndarray) -> None:
    """Write ``pack(G0T[perm].T)`` into the zeroed uint64 array ``out``;
    ``perm`` may pick any of ``G0T``'s rows, in any order.

    The picked columns are gathered as rows of a copy padded with zero
    rows to a multiple of 8; each group of 8 rows is shifted to its bit in
    place and OR-reduced to one byte row, so only the (len(perm)/8, k)
    bytes are transposed, into ``out``'s byte view.
    """
    n, k = len(perm), G0T.shape[1]
    M = np.zeros((-(-n // 8) * 8, k), dtype=np.uint8)
    np.take(G0T, perm, axis=0, out=M[:n])
    M = M.reshape(-1, 8, k)
    M <<= np.arange(8, dtype=np.uint8)[:, None]
    out.view(np.uint8)[:, : M.shape[0]] = np.bitwise_or.reduce(M, axis=1).T


def _unit_columns(G0T: np.ndarray) -> np.ndarray:
    """Row j's unit column of the systematic generator whose transpose is
    ``G0T``: its last column equal to e_j.  :func:`nullspace_basis` puts
    e_j on H's j-th non-pivot column, and a pivot column of H can equal
    e_j only to the left of it (an RREF row of H is zero left of its
    pivot)."""
    k = G0T.shape[1]
    single = np.flatnonzero(G0T.sum(axis=1, dtype=np.intp) == 1)
    unit = np.full(k, -1, dtype=np.intp)
    np.maximum.at(unit, G0T[single].argmax(axis=1), single)
    if (unit < 0).any():
        raise ValueError("generator is not systematic: a row has no unit column")
    return unit


def _lowest_bits(W: np.ndarray, c: int) -> np.ndarray:
    """Column of each packed row's lowest set bit at column c or later
    (garbage for a row with none there)."""
    U = W[..., c >> 6:].copy()
    U[..., 0] &= ~np.uint64((1 << (c & 63)) - 1)
    first = (U != 0).argmax(axis=-1)
    x = np.take_along_axis(U, first[..., None], axis=-1)[..., 0]
    # ~x & (x - 1) sets exactly the bits below x's lowest
    return 64 * ((c >> 6) + first) + np.bitwise_count(~x & (x - np.uint64(1)))


def _eliminated(G0T: np.ndarray, blocks: Iterable[np.ndarray]):
    """Yield ``(cols, rows, free)`` for each permutation in order: the
    layout (the original column of each packed column), the packed RREF
    rows of the permuted generator (whose transpose is ``G0T``) in pivot
    order, and its non-pivot columns in the layout.  ``blocks`` holds the
    permutations, one ``(B, n)`` array per stacked elimination.

    The layout is the r = n - k non-unit columns, then the k unit
    columns, each in permuted order.  The rows go into the kernel last
    unit column first, each limited to the non-unit columns before its
    unit column, and the kernel eliminates the first r columns only; the
    unit part follows its row operations.  After the kernel each row's
    pivot is its non-unit pivot, or else its own unit column, the lowest
    set bit of its unit part (see :func:`low_weight_search`).
    """
    n, k = G0T.shape
    r = n - k
    words = (n + 63) // 64
    unit = _unit_columns(G0T)
    is_unit = np.zeros(n, dtype=bool)
    is_unit[unit] = True
    row_of = np.zeros(n, dtype=np.intp)
    row_of[unit] = np.arange(k)
    # the unit part in kernel row order: row i has the (k-1-i)-th unit
    # column in permuted order, at layout column n-1-i
    ident = np.zeros((k, words), dtype=np.uint64)
    at = n - 1 - np.arange(k)
    ident.view(np.uint8)[np.arange(k), at >> 3] = 1 << (at & 7)
    for perms in blocks:
        B = len(perms)
        # the permuted position of each layout column: a stable sort puts
        # the non-unit columns first, each part in permuted order
        where = np.argsort(is_unit[perms], axis=1, kind="stable")
        cols = np.take_along_axis(perms, where, axis=1)
        # row i of the kernel's input, by unit columns last first, and the
        # number of non-unit columns before its unit column (int32, which
        # the kernel compares per bit at about half the cost of int64)
        rows_in = row_of[cols[:, r:]][:, ::-1]
        limit = (where[:, r:] - np.arange(k))[:, ::-1].astype(np.int32)
        W = np.zeros((B, k, words), dtype=np.uint64)
        for b in range(B):
            _pack_permuted(G0T, cols[b, :r], W[b])
            W[b] = W[b, rows_in[b]]
        W |= ident
        pivots = _rref_packed(W, r, limit)
        # the kernel puts the rows with a non-unit pivot first, in column
        # order, and the others after them in input order; lay is the
        # layout column of each row's pivot
        npiv = np.array([len(p) for p in pivots])
        lay = _lowest_bits(W, r)
        lay[np.arange(k) < npiv[:, None]] = np.fromiter(chain.from_iterable(pivots),
                                                        dtype=np.intp)
        order = np.argsort(np.take_along_axis(where, lay, axis=1), axis=1)
        is_free = np.ones((B, n), dtype=bool)
        np.put_along_axis(is_free, lay, False, axis=1)
        free = np.nonzero(is_free)[1].reshape(B, r)
        for b in range(B):
            yield cols[b], W[b, order[b]], free[b]


def _lightest(rows: np.ndarray, free: np.ndarray) -> tuple[int, int, int]:
    """``(i, j, weight)`` of the first lightest entry, in row-major order, of
    the table whose entry (i, j) is the weight of ``rows[i] ^ rows[j]`` and
    whose entry (i, i) is the weight of ``rows[i]`` less 1/2 (so a row wins
    a tie with a pair); ``weight`` is that row's or pair's weight.

    ``rows`` are the packed rows of an RREF, ``free`` its non-pivot columns.
    The table is scanned as its +/-1 image v = m + 4 - 2 (table entry), m =
    ``len(free)``: s_i . s_j off the diagonal and m + 5 - 2 w_i on it, all
    integers of size at most m + 3, exact in float32 (m < 2^24).  Row
    block a, rows a0:a1, is multiplied against columns a0 on; the table is
    symmetric, so its first lightest entry lies at i <= j, in the block of
    its row, and no earlier block holds a value as light.  The earliest
    block's first argmax is therefore the full table's first argmin.
    """
    r, m = len(rows), len(free)
    bytes_t = np.ascontiguousarray(rows.view(np.uint8).T)
    # (m, r): the +/-1 image of the free columns, whose transpose BLAS
    # takes as it is
    S_t = ((bytes_t[free >> 3] >> (free & 7).astype(np.uint8)[:, None]) & 1
           ).astype(np.float32)
    S_t *= -2.0
    S_t += 1.0
    # popcounts are uint64: cast before subtracting, or m + 5 - 2 w wraps
    diag = (m + 5 - 2 * np.bitwise_count(rows).sum(axis=1).astype(np.int64)
            ).astype(np.float32)
    blocks = min(_SCAN_BLOCKS, r)
    best_v, best_i, best_j = -np.inf, 0, 0
    for a in range(blocks):
        a0, a1 = a * r // blocks, (a + 1) * r // blocks
        V = S_t[:, a0:a1].T @ S_t[:, a0:]
        np.fill_diagonal(V, diag[a0:a1])
        at = int(np.argmax(V))
        if V.flat[at] > best_v:
            best_v = V.flat[at]
            best_i, best_j = a0 + at // V.shape[1], a0 + at % V.shape[1]
    weight = (m + 4 - int(best_v) + (best_i == best_j)) // 2
    return best_i, best_j, weight


def low_weight_search(H: BitMatrix, iterations: int, seed: int,
                      stop_at: int | None = None) -> tuple[int, np.ndarray]:
    """Randomized low-weight codeword search on the nullspace of ``H``.

    Each iteration permutes the columns of a generator matrix, row-reduces,
    and scans all single rows and row pairs (a Stern-style search with p=2)
    in one table: entry (i, j) is the weight of rows i + j, entry (i, i) is
    that of row i less 1/2, so that a row wins a tie with a pair.  The
    table's first lightest entry replaces the best codeword so far when it
    is lighter; it is found as the first largest entry of the table's +/-1
    image (see :func:`_lightest`), scanned in upper-triangle row blocks.
    The new best word's weight must equal the table's, or the search
    raises :class:`WitnessError`.  Returns ``(weight, witness)`` for the
    best codeword found; the witness always satisfies ``H c^T = 0``.
    Deterministic for a given seed (at least 0).

    ``stop_at`` (at least 1) ends the search as soon as a codeword of weight
    <= stop_at is found, for a user who only needs a bound that low.

    The iterations run in blocks: a block's permutations are drawn in
    iteration order, eliminated in one stacked call and then scanned in
    order, with ``stop_at`` checked after each.  Blocks hold ``_BLOCK``
    permutations (the last may be shorter); with ``stop_at`` they grow 1,
    2, 4, ... up to ``_BLOCK``, so a search that stops inside a block
    leaves fewer of its eliminations unused than it ran.  The result is
    bit-identical to eliminating one permutation per iteration.

    Each elimination runs over the generator's non-unit columns only.  Row
    j's unit column u_j is its last column equal to e_j (see
    :func:`_unit_columns`).  The rows go into the kernel last unit column
    first, row f limited to the non-unit columns before u_f, so each
    non-unit column pivots on the candidate, an unused row within its
    limit, whose unit column comes last.  That is exact:

    * Suppose the permutation reaches u_f while f is unused.  That column
      is still e_f, because a row is added to other rows only after it
      pivots.  So the column is a pivot on f, and it needs no work.
    * Suppose pivot p is added to an unused row h.  Then u_h comes before
      u_p, because p was the candidate whose unit column comes last (or h
      is past its limit, so u_h comes before the pivot's column).
    * Now let row f pivot on a non-unit column.  By induction, every
      unused row that later holds a 1 in u_f has its own unit column
      before u_f.  When the permutation reaches u_f, all of those rows
      are already used, so u_f is zero on every unused row and is not a
      pivot.
    * So the pivots are the non-unit pivots plus the unit columns of the
      other rows, and only non-unit columns need chunk steps; the row
      operations are those of an elimination in permuted order, so the
      rows, sorted by their pivots' positions, are the RREF.
    """
    for name, value, least in (("iterations", iterations, 1), ("seed", seed, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    if stop_at is not None and stop_at < 1:
        raise ValueError(f"stop_at must be >= 1 (a nonzero codeword has weight "
                         f">= 1), got {stop_at}")
    G0 = nullspace_basis(H)
    k, n = G0.shape
    if k == 0:
        raise ValueError("code is trivial (full column rank); nothing to search")
    # column permutations become row gathers on a transposed copy
    G0T = np.ascontiguousarray(G0.T)
    rng = np.random.default_rng(seed)

    best_w = n + 1
    best = None    # (layout, packed word) of the best codeword so far

    blocks = (np.array([rng.permutation(n) for _ in range(size)])
              for size in _block_sizes(iterations, stop_at))
    for cols, rows, free in _eliminated(G0T, blocks):
        i, j, w = _lightest(rows, free)
        if w < best_w:
            # a copy, not a view, which would pin all of the iteration's rows
            word = rows[i] ^ rows[j] if i != j else rows[i].copy()
            best_w = int(np.bitwise_count(word).sum())
            if best_w != w:
                raise WitnessError(f"low-weight search table gave weight {w} "
                                   f"for a word of weight {best_w}")
            best = cols, word
        if stop_at is not None and best_w <= stop_at:
            break

    # the first iteration sets best: its lightest entry weighs at most n
    cols, word = best
    c = np.zeros(n, dtype=np.uint8)
    c[cols] = unpack(word[None], n)[0]
    if not c.any() or H.mul_vec(c).any():
        raise WitnessError("low-weight search produced no nonzero codeword of H")
    return best_w, c
