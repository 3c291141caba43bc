"""Dense GF(2) linear algebra on binary matrices.

Everything downstream (code construction, coset encoding, distance search)
works through the one elimination kernel in this module,
:func:`rref_words`: an in-place reduced row-echelon pass over rows packed
into little-endian uint64 words whose padding bits (columns n and up) are
zero.  It eliminates 8 columns at a time with the Method of Four Russians:
one table of XOR combinations of up to 8 pivot rows per chunk, stored
combination-major over whole rows, applied to every row in one contiguous
gather-XOR over whole rows.  That is exact: a row that is not yet a pivot
is zero on every finished column, so the table is zero on the words before
the chunk's.  ``rref`` and ``nullspace_basis`` run on it,
and so do the encoder maps in :mod:`qclattice.codec` and the low-weight
search in :mod:`qclattice.wmin`.  The kernel also takes a stack of packed
matrices and runs one chunk loop for all of them; the search eliminates a
block of permuted generators that way, and everything else passes one
matrix.

Row-space membership has one home, the encoder plan
(:meth:`qclattice.codec.EncoderPlan.in_row_space`): it tests a batch of
rows with one float32 product on the RREF the plan already holds, so
testing H1 against H0 costs no elimination once the encoder plan of H0
exists.

Matrices are plain uint8 numpy arrays with entries in {0, 1}, wrapped in an
immutable :class:`BitMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InconsistentSyndromeError(ValueError):
    """Requested syndrome is outside the column space of the matrix."""


def _as_bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint8) & 1


@dataclass(frozen=True)
class BitMatrix:
    """Immutable binary matrix over GF(2), stored row-major as uint8."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"BitMatrix needs a 2-D nonempty array, got shape {arr.shape}")
        if arr.dtype != np.uint8 or arr.max(initial=0) > 1:
            arr = _as_bits(arr)
        else:
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        """Return ``M v^T`` over GF(2) as a uint8 vector: the XOR of the
        columns where ``v`` is odd, so only those columns are copied."""
        v = np.asarray(v, dtype=np.uint8)
        if v.shape != (self.cols,):
            raise ValueError(f"vector of shape {v.shape} for a matrix with "
                             f"{self.cols} columns")
        return np.bitwise_xor.reduce(self.a[:, np.flatnonzero(v & 1)], axis=1)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and np.array_equal(self.a, other.a)

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def vstack(*mats: BitMatrix) -> BitMatrix:
    return BitMatrix(np.vstack([m.a for m in mats]))


def pack(a: np.ndarray) -> np.ndarray:
    """Rows of a binary (m, n) array as little-endian uint64 words.

    Column c is bit ``c % 64`` of word ``c // 64``; padding bits are zero.
    """
    # row-major bits: packbits along rows of a transposed view ran about
    # 4x slower than a copy followed by packbits
    a = np.ascontiguousarray(a, dtype=np.uint8) & 1
    m, n = a.shape
    out = np.zeros((m, (n + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(a, axis=1, bitorder="little")
    return out.view("<u8")


def unpack(W: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack`: (m, n) uint8 bits from packed rows."""
    return np.unpackbits(W.view(np.uint8), axis=1, bitorder="little")[:, :n]


def _pext_table() -> np.ndarray:
    """``T[mask, k]``: the bits of byte ``k`` at the set bits of ``mask``,
    packed into the low bits in ascending order (a byte-wide ``pext``)."""
    mask = np.arange(256)[:, None]
    key = np.arange(256)[None, :]
    out = np.zeros((256, 256), dtype=np.intp)
    below = np.zeros_like(mask)
    for b in range(8):
        mb = (mask >> b) & 1
        out |= ((key >> b) & mb) << below
        below = below + mb
    return out.astype(np.uint8)


_PEXT = _pext_table()
# The nonzero bytes in a fixed scrambled order: a chunk's distinct keys
# taken in this order reach rank 8 after about 10 values, where ascending
# order would meet the small values, which span only the low bits, first.
_SCRAMBLE = np.random.default_rng(0).permutation(np.arange(1, 256))
_UNIT = 1 << np.arange(8)
_ARANGE = np.arange(256)
_BITS = [np.flatnonzero(v >> np.arange(8) & 1) for v in range(256)]


def _table(W: np.ndarray, src: np.ndarray) -> np.ndarray:
    """``T[c, b]``: the XOR of whole rows ``src[b, i]`` of the stack's
    flattened rows over the set bits i of c, built by doubling.  The table
    is combination-major, ``(2^P, B, words)``, so each doubling step is one
    contiguous XOR of the first 2^i combinations of every matrix."""
    B, P = src.shape
    rows = W.reshape(-1, W.shape[2])[src.T]
    T = np.empty((1 << P, B, W.shape[2]), dtype=W.dtype)
    T[0] = 0
    for i in range(P):
        np.bitwise_xor(T[: 1 << i], rows[i], out=T[1 << i: 2 << i])
    return T


def _pick_one(W, keys, unused, home, j):
    """Chunk j of a stack of one: a pure-Python pass over the distinct keys
    of the unused rows picks the pivot rows.  Returns ``(T, combo, P)`` as
    :func:`_pick_stack` does, or None when no unused row has a bit in the
    chunk."""
    keys, unused, home = keys[0], unused[0], home[0]
    idx = unused.nonzero()[0]
    rest = keys[idx]
    present = _SCRAMBLE[np.bincount(rest, minlength=256)[_SCRAMBLE] > 0]
    if present.size == 0:
        return None
    bound = int(np.bitwise_or.reduce(present)).bit_count()
    basis: dict[int, int] = {}          # lowest bit -> reduced key
    chosen: list[int] = []
    for v in present.tolist():
        x = v
        while x:
            low = x & -x
            b = basis.get(low)
            if b is None:
                basis[low] = x
                chosen.append(v)
                break
            x ^= b
        if len(chosen) == bound:
            break
    P = len(chosen)
    pmask = sum(basis)
    # any unused row holding a chosen key will do as its pivot row
    slot = np.empty(256, dtype=np.intp)
    slot[rest] = idx
    src = slot[chosen]
    unused[src] = False
    T = _table(W, src[None])
    # combination c of the chosen rows has key byte j of row T[c, 0] and
    # pivot pattern _PEXT[pmask, key]; that map is one-to-one, so invert it
    # into key -> combination
    pext = _PEXT[pmask]
    inv = np.empty(1 << P, dtype=np.intp)
    inv[pext[T[:, 0].view(np.uint8)[:, j]]] = _ARANGE[: 1 << P]
    combo = inv[pext][keys]
    # chosen row i becomes the row of the i-th pivot bit: it takes the
    # combination of that bit's reduced row, less itself
    unit = _UNIT[:P]
    combo[src] = inv[unit] ^ unit
    home[_BITS[pmask]] = src
    return T, combo[None], P


def _pick_stack(W, keys, unused, home, j):
    """Chunk j of a larger stack: Gauss-Jordan on all (B, m) keys at once,
    one masked step per bit b.  Each matrix takes its first unused row with
    bit b as that bit's pivot row and clears bit b from its other rows.
    The high byte of ``state`` tracks each row's combination of pivot rows,
    bit b standing for the pivot row of bit b.  Each bit's pivot row goes
    to ``home`` (left at -1 without one); returns ``(T, combo, P)``: the
    stacked combination table, each row's flat index into it and the
    number of new pivots, or None when no matrix has an unused row with a
    bit in the chunk."""
    B, m = keys.shape
    ar = np.arange(B)
    base = ar * m                       # flat index of each matrix's row 0
    state = keys.astype(np.uint16)
    # flat views, indexed by p + base: one row of each matrix
    state_f = state.reshape(-1)
    unused_f = unused.reshape(-1)
    top = 0
    for b in range(8):
        col = (state & (1 << b)).astype(bool)
        cand = col & unused
        p = cand.argmax(axis=1)
        fp = p + base
        has = cand.reshape(-1)[fp]
        if not has.any():
            continue
        top = b + 1
        home[has, b] = p[has]
        unused_f[fp] ^= has             # row p is unused where has is set
        col.reshape(-1)[fp] = False     # the pivot row keeps its key
        step = (state_f[fp] | (1 << (8 + b))) * has
        state ^= col * step[:, None]
    if top == 0:
        return None
    # rows of a bit without a pivot are never indexed: any row will do
    T = _table(W, home[:, :top] + base[:, None])
    combo = B * (state >> 8).astype(np.intp) + ar[:, None]
    return T, combo, int(np.count_nonzero(home >= 0))


def rref_words(W: np.ndarray, n: int) -> list[int] | list[list[int]]:
    """In-place reduced row-echelon form of packed rows; returns the pivots.

    ``W`` holds the rows of an (m, n) matrix as returned by :func:`pack`,
    or a stack ``(B, m, words)`` of B such matrices, which are eliminated
    together (a 2-D ``W`` is a stack of one).  Pivots are eliminated above
    and below, so after the call ``unpack(W[b], n)`` is the (unique) RREF
    of matrix b.  Returns the pivot columns of a 2-D ``W``, or a list of
    each matrix's pivot columns for a stack.

    The elimination runs over 8-column chunks (the Method of Four Russians,
    after M4RI): byte j of a row's uint8 view holds columns 8j..8j+7 and is
    the row's key for chunk j.  Each matrix picks P <= 8 of its rows not yet
    used as pivots whose keys span those of the others; the chunk's pivots
    are the lowest bits of that span's echelon basis.  A stack of one picks
    them in a pure-Python pass over the distinct keys; a larger stack runs
    8 masked bit steps on all its keys at once.  Each matrix gets a table
    of the XOR combinations of its picked rows, combination-major over
    whole rows, and one contiguous gather-XOR of whole table rows into the
    whole stack then clears the pivot bits of every row (above and below
    at once); each picked row becomes the reduced row of one pivot in
    place.  Whole rows are exact: the picked rows are not yet pivots, so
    they are zero on every column of the earlier chunks, and so is every
    combination of them.  One reorder at the end moves the pivot rows to
    the top in column order; rows at or past the rank come out zero on the
    first n columns.

    Columns n and up are padding: they never become pivots, and the bits
    there after the call are only defined (zero) when they were zero on
    entry, which :func:`pack` guarantees.
    """
    W3 = W if W.ndim == 3 else W[None]
    B, m, _ = W3.shape
    Wb = W3.view(np.uint8)
    pick = _pick_one if B == 1 else _pick_stack
    unused = np.ones((B, m), dtype=bool)
    home = np.full((B, 8 * ((n + 7) // 8)), -1, dtype=np.intp)  # column -> pivot row
    left = B * m                        # rows not yet pivots
    for j in range((n + 7) // 8):
        if left == 0:
            break
        keys = Wb[:, :, j]
        if n - 8 * j < 8:
            keys = keys & ((1 << (n - 8 * j)) - 1)
        picked = pick(W3, keys, unused, home[:, 8 * j: 8 * j + 8], j)
        if picked is None:
            continue
        T, combo, new = picked
        left -= new
        W3 ^= np.take(T.reshape(-1, T.shape[2]), combo, axis=0)
    pivots = []
    for b in range(B):
        cols = np.flatnonzero(home[b] >= 0)
        W3[b] = W3[b, np.concatenate([home[b, cols], np.flatnonzero(unused[b])])]
        pivots.append(cols.tolist())
    return pivots if W.ndim == 3 else pivots[0]


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(R, pivot_cols)``; pivots are eliminated above and below, so
    ``R[i, pivot_cols[i]] = 1`` is the only 1 in its column.
    """
    n = np.shape(a)[1]
    W = pack(a)
    pivots = rref_words(W, n)
    return unpack(W, n), pivots


def nullspace_basis(M: BitMatrix) -> np.ndarray:
    """Basis of the right nullspace: vectors v with ``M v^T = 0`` over GF(2).

    Returns the k = ``cols - rank(M)`` vectors as the rows of one
    (k, cols) uint8 array, with no rows for full column rank.  Vector j is
    1 on the j-th non-pivot column of the RREF R, 0 on the other non-pivot
    columns and ``R[i, free_j]`` on pivot i.
    """
    R, pivots = rref(M.a)
    free = np.setdiff1d(np.arange(M.cols), pivots)
    basis = np.zeros((free.size, M.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = R[: len(pivots), free].T
    return basis

