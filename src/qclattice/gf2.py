"""Dense GF(2) linear algebra on binary matrices.

Everything downstream (code construction, coset encoding, distance search)
works through the one elimination kernel in this module,
:func:`rref_words`: an in-place reduced row-echelon pass over rows packed
into little-endian uint64 words whose padding bits (columns n and up) are
zero.  It eliminates 8 columns at a time with the Method of Four Russians:
one table of XOR combinations of up to 8 pivot rows per chunk, applied to
every row in one gather-XOR.  ``rref``, ``rank``, ``nullspace_basis`` and
``row_space_contains`` run on it, and so do the encoder maps in
:mod:`qclattice.codec` and the low-weight search in :mod:`qclattice.wmin`.

Matrices are plain uint8 numpy arrays with entries in {0, 1}, wrapped in an
immutable :class:`BitMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "BitMatrix":
        return cls(np.array(list(rows)))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def row(self, i: int) -> np.ndarray:
        return self.a[i]

    def __getitem__(self, idx):
        return self.a[idx]

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        """Return ``M v^T`` over GF(2) as a uint8 vector."""
        v = np.asarray(v, dtype=np.uint8)
        return (self.a.astype(np.int64) @ v.astype(np.int64) & 1).astype(np.uint8)

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


def rref_words(W: np.ndarray, n: int) -> list[int]:
    """In-place reduced row-echelon form of packed rows; returns the pivots.

    ``W`` holds the rows of an (m, n) matrix as returned by :func:`pack`.
    Pivots are eliminated above and below, so after the call
    ``unpack(W, n)`` is the (unique) RREF of the matrix.

    The elimination runs over 8-column chunks (the Method of Four Russians,
    after M4RI): byte j of a row's uint8 view holds columns 8j..8j+7 and is
    the row's key for chunk j.  A pure-Python pass over the distinct keys
    of the rows not yet used as pivots picks P <= 8 rows whose keys span
    theirs; the chunk's pivots are the lowest bits of that span's echelon
    basis.  A table of the 2^P XOR combinations of those rows, indexed by
    key, then clears the pivot bits of every row in one gather-XOR (above
    and below at once, and the chosen rows themselves become zero), and
    the reduced pivot rows are written to rows r..r+P-1.  Rows at or past
    the rank come out zero on the first n columns.

    Columns n and up are padding: they never become pivots, and the bits
    there after the call are only defined (zero) when they were zero on
    entry, which :func:`pack` guarantees.
    """
    m = W.shape[0]
    Wb = W.view(np.uint8)
    row_ids = np.arange(m)
    pivots: list[int] = []
    r = 0
    for j in range((n + 7) // 8):
        if r == m:
            break
        keys = Wb[:, j]
        rest = keys[r:]
        if n - 8 * j < 8:
            rest = rest & ((1 << (n - 8 * j)) - 1)
        present = _SCRAMBLE[np.bincount(rest, minlength=256)[_SCRAMBLE] > 0]
        if present.size == 0:
            continue
        bound = min(int(np.bitwise_or.reduce(present)).bit_count(), m - r)
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
        # any row holding a chosen key will do as its pivot row
        slot = np.empty(256, dtype=np.intp)
        slot[rest] = row_ids[r:]
        src = slot[chosen].tolist()
        w0 = j >> 3
        T = np.zeros((1 << P, W.shape[1] - w0), dtype=W.dtype)
        for i in range(P):
            T[1 << i: 2 << i] = T[: 1 << i] ^ W[src[i], w0:]
        # combination c of the chosen rows has key byte T[c] (byte j & 7 of
        # its first word) and pivot pattern _PEXT[pmask, key]; that map is
        # one-to-one, so invert it into key -> combination
        pext = _PEXT[pmask]
        inv = np.empty(1 << P, dtype=np.intp)
        inv[pext[T.view(np.uint8)[:, j & 7]]] = np.arange(1 << P)
        combo = inv[pext]
        W[:, w0:] ^= np.take(T, combo[keys], axis=0)
        src_set = set(src)
        moved = [t for t in range(r, r + P) if t not in src_set]
        if moved:
            W[sorted(s for s in src_set if s >= r + P)] = W[moved]
        pbits = [b for b in range(8) if pmask >> b & 1]
        W[r: r + P, w0:] = T[combo[[1 << b for b in pbits]]]
        pivots += [8 * j + b for b in pbits]
        r += P
    return pivots


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2).

    Returns ``(R, pivot_cols)``; pivots are eliminated above and below, so
    ``R[i, pivot_cols[i]] = 1`` is the only 1 in its column.
    """
    n = np.shape(a)[1]
    W = pack(a)
    pivots = rref_words(W, n)
    return unpack(W, n), pivots


def rank(M: BitMatrix) -> int:
    """GF(2) rank of ``M``."""
    return len(rref_words(pack(M.a), M.cols))


def nullspace_basis(M: BitMatrix) -> list[np.ndarray]:
    """Basis of the right nullspace: vectors v with ``M v^T = 0`` over GF(2).

    Returns ``cols - rank(M)`` vectors; empty list for full column rank.
    Vector j is 1 on the j-th non-pivot column of the RREF R, 0 on the
    other non-pivot columns and ``R[i, free_j]`` on pivot i.
    """
    R, pivots = rref(M.a)
    free = np.setdiff1d(np.arange(M.cols), pivots)
    basis = np.zeros((free.size, M.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = R[: len(pivots), free].T
    return list(basis)


def row_space_contains(M: BitMatrix, v: np.ndarray) -> bool:
    """True iff ``v`` is a GF(2) combination of the rows of ``M``."""
    v = _as_bits(v).reshape(1, -1)
    if v.shape[1] != M.cols:
        raise ValueError(f"vector length {v.shape[1]} != {M.cols} columns")
    return rank(vstack(M, BitMatrix(v))) == rank(M)
