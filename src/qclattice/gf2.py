"""Dense GF(2) linear algebra on binary matrices.

Everything downstream (code construction, coset encoding, distance search)
works through the one elimination kernel in this module: an in-place
reduced row-echelon pass over rows packed into uint64 words.  ``rref``,
``rank``, ``nullspace_basis`` and ``row_space_contains`` run on it, and so
do the encoder maps in :mod:`qclattice.codec` and the low-weight search in
:mod:`qclattice.wmin`.

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
    a = _as_bits(a)
    m, n = a.shape
    out = np.zeros((m, (n + 63) // 64 * 8), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(a, axis=1, bitorder="little")
    return out.view("<u8")


def unpack(W: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack`: (m, n) uint8 bits from packed rows."""
    return np.unpackbits(W.view(np.uint8), axis=1, bitorder="little")[:, :n]


def rref_words(W: np.ndarray, n: int) -> list[int]:
    """In-place reduced row-echelon form of packed rows; returns the pivots.

    ``W`` holds the rows of an (m, n) matrix as returned by :func:`pack`.
    Pivots are eliminated above and below, so after the call
    ``unpack(W, n)`` is the (unique) RREF of the matrix.
    """
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
