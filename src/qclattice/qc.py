"""Quasi-cyclic structure: prototype matrices and circulant expansion.

A prototype matrix describes a binary parity-check matrix block-wise: each
cell holds a set of right-shift exponents for z x z circulant permutation
matrices (CPMs).  An empty cell is the zero block, one exponent is a single
CPM, two exponents are a weight-2 "double" CPM (the GF(2) sum of two CPMs).

Also here: length scaling for the 802.16e family (shift exponents reduced
modulo the new circulant size, or scaled in proportion), cell edits,
4-cycle detection and the text formats of prototype and edits files.  The
prototypes are taken as given: the bundled designs are read, never
searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .gf2 import BitMatrix

BASE_LENGTH = 2304
BASE_Z = 96


class BadLengthError(ValueError):
    """Target length does not yield an integer circulant size."""


class OutOfRangeError(IndexError):
    """Cell index outside the prototype grid."""


Cell = tuple[int, ...]


def _norm_cell(cell, z: int) -> Cell:
    exps = tuple(sorted(int(e) for e in cell))
    if len(exps) > 2:
        raise ValueError(f"cell may hold at most 2 exponents, got {exps}")
    if len(exps) == 2 and exps[0] == exps[1]:
        raise ValueError("a double cell needs two distinct exponents")
    for e in exps:
        if not 0 <= e < z:
            raise ValueError(f"exponent {e} outside 0..{z - 1}")
    return exps


@dataclass(frozen=True)
class ProtoMatrix:
    """Block-level description of a QC matrix: shift exponents and size z."""

    m_b: int
    n_b: int
    z: int
    cells: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        if self.m_b < 1 or self.n_b < 1 or self.z < 1:
            raise ValueError("m_b, n_b and z must be positive")
        rows = tuple(
            tuple(_norm_cell(c, self.z) for c in row) for row in self.cells
        )
        if len(rows) != self.m_b or any(len(r) != self.n_b for r in rows):
            raise ValueError("cells shape does not match (m_b, n_b)")
        object.__setattr__(self, "cells", rows)

    @classmethod
    def from_shifts(cls, shifts, z: int) -> "ProtoMatrix":
        """Build from a grid of integers where -1 marks the zero block."""
        grid = [[() if int(s) < 0 else (int(s),) for s in row] for row in shifts]
        return cls(len(grid), len(grid[0]), z, tuple(tuple(r) for r in grid))

    @property
    def n(self) -> int:
        return self.z * self.n_b

    @property
    def m(self) -> int:
        return self.z * self.m_b


def expand(P: ProtoMatrix) -> BitMatrix:
    """Expand to the (z*m_b) x (z*n_b) binary matrix.

    A cell exponent b places ones at (r, c) with c = r + b (mod z) inside
    its block; double cells contribute the GF(2) sum of their two CPMs.
    """
    z = P.z
    a = np.zeros((P.m, P.n), dtype=np.uint8)
    r = np.arange(z)
    for i in range(P.m_b):
        for j in range(P.n_b):
            for b in P.cells[i][j]:
                a[i * z + r, j * z + (r + b) % z] ^= 1
    return BitMatrix(a)


def _scale(P2304: ProtoMatrix, n: int, exponent) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n``: z = 96*n/2304, and each
    exponent e becomes ``exponent(e, z)``.  Raises :class:`BadLengthError`
    unless P2304 has z=96 and z comes out a positive integer."""
    if P2304.z != BASE_Z:
        raise BadLengthError(f"scaling expects a z={BASE_Z} prototype, got z={P2304.z}")
    z = BASE_Z * n // BASE_LENGTH
    if z < 1 or BASE_Z * n != z * BASE_LENGTH:
        raise BadLengthError(f"length {n} does not give an integer circulant size")

    def scale_cell(cell: Cell) -> Cell:
        scaled = tuple(exponent(e, z) for e in cell)
        if len(scaled) == 2 and scaled[0] == scaled[1]:
            return ()  # the two CPMs cancel over GF(2)
        return scaled

    cells = tuple(tuple(scale_cell(c) for c in row) for row in P2304.cells)
    return ProtoMatrix(P2304.m_b, P2304.n_b, z, cells)


def scale_shifts(P2304: ProtoMatrix, n: int) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n`` by reducing exponents mod z.

    The new circulant size is z = 96*n/2304, which must come out a positive
    integer; empty cells stay empty, and a double cell whose two exponents
    become equal is the zero block.  ``n`` is the length of the 24-column
    802.16e table: a prototype of another width gets the same z, and so
    length n_b*z.
    """
    return _scale(P2304, n, lambda e, z: e % z)


def scale_shifts_floor(P2304: ProtoMatrix, n: int) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n`` with proportional shifts.

    Exponents become floor(b * z / 96); this is the 802.16e scaling rule for
    the rate-1/2 family and, unlike the plain modulo reduction, keeps the
    scaled rate-1/2 matrix free of 4-cycles at z=48.  As in
    :func:`scale_shifts`, z = 96*n/2304, ``n`` is the length of the
    24-column table and a double cell whose exponents meet is the zero block.
    """
    return _scale(P2304, n, lambda e, z: e * z // BASE_Z)


def apply_edits(P: ProtoMatrix, edits) -> ProtoMatrix:
    """Return a copy of ``P`` with the listed cells replaced.

    ``edits`` is an iterable of ``(i, j, cell)`` where cell is a tuple of
    exponents (empty tuple clears the block).  Raises ValueError when two
    edits name one cell.
    """
    grid = [list(row) for row in P.cells]
    edited = set()
    for i, j, cell in edits:
        if not (0 <= i < P.m_b and 0 <= j < P.n_b):
            raise OutOfRangeError(f"cell ({i}, {j}) outside {P.m_b}x{P.n_b} grid")
        if (i, j) in edited:
            raise ValueError(f"cell ({i}, {j}) is edited twice")
        edited.add((i, j))
        grid[i][j] = _norm_cell(cell, P.z)
    return ProtoMatrix(P.m_b, P.n_b, P.z, tuple(tuple(r) for r in grid))


def has_four_cycle(P: ProtoMatrix) -> bool:
    """True iff the expanded matrix has two rows sharing ones in two columns,
    that is, an off-diagonal entry of H H^T of 2 or more.  The product is
    taken in float32, which is exact here: no entry exceeds n."""
    h = expand(P).a.astype(np.float32)
    g = h @ h.T
    np.fill_diagonal(g, 0)
    return bool((g >= 2).any())


# ---------------------------------------------------------------------------
# text formats
#
# Prototype file: first non-comment line "m_b n_b z", then m_b rows of n_b
# tokens; "-1" empty cell, "a" single CPM, "a+b" double CPM.
# Edits file: lines "i j token" with the same cell tokens.
# ---------------------------------------------------------------------------

def _data_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_cell_token(tok: str) -> Cell:
    if tok == "-1":
        return ()
    parts = tok.split("+")
    return tuple(int(p) for p in parts)


def parse_proto(text: str) -> ProtoMatrix:
    lines = _data_lines(text)
    if not lines:
        raise ValueError("empty prototype file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"header must be 'm_b n_b z', got {lines[0]!r}")
    m_b, n_b, z = (int(x) for x in head)
    if len(lines) != 1 + m_b:
        raise ValueError(f"expected {m_b} matrix rows, found {len(lines) - 1}")
    cells = []
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != n_b:
            raise ValueError(f"expected {n_b} tokens per row, got {len(toks)}")
        cells.append(tuple(parse_cell_token(t) for t in toks))
    return ProtoMatrix(m_b, n_b, z, tuple(cells))


def parse_edits(text: str) -> list[tuple[int, int, Cell]]:
    out = []
    for line in _data_lines(text):
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"edit line must be 'i j cell', got {line!r}")
        out.append((int(toks[0]), int(toks[1]), parse_cell_token(toks[2])))
    return out


def load_proto(path) -> ProtoMatrix:
    with open(path) as fh:
        return parse_proto(fh.read())


def load_edits(path) -> list[tuple[int, int, Cell]]:
    with open(path) as fh:
        return parse_edits(fh.read())


def bundled_text(name: str) -> str:
    return (resources.files("qclattice") / "data" / name).read_text()


def example1_proto() -> ProtoMatrix:
    """The bundled (3,5)-regular z=34 design prototype."""
    return parse_proto(bundled_text("example1_3x5_z34.txt"))


def wimax_proto_2304() -> ProtoMatrix:
    """The bundled unmodified 802.16e rate-1/2 prototype (z=96)."""
    return parse_proto(bundled_text("wimax_r12_z96.txt"))


def wimax_proto_1152() -> ProtoMatrix:
    """The modified 802.16e rate-1/2 prototype scaled to n=1152 (z=48).

    Uses the rate-1/2 proportional scaling rule (:func:`scale_shifts_floor`),
    which keeps the matrix 4-cycle free, then applies the bundled cell
    edits: four zero blocks become CPMs and cell (1, 6) is cleared, so block
    rows 1+8 and 4+10 jointly cover every block column exactly once.
    """
    P = scale_shifts_floor(wimax_proto_2304(), 1152)
    return apply_edits(P, parse_edits(bundled_text("wimax_r12_edits_n1152.txt")))
