"""Quasi-cyclic structure: prototype matrices and circulant expansion.

A prototype matrix describes a binary parity-check matrix block-wise: each
cell holds a set of right-shift exponents for z x z circulant permutation
matrices (CPMs).  An empty cell is the zero block, one exponent is a single
CPM, two exponents are a weight-2 "double" CPM (the GF(2) sum of two CPMs).

Also here: length scaling for the 802.16e family (shift exponents reduced
modulo the new circulant size, or scaled in proportion; ``SCALE_RULES``
names the two rules), cell edits, 4-cycle detection and the text formats
of prototype and edits files.  The prototypes are taken as given: the
bundled data files (:func:`bundled_text`) are read, never searched for.
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


# the rescaling rules by name, as --scale-rule and the presets name them:
# each maps an exponent e of the z=96 table to one of the new size z.
# "mod" reduces it modulo z; "floor" scales it in proportion, floor(e*z/96),
# the 802.16e rule for the rate-1/2 family, which unlike "mod" keeps the
# scaled rate-1/2 matrix free of 4-cycles at z=48
SCALE_RULES = {"mod": lambda e, z: e % z,
               "floor": lambda e, z: e * z // BASE_Z}


def scale(P2304: ProtoMatrix, n: int, rule: str) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n`` by the ``SCALE_RULES``
    entry ``rule``.

    The new circulant size is z = 96*n/2304, which must come out a positive
    integer; empty cells stay empty, and a double cell whose two exponents
    become equal is the zero block.  ``n`` is the length of the 24-column
    802.16e table: a prototype of another width, which would get length
    n_b*z, is refused with :class:`BadLengthError`, as is a prototype
    whose z is not 96.
    """
    exponent = SCALE_RULES[rule]
    if P2304.z != BASE_Z:
        raise BadLengthError(f"scaling expects a z={BASE_Z} prototype, got z={P2304.z}")
    z = BASE_Z * n // BASE_LENGTH
    if z < 1 or BASE_Z * n != z * BASE_LENGTH:
        raise BadLengthError(f"length {n} does not give an integer circulant size")
    if P2304.n_b * z != n:
        raise BadLengthError(f"the {P2304.m_b}x{P2304.n_b} prototype scales to length "
                             f"{P2304.n_b * z}, not {n}; the 802.16e rule gives length "
                             "n only to a 24-column table")

    def scale_cell(cell: Cell) -> Cell:
        scaled = tuple(exponent(e, z) for e in cell)
        if len(scaled) == 2 and scaled[0] == scaled[1]:
            return ()  # the two CPMs cancel over GF(2)
        return scaled

    cells = tuple(tuple(scale_cell(c) for c in row) for row in P2304.cells)
    return ProtoMatrix(P2304.m_b, P2304.n_b, z, cells)


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
    """A data file of this package, whatever name it was imported under."""
    return (resources.files(__package__) / "data" / name).read_text()
