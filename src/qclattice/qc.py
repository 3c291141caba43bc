"""Quasi-cyclic structure: prototype matrices and circulant expansion.

A prototype matrix describes a binary parity-check matrix block-wise: each
cell holds a set of right-shift exponents for z x z circulant permutation
matrices (CPMs).  An empty cell is the zero block, one exponent is a single
CPM, two exponents are a weight-2 "double" CPM (the GF(2) sum of two CPMs).

Also here: length scaling for the 802.16e family (shift exponents reduced
modulo the new circulant size), cell edits, structural 4-cycle detection,
and a random design search scored by low-weight codeword search.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .gf2 import BitMatrix
from .wmin import low_weight_search

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


def _scaled_z(P2304: ProtoMatrix, n: int) -> int:
    """Circulant size z = 96*n/2304 of a z=96 prototype scaled to length n;
    raises :class:`BadLengthError` unless P2304 has z=96 and z comes out a
    positive integer."""
    if P2304.z != BASE_Z:
        raise BadLengthError(f"scaling expects a z={BASE_Z} prototype, got z={P2304.z}")
    z_new = BASE_Z * n // BASE_LENGTH
    if z_new < 1 or BASE_Z * n != z_new * BASE_LENGTH:
        raise BadLengthError(f"length {n} does not give an integer circulant size")
    return z_new


def scale_shifts(P2304: ProtoMatrix, n: int) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n`` by reducing exponents mod z.

    The new circulant size is z = 96*n/2304, which must come out a positive
    integer; empty cells stay empty.  ``n`` is the length of the 24-column
    802.16e table: a prototype of another width gets the same z, and so
    length n_b*z.
    """
    z_new = _scaled_z(P2304, n)

    def scale_cell(cell: Cell) -> Cell:
        scaled = tuple(e % z_new for e in cell)
        if len(scaled) == 2 and scaled[0] == scaled[1]:
            return ()  # the two CPMs cancel over GF(2)
        return scaled

    cells = tuple(tuple(scale_cell(c) for c in row) for row in P2304.cells)
    return ProtoMatrix(P2304.m_b, P2304.n_b, z_new, cells)


def scale_shifts_floor(P2304: ProtoMatrix, n: int) -> ProtoMatrix:
    """Rescale a z=96 prototype to length ``n`` with proportional shifts.

    Exponents become floor(b * z / 96); this is the 802.16e scaling rule for
    the rate-1/2 family and, unlike the plain modulo reduction, keeps the
    scaled rate-1/2 matrix free of 4-cycles at z=48.  As in
    :func:`scale_shifts`, z = 96*n/2304 and ``n`` is the length of the
    24-column table.
    """
    z_new = _scaled_z(P2304, n)
    cells = tuple(
        tuple(tuple(e * z_new // BASE_Z for e in cell) for cell in row)
        for row in P2304.cells
    )
    return ProtoMatrix(P2304.m_b, P2304.n_b, z_new, cells)


def apply_edits(P: ProtoMatrix, edits) -> ProtoMatrix:
    """Return a copy of ``P`` with the listed cells replaced.

    ``edits`` is an iterable of ``(i, j, cell)`` where cell is a tuple of
    exponents (empty tuple clears the block).
    """
    grid = [list(row) for row in P.cells]
    for i, j, cell in edits:
        if not (0 <= i < P.m_b and 0 <= j < P.n_b):
            raise OutOfRangeError(f"cell ({i}, {j}) outside {P.m_b}x{P.n_b} grid")
        grid[i][j] = _norm_cell(cell, P.z)
    return ProtoMatrix(P.m_b, P.n_b, P.z, tuple(tuple(r) for r in grid))


def has_four_cycle(P: ProtoMatrix) -> bool:
    """True iff the expanded matrix has two rows sharing ones in two columns.

    Detected on the prototype: for distinct block rows, a 4-cycle exists iff
    two block columns produce a common exponent difference (or a repeated
    difference within one block column); within one block row, double cells
    collide when 2*(a1-a2) = 0 mod z or two doubles share a difference.
    """
    z = P.z

    # pairs of distinct block rows
    for i1 in range(P.m_b):
        for i2 in range(i1 + 1, P.m_b):
            seen: set[int] = set()
            for j in range(P.n_b):
                top, bot = P.cells[i1][j], P.cells[i2][j]
                if not top or not bot:
                    continue
                diffs = [(a - d) % z for a in top for d in bot]
                if len(set(diffs)) < len(diffs):
                    return True  # collision inside one block column
                for dd in diffs:
                    if dd in seen:
                        return True
                    seen.add(dd)

    # double cells within one block row
    for i in range(P.m_b):
        deltas: set[int] = set()
        for j in range(P.n_b):
            cell = P.cells[i][j]
            if len(cell) == 2:
                d = (cell[0] - cell[1]) % z
                if (2 * d) % z == 0:
                    return True
                if d in deltas or (z - d) % z in deltas:
                    return True
                deltas.add(d)
    return False


@dataclass(frozen=True)
class SearchResult:
    proto: ProtoMatrix
    weight_bound: int
    witness: np.ndarray
    candidates_scored: int


def random_proto_search(shape: tuple[int, int], z: int, target_weight: int,
                        girth4_filter: bool, budget: int, seed: int,
                        score_iterations: int = 2000) -> SearchResult:
    """Random search for a prototype whose code has large minimum weight.

    Draws all-CPM prototypes with exponents uniform over 0..z-1, optionally
    rejecting candidates with 4-cycles, and scores each by
    :func:`low_weight_search` (an upper bound on the true minimum distance).
    Keeps the candidate with the largest found weight; a candidate is
    abandoned early once its bound cannot beat the best so far, and the
    search stops when a candidate reaches ``target_weight``.  Deterministic
    given ``seed``: candidate k uses the sub-seed sequence (seed, k).
    Raises ValueError for a shape or z below 1 and when the girth filter
    rejects all of the first ``1000 * budget`` draws, so that no candidate
    is scored.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m_b, n_b = shape
    for name, value in (("block rows m_b", m_b), ("block columns n_b", n_b),
                        ("circulant size z", z)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    best: SearchResult | None = None
    scored = 0
    draws = 0
    max_draws = 1000 * budget

    while scored < budget and draws < max_draws:
        cand_rng = np.random.default_rng([seed, draws])
        draws += 1
        shifts = cand_rng.integers(0, z, size=(m_b, n_b))
        P = ProtoMatrix.from_shifts(shifts, z)
        if girth4_filter and has_four_cycle(P):
            continue
        scored += 1
        stop = best.weight_bound if best is not None else None
        w, c = low_weight_search(expand(P), score_iterations,
                                 seed=int(cand_rng.integers(2 ** 31)), stop_at=stop)
        if best is None or w > best.weight_bound:
            best = SearchResult(P, w, c, scored)
        if best.weight_bound >= target_weight:
            break

    if best is None:
        raise ValueError(f"the girth filter rejected all {max_draws} draws of a "
                         f"{m_b}x{n_b} prototype at z={z} (each has a 4-cycle)")
    return SearchResult(best.proto, best.weight_bound, best.witness, scored)


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


def format_cell(cell: Cell) -> str:
    if not cell:
        return "-1"
    return "+".join(str(e) for e in cell)


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


def format_proto(P: ProtoMatrix) -> str:
    lines = [f"{P.m_b} {P.n_b} {P.z}"]
    for row in P.cells:
        lines.append(" ".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


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
