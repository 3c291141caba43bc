"""Component-code parity-check builders.

The two-level construction pairs a level-0 matrix H0 = [H_qc; S] (the QC
matrix with a staircase block appended) with a level-1 matrix H1 whose rows
all lie in the row space of H0.  There is one level-1 construction: H1 is
one band per group of block rows, the GF(2) sum of the group's block rows,
over the staircase.  A group of one row gives that CPM block row itself, so
H1 is an SPC product code (example1, group (0,)); larger groups give a
concatenation of SPC-like product codes (wimax1152, groups 1+8 and 4+10).

Canonical row order everywhere: CPM band(s) first, staircase last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, vstack
from .qc import ProtoMatrix, expand


class BadGroupsError(ValueError):
    """Row-sum groups are empty, name a block row twice or do not cover
    every block column."""


def build_staircase(p: int, q: int) -> BitMatrix:
    """p x (p*q) staircase: row j has ones exactly in columns j*q .. j*q+q-1."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    a = np.zeros((p, p * q), dtype=np.uint8)
    for j in range(p):
        a[j, j * q: (j + 1) * q] = 1
    return BitMatrix(a)


def build_spc(p: int, q: int) -> BitMatrix:
    """Parity-check matrix of the p x q single-parity-check product code.

    (p+q) x (p*q): q rows of p side-by-side q x q identities (column checks)
    over the staircase (row checks).  One row is redundant, so the rank is
    p+q-1; the nullspace has dimension (p-1)(q-1) and minimum weight 4.
    """
    if p < 2 or q < 2:
        raise ValueError("SPC product codes need p, q >= 2")
    ident = np.tile(np.eye(q, dtype=np.uint8), (1, p))
    return BitMatrix(np.vstack([ident, build_staircase(p, q).a]))


@dataclass(frozen=True)
class NestedPair:
    """Nested parity-check pair (H0, H1) defining a two-level construction.

    Both matrices act on the same n coordinates; a pair of different widths
    is refused with ValueError.  The pair is the lattice: see
    :mod:`qclattice.lattice` for its congruences, and
    :attr:`qclattice.presets.LatticeBundle.plan0` for the nesting test
    (rows of H1 in the row space of H0).
    """

    h0: BitMatrix
    h1: BitMatrix

    def __post_init__(self):
        if self.h0.cols != self.h1.cols:
            raise ValueError(f"H0 has {self.h0.cols} columns and H1 {self.h1.cols}; "
                             "both must have n")

    @property
    def n(self) -> int:
        return self.h0.cols


def make_pair_row_sums(P: ProtoMatrix, groups) -> NestedPair:
    """Nested pair of one prototype: H0 is the expanded QC matrix over the
    staircase block, and H1 one band per group, the GF(2) sum of the
    group's block rows, over the same staircase.  P is expanded once.

    Every block column must be covered by (have a CPM in) at least one
    group's sum; bands keep their 0/1 entries for reuse as integer
    congruence rows.  The group ``(i,)`` gives CPM block row ``i`` over the
    staircase, so a zero block in that row leaves a column uncovered.
    Raises :class:`BadGroupsError` on empty groups, block rows outside the
    prototype, a group that names one block row twice (a row plus itself is
    the zero band) or uncovered block columns.
    """
    groups = [tuple(g) for g in groups]
    if not groups or any(not g for g in groups):
        raise BadGroupsError("groups must be nonempty")
    for g in groups:
        for k, i in enumerate(g):
            if not 0 <= i < P.m_b:
                raise BadGroupsError(f"block row {i} outside 0..{P.m_b - 1}")
            if i in g[:k]:
                raise BadGroupsError(f"group {'+'.join(map(str, g))} names "
                                     f"block row {i} twice")
    h_qc = expand(P)
    z = P.z
    bands = []
    for g in groups:
        band = np.zeros((z, P.n), dtype=np.uint8)
        for i in g:
            band ^= h_qc.a[i * z: (i + 1) * z]
        bands.append(band)
    covered = np.zeros(P.n_b, dtype=bool)
    for band in bands:
        block_weights = band.reshape(z, P.n_b, z).sum(axis=(0, 2))
        covered |= block_weights > 0
    if not covered.all():
        missing = np.nonzero(~covered)[0].tolist()
        raise BadGroupsError(f"block columns {missing} not covered by any group")
    stair = build_staircase(P.n_b, z)
    return NestedPair(h0=vstack(h_qc, stair), h1=BitMatrix(np.vstack(bands + [stair.a])))
