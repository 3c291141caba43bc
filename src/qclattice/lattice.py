"""The two-level lattice object: congruences, dimensions, volume, gain.

A check family lists integer 0/1 rows h_j with a level boundary m1: points
x in Z^n belong to the lattice iff h_j . x = 0 (mod 4) for j < m1 and
h_j . x = 0 (mod 2) for the remaining rows.  The family of a nested pair is
[H1; H0]: every row of H1 modulo 4, then every row of H0 modulo 2.
Redundant congruences are kept (they do not change the point set): a row of
H0 that is also a row of H1 repeats, modulo 2, a congruence that already
holds modulo 4.  All dimension counts come from GF(2) ranks, never from row
counts.  Nesting is checked against the level-0 encoder plan's RREF, so
building a family runs no elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import EncoderPlan
from .codes import NestedPair

DESIGN_D2MIN_CAP = 16  # 4^L for two levels


class NotNestedError(ValueError):
    """H1 rows are not contained in the row space of H0."""


@dataclass(frozen=True)
class CheckFamily:
    """Ordered congruence rows with the level-1/level-0 boundary; built by
    :func:`make_family`."""

    rows: np.ndarray   # (M, n) uint8; integer 0/1 congruence rows
    m1: int            # rows[:m1] use modulus 4, rows[m1:] modulus 2

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=np.uint8)
        if r.ndim != 2:
            raise ValueError("rows must be (M, n)")
        if not 0 < self.m1 <= r.shape[0]:
            raise ValueError("m1 must satisfy 0 < m1 <= M")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "rows", r)

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def level1_rows(self) -> np.ndarray:
        return self.rows[: self.m1]


@dataclass(frozen=True)
class LatticeProfile:
    """Reported parameters of a two-level construction."""

    N: int                       # reported dimension n + 1 (dummy coordinate)
    k: tuple[int, int]           # (k0, k1), from GF(2) ranks
    r: tuple[float, float]       # k_l / N
    d: tuple[int, int]           # per-level design distances
    d2min: int
    normalized_volume: float     # V^{2/N}
    gain_db: float


def make_family(pair: NestedPair, plan0: EncoderPlan) -> CheckFamily:
    """Congruence family [H1; H0] of a nested pair: the rows of H1
    (modulus 4), then all of H0 (modulus 2).

    ``plan0`` is the encoder plan of H0; its RREF answers the nesting test
    (:meth:`EncoderPlan.in_row_space` on the rows of H1), so the family
    costs no elimination of its own.  Raises :class:`NotNestedError` when
    the pair is not nested and ValueError when ``plan0`` was built for
    another matrix.
    """
    if plan0.matrix != pair.h0:
        raise ValueError("plan0 must be the encoder plan of the pair's H0")
    if not plan0.in_row_space(pair.h1.a).all():
        raise NotNestedError("every row of H1 must lie in the row space of H0")
    return CheckFamily(rows=np.vstack([pair.h1.a, pair.h0.a]), m1=pair.h1.rows)


def is_member(fam: CheckFamily, x) -> bool:
    """True iff integer vector ``x`` satisfies every congruence."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (fam.n,):
        raise ValueError(f"expected length-{fam.n} integer vector")
    dots = fam.rows.astype(np.int64) @ x
    if (dots[: fam.m1] % 4).any():
        return False
    return not (dots[fam.m1:] % 2).any()


def volume_gain(k: tuple[int, int], N: int, d2min: float,
                d: tuple[int, int] | None = None) -> LatticeProfile:
    """Profile from per-level dimensions: normalized volume and gain.

    V^{2/N} = 4^(2 - r0 - r1) with r_l = k_l / N, and the coding gain is
    10 log10(d2min / V^{2/N}) dB.
    """
    if N <= 0 or d2min <= 0:
        raise ValueError("N and d2min must be positive")
    k0, k1 = k
    r0, r1 = k0 / N, k1 / N
    vol = 4.0 ** (2.0 - r0 - r1)
    gain_db = 10.0 * math.log10(d2min / vol)
    return LatticeProfile(N=N, k=(k0, k1), r=(r0, r1),
                          d=d if d is not None else (0, 0),
                          d2min=int(d2min), normalized_volume=vol,
                          gain_db=gain_db)


def dmin_bounds(d0: int, d1: int) -> tuple[int, int]:
    """Bounds on the squared minimum distance for two levels.

    Lower bound min(d0, 4*d1) capped at 16; the upper bound is 16 = 4^L.
    """
    if d0 < 1 or d1 < 1:
        raise ValueError("distances must be >= 1")
    return min(min(d0, 4 * d1), DESIGN_D2MIN_CAP), DESIGN_D2MIN_CAP


def balanced_check(d) -> bool:
    """True iff 4^l * d_l is the same for every level l."""
    vals = [(4 ** l) * dl for l, dl in enumerate(d)]
    return len(set(vals)) <= 1
