"""The two-level lattice of a nested pair: membership, nesting, profile.

A nested pair (H0, H1) is the lattice's only description: x in Z^n belongs
to it iff H1 x = 0 (mod 4) and H0 x = 0 (mod 2), every row of each matrix
taken as an integer 0/1 row.  Redundant congruences are kept (they do not
change the point set): a row of H0 that is also a row of H1 repeats,
modulo 2, a congruence that already holds modulo 4.  All dimension counts
come from GF(2) ranks, never from row counts.  Nesting is tested against
the level-0 encoder plan's RREF, so it runs no elimination.
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
class LatticeProfile:
    """Reported parameters of a two-level construction."""

    N: int                       # reported dimension n + 1 (dummy coordinate)
    k: tuple[int, int]           # (k0, k1), from GF(2) ranks
    r: tuple[float, float]       # k_l / N
    d: tuple[int, int]           # per-level design distances
    d2min: int
    normalized_volume: float     # V^{2/N}
    gain_db: float


def is_nested(pair: NestedPair, plan0: EncoderPlan) -> bool:
    """True iff every row of H1 lies in the row space of H0.

    ``plan0`` is the encoder plan of H0; its RREF answers the test
    (:meth:`EncoderPlan.in_row_space` on all of H1), so it costs no
    elimination.  Raises ValueError when ``plan0`` was built for another
    matrix.
    """
    if plan0.matrix != pair.h0:
        raise ValueError("plan0 must be the encoder plan of the pair's H0")
    return bool(plan0.in_row_space(pair.h1.a).all())


def is_member(pair: NestedPair, x) -> bool:
    """True iff integer vector ``x`` satisfies every congruence:
    H1 x = 0 (mod 4) and H0 x = 0 (mod 2)."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (pair.n,):
        raise ValueError(f"expected length-{pair.n} integer vector")
    return not ((pair.h1.a @ x) % 4).any() and not ((pair.h0.a @ x) % 2).any()


def profile(k: tuple[int, int], N: int, design_d: tuple[int, int]) -> LatticeProfile:
    """Profile from per-level dimensions and design distances.

    d2min = min(d0, 4 d1, 16), V^{2/N} = 4^(2 - r0 - r1) with r_l = k_l / N,
    and the coding gain is 10 log10(d2min / V^{2/N}) dB.  Raises ValueError
    unless N and both distances are positive.
    """
    d0, d1 = design_d
    if N < 1 or d0 < 1 or d1 < 1:
        raise ValueError(f"N and the design distances must be >= 1, "
                         f"got N={N}, d=({d0}, {d1})")
    d2min = min(d0, 4 * d1, DESIGN_D2MIN_CAP)
    k0, k1 = k
    r0, r1 = k0 / N, k1 / N
    vol = 4.0 ** (2.0 - r0 - r1)
    return LatticeProfile(N=N, k=(k0, k1), r=(r0, r1), d=(d0, d1), d2min=d2min,
                          normalized_volume=vol,
                          gain_db=10.0 * math.log10(d2min / vol))


def balanced_check(d) -> bool:
    """True iff 4^l * d_l is the same for every level l."""
    vals = [(4 ** l) * dl for l, dl in enumerate(d)]
    return len(set(vals)) <= 1
