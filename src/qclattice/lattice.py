"""The two-level lattice of a nested pair: membership, nesting, profile.

A nested pair (H0, H1) is the lattice's only description: x in Z^n belongs
to it iff H1 x = 0 (mod 4) and H0 x = 0 (mod 2), every row of each matrix
taken as an integer 0/1 row.  Redundant congruences are kept (they do not
change the point set): a row of H0 that is also a row of H1 repeats,
modulo 2, a congruence that already holds modulo 4.  All dimension counts
come from GF(2) ranks, never from row counts.  A pair that is not nested
is refused by the level-0 encoder plan of its bundle
(:attr:`qclattice.presets.LatticeBundle.plan0`), whose RREF answers the
test with no elimination of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def is_member(pair: NestedPair, x) -> bool:
    """True iff integer vector ``x`` satisfies every congruence:
    H1 x = 0 (mod 4) and H0 x = 0 (mod 2).  Raises ValueError when an entry
    is not an integer; integral floats are accepted."""
    x = np.asarray(x)
    if x.shape != (pair.n,):
        raise ValueError(f"expected length-{pair.n} integer vector")
    if x.dtype.kind not in "biu" and not (np.isfinite(x) & (np.trunc(x) == x)).all():
        raise ValueError("every entry of x must be an integer")
    # every congruence is mod 4 or 2, and x mod 4 is exact in any dtype
    x = (x % 4).astype(np.int64)
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
