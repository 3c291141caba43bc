"""Named built-in constructions.

``example1``:  (3,5)-regular QC code, z=34, n=170; level 1 is block row 0
(the group of one row (0,)) over the staircase.  Design distances (16, 4), coding gain 7.04 dB.

``wimax1152``: modified 802.16e rate-1/2 code, z=48, n=1152; level 1 is the
concatenation of the block-row sums 1+8 and 4+10 over the staircase.
Design distances (25, 4), coding gain 8.34 dB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import codec, codes, lattice, qc


@dataclass(frozen=True)
class LatticeBundle:
    """Everything needed to encode, decode and simulate one construction."""

    name: str
    proto: qc.ProtoMatrix
    pair: codes.NestedPair
    profile: lattice.LatticeProfile
    plan0: codec.EncoderPlan
    plan1: codec.EncoderPlan

    @property
    def plans(self) -> tuple[codec.EncoderPlan, codec.EncoderPlan]:
        return self.plan0, self.plan1


def _bundle(name: str, proto: qc.ProtoMatrix, pair: codes.NestedPair,
            design_d: tuple[int, int]) -> LatticeBundle:
    # the two plans are the bundle's only eliminations: each RREF gives its
    # level's rank, k_l = n - rank(H_l), and plan0's also the nesting test
    plan0, plan1 = codec.EncoderPlan(pair.h0), codec.EncoderPlan(pair.h1)
    if not lattice.is_nested(pair, plan0):
        raise lattice.NotNestedError("every row of H1 must lie in the row space of H0")
    profile = lattice.profile((plan0.num_info, plan1.num_info), pair.n + 1, design_d)
    return LatticeBundle(name=name, proto=proto, pair=pair, profile=profile,
                         plan0=plan0, plan1=plan1)


@lru_cache(maxsize=None)
def example1() -> LatticeBundle:
    proto = qc.example1_proto()
    pair = codes.make_pair_row_sums(proto, [(0,)])
    return _bundle("example1", proto, pair, (16, 4))


@lru_cache(maxsize=None)
def wimax1152() -> LatticeBundle:
    proto = qc.wimax_proto_1152()
    pair = codes.make_pair_row_sums(proto, [(1, 8), (4, 10)])
    return _bundle("wimax1152", proto, pair, (25, 4))


BUILTIN_LATTICES = {"example1": example1, "wimax1152": wimax1152}


def get_bundle(name: str) -> LatticeBundle:
    try:
        return BUILTIN_LATTICES[name]()
    except KeyError:
        raise KeyError(f"unknown lattice {name!r}; choose from "
                       f"{sorted(BUILTIN_LATTICES)}") from None
