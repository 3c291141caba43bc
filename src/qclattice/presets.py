"""Named built-in constructions, as data: ``RECIPES`` gives each name the
options of ``build --proto`` (data file names; an absent option is unset)
and its design distances (d0, d1), and :func:`proto_pair` applies them as
``build --proto`` applies a user's: parse, rescale, edit, split in levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

from . import codec, codes, lattice, qc

RECIPES = {
    # (3,5)-regular QC code, z=34, n=170; level 1 is block row 0: 7.04 dB
    "example1": dict(proto="example1_3x5_z34.txt", h1_groups=[(0,)], design_d=(16, 4)),
    # modified 802.16e rate-1/2 code, z=48, n=1152: 8.34 dB.  The floor rule
    # keeps it 4-cycle free; the edits make four zero blocks CPMs and clear
    # cell (1, 6), so block rows 1+8 and 4+10 cover every block column once
    "wimax1152": dict(proto="wimax_r12_z96.txt", scale_n=1152, scale_rule="floor",
                      edits="wimax_r12_edits_n1152.txt", h1_groups=[(1, 8), (4, 10)],
                      design_d=(25, 4)),
}


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


def proto_pair(name: str) -> tuple[qc.ProtoMatrix, codes.NestedPair]:
    """The prototype and nested pair of the recipe ``name``; no elimination."""
    r = RECIPES[name]
    P = qc.parse_proto(qc.bundled_text(r["proto"]))
    if "scale_n" in r:
        P = qc.SCALE_RULES[r["scale_rule"]](P, r["scale_n"])
    if "edits" in r:
        P = qc.apply_edits(P, qc.parse_edits(qc.bundled_text(r["edits"])))
    return P, codes.make_pair_row_sums(P, r["h1_groups"])


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


def _recipe_bundle(name: str) -> LatticeBundle:
    return _bundle(name, *proto_pair(name), RECIPES[name]["design_d"])


BUILTIN_LATTICES = {name: lru_cache(maxsize=None)(partial(_recipe_bundle, name))
                    for name in RECIPES}
example1, wimax1152 = BUILTIN_LATTICES["example1"], BUILTIN_LATTICES["wimax1152"]


def get_bundle(name: str) -> LatticeBundle:
    if name not in BUILTIN_LATTICES:
        raise KeyError(f"unknown lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}")
    return BUILTIN_LATTICES[name]()
