"""The lattice object, and the named built-in constructions as data.

:class:`LatticeBundle` is the one lattice object every command reads: a
prototype, its nested pair and, for a built-in, its design distances, with
the two encoder plans and the profile built on first use.  ``RECIPES``
gives each built-in name the options of ``build --proto`` (data file
names; an absent option is unset) and its design distances (d0, d1);
:func:`get_bundle` applies them as ``build --proto`` applies a user's:
parse, rescale, edit, split in levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

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
    """One two-level construction: its prototype, nested pair and design
    distances (None for a lattice read from ``--proto`` flags).

    The encoder plans and the profile are built on first use and kept.
    The two plans are the bundle's only GF(2) eliminations: each RREF gives
    its level's rank, k_l = n - rank(H_l), and plan0's also the nesting
    test, so building the bundle itself runs none.
    """

    name: str
    proto: qc.ProtoMatrix
    pair: codes.NestedPair
    design_d: tuple[int, int] | None = None

    @cached_property
    def plan0(self) -> codec.EncoderPlan:
        """H0's encoder plan; raises :class:`lattice.NotNestedError` unless
        every row of H1 lies in its row space."""
        plan = codec.EncoderPlan(self.pair.h0)
        if not plan.in_row_space(self.pair.h1.a).all():
            raise lattice.NotNestedError("every row of H1 must lie in the row space of H0")
        return plan

    @cached_property
    def plan1(self) -> codec.EncoderPlan:
        return codec.EncoderPlan(self.pair.h1)

    @property
    def plans(self) -> tuple[codec.EncoderPlan, codec.EncoderPlan]:
        return self.plan0, self.plan1

    @cached_property
    def profile(self) -> lattice.LatticeProfile:
        """The profile from the plans' dimensions and the design distances;
        ValueError for a bundle without design distances."""
        if self.design_d is None:
            raise ValueError(f"lattice {self.name} has no design distances, "
                             "so it has no profile")
        return lattice.profile((self.plan0.num_info, self.plan1.num_info),
                               self.pair.n + 1, self.design_d)


def _recipe_bundle(name: str) -> LatticeBundle:
    r = RECIPES[name]
    P = qc.parse_proto(qc.bundled_text(r["proto"]))
    if "scale_n" in r:
        P = qc.scale(P, r["scale_n"], r["scale_rule"])
    if "edits" in r:
        P = qc.apply_edits(P, qc.parse_edits(qc.bundled_text(r["edits"])))
    return LatticeBundle(name, P, codes.make_pair_row_sums(P, r["h1_groups"]),
                         r["design_d"])


BUILTIN_LATTICES = {name: lru_cache(maxsize=None)(partial(_recipe_bundle, name))
                    for name in RECIPES}


def get_bundle(name: str) -> LatticeBundle:
    if name not in BUILTIN_LATTICES:
        raise KeyError(f"unknown lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}")
    return BUILTIN_LATTICES[name]()
