"""Two-level Construction D' lattices from QC-LDPC and SPC product codes."""

__version__ = "0.1.0"

from .codec import (EncoderPlan, MultistageDecoder, encode_lattice, stage_syndrome,
                    wrapped_llr)
from .codes import NestedPair, build_spc, build_staircase, make_pair_row_sums
from .gf2 import BitMatrix, InconsistentSyndromeError, nullspace_basis
from .lattice import LatticeProfile, is_member, profile
from .presets import BUILTIN_LATTICES, LatticeBundle, get_bundle
from .qc import ProtoMatrix, apply_edits, expand, has_four_cycle, scale
from .sim import SimReport, snr_to_sigma2, sweep_code, sweep_lattice, vnr_to_sigma2
from .wmin import exact_dmin, low_weight_search

__all__ = [
    "__version__",
    "BUILTIN_LATTICES", "BitMatrix",
    "EncoderPlan", "InconsistentSyndromeError", "LatticeBundle",
    "LatticeProfile", "MultistageDecoder", "NestedPair",
    "ProtoMatrix", "SimReport",
    "apply_edits", "build_spc", "build_staircase",
    "encode_lattice", "exact_dmin",
    "expand", "get_bundle", "has_four_cycle", "is_member",
    "low_weight_search",
    "make_pair_row_sums", "nullspace_basis", "profile",
    "scale", "snr_to_sigma2",
    "stage_syndrome", "sweep_code", "sweep_lattice",
    "vnr_to_sigma2", "wrapped_llr",
]
