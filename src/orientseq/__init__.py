"""Orientable binary sequences: construction, verification, search, lookup.

An orientable sequence of order n is a binary sequence in which every n-bit
window occurs at most once, in either reading direction, so reading n bits
fixes both position and direction of travel.  This package builds such
sequences (periodic and finite) by recursive application of the adjacent-XOR
derivative map and its inverse, verifies every window property exactly over
integer window values, searches exhaustively for optimal sequences at small
orders, and exposes the position+orientation lookup table that motivates them.
"""
from .aperiodic import (
    aos_from_periodic,
    build_aos,
    burns_bound,
    is_ideal,
    merge_step,
    predicted_length,
)
from .join import debruijn_lempel, find_conjugate_positions, join_at
from .lempel import (
    InverseImage,
    d_forward_aperiodic,
    d_forward_periodic,
    d_inverse_aperiodic,
    d_inverse_periodic,
)
from .locator import LocatorIndex, build_index, find, locate
from .periodic import (
    ConstructionTrace,
    TraceStep,
    build_orientable,
    dai_bound,
    extend_odd,
    is_good,
    next_orientable,
    predicted_period,
)
from .search import SearchResult, max_aos_length, max_orientable_period
from .seqcore import (
    BitsError,
    FiniteSeq,
    GeneratingCycle,
    NonMinimalPeriodError,
    PreconditionError,
    WindowRangeError,
)
from .verifier import (
    Counterexample,
    verify_disjoint,
    verify_nwindow,
    verify_o_disjoint,
    verify_orientable,
    verify_primitive,
)

__version__ = "0.1.0"
