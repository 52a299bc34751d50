"""Orientable binary sequences: construction, verification, search, lookup.

An orientable sequence of order n is a binary sequence in which every n-bit
window occurs at most once, in either reading direction, so reading n bits
fixes both position and direction of travel.  This package builds such
sequences (periodic and finite) by recursive application of the adjacent-XOR
derivative map and its inverse, verifies every window property exactly over
integer window values, searches exhaustively for optimal sequences at small
orders, and exposes the position+orientation lookup table that motivates them.

Names load on first use: ``import orientseq`` loads no submodule, and each
public name below imports its module when it is first read (PEP 562).
"""
__version__ = "0.1.0"

# Each submodule reachable as orientseq.<module>, with the names it exports here.
_EXPORTS = {
    "aperiodic": "aos_from_periodic build_aos burns_bound is_ideal merge_step predicted_length",
    "join": "debruijn_lempel find_conjugate_positions join_at",
    "lempel": "InverseImage d_forward_aperiodic d_forward_periodic d_inverse_aperiodic "
              "d_inverse_periodic",
    "locator": "LocatorIndex build_index find locate",
    "periodic": "ConstructionTrace TraceStep build_orientable dai_bound extend_odd is_good "
                "predicted_period",
    "search": "SearchResult max_aos_length max_orientable_period",
    "seqcore": "BitsError FiniteSeq GeneratingCycle NonMinimalPeriodError PreconditionError "
               "WindowRangeError",
    "verifier": "Counterexample verify_disjoint verify_nwindow verify_o_disjoint "
                "verify_orientable verify_primitive",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    # __import__, unlike importlib.import_module, shows in `python -X importtime`.
    if name in _EXPORTS:
        return __import__(name, globals(), level=1)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_ORIGIN[name], globals(), level=1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
