"""Cycle joining at conjugate windows and the recursive de Bruijn generator.

Two disjoint n-window cycles that contain a pair of conjugate n-windows can be
spliced into a single n-window cycle whose period is the sum of the input
periods.  Iterating the inverse adjacent-XOR map and splicing the resulting
complementary pair doubles a de Bruijn sequence's order; starting from [01]
this yields a de Bruijn cycle of any order.
"""
from __future__ import annotations

from typing import Optional

from .lempel import d_inverse_periodic
from .seqcore import GeneratingCycle, PreconditionError, WindowRangeError, capped_size
from .seqcore import cyclic_value, require_memory, rotate_left
from .verifier import first_collision, read_windows, window_finder

__all__ = ["find_conjugate_positions", "join_at", "debruijn_lempel"]

# Windows of s looked up one by one before t's windows are tabulated.
_PROBES = 64


def find_conjugate_positions(s: GeneratingCycle, t: GeneratingCycle,
                             n: int) -> Optional[tuple[int, int]]:
    """First (i, j) with the n-window of s at i conjugate to that of t at j.

    Positions are scanned with smallest i first, then smallest j, so the
    result is deterministic.  Returns None when no conjugate pair exists;
    callers are responsible for the inputs being disjoint n-window cycles.
    Windows are compared as integers, where conjugation flips the top bit.

    The pair sits near the start of s in every doubling step, so the conjugates of
    the first _PROBES windows of s are looked up in t by window_finder; past that,
    first_collision tabulates t's windows once for all the rest: linear at worst.
    """
    find, top = window_finder(t, n), 1 << (n - 1)  # window_finder refuses n < 1
    for i in range(min(_PROBES, s.period)):
        j = find(cyclic_value(s, i, n) ^ top)
        if j >= 0:
            return i, j
    ours = read_windows(s, n)
    conjugates = ours[:0]  # empty, of ours' type: a bytearray, an array, or a list past 64
    conjugates.extend(map(top.__xor__, ours))
    cx = first_collision((conjugates,), read_windows(t, n), n)
    return None if cx is None else (cx.i, cx.j)


def join_at(s: GeneratingCycle, t: GeneratingCycle, i: int, j: int, n: int) -> GeneratingCycle:
    """Splice t into s where their conjugate n-windows sit.

    The output cycle is
    [s_0..s_{i+n-1}, t_{j+n}..t_{m-1}, t_0..t_{j+n-1}, s_{i+n}..s_{l-1}]
    of period l+m, with index arithmetic cyclic in each source.
    """
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    ell, m = s.period, t.period
    i %= ell
    j %= m
    if cyclic_value(s, i, n) != cyclic_value(t, j, n) ^ (1 << (n - 1)):
        raise PreconditionError(
            f"windows at positions {i} and {j} are not conjugate at order {n}"
        )
    joined = (cyclic_value(s, i + n, ell) << m) | cyclic_value(t, j + n, m)
    # Rotate so the cycle starts at s_0, matching the display above.
    out = rotate_left(joined, ell + m, ell - i - n)
    return GeneratingCycle._trusted(out, ell + m)._require_minimal()


def debruijn_lempel(n: int) -> GeneratingCycle:
    """De Bruijn cycle of order n built by the doubling recursion from [01].

    An order whose 2^n bits would not fit in physical memory raises ValueError.
    """
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    require_memory(f"the sequence and its copies at order {n}", capped_size(n, lambda: 1 << n))
    c = GeneratingCycle("01")
    for k in range(1, n):
        inv = d_inverse_periodic(c)
        if inv.second is None:
            c = inv.first
            continue
        pos = find_conjugate_positions(inv.first, inv.second, k + 1)
        # A complementary pair covering all (k+1)-tuples always contains a
        # conjugate pair next to the alternating tuples.
        assert pos is not None
        c = join_at(inv.first, inv.second, pos[0], pos[1], k + 1)
    return c
