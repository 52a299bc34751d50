"""The recursive de Bruijn generator: Lempel's doubling, joined at a conjugate pair.

The inverse adjacent-XOR map takes a de Bruijn cycle of order n-1 to a
complementary pair of cycles that together hold every n-window once.  Splicing
the pair where a window of one is conjugate (top bit flipped) to a window of the
other gives a de Bruijn cycle of order n; starting from [01] this yields a de
Bruijn cycle of any order.
"""
from __future__ import annotations

from .lempel import d_inverse_periodic
from .seqcore import GeneratingCycle, PreconditionError, capped_size, cyclic_value
from .seqcore import require_memory, rotate_left
from .verifier import window_finder

__all__ = ["debruijn_lempel"]


def debruijn_lempel(n: int) -> GeneratingCycle:
    """De Bruijn cycle of order n built by the doubling recursion from [01].

    Each order's pair is joined at its least (i, j): the window of the cycle s
    starting with 0 at i is conjugate to the window of its complement t at j.

    An order whose 2^n bits would not fit in physical memory raises ValueError.
    """
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    require_memory(f"the sequence and its copies at order {n}", capped_size(n, lambda: 1 << n))
    c = GeneratingCycle("01")
    for k in range(2, n + 1):
        inv = d_inverse_periodic(c)
        if inv.second is None:
            c = inv.first
            continue
        s, ell = inv.first, inv.first.period
        # t's window at j is s's complemented, so it is conjugate to s's window at i
        # iff s's window at j is s's at i with its low k-1 bits flipped: one j at most.
        # Some i has one, else s's windows would be closed under conjugation, so under
        # succession (the windows after bx and after its conjugate differ in their
        # last bit), so all 2^k of them, not half.
        find, low, i = window_finder(s, k), (1 << (k - 1)) - 1, 0
        while (j := find(cyclic_value(s, i, k) ^ low)) < 0:
            i += 1
        # [s_0..s_{i+k-1}, t_{j+k}..t_{j+k-1}, s_{i+k}..]: every k-window once, so minimal.
        t_part = cyclic_value(s, j + k, ell) ^ ((1 << ell) - 1)
        joined = (cyclic_value(s, i + k, ell) << ell) | t_part
        c = GeneratingCycle._trusted(rotate_left(joined, 2 * ell, ell - i - k), 2 * ell)
    return c
