"""Recursive construction of finite (aperiodic) orientable sequences.

The recursion lives on *ideal* sequences: words that begin with n-1 zeros and
end with n-1 ones.  The preimage pair of an ideal word under the adjacent-XOR
map is {T, complement(T)} with T starting in n zeros and ending in n
alternating bits; reversing the complement and overlapping it with T (by n
bits for even n, n-1 for odd n) produces an ideal word one order higher.
Starting from 01 this yields a family whose length roughly doubles per order.

Every member is orientable (Mitchell and Wild, "Constructing orientable
sequences", arXiv 2108.03069), so `verify` certifies a file equal to a rebuilt
member.  The builder checks the starter exactly.  T and its complement are
orientable and o-disjoint at n+1: a window they repeat or share, either way,
maps under D to a repeat or a symmetric window of s.  So are T and U, the
reversed complement.  Every window of the merge is one of theirs but one, at
odd orders: the window across the join, T's n alternating last bits and one
more.  D sends it and its reverse to 1^n, a palindrome that s lacks, so neither
is T's or U's, and it is no palindrome itself.

build_aos merges from s's integral T: one byte table reverses and complements T's first
keep bits, x >> drop (drop = n - n % 2).  Two merges take one stride-2 pass PT (lempel),
T's integral; the merge's integral is PT, then reverse(PT's first keep-1 bits, 0) ^ A,
A = 1010..., complemented iff T's alternating last drop bits have odd weight.  The tail's
ones are the zeros of T's first keep bits: the weight is keep + drop // 2, with no pass.
"""
from __future__ import annotations

from .lempel import d_inverse_aperiodic, prefix_xor
from .periodic import ConstructionTrace, TraceStep
from .seqcore import FiniteSeq, GeneratingCycle, PreconditionError, reverse_value, window_bits
from .seqcore import capped_size, require_memory
from .verifier import require_orientable

__all__ = [
    "BURNS_TABLE",
    "is_ideal",
    "merge_step",
    "build_aos",
    "predicted_length",
    "burns_bound",
    "aos_from_periodic",
]

#: Longest known aperiodic orientable sequence lengths from the literature
#: (exhaustive search results for orders 4-7, best-found beyond).  These are
#: reference values for reporting, not recomputed here.
BURNS_TABLE = {
    4: 8,
    5: 14,
    6: 26,
    7: 48,
    8: 108,
    9: 210,
    10: 440,
    11: 872,
    12: 1860,
    13: 3710,
    14: 7400,
    15: 15467,
    16: 31766,
}

#: Base of the recursion: the ideal order-2 word of (optimal) length 2.
DEFAULT_STARTER = FiniteSeq("01")
DEFAULT_STARTER_ORDER = 2


def is_ideal(s: FiniteSeq, n: int) -> bool:
    """True iff s starts with n-1 zeros and ends with n-1 ones."""
    if n < 2:
        raise ValueError(f"idealness needs order >= 2, got {n}")
    k, ones = n - 1, (1 << (n - 1)) - 1
    return len(s) >= 2 * k and s.value >> (len(s) - k) == 0 and s.value & ones == ones


def merge_step(s: FiniteSeq, n: int) -> FiniteSeq:
    """One recursion step: split s via the inverse map and overlap the halves.

    T is the preimage starting with 0 (hence with n zeros), U the reversal of
    its complement; the output is T followed by U with its first n bits
    dropped (n even) or first n-1 bits dropped (n odd).  Output length is
    2l-n+2 or 2l-n+3 respectively.
    """
    if not is_ideal(s, n):
        raise PreconditionError(f"input of length {len(s)} is not ideal at order {n}")
    t = d_inverse_aperiodic(s).first.value  # T, s's integral
    return FiniteSeq._trusted(*_merge(t, len(s), n, ConstructionTrace([])))


def build_aos(n_target: int, *, starter: FiniteSeq = DEFAULT_STARTER,
              starter_order: int = DEFAULT_STARTER_ORDER) -> tuple[FiniteSeq, ConstructionTrace]:
    """Iterate merge_step from the starter up to order n_target.

    The starter is always fully validated (ideal and orientable at its
    order).  The trace records one step per order; inserted_bit marks the
    odd-order merges, which add one extra window (the alternating one).  A
    target whose length would not fit in physical memory raises ValueError
    before any step.
    """
    n0 = starter_order
    if n_target < n0:
        raise PreconditionError(f"target order {n_target} below starter order {n0}")
    if not is_ideal(starter, n0):
        raise PreconditionError(f"starter is not ideal at order {n0}")
    require_orientable(starter, n0, "starter")
    steps = n_target - n0  # the length is >= 2^steps
    length = capped_size(steps, lambda: predicted_length(len(starter), n0, steps))
    require_memory(f"the sequence and its copies at order {n_target}", length)
    trace = ConstructionTrace([TraceStep(n0, len(starter), starter.weight, False, None)])
    x, ell = starter.value, len(starter)
    if steps % 2:
        x, ell = _merge(prefix_xor(x, ell), ell, n0, trace)
    for n in range(n0 + steps % 2, n_target, 2):
        x, ell = _merge(prefix_xor(x, ell, 2), ell, n, trace, lift=True)
        x, ell = _merge(x, ell, n + 1, trace)
    return FiniteSeq._trusted(x, ell), trace


def _merge(x: int, ell: int, n: int, trace: ConstructionTrace,
           lift: bool = False) -> tuple[int, int]:
    """build_aos's merge_step, fed the integral x of an ideal s of length ell: the output
    and its length, the step put on the trace.  If lift, x is s's stride-2 integral and
    the output's integral comes out (the update above)."""
    keep, drop = ell + 1 - n + n % 2, n - n % 2  # merge_step's keep, and T's other bits
    # Lifted, A = 0xAA.., complemented when T's alternating last drop bits hold odd weight.
    tail = reverse_value(x >> drop + lift, keep, (0xAA, 0x55)[n // 2 % 2] if lift else 0xFF)
    # The tail's ones are the zeros of T's first keep bits; half of T's last drop bits are ones.
    trace.steps.append(TraceStep(n + 1, ell + 1 + keep, keep + drop // 2, n % 2 == 1, None))
    return (x << keep) | tail, ell + 1 + keep


def predicted_length(ell_n: int, n: int, m: int) -> int:
    """Closed-form length after m merge steps from an ideal word of length ell_n.

    A merge at order o sends l to 2l - o + 2 + o % 2, so d = l - o + 1 obeys
    d' = 2d + o % 2; from d = ell_n - n + 1 the added terms sum to floor(2^t/3),
    whose step is f(t+1) = 2f(t) + t % 2, at t = m + n % 2.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    return ((ell_n - n + 1) << m) + (1 << m + n % 2) // 3 + m + n - 1


def burns_bound(n: int) -> int:
    """Upper bound on the length of any aperiodic orientable sequence of order n."""
    if n < 2:
        raise ValueError(f"need order >= 2, got {n}")
    return 2 ** (n - 1) - 2 ** ((n - 1) // 2) + n - 1


def aos_from_periodic(c: GeneratingCycle, n: int) -> FiniteSeq:
    """Unroll an orientable cycle into a finite word of length period + n - 1."""
    if n < 1:
        raise ValueError(f"need order >= 1, got {n}")
    return FiniteSeq._trusted(*window_bits(c, n))
