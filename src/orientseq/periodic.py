"""Recursive construction of periodic orientable sequences.

An orientable cycle whose period contains exactly one run of n-4 zeros stays
usable under the inverse adjacent-XOR map: the preimage contains exactly one
run of n-3 ones, and when its weight comes out even a single extra 1 inserted
into that run restores odd weight without breaking orientability.  Iterating
inverse-then-extend doubles the period (give or take one bit) at every order.

Run lemma: if c, of period m, has its one cyclic 0^{n-4} at p, its doubled
preimage d (d[i+m] = 1 - d[i]) has runs of n-3 equal bits exactly at p and p+m:
ones at one, zeros at the other, as d[p] tells.  The 1 goes into the run of
ones, at r; the run of zeros, one place later if after r, is the next step's
0^{n-3}.  d has weight m, so a bit goes in iff m is even, giving weight m or
m+1.  build_orientable scans only its starter; extend_odd scans its input.

build_orientable steps from c's integral P (P[i] = c[0] ^ ... ^ c[i]), two steps
from one stride-2 pass PP (lempel), by three updates (A = 1010... integrates 1s):
- the half's integral is (PP >> 1) ^ c[0]A, as half[i] = c[0] ^ P[i-1];
- d's is PH, then PH ^ A ^ PH[m-1]1...1, as the complement adds 1 at every bit;
- a 1 at r flips it from r on, and puts there the bit before ^ 1, that bit's sum.

Every member is orientable (Mitchell and Wild, "Constructing orientable
sequences", arXiv 2108.03069), so `verify` certifies a file equal to a rebuilt
member.  The builder checks the starter exactly.  D sends d's N-windows at i
and i+m (N = n+1), which are complements, to c's n-window at i and commutes with
reversal, so a repeat in d at i and j, either way, maps to one in c, or to a
symmetric window if j = i mod m: d is orientable.  After the insertion, every
window without the grown 1^{N-3} is one of d's; the four with it, p u 0 1^{N-3},
u 0 1^{N-3} 0, 0 1^{N-3} 0 x and 1^{N-3} 0 x q, hold it at offsets 3, 2, 1, 0,
which reversal sends to 0, 1, 2, 3: none is symmetric, and the outer and the
inner two reverse to each other only if u = x.  But d's window u 0 1^{N-4} 0 x
is no palindrome: u != x.  The step commutes with rotation: D^-1 of c rotated
by k is d rotated by k or k+m, and the 1 goes into the one run wherever it
lies, so a rotated starter lifts to a rotated member.

Also provided: the closed-form period prediction for the iteration and the
classical upper bound on the period of any orientable cycle.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .lempel import alternating, prefix_xor
from .seqcore import GeneratingCycle, PreconditionError, capped_size, cyclic_value, require_memory
from .verifier import require_orientable

__all__ = [
    "TraceStep",
    "ConstructionTrace",
    "DEFAULT_STARTER",
    "DEFAULT_STARTER_ORDER",
    "dai_bound",
    "is_good",
    "extend_odd",
    "build_orientable",
    "predicted_period",
]

#: Hand-found good orientable starter of order 6, period 9, odd weight.
DEFAULT_STARTER = GeneratingCycle("001010111")
DEFAULT_STARTER_ORDER = 6


class TraceStep(NamedTuple):
    order: int
    period: int
    weight: int
    inserted_bit: bool
    insert_position: Optional[int] = None


class ConstructionTrace(NamedTuple):
    """Per-order record of a recursive construction run, its steps in order."""

    steps: list[TraceStep]


# 18 times Dai's bound is 18*2^(n-1) - a*h + b*n + c, h = 2^((n-1)//2), with
# (a, b, c) by n % 4; e.g. n = 0 mod 4 gives 2^(n-1) - 41/9*h + n/3 + 16/9.
_DAI_TERMS = ((82, 6, 32), (62, 6, 38), (82, 3, 40), (62, 3, 43))


def dai_bound(n: int) -> int:
    """Upper bound on the period of an orientable cycle of order n (n >= 5)."""
    if n < 5:
        raise ValueError(f"no periodic orientable sequence exists for order {n} < 5")
    a, b, c = _DAI_TERMS[n % 4]
    return (18 * (1 << (n - 1)) - a * (1 << ((n - 1) // 2)) + b * n + c) // 18


def _cyclic_runs(c: GeneratingCycle, k: int, bit: int) -> int:
    """Bit m-1-r is set iff k copies of `bit` start at position r of c's period m."""
    size = c.period + k - 1
    x = cyclic_value(c, 0, size) ^ (0 if bit else (1 << size) - 1)
    have = 1  # x marks the starts of runs of `have` copies; double until k
    while have < k:
        step = min(have, k - have)
        x &= x >> step
        have += step
    return x


def is_good(c: GeneratingCycle, n: int) -> bool:
    """True iff exactly one run of n-4 zeros occurs in a period of c."""
    if n < 5:
        raise ValueError(f"goodness needs order >= 5, got {n}")
    return _cyclic_runs(c, n - 4, 0).bit_count() == 1


def _insert_one(x: int, m: int, r: int, integral: bool = False) -> int:
    """The m-bit x with a 1 inserted before position r, the start of its unique
    longest 1-run; if integral, x is a word's integral and so is the result."""
    low = m - r  # low bits follow the insertion
    out = x + ((x >> low) + 1 << low)  # hi, shifted past the 1, then lo
    # An integral's 1 is the complement of hi's last bit, and lo flips after it.
    return out ^ ((1 << low + (x >> low & 1)) - 1) if integral else out


def extend_odd(c: GeneratingCycle, n: int) -> GeneratingCycle:
    """Insert one extra 1 into the unique longest 1-run if the weight is even.

    Requires exactly one cyclic occurrence of 1^{n-4} in c.  Output always has
    odd weight; the period grows by one exactly when a bit was inserted.
    """
    if n < 5:
        raise ValueError(f"extension needs order >= 5, got {n}")
    runs = _cyclic_runs(c, n - 4, 1)
    if (found := runs.bit_count()) != 1:
        raise PreconditionError(f"expected exactly one occurrence of 1^{n - 4}, found {found}")
    if c.weight % 2 == 1:
        return c
    r = c.period - runs.bit_length()
    # Minimality holds: the unique longest 1-run cannot recur at a shorter period.
    # The four windows over the grown run are distinct: each has 1^{n-3} at its own offset.
    return GeneratingCycle._trusted(_insert_one(c.value, c.period, r), c.period + 1)


def _step(x: int, m: int, p: int, n: int, trace: ConstructionTrace,
          lift: bool = False) -> tuple[int, int, int]:
    """One step to order n+1 from the integral x of a good odd-weight c of period m
    with 0^{n-4} at p: the inverse map, then a 1 into the run of ones if m is even.
    Returns the output, its period and its 0^{n-3} (the run lemma), the step traced.
    If lift, x is c's stride-2 integral, and the output's integral comes out."""
    t0 = x >> (m - 1)
    # d[p] = c[0] ^ P[p-1], and P[p-1] = x[p-1] ^ x[p-2] if x is stride-2.
    dp = t0 ^ ((x >> (m - p)) & (3 if lift else 1)).bit_count() & 1
    ones, zeros = (p, p + m) if dp else (p + m, p)
    # d is half, then its complement: all ones flip a word, and an integral gains
    # A = 1010... = alternating(m + 1), or 0101... = alternating(m) after an odd half.
    half = (x >> 1) ^ ((alternating(m + 1) if lift else (1 << m) - 1) if t0 else 0)
    del x  # masks and copies go once used: the peak is the insertion's
    d = (half << m) | (half ^ (alternating(m + 1 - (half & 1)) if lift else (1 << m) - 1))
    del half
    grow = 1 - m % 2  # d has weight m, so a 1 goes in iff m is even
    trace.steps.append(TraceStep(n + 1, 2 * m + grow, m + grow, bool(grow), ones if grow else None))
    out = _insert_one(d, 2 * m, ones, lift) if grow else d
    return out, 2 * m + grow, zeros + (grow and zeros > ones)


def build_orientable(starter: GeneratingCycle, n0: int,
                     n_target: int) -> tuple[GeneratingCycle, ConstructionTrace]:
    """Iterate the recursion from a validated starter up to n_target.

    The starter must be orientable at order n0, good, and of odd weight; the
    first failing property is reported.  A target whose period would not fit
    in physical memory raises ValueError before any step.  Only the starter is
    scanned for its 0^{n0-4}; by the run lemma each step's preimage gives the
    next 0^{n-3}, and its 1^{n-3}, from where the last one was.  Steps go two
    per prefix XOR, after one ordinary step if their count is odd.
    """
    if n_target < n0:
        raise PreconditionError(f"target order {n_target} below starter order {n0}")
    require_orientable(starter, n0, "starter")
    if not is_good(starter, n0):
        raise PreconditionError(f"starter is not good at order {n0}")
    if starter.weight % 2 == 0:
        raise PreconditionError(f"starter weight {starter.weight} is even")
    steps = n_target - n0  # the period is >= 2^steps
    period = capped_size(steps, lambda: predicted_period(starter.period, *divmod(steps, 2)))
    require_memory(f"the sequence and its copies at order {n_target}", period)
    trace = ConstructionTrace([TraceStep(n0, starter.period, starter.weight, False, None)])
    x, m = starter.value, starter.period
    p = m - _cyclic_runs(starter, n0 - 4, 0).bit_length()
    if steps % 2:
        x, m, p = _step(prefix_xor(x, m), m, p, n0, trace)
    for n in range(n0 + steps % 2, n_target, 2):
        x, m, p = _step(prefix_xor(x, m, 2), m, p, n, trace, lift=True)
        x, m, p = _step(x, m, p, n + 1, trace)
    return GeneratingCycle._trusted(x, m), trace


def predicted_period(m_start: int, j: int, offset: int) -> int:
    """Closed-form period after s = 2j+offset recursion steps from period m_start.

    A step sends m to 2m + 1 - m % 2, so the excess over m_start*2^s doubles and
    gains 1 at each even period: floor(2^t/3), whose step is f(t+1) = 2f(t) + t % 2,
    at t = s from an odd m_start and t = s + 1 from an even one.
    """
    if j < 0 or offset not in (0, 1):
        raise ValueError("need j >= 0 and offset in {0, 1}")
    s = 2 * j + offset
    return (m_start << s) + ((2 - m_start % 2) << s) // 3
