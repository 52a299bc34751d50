"""The adjacent-XOR derivative map on binary sequences and its inverse.

The forward map sends a sequence (s_i) to the sequence of XORs of adjacent
bits.  Its inverse integrates: the preimage of a periodic sequence is either
a complementary pair of cycles with the same period (even weight) or a single
cycle of doubled period (odd weight); the preimage of a finite word is always
a complementary pair, one bit longer.

Phase conventions, chosen once so every operation is deterministic:

* complementary pairs: ``first`` starts with a 0, ``second`` is its complement;
* doubled single cycles: ``second`` is None, and the output's first bit
  equals the input's first bit.

Both are aligned so that output position 0 integrates from input position 0.
Both maps work on packed integers: the forward map XORs a shifted copy, the
inverse is a prefix XOR by doubling shifts, a complement XORs all ones.  Two
inverses are one prefix XOR at stride 2: over GF(2), (1 + x)^-2 = (1 + x^2)^-1.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .seqcore import FiniteSeq, GeneratingCycle, Seq, WindowRangeError, least_period, rotate_left

__all__ = [
    "InverseImage",
    "d_forward_periodic",
    "d_inverse_periodic",
    "d_forward_aperiodic",
    "d_inverse_aperiodic",
]

class InverseImage(NamedTuple):
    """The preimage of a sequence under the adjacent-XOR map."""

    first: Seq
    second: Optional[Seq] = None

    def sequences(self) -> tuple[Seq, ...]:
        return (self.first,) if self.second is None else (self.first, self.second)


def prefix_xor(x: int, n: int, shift: int = 1) -> int:
    """The n-bit integer whose bit i (first bit leftmost) is x[0] ^ ... ^ x[i],
    or, from shift 2, x[i] ^ x[i-2] ^ ...: the prefix XOR of the prefix XOR.

    Uses doubling shifts so the cost is O(n/word * log n) even for sequences
    of hundreds of millions of bits.
    """
    while shift < n:
        x ^= x >> shift
        shift <<= 1
    return x


def alternating(k: int) -> int:
    """(1 << k) // 3, the k-bit word ...0101, from bytes: no long division."""
    return int.from_bytes(b"\x55" * -(-k // 8), "big") >> -k % 8


def d_forward_periodic(c: GeneratingCycle) -> GeneratingCycle:
    """Adjacent XOR around the cycle, reduced to its minimal period."""
    x, m = c.value, c.period
    raw = x ^ rotate_left(x, m, 1)
    p = least_period(raw, m)
    return GeneratingCycle._trusted(raw >> (m - p), p)


def d_inverse_periodic(c: GeneratingCycle) -> InverseImage:
    """Preimage cycles of c under the adjacent-XOR map.

    Even weight: a complementary pair with the same period as c.  Odd weight:
    a single cycle of doubled period whose weight equals the period of c.
    """
    x, m = c.value, c.period
    ones = (1 << m) - 1
    t = prefix_xor(x, m) >> 1  # t[0] = 0 and t[i+1] = t[i] ^ x[i]
    # The outputs are always minimal periods: a shorter period in the
    # preimage would force a shorter period in c itself.
    if c.weight % 2 == 0:
        return InverseImage(GeneratingCycle._trusted(t, m), GeneratingCycle._trusted(t ^ ones, m))
    # Odd weight flips the second pass: a word from x's first bit, then its complement.
    half = t ^ ones if x >> (m - 1) else t
    return InverseImage(GeneratingCycle._trusted((half << m) | (half ^ ones), 2 * m))


def d_forward_aperiodic(s: FiniteSeq) -> FiniteSeq:
    """Adjacent XOR along a finite word; output is one bit shorter."""
    if len(s) < 2:
        raise WindowRangeError("need at least 2 bits to take adjacent XORs")
    x, n = s.value, len(s) - 1
    return FiniteSeq._trusted((x ^ (x >> 1)) & ((1 << n) - 1), n)


def d_inverse_aperiodic(s: FiniteSeq) -> InverseImage:
    """Preimage pair of a finite word; always complementary, one bit longer."""
    # The first word is a 0 followed by the prefix XORs of s.
    first, n = prefix_xor(s.value, len(s)), len(s) + 1
    return InverseImage(FiniteSeq._trusted(first, n), FiniteSeq._trusted(first ^ ((1 << n) - 1), n))
