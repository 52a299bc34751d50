"""The adjacent-XOR derivative map on binary sequences and its inverse.

The forward map sends a sequence (s_i) to the sequence of XORs of adjacent
bits.  Its inverse integrates: the preimage of a periodic sequence is either
a complementary pair of cycles with the same period (even weight) or a single
cycle of doubled period (odd weight); the preimage of a finite word is always
a complementary pair, one bit longer.

Phase conventions, chosen once so every operation is deterministic:

* complementary pairs: ``first`` starts with a 0, ``second`` is its complement;
* doubled single cycles: the output's first bit equals the input's first bit.

Both are aligned so that output position 0 integrates from input position 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .seqcore import FiniteSeq, GeneratingCycle, Seq, WindowRangeError, complement

__all__ = [
    "InverseKind",
    "InverseImage",
    "d_forward_periodic",
    "d_inverse_periodic",
    "d_forward_aperiodic",
    "d_inverse_aperiodic",
]

class InverseKind(Enum):
    COMPLEMENTARY_PAIR = "complementary_pair"
    DOUBLED_SINGLE = "doubled_single"


@dataclass(frozen=True)
class InverseImage:
    """The preimage of a sequence under the adjacent-XOR map."""

    kind: InverseKind
    first: Seq
    second: Optional[Seq] = None

    def sequences(self) -> tuple[Seq, ...]:
        if self.second is None:
            return (self.first,)
        return (self.first, self.second)


def _prefix_xor(bits: str) -> int:
    """Integer whose bit at MSB position i is bits[0] ^ ... ^ bits[i].

    Uses doubling shifts so the cost is O(L/word * log L) even for sequences
    of hundreds of millions of bits.
    """
    x = int(bits, 2)
    shift = 1
    n = len(bits)
    while shift < n:
        x ^= x >> shift
        shift <<= 1
    return x


def _integrate(bits: str, t0: int) -> str:
    """The word t of len(bits) bits with t[0] = t0 and t[i+1] = t[i] ^ bits[i]."""
    n = len(bits)
    t = _prefix_xor(bits) >> 1
    if t0:
        t ^= (1 << n) - 1
    return format(t, f"0{n}b")


def d_forward_periodic(c: GeneratingCycle) -> GeneratingCycle:
    """Adjacent XOR around the cycle, reduced to its minimal period."""
    b = c.bits
    if len(b) == 1:
        return GeneratingCycle("0")
    raw = format(int(b, 2) ^ int(b[1:] + b[0], 2), f"0{len(b)}b")
    p = (raw + raw).find(raw, 1)
    return GeneratingCycle._trusted(raw[:p])


def d_inverse_periodic(c: GeneratingCycle) -> InverseImage:
    """Preimage cycles of c under the adjacent-XOR map.

    Even weight: a complementary pair with the same period as c.  Odd weight:
    a single cycle of doubled period whose weight equals the period of c.
    """
    b = c.bits
    # The outputs are always minimal periods: a shorter period in the
    # preimage would force a shorter period in c itself.
    if c.weight % 2 == 0:
        first = _integrate(b, 0)
        return InverseImage(
            InverseKind.COMPLEMENTARY_PAIR,
            GeneratingCycle._trusted(first),
            GeneratingCycle._trusted(complement(first)),
        )
    t = _integrate(b + b, int(b[0]))
    # t is a word followed by its complement, so it has one 1 per bit of c.
    return InverseImage(InverseKind.DOUBLED_SINGLE, GeneratingCycle._trusted(t, len(b)))


def d_forward_aperiodic(s: FiniteSeq) -> FiniteSeq:
    """Adjacent XOR along a finite word; output is one bit shorter."""
    if len(s) < 2:
        raise WindowRangeError("need at least 2 bits to take adjacent XORs")
    x = int(s.bits, 2)
    n = len(s) - 1
    return FiniteSeq._trusted(format((x ^ (x >> 1)) & ((1 << n) - 1), f"0{n}b"))


def d_inverse_aperiodic(s: FiniteSeq) -> InverseImage:
    """Preimage pair of a finite word; always complementary, one bit longer."""
    first = "0" + format(_prefix_xor(s.bits), f"0{len(s)}b")
    return InverseImage(
        InverseKind.COMPLEMENTARY_PAIR,
        FiniteSeq._trusted(first),
        FiniteSeq._trusted(complement(first)),
    )
