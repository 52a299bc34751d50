"""Binary sequence primitives: windows, reversal, complement, conjugate, weight.

Sequences and windows are stored as strings of '0'/'1' characters, most
significant (leftmost) bit first, matching the bracket notation used in the
rest of the package; whole-sequence window tests read windows as integers
(window_values).  All types are immutable values; all operations are pure.
"""
from __future__ import annotations

import sys
from array import array
from itertools import compress, count
from typing import Collection, Iterable, Optional, Sequence, Union

__all__ = [
    "BitsError",
    "NonMinimalPeriodError",
    "WindowRangeError",
    "PreconditionError",
    "FORWARD",
    "REVERSE",
    "SYMMETRIC",
    "Window",
    "GeneratingCycle",
    "FiniteSeq",
    "Seq",
    "as_bits",
    "window",
    "window_bits",
    "window_values",
    "first_in",
    "reverse",
    "complement",
    "conjugate",
    "is_symmetric",
    "cyclic_slice",
    "cyclic_positions",
    "cyclic_occurrences",
    "least_rotation",
]

# A fixed-length binary word, e.g. "0110".
Window = str

# Reading directions, shared by counterexample kinds and lookup results;
# SYMMETRIC marks a window equal to its own reversal.
FORWARD = "forward"
REVERSE = "reverse"
SYMMETRIC = "symmetric"

_COMPLEMENT = str.maketrans("01", "10")


class BitsError(ValueError):
    """Raised when input bits are empty or contain non-binary symbols."""


class NonMinimalPeriodError(BitsError):
    """Raised when a generating cycle repeats with a period shorter than its length."""


class WindowRangeError(IndexError):
    """Raised when a window does not fit inside a finite sequence."""


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition is violated."""


def as_bits(bits: Union[str, Iterable[int]]) -> str:
    """Normalise a bit string or iterable of 0/1 ints to a '0'/'1' string."""
    if isinstance(bits, str):
        s = bits
    else:
        try:
            s = "".join("01"[b] for b in bits)
        except (TypeError, IndexError):
            raise BitsError(f"bits must be 0/1 values, got {bits!r}") from None
    if not s:
        raise BitsError("empty sequences are not allowed")
    if s.strip("01"):
        raise BitsError(f"bits must contain only '0' and '1', got {s!r}")
    return s


class GeneratingCycle:
    """One period of a periodic binary sequence.

    The stored bits are required to be a minimal period: a cycle such as
    [0101] is rejected because it repeats [01].  Indexing wraps modulo the
    period.
    """

    __slots__ = ("_bits", "_weight")

    def __init__(self, bits: Union[str, Iterable[int]]):
        s = as_bits(bits)
        p = (s + s).find(s, 1)
        if p != len(s):
            raise NonMinimalPeriodError(
                f"[{s}] is not a minimal period (repeats every {p} bits)"
            )
        self._bits = s
        self._weight: Optional[int] = None

    @classmethod
    def _trusted(cls, bits: str, weight: Optional[int] = None) -> "GeneratingCycle":
        # Fast path for internal construction where minimality is already
        # guaranteed; skips validation, which dominates at 10^8-bit periods.
        # A weight the caller already knows saves recounting the bits.
        obj = object.__new__(cls)
        obj._bits = bits
        obj._weight = weight
        return obj

    @property
    def bits(self) -> str:
        return self._bits

    @property
    def period(self) -> int:
        return len(self._bits)

    @property
    def weight(self) -> int:
        """Number of ones in one period."""
        if self._weight is None:
            self._weight = self._bits.count("1")
        return self._weight

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i: int) -> int:
        return int(self._bits[i % len(self._bits)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GeneratingCycle) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(("cycle", self._bits))

    def __repr__(self) -> str:
        return f"[{self._bits}]"


class FiniteSeq:
    """A finite (aperiodic) binary sequence of length >= 1."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Union[str, Iterable[int]]):
        self._bits = as_bits(bits)

    @classmethod
    def _trusted(cls, bits: str) -> "FiniteSeq":
        # Fast path for bits the library produced itself; skips validation.
        obj = object.__new__(cls)
        obj._bits = bits
        return obj

    @property
    def bits(self) -> str:
        return self._bits

    @property
    def length(self) -> int:
        return len(self._bits)

    @property
    def weight(self) -> int:
        return self._bits.count("1")

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self._bits):
            raise WindowRangeError(f"index {i} out of range for length {len(self._bits)}")
        return int(self._bits[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteSeq) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(("finite", self._bits))

    def __repr__(self) -> str:
        return f"FiniteSeq({self._bits})"


Seq = Union[GeneratingCycle, FiniteSeq]


def cyclic_slice(c: GeneratingCycle, start: int, length: int) -> str:
    """Bits of the periodic extension of `c` from `start`, wrapping as needed."""
    m = c.period
    start %= m
    reps = (start + length + m - 1) // m
    return (c.bits * reps)[start : start + length]


def window(source: Seq, i: int, n: int) -> Window:
    """The n-bit window appearing at position i.

    For cycles the index wraps modulo the period and n may exceed it; for
    finite sequences the window must lie fully inside the sequence.
    """
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    if isinstance(source, GeneratingCycle):
        return cyclic_slice(source, i, n)
    if i < 0 or i + n > len(source):
        raise WindowRangeError(
            f"window [{i}, {i + n}) does not fit in a sequence of length {len(source)}"
        )
    return source.bits[i : i + n]


def window_bits(s: Seq, n: int) -> str:
    """The bits whose n-bit slices are the n-windows of s: a cycle's period
    extended cyclically by n-1 bits, or a finite sequence of at least n bits."""
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    if isinstance(s, GeneratingCycle):
        return cyclic_slice(s, 0, s.period + n - 1)
    if len(s) < n:
        raise WindowRangeError(f"sequence of length {len(s)} has no windows of order {n}")
    return s.bits


def window_values(bits: str, n: int) -> Sequence[int]:
    """Element p is int(bits[p:p+n], 2); no Python code runs per window.

    With X = int(bits, 2), (X >> r) & M, M the n-bit mask repeated every B = 32
    or 64 bits, holds the windows ending r, r+B, r+2B, ... bits from the right
    end in its B-bit lanes, copied out via to_bytes and a strided slice.  Orders
    above 64 fall back to a list."""
    total = max(len(bits) - n + 1, 0)
    if n > 64:
        return [int(bits[p : p + n], 2) for p in range(total)]
    width, code = (32, "I") if n <= 32 else (64, "Q")
    size, lanes = width // 8, -(-total // width)
    mask = int.from_bytes(((1 << n) - 1).to_bytes(size, "little") * lanes, "little")
    x = int(bits, 2)
    out = array(code, bytes(size * total))
    for r in range(min(width, total)):
        chunk = array(code, ((x >> r) & mask).to_bytes(size * lanes, "little"))
        if sys.byteorder == "big":
            chunk.byteswap()
        out[total - 1 - r :: -width] = chunk[: (total - 1 - r) // width + 1]
    return out


def first_in(values: Iterable[int], keys: Collection[int]) -> Optional[int]:
    """The first position p with values[p] in keys, or None; a C-speed scan."""
    return next(compress(count(), map(keys.__contains__, values)), None)


def reverse(w: Window) -> Window:
    return w[::-1]


def complement(w: Window) -> Window:
    return w.translate(_COMPLEMENT)


def conjugate(w: Window) -> Window:
    """Flip the first bit."""
    return ("1" if w[0] == "0" else "0") + w[1:]


def is_symmetric(w: Window) -> bool:
    return w == w[::-1]


def cyclic_positions(c: GeneratingCycle, t: Window) -> list[int]:
    """Positions i in 0..m-1 where the window of len(t) bits at i equals t."""
    m = c.period
    ext = cyclic_slice(c, 0, m + len(t) - 1)
    out = []
    pos = ext.find(t)
    while 0 <= pos < m:
        out.append(pos)
        pos = ext.find(t, pos + 1)
    return out


def cyclic_occurrences(c: GeneratingCycle, t: Window) -> int:
    """Number of cyclic occurrences of the word t in one period of c."""
    return len(cyclic_positions(c, t))


def least_rotation(s: str) -> str:
    """Lexicographically least rotation of s (two-pointer minimal-rotation scan)."""
    d = s + s
    k = 0
    i, j = 0, 1
    while j + k < len(d) and k < len(s):
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(i + k + 1, j)
        else:
            j = max(j + k + 1, i)
        if i == j:
            j += 1
        k = 0
    return d[i : i + len(s)]
