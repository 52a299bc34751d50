"""Binary sequence primitives: packed bits, windows as integers, reversal, weight.

A sequence is stored packed, as one int holding its bits first (leftmost) bit
most significant, plus its length; every layer works on that int with shifts,
masks and XORs, and the '0'/'1' string (`.bits`) is built only for I/O.  A
window is read as an integer too: one at a time by cyclic_value, or all at
once from window_bits, the packed bits whose n-bit slices are a sequence's
windows, which the verifier's kernel lays out as integers (a bytearray up to
order 8).  All types are immutable values; all operations are pure.
"""
from __future__ import annotations

import os
import reprlib
from contextlib import suppress
from typing import Callable, Iterator, Union

__all__ = [
    "BitsError",
    "NonMinimalPeriodError",
    "WindowRangeError",
    "PreconditionError",
    "FORWARD",
    "REVERSE",
    "SYMMETRIC",
    "GeneratingCycle",
    "FiniteSeq",
    "Seq",
    "as_bits",
    "window_bits",
    "cyclic_value",
    "least_period",
    "rotate_left",
    "reverse_value",
    "capped_size",
    "require_memory",
]

# Reading directions, shared by counterexample kinds and lookup results;
# SYMMETRIC marks a window equal to its own reversal.
FORWARD = "forward"
REVERSE = "reverse"
SYMMETRIC = "symmetric"

_CHUNK = 1 << 16  # characters as_bits checks at a time
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class BitsError(ValueError):
    """Raised when input bits are empty or contain non-binary symbols."""


class NonMinimalPeriodError(BitsError):
    """Raised when a generating cycle repeats with a period shorter than its length."""


class WindowRangeError(IndexError):
    """Raised when a window does not fit inside a finite sequence."""


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition is violated."""


def as_bits(bits: str) -> str:
    """bits, checked to be a non-empty string of '0' and '1' characters.

    The check runs at C speed on slices, copying none of the input whole, and
    an error quotes at most a few dozen characters of it, however long it is.
    """
    if not isinstance(bits, str):
        raise BitsError(f"bits must be a '0'/'1' string, got {reprlib.repr(bits)}")
    if not bits:
        raise BitsError("empty sequences are not allowed")
    if not bits.isascii() or any(bits[k : k + _CHUNK].encode("ascii").translate(None, b"01")
                                 for k in range(0, len(bits), _CHUNK)):
        i = len(bits) - len(bits.lstrip("01"))
        raise BitsError(f"bits must contain only '0' and '1': {len(bits)} characters,"
                        f" {bits[i]!r} at position {i}")
    return bits


class _Packed:
    """Validated bits packed into one integer, first bit most significant."""

    __slots__ = ("_value", "_len")

    def __init__(self, bits: str):
        self._value, self._len = int(as_bits(bits), 2), len(bits)

    @classmethod
    def _trusted(cls, value: int, length: int):
        # Fast path for bits the library produced itself; skips validation,
        # which dominates at 10^8-bit periods.
        obj = object.__new__(cls)
        obj._value, obj._len = value, length
        return obj

    @property
    def bits(self) -> str:
        """The bits as a '0'/'1' string, built anew on every call (for I/O)."""
        return format(self._value, f"0{self._len}b")

    @property
    def value(self) -> int:
        """The bits as one integer: bit i is (value >> (len - 1 - i)) & 1."""
        return self._value

    @property
    def weight(self) -> int:
        """Number of ones."""
        return self._value.bit_count()

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        """The bits of one period (a cycle) or of the whole sequence (a word)."""
        return map(int, self.bits)

    def __getitem__(self, i: int) -> int:
        """Bit i; cycles wrap modulo the period, finite sequences raise WindowRangeError."""
        if isinstance(self, FiniteSeq) and not 0 <= i < self._len:
            msg = f"window [{i}, {i + 1}) does not fit in a sequence of length {self._len}"
            raise WindowRangeError(msg)
        return (self._value >> (self._len - 1 - i % self._len)) & 1

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (self._len, self._value) == (other._len, other._value)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._len, self._value))


class GeneratingCycle(_Packed):
    """One period of a periodic binary sequence.

    The stored bits are required to be a minimal period: a cycle such as
    [0101] is rejected because it repeats [01].  Indexing wraps modulo the
    period.
    """

    __slots__ = ()

    def __init__(self, bits: str):
        super().__init__(bits)
        self._require_minimal()

    def _require_minimal(self) -> "GeneratingCycle":
        p = least_period(self._value, self._len)
        if p != self._len:  # a long cycle is named by its length, not echoed
            what = f"[{self.bits}]" if self._len <= 64 else f"a cycle of {self._len} bits"
            raise NonMinimalPeriodError(f"{what} is not a minimal period (repeats every {p} bits)")
        return self

    @property
    def period(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"[{self.bits}]"


class FiniteSeq(_Packed):
    """A finite (aperiodic) binary sequence of length >= 1."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"FiniteSeq({self.bits})"


Seq = Union[GeneratingCycle, FiniteSeq]


def rotate_left(x: int, m: int, k: int) -> int:
    """The m-bit value x rotated left by k places."""
    k %= m
    return ((x << k) | (x >> (m - k))) & ((1 << m) - 1)


def least_period(x: int, m: int) -> int:
    """Least p dividing m such that rotating the m-bit value x by p leaves it
    unchanged: one rotation test per prime factor of m when p == m."""
    p, rest, q = m, m, 2
    while rest > 1:
        if rest % q:
            q = q + 1 if q * q < rest else rest
            continue
        while rest % q == 0:
            rest //= q
        while p % q == 0 and rotate_left(x, m, p // q) == x:
            p //= q
    return p


def reverse_value(x: int, m: int, mask: int = 0) -> int:
    """The m-bit x reversed, XOR the byte mask repeated from its first bit: one table."""
    table = bytes(b ^ mask for b in _REVERSED_BYTES) if mask else _REVERSED_BYTES
    data = x.to_bytes(-(-m // 8), "little").translate(table)
    return int.from_bytes(data, "big") >> -m % 8


def cyclic_value(c: Seq, start: int, length: int) -> int:
    """Bits start..start+length-1 of c's periodic extension, in O(start % len(c) + length)."""
    x, m = c.value, len(c)
    start %= m
    take = min(length, m - start)
    out = x if take == m else (x >> (m - start - take)) & ((1 << take) - 1)
    length -= take
    periods, k = x, 1  # then whole periods from bit 0, doubled until k of them cover
    while k * m < length:  # the rest, the last one cut short
        periods, k = (periods << k * m) | periods, 2 * k
    return (out << length) | (periods >> (k * m - length))


def window_bits(s: Seq, n: int) -> tuple[int, int]:
    """(x, length): packed bits whose n-bit slices are the n-windows of s, a cycle's
    period extended cyclically by n-1 bits, or a finite sequence of >= n bits."""
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    if isinstance(s, GeneratingCycle):
        return cyclic_value(s, 0, s.period + n - 1), s.period + n - 1
    if len(s) < n:
        raise WindowRangeError(f"sequence of length {len(s)} has no windows of order {n}")
    return s.value, len(s)


# Peak bytes per bit of a built sequence, CLI output included.  Above the
# interpreter's own, the builders peak at 0.5-1.6, `construct --out` at 3.1-3.5
# and `construct --json` at 4.1-5.6 (orders 22-28, Python 3.11).
BYTES_PER_BIT = 8


# Needs of 2^SIZE_LIMIT bytes and up are refused, and sizes known to reach that many
# items are not computed: at order 10^11 the int 2^order alone would take 12.5 GB.
SIZE_LIMIT = 1000


def capped_size(log2: int, count: Callable[[], int]) -> int:
    """count(), a size known to be at least 2^log2; once log2 reaches SIZE_LIMIT,
    2^SIZE_LIMIT in its place without calling count, which require_memory refuses."""
    return count() if log2 < SIZE_LIMIT else 1 << SIZE_LIMIT


def require_memory(what: str, count: int, size: int = BYTES_PER_BIT) -> None:
    """Raise ValueError if count items of size bytes, for what, reach 2^SIZE_LIMIT
    bytes or exceed physical memory or a finite address-space soft limit (RLIMIT_AS),
    where the platform reports them."""
    need = count * size
    if need >= 1 << SIZE_LIMIT:
        raise ValueError(f"{what} need at least 2^{SIZE_LIMIT} bytes, more than any machine holds")
    limits = []
    with suppress(AttributeError, ValueError, OSError):
        phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        limits.append((phys, "of physical memory"))
    with suppress(ImportError):
        import resource  # Unix only
        if (soft := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
            limits.append((soft, "address-space limit"))
    have, name = min(limits, default=(need, ""))
    if need > have:
        raise ValueError(f"{what} need about {need / 2**30:,.1f} GiB,"
                         f" more than the {have / 2**30:,.1f} GiB {name}")
