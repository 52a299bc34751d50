"""Position and orientation lookup over an orientable sequence.

Once a sequence is orientable at order n, every n-bit window read off it in
either direction is unique, so any window a reader sees names the position
where it occurs and the direction of travel.  There are two ways to look up:

* many lookups: build_index tabulates all 2N windows once, then each locate
  is one dict probe; it refuses an index past physical memory up front;
* one lookup: find scans the sequence's window string with at most two
  str.find calls, forward and then reversed, and builds no table.

Both refuse non-orientable sources and give the same answers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .seqcore import FORWARD, REVERSE, PreconditionError, Seq, require_memory, window_bits
from .verifier import require_orientable

__all__ = ["LocatorIndex", "build_index", "locate", "find"]

# Index bytes per window besides its two n-byte keys: tracemalloc peaks at 306-325
# on family members at orders 16-20, and on order-16 members at orders up to 1,000.
BYTES_PER_WINDOW = 384


@dataclass(frozen=True)
class LocatorIndex:
    """Complete window -> (position, orientation) table for one sequence.

    Periodic positions are modulo the period, anchored at the generating
    cycle's first bit; a reverse entry reports the position of the window
    whose reversal was looked up, in source coordinates.
    """

    order: int
    entries: dict[str, tuple[int, str]]

    def __len__(self) -> int:
        return len(self.entries)


def build_index(s: Seq, n: int) -> LocatorIndex:
    """Index every window of s, in both directions, at order n; an index that
    would not fit in physical memory raises ValueError before any window is read."""
    require_memory(f"the index at order {n}", len(s), BYTES_PER_WINDOW + 2 * n)
    bits = _window_string(s, n)
    windows = [bits[i : i + n] for i in range(len(bits) - n + 1)]
    entries: dict[str, tuple[int, str]] = {}
    for i, w in enumerate(windows):
        entries[w] = (i, FORWARD)
    for i, w in enumerate(windows):
        entries[w[::-1]] = (i, REVERSE)
    # 2N distinct keys iff s is orientable; the verifier only words the refusal.
    if len(entries) != 2 * len(windows):
        require_orientable(s, n, "source")
    return LocatorIndex(n, entries)


def locate(idx: LocatorIndex, t: str) -> Optional[tuple[int, str]]:
    """(position, orientation) of the window t, or None if absent."""
    _require_order(t, idx.order)
    return idx.entries.get(t)


def find(s: Seq, n: int, t: str) -> Optional[tuple[int, str]]:
    """locate(build_index(s, n), t) without the table: one scan per direction."""
    require_orientable(s, n, "source")
    _require_order(t, n)
    # Every offset of the window string is a window start, so a hit is a position.
    bits = _window_string(s, n)
    for w, orientation in ((t, FORWARD), (t[::-1], REVERSE)):
        i = bits.find(w)
        if i >= 0:
            return i, orientation
    return None


def _window_string(s: Seq, n: int) -> str:
    """s's bits, a cycle's extended by n-1: its n-windows are the n-bit slices."""
    x, length = window_bits(s, n)
    return format(x, f"0{length}b")


def _require_order(t: str, n: int) -> None:
    if len(t) != n:
        raise PreconditionError(
            f"window has {len(t)} bits but the index was built at order {n}"
        )
