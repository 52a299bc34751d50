"""Position and orientation lookup over an orientable sequence.

Once a sequence is orientable at order n, every n-bit window read off it in
either direction is unique, so any window a reader sees names the position
where it occurs and the direction of travel.  There are two ways to look up:

* many lookups: build_index tabulates all 2N windows once, keyed by their
  integer values, and each locate is one int() parse and one table read; it
  refuses an index past physical memory up front;
* one lookup: find looks the query up, forward and then reversed, with the
  verifier's window_finder, one bytes.find each, and builds no table; a source
  equal to or near a known orientable one is proved from it (require_orientable).

Both refuse non-orientable sources and read queries alike, so they agree: a
query is a '0'/'1' string, and anything else of the right length is absent.
"""
from __future__ import annotations

import sys
from array import array
from collections import deque
from itertools import repeat
from operator import setitem
from typing import Optional, Union

from .seqcore import FORWARD, REVERSE, PreconditionError, Seq, require_memory
from .verifier import dense, read_windows, require_orientable, window_count, window_finder

__all__ = ["LocatorIndex", "build_index", "locate", "find"]

# Bytes per window charged to an index in a dict, a bound on its peak (tracemalloc):
# 177-298 on family members and random words of 100-450,000 bits at orders 30-1000,
# plus 8 * ceil(n / 30) at every order.  An array of 2^n <= 8N slots is charged 12 slot
# widths (the slots, two window arrays); family members peak at 36 and 20.5 (aperiodic).
BYTES_PER_WINDOW = 320
# Slots are counted this many at a time: the count peaks at 21 KiB in 'i', 37 KiB in 'q'.
COUNT_CHUNK = 1 << 12
# Slots hold -(2N-1)..2N-1: in 'i' below this many windows in both directions, else in 'q'.
I_SLOTS_BELOW = 1 << 31


class LocatorIndex:
    """Complete window -> (position, orientation) table for one sequence.

    table maps the value of the forward window at i to 2i + 1 and of its reversal
    to -(2i + 1), in an array of 2^n slots (0: no window) where that is dense, as
    for every family member, else in a dict.  Periodic positions are modulo the
    period, anchored at the generating cycle's first bit; a reverse entry reports
    the position of the window whose reversal was looked up.  len() is 2N.
    """

    __slots__ = ("order", "table", "count")  # locate reads slots faster than tuple fields

    def __init__(self, order: int, table: Union[array, dict[int, int]], count: int) -> None:
        self.order, self.table, self.count = order, table, count

    def __len__(self) -> int:
        return self.count


def build_index(s: Seq, n: int) -> LocatorIndex:
    """Index every window of s, in both directions, at order n; an index that
    would not fit in physical memory raises ValueError before any window is read."""
    count = window_count(s, n)
    in_array, code = dense(n, count), "i" if 2 * count < I_SLOTS_BELOW else "q"
    size = 12 * array(code).itemsize if in_array else BYTES_PER_WINDOW + 8 * -(-n // 30)
    require_memory(f"the index at order {n}", count, size)
    fwd, rev = read_windows(s, n), read_windows(s, n, reverse=True)
    slots, back = range(1, 2 * len(fwd), 2), range(-1, -2 * len(fwd), -2)
    if in_array:
        table = array(code, [0]) * (1 << n)
        # Scatter at C speed: deque consumes the map without keeping its Nones; a memoryview
        # packs each int directly, where a signed array parses a format string per store.
        with memoryview(table) as view:
            deque(map(setitem, repeat(view), fwd, slots), maxlen=0)
            deque(map(setitem, repeat(view), rev, back), maxlen=0)
        filled = _filled(table)
    else:
        table = dict(zip(fwd, slots))
        table.update(zip(rev, back))
        filled = len(table)
    # 2N distinct values iff s is orientable; the verifier only words the refusal.
    if filled != 2 * len(fwd):
        require_orientable(s, n, "source")
    return LocatorIndex(n, table, filled)


def _filled(table: array, byteorder: str = sys.byteorder) -> int:
    """How many slots are filled: each is 0 or odd, so filled iff its low byte is not 0."""
    width, low = table.itemsize, (table.itemsize - 1) * (byteorder == "big")
    with memoryview(table) as view:  # a chunk's bytes at a time, each read at C speed
        return len(table) - sum(view[k : k + COUNT_CHUNK].tobytes()[low::width].count(0)
                                for k in range(0, len(table), COUNT_CHUNK))


def locate(idx: LocatorIndex, t: str) -> Optional[tuple[int, str]]:
    """(position, orientation) of the window t, or None if absent."""
    if not _well_formed(t, idx.order):
        return None
    try:
        k = idx.table[int(t, 2)]
    except (KeyError, ValueError):  # absent from a dict, or a digit 2-9
        return None
    return (k >> 1, FORWARD) if k > 0 else (-k >> 1, REVERSE) if k else None


def find(s: Seq, n: int, t: str, *, near: Optional[Seq] = None) -> Optional[tuple[int, str]]:
    """locate(build_index(s, n), t) without the table: one search per direction, once
    require_orientable(s, n, "source", near) has passed; near, if given, is orientable."""
    require_orientable(s, n, "source", near)
    if not _well_formed(t, n) or t.strip("01"):  # a digit 2-9 is no hit either
        return None
    find_window = window_finder(s, n)
    for v, orientation in ((int(t, 2), FORWARD), (int(t[::-1], 2), REVERSE)):
        i = find_window(v)
        if i >= 0:
            return i, orientation
    return None


def _well_formed(t: str, n: int) -> bool:
    """Whether the query t is a string of ASCII digits, which int(t, 2) reads as written
    or refuses; a query whose length is not the order n raises PreconditionError."""
    if len(t) != n:
        raise PreconditionError(f"window has {len(t)} bits but the index was built at order {n}")
    # int() would also read '0b', '_', spaces, a sign and non-ASCII digits.
    return isinstance(t, str) and t.isascii() and t.isdigit()
