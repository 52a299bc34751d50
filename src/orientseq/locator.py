"""Position and orientation lookup over an orientable sequence.

Once a sequence is orientable at order n, every n-bit window read off it in
either direction is unique, so a plain table maps any window a reader sees to
the position where it occurs and the direction of travel.  Building the index
refuses non-orientable sources.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .seqcore import FORWARD, REVERSE, GeneratingCycle, PreconditionError, Seq, Window
from .verifier import all_windows, require_orientable

__all__ = ["LocatorIndex", "build_index", "locate"]


@dataclass(frozen=True)
class LocatorIndex:
    """Complete window -> (position, orientation) table for one sequence.

    Periodic positions are modulo the period, anchored at the generating
    cycle's first bit; a reverse entry reports the position of the window
    whose reversal was looked up, in source coordinates.
    """

    order: int
    mode: str  # "periodic" | "aperiodic"
    source_size: int  # period or length of the indexed sequence
    entries: dict[Window, tuple[int, str]]

    def __len__(self) -> int:
        return len(self.entries)


def build_index(s: Seq, n: int) -> LocatorIndex:
    """Index every window of s, in both directions, at order n."""
    windows = all_windows(s, n)
    entries: dict[Window, tuple[int, str]] = {}
    for i, w in enumerate(windows):
        entries[w] = (i, FORWARD)
    for i, w in enumerate(windows):
        entries[w[::-1]] = (i, REVERSE)
    # 2N distinct keys iff s is orientable; the verifier only words the refusal.
    if len(entries) != 2 * len(windows):
        require_orientable(s, n, "source")
    if isinstance(s, GeneratingCycle):
        return LocatorIndex(n, "periodic", s.period, entries)
    return LocatorIndex(n, "aperiodic", len(s), entries)


def locate(idx: LocatorIndex, t: Window) -> Optional[tuple[int, str]]:
    """(position, orientation) of the window t, or None if absent."""
    if len(t) != idx.order:
        raise PreconditionError(
            f"window has {len(t)} bits but the index was built at order {idx.order}"
        )
    return idx.entries.get(t)
