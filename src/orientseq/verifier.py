"""Exhaustive window-property checks.

The n-window property, orientability, disjointness of pairs in one or both
reading directions, and primitivity, all checked exactly.  The builders check
their starters with these verifiers; the tests check the families built.  This
is the one module that reads, tabulates and searches n-windows: the locator uses
read_windows, dense, window_count and window_finder, join only window_finder, and
the package re-exports none of them; first_collision serves this module's checks.

All five are one question, answered by first_collision: does an n-window of
one or two readings of s, forward and reversed, occur in the forward reading
of t (of s itself, for the single-sequence checks)?  Windows are integers laid
out straight from the packed bits by this module's kernel, _window_values (a
bytearray up to order 8; the reverse reading is the same kernel on the
bit-reversed integer).  Only the forward reading is tabulated, in 2^n marks
where that costs at most _DENSE bytes per window (every family member), else in
a set; the other readings are probed at C speed.  A check needs O(N) memory for
N windows, and one that would not fit in physical memory raises ValueError
before any window is read.  Only a failing check scans again, for the
lexicographically first offending pair and its kind.  verify_orientable_near is
the one place that chooses how s is proved orientable: equal to a known orientable
t, by that alone; near t, by first_collision over the few windows that can collide;
else window by window.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from itertools import compress, repeat
from operator import getitem
from typing import Callable, NamedTuple, Optional, Sequence

from .seqcore import FORWARD, REVERSE, SYMMETRIC, GeneratingCycle, PreconditionError, Seq
from .seqcore import cyclic_value, require_memory, reverse_value, window_bits

__all__ = [
    "Counterexample",
    "verify_nwindow",
    "verify_orientable",
    "verify_orientable_near",
    "verify_disjoint",
    "verify_o_disjoint",
    "verify_primitive",
    "require_orientable",
]

# Kinds in tie-break order: at equal (i, j), forward ranks before reverse.
_KINDS = (FORWARD, REVERSE, SYMMETRIC)


class Counterexample(NamedTuple):
    """A pair of positions whose windows violate the property being checked."""

    i: int
    j: int
    kind: str = FORWARD


# Bytes per window charged to a check whose table is a set, a bound on its peak
# (tracemalloc, verify_orientable) from ~50,000 windows up: 64-106 on family
# members and one-bit mutants at orders 16-22, up to 129 at order 64 on random words
# of 40,000-325,000 bits; above 64 the windows are lists of ints, 4 bytes more per 30
# bits in each reading, and the peaks are 141.5 + 8 * ceil(n / 30) at 65-1000.  Below
# ~50,000 windows a set grows 4x at a time and may pass the charge (184 at order 64 on
# a 20,000-bit word), at a few MB.  A table of 2^n marks is charged 32: two window
# arrays of 4 bytes (8 past order 32) and at most two tables of 2^n <= 8 N marks;
# family members and one-bit mutants peak at 13-23.
BYTES_PER_WINDOW = 144

# Most bytes per window that a table of 2^n marks may take; every family member
# has 2^n / N <= 7.2.
_DENSE = 8


def dense(n: int, count: int) -> bool:
    """Whether count n-bit windows go in 2^n marks (or slots); no order past 64 fits."""
    return 0 < n <= 64 and 1 << n <= _DENSE * count


def _window_values(x: int, length: int, n: int) -> Sequence[int]:
    """Element p is the n-bit slice at p of the `length`-bit value x; no Python
    code runs per window.  (x >> r) & M, M the n-bit mask repeated every B = 8,
    32 or 64 bits, holds the windows ending r, r+B, ... bits from the right end
    in its B-bit lanes, copied out via to_bytes and a strided slice.  Orders up
    to 8 come out as a bytearray, up to 64 as an array, and above 64 as a list."""
    total = max(length - n + 1, 0)
    if n > 64:
        b = format(x, f"0{length}b")
        return [int(b[p : p + n], 2) for p in range(total)]
    width, code = (8, "B") if n <= 8 else (32, "I") if n <= 32 else (64, "Q")
    size, lanes = width // 8, -(-total // width)
    mask = int.from_bytes(((1 << n) - 1).to_bytes(size, "little") * lanes, "little")
    # A bytearray takes the byte lanes' strided copies about 5x faster than an array does.
    out = bytearray(total) if size == 1 else array(code, bytes(size * total))
    for r in range(min(width, total)):
        chunk = array(code, ((x >> r) & mask).to_bytes(size * lanes, "little"))
        if sys.byteorder == "big":
            chunk.byteswap()
        out[total - 1 - r :: -width] = chunk[: (total - 1 - r) // width + 1]
    return out


def window_count(s: Seq, n: int) -> int:
    """The number of n-windows of s, below 1 if a finite s has none."""
    return len(s) if isinstance(s, GeneratingCycle) else len(s) - n + 1


def read_windows(s: Seq, n: int, reverse: bool = False) -> Sequence[int]:
    """The n-windows of s as integers by position, optionally each read backwards;
    the check is charged first, before a cycle is extended."""
    count = window_count(s, n)
    if n >= 1:  # below, window_bits raises WindowRangeError
        size = BYTES_PER_WINDOW + (16 + 8 * -(-n // 30) if n > 64 else 0)
        require_memory(f"the windows at order {n}", count, 32 if dense(n, count) else size)
    x, length = window_bits(s, n)
    values = _window_values(reverse_value(x, length) if reverse else x, length, n)
    if reverse:
        values.reverse()
    return values


def window_finder(s: Seq, n: int) -> Callable[[int], int]:
    """find(v): the first position of the n-bit value v among s's windows, or -1, by one
    bytes.find and no table: s's k-windows, k = min(n, 8), are one byte each, and the
    n bits at j equal v iff the n-k+1 bytes from j equal v's own k-windows.  They are
    charged first, 2 a window: family members peak at 1.5-1.7 at orders 16-24 and keep 1."""
    require_memory(f"the window bytes at order {n}", window_count(s, n), 2)
    k = min(n, 8)
    windows = _window_values(*window_bits(s, n), k)
    return lambda v: windows.find(_window_values(v, n, k))


def _table(values: Sequence[int], n: int, times: int = 1) -> tuple[Callable, int]:
    """(probe, count): probe(vs) yields, for each v in vs, whether v occurs in the n-bit
    values at least `times` times (1 or 2), and count is the number of such v."""
    if not dense(n, len(values)):
        keys = set(values) if times == 1 else {v for v, k in Counter(values).items() if k > 1}
        return lambda vs: map(keys.__contains__, vs), len(keys)
    marks = bytearray(1 << n)
    if times == 1:
        for v in values:
            marks[v] = 1
    else:
        once = bytearray(1 << n)
        for v in values:
            marks[v] = once[v]
            once[v] = 1
    # operator.getitem probes 30-45% faster than the bound marks.__getitem__ (orders 21-24).
    return lambda vs: map(getitem, repeat(marks), vs), len(marks) - marks.count(0)


def first_collision(reads: tuple, theirs: Sequence[int], n: int) -> Optional[Counterexample]:
    """The least (i, j, kind) with reads[kind][i] == theirs[j], or None.

    If reads[0] is theirs, s is checked against itself: a forward pair needs
    j != i (j is the next repeat), and a reverse pair with i == j is symmetric;
    rev[i] == fwd[j] iff fwd[i] == rev[j], so the reverse reading probes the
    table of the forward one.
    """
    probe, distinct = _table(theirs, n)
    itself = reads[0] is theirs
    found = []
    for kind in reversed(range(len(reads))):  # a self-check's forward reading last
        values, repeats = reads[kind], itself and not kind
        if not (distinct < len(theirs) if repeats else any(probe(values))):
            continue
        if repeats:
            del probe  # freed before the table of repeats is built
            probe = _table(theirs, n, 2)[0]
        i = next(compress(range(len(values)), probe(values)))  # a C-speed scan
        j = theirs.index(values[i], i + 1 if repeats else 0)
        found.append((i, j, 2 if itself and kind and i == j else kind))
    if not found:
        return None
    i, j, kind = min(found)
    return Counterexample(i, j, _KINDS[kind])


def verify_nwindow(s: Seq, n: int) -> Optional[Counterexample]:
    """None if all n-windows of s are distinct, else the first repeat."""
    fwd = read_windows(s, n)
    return first_collision((fwd,), fwd, n)


def verify_orientable(s: Seq, n: int) -> Optional[Counterexample]:
    """None if no n-window of s repeats in either reading direction; a window
    equal to its own reversal (i == j, symmetric) already rules it out."""
    fwd = read_windows(s, n)
    return first_collision((fwd, read_windows(s, n, reverse=True)), fwd, n)


# Most dirty windows verify_orientable_near checks; past it, the whole check runs.
_NEAR = 64


def verify_orientable_near(s: Seq, t: Optional[Seq], n: int) -> Optional[Counterexample]:
    """verify_orientable(s, n), given t None or orientable at order n, of s's type and length;
    s == t reads no window.

    A window holding no bit where s and t differ is t's, and t's windows are distinct
    and none the reversal of another, so every pair that collides has a dirty window.
    Any other window whose value is a dirty value or its reversal is dirty or t's one
    window with that value, found by one window_finder search in t.  So every window of
    every colliding pair is among these few, and first_collision over them, in position
    order, finds the whole check's least pair."""
    if t is None or n < 1 or window_count(s, n) < 1:  # the whole check refuses these
        return verify_orientable(s, n)
    if type(t) is not type(s) or len(t) != len(s):
        raise PreconditionError(f"cannot check a {type(s).__name__} of length {len(s)} near a "
                                f"{type(t).__name__} of length {len(t)}")
    if s == t:
        return None
    diff, length, cyclic = s.value ^ t.value, len(s), isinstance(s, GeneratingCycle)
    dirty = {}  # position -> value; each differing bit dirties a window of its own
    while diff and len(dirty) <= _NEAR and diff.bit_count() <= _NEAR:
        b = length - diff.bit_length()  # the first differing bit; it dirties b-n+1..b
        diff ^= 1 << (length - 1 - b)
        lo, hi = (b - n + 1, b) if cyclic else (max(b - n + 1, 0), min(b, length - n))
        span = hi - lo + n  # a word's span never wraps
        for p, v in enumerate(_window_values(cyclic_value(s, lo, span), span, n), lo):
            dirty[p % length] = v
    if diff or len(dirty) > _NEAR:
        return verify_orientable(s, n)
    find, values = window_finder(t, n), set(dirty.values())
    clean = {q: v for v in values | {reverse_value(v, n) for v in values}
             if (q := find(v)) >= 0 and q not in dirty}
    positions, fwd = zip(*sorted({**dirty, **clean}.items()))
    cx = first_collision((fwd, [reverse_value(v, n) for v in fwd]), fwd, n)
    return None if cx is None else Counterexample(positions[cx.i], positions[cx.j], cx.kind)


def verify_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window."""
    theirs = read_windows(t, n)
    return first_collision((read_windows(s, n),), theirs, n)


def verify_o_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window in either reading direction."""
    theirs = read_windows(t, n)
    return first_collision((read_windows(s, n), read_windows(s, n, reverse=True)), theirs, n)


def verify_primitive(s: Seq, n: int) -> Optional[Counterexample]:
    """None if s shares no n-window with its bitwise complement."""
    return verify_disjoint(s, type(s)._trusted(s.value ^ ((1 << len(s)) - 1), len(s)), n)


def require_orientable(s: Seq, n: int, what: str, near: Optional[Seq] = None) -> None:
    """Raise PreconditionError naming the first collision unless s is orientable, as
    verify_orientable_near(s, near, n) finds it: near, if given, is orientable at order n."""
    cx = verify_orientable_near(s, near, n)
    if cx is not None:
        raise PreconditionError(
            f"{what} is not orientable at order {n}: windows at "
            f"{cx.i} and {cx.j} collide ({cx.kind})"
        )
