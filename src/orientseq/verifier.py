"""Exhaustive window-property checks.

The n-window property, orientability, disjointness of pairs in one or both
reading directions, and primitivity, all checked exactly.  The builders check
their starters with these verifiers; the tests check the families built.

Each check reads the n-windows as integers (seqcore.window_values) straight
from the packed sequence, never as one string per window; the reverse reading
is the same kernel on the bit-reversed integer.  The windows go into one table:
a bytearray of 2^n marks where that costs at most _DENSE bytes per window,
which holds for every family member, else a set of the distinct values.  Both
are counted and probed at C speed, so a check needs O(N) memory for N windows,
and one that would not fit in physical memory raises ValueError first.  Only
when a check fails does a second, exact pass, on tables of the same kind, find
the lexicographically first offending position pair and its kind.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .seqcore import (
    FORWARD,
    REVERSE,
    SYMMETRIC,
    PreconditionError,
    Seq,
    first_in,
    require_memory,
    reverse_value,
    window_bits,
    window_values,
)

__all__ = [
    "Counterexample",
    "verify_nwindow",
    "verify_orientable",
    "verify_disjoint",
    "verify_o_disjoint",
    "verify_primitive",
    "require_orientable",
]

# Kinds in tie-break order: at equal (i, j), forward ranks before reverse.
_KINDS = (FORWARD, REVERSE, SYMMETRIC)


@dataclass(frozen=True)
class Counterexample:
    """A pair of positions whose windows violate the property being checked."""

    i: int
    j: int
    kind: str = FORWARD


# Bytes per window charged to a check, a bound on its peak (tracemalloc,
# verify_orientable).  With tables of marks: 13-23 on family members and one-bit
# mutants at orders 16-22.  With sets, from ~50,000 windows up: 64-106 on the same
# inputs, up to 129 at order 64 on random words of 40,000-325,000 bits; above 64 the
# windows are lists of ints, 4 bytes more per 30 bits in each reading, and the peaks
# are 141.5 + 8 * ceil(n / 30) at 65-1000.  Below ~50,000 windows a set grows 4x at a
# time and may pass the charge (184 at order 64 on a 20,000-bit word), at a few MB.
BYTES_PER_WINDOW = 144

# Most bytes per window that a table of 2^n marks may take; every family member
# has 2^n / N <= 7.2.
_DENSE = 8


def _values(s: Seq, n: int, reverse: bool = False) -> Sequence[int]:
    """The n-windows of s as integers by position, optionally each read backwards."""
    x, length = window_bits(s, n)
    size = BYTES_PER_WINDOW + (16 + 8 * -(-n // 30) if n > 64 else 0)
    require_memory(f"the windows at order {n}", length - n + 1, size)
    values = window_values(reverse_value(x, length) if reverse else x, length, n)
    if reverse:
        values.reverse()
    return values


def _table(values: Sequence[int], n: int, times: int = 1) -> tuple[Callable[[int], object], int]:
    """(has, count): has(v) is true iff v occurs in the n-bit values at least
    `times` times (1 or 2), and count is the number of such v.  A bytearray of 2^n
    marks where that is at most _DENSE bytes per value, else a set."""
    if 1 << n > _DENSE * len(values):
        keys = set(values) if times == 1 else {v for v, k in Counter(values).items() if k > 1}
        return keys.__contains__, len(keys)
    marks = bytearray(1 << n)
    if times == 1:
        for v in values:
            marks[v] = 1
    else:
        once = bytearray(1 << n)
        for v in values:
            marks[v] = once[v]
            once[v] = 1
    return marks.__getitem__, len(marks) - marks.count(0)


def _first_repeat(values: Sequence[int], n: int) -> tuple[int, int]:
    """(i, j): i is the first position whose value recurs (one must), j the next."""
    i = first_in(values, _table(values, n, 2)[0])
    return i, values.index(values[i], i + 1)


def verify_nwindow(s: Seq, n: int) -> Optional[Counterexample]:
    """None if all n-windows of s are distinct, else the first repeat."""
    values = _values(s, n)
    if _table(values, n)[1] == len(values):
        return None
    return Counterexample(*_first_repeat(values, n), FORWARD)


def verify_orientable(s: Seq, n: int) -> Optional[Counterexample]:
    """None if no n-window of s repeats in either reading direction.

    A reversed collision with i == j means the window is symmetric, which on
    its own already rules out orientability.
    """
    fwd = _values(s, n)
    rev = _values(s, n, reverse=True)
    seen, distinct = _table(fwd, n)
    unique = distinct == len(fwd)
    if unique and not any(map(seen, rev)):
        return None
    del seen
    found = [] if unique else [(*_first_repeat(fwd, n), 0)]
    i = first_in(fwd, _table(rev, n)[0])
    if i is not None:
        j = rev.index(fwd[i])
        found.append((i, j, 2 if i == j else 1))
    i, j, kind = min(found)
    return Counterexample(i, j, _KINDS[kind])


def _first_shared(reads: tuple, theirs: Sequence[int], n: int) -> Optional[Counterexample]:
    """Least (i, j, kind) with reads[kind][i] == theirs[j], or None."""
    has = _table(theirs, n)[0]
    hits = [i for i in (first_in(values, has) for values in reads) if i is not None]
    if not hits:
        return None
    i = min(hits)
    j, kind = min((theirs.index(v[i]), kind) for kind, v in enumerate(reads) if has(v[i]))
    return Counterexample(i, j, _KINDS[kind])


def verify_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window."""
    theirs = _values(t, n)
    return _first_shared((_values(s, n),), theirs, n)


def verify_o_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window in either reading direction."""
    theirs = _values(t, n)
    return _first_shared((_values(s, n), _values(s, n, reverse=True)), theirs, n)


def verify_primitive(s: Seq, n: int) -> Optional[Counterexample]:
    """None if s shares no n-window with its bitwise complement."""
    return verify_disjoint(s, type(s)._trusted(s.value ^ ((1 << len(s)) - 1), len(s)), n)


def require_orientable(s: Seq, n: int, what: str) -> None:
    """Raise PreconditionError naming the first collision unless s is orientable."""
    cx = verify_orientable(s, n)
    if cx is not None:
        raise PreconditionError(
            f"{what} is not orientable at order {n}: windows at "
            f"{cx.i} and {cx.j} collide ({cx.kind})"
        )
