"""Exhaustive window-property checks.

The n-window property, orientability, disjointness of pairs in one or both
reading directions, and primitivity, all checked exactly.  The builders check
their starters with these verifiers; the tests check the families built.

Each check reads the n-windows as integers (seqcore.window_values) straight
from the packed sequence, never as one string per window; the reverse reading
is the same kernel on the bit-reversed integer.  So a check needs O(N) memory
for N windows: a few bytes per window in an array, plus one set of the
distinct values, and one that would not fit in physical memory raises
ValueError first.  The property itself is a set test that runs at C speed.
Only when it fails does a second, exact pass find the lexicographically first
offending position pair and its kind.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

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


# Peak bytes per window of a check (tracemalloc, verify_orientable): 64-106 at orders
# 18-22 on family members and one-bit mutants, up to 129 at order 64 on random words of
# 40,000-325,000 bits; 144 leaves headroom.  Above 64 the windows are lists of ints, 4
# bytes more per 30 bits in each reading: peaks 141.5 + 8 * ceil(n / 30) at 65-1000.
BYTES_PER_WINDOW = 144


def _values(s: Seq, n: int, reverse: bool = False) -> Sequence[int]:
    """The n-windows of s as integers by position, optionally each read backwards."""
    x, length = window_bits(s, n)
    size = BYTES_PER_WINDOW + (16 + 8 * -(-n // 30) if n > 64 else 0)
    require_memory(f"the windows at order {n}", length - n + 1, size)
    values = window_values(reverse_value(x, length) if reverse else x, length, n)
    if reverse:
        values.reverse()
    return values


def _first_repeat(values: Sequence[int]) -> tuple[int, int]:
    """(i, j): i is the first position whose value recurs (one must), j the next."""
    i = first_in(values, {v for v, k in Counter(values).items() if k > 1})
    return i, values.index(values[i], i + 1)


def verify_nwindow(s: Seq, n: int) -> Optional[Counterexample]:
    """None if all n-windows of s are distinct, else the first repeat."""
    values = _values(s, n)
    if len(set(values)) == len(values):
        return None
    return Counterexample(*_first_repeat(values), FORWARD)


def verify_orientable(s: Seq, n: int) -> Optional[Counterexample]:
    """None if no n-window of s repeats in either reading direction.

    A reversed collision with i == j means the window is symmetric, which on
    its own already rules out orientability.
    """
    fwd = _values(s, n)
    rev = _values(s, n, reverse=True)
    seen = set(fwd)
    unique = len(seen) == len(fwd)
    if unique and seen.isdisjoint(rev):
        return None
    del seen
    found = [] if unique else [(*_first_repeat(fwd), 0)]
    i = first_in(fwd, set(rev))
    if i is not None:
        j = rev.index(fwd[i])
        found.append((i, j, 2 if i == j else 1))
    i, j, kind = min(found)
    return Counterexample(i, j, _KINDS[kind])


def _first_shared(reads: tuple, theirs: Sequence[int]) -> Optional[Counterexample]:
    """Least (i, j, kind) with reads[kind][i] == theirs[j], or None."""
    keys = set(theirs)
    hits = [i for i in (first_in(values, keys) for values in reads) if i is not None]
    if not hits:
        return None
    i = min(hits)
    j, kind = min((theirs.index(v[i]), kind) for kind, v in enumerate(reads) if v[i] in keys)
    return Counterexample(i, j, _KINDS[kind])


def verify_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window."""
    theirs = _values(t, n)
    return _first_shared((_values(s, n),), theirs)


def verify_o_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window in either reading direction."""
    theirs = _values(t, n)
    return _first_shared((_values(s, n), _values(s, n, reverse=True)), theirs)


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
