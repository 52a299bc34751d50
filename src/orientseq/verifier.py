"""Exhaustive window-property oracles.

Every construction in this package is checked against these brute-force
verifiers: the n-window property, orientability, disjointness of pairs in one
or both reading directions, and primitivity.  Verification is always exact; a
failure is reported as the lexicographically first offending position pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .seqcore import (
    FORWARD,
    REVERSE,
    SYMMETRIC,
    FiniteSeq,
    GeneratingCycle,
    Seq,
    WindowRangeError,
    complement,
    cyclic_slice,
)

__all__ = [
    "Counterexample",
    "all_windows",
    "verify_nwindow",
    "verify_orientable",
    "verify_disjoint",
    "verify_o_disjoint",
    "verify_primitive",
]

_KIND_RANK = {FORWARD: 0, REVERSE: 1, SYMMETRIC: 2}


@dataclass(frozen=True)
class Counterexample:
    """A pair of positions whose windows violate the property being checked."""

    i: int
    j: int
    kind: str = FORWARD

    def as_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "kind": self.kind}


def all_windows(s: Seq, n: int) -> list[str]:
    """Every n-bit window of s: m cyclic windows, or l-n+1 aperiodic ones."""
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    if isinstance(s, GeneratingCycle):
        m = s.period
        ext = cyclic_slice(s, 0, m + n - 1)
        return [ext[i : i + n] for i in range(m)]
    if len(s) < n:
        raise WindowRangeError(
            f"sequence of length {len(s)} has no windows of order {n}"
        )
    b = s.bits
    return [b[i : i + n] for i in range(len(b) - n + 1)]


def _first_positions(windows: list[str]) -> dict[str, int]:
    first: dict[str, int] = {}
    for j, w in enumerate(windows):
        first.setdefault(w, j)
    return first


def _forward_collision(windows: list[str]) -> Optional[tuple[int, int]]:
    first: dict[str, int] = {}
    best: Optional[tuple[int, int]] = None
    for j, w in enumerate(windows):
        i = first.setdefault(w, j)
        if i != j:
            pair = (i, j)
            if best is None or pair < best:
                best = pair
    return best


def verify_nwindow(s: Seq, n: int) -> Optional[Counterexample]:
    """None if all n-windows of s are distinct, else the first repeat."""
    pair = _forward_collision(all_windows(s, n))
    if pair is None:
        return None
    return Counterexample(pair[0], pair[1], FORWARD)


def verify_orientable(s: Seq, n: int) -> Optional[Counterexample]:
    """None if no n-window of s repeats in either reading direction.

    A reversed collision with i == j means the window is symmetric, which on
    its own already rules out orientability.
    """
    windows = all_windows(s, n)
    best: Optional[tuple[int, int, int]] = None
    pair = _forward_collision(windows)
    if pair is not None:
        best = (pair[0], pair[1], _KIND_RANK[FORWARD])
    first = _first_positions(windows)
    for j, w in enumerate(windows):
        i = first.get(w[::-1])
        if i is None:
            continue
        kind = SYMMETRIC if i == j else REVERSE
        cand = (i, j, _KIND_RANK[kind])
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    kind = [FORWARD, REVERSE, SYMMETRIC][best[2]]
    return Counterexample(best[0], best[1], kind)


def verify_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window."""
    first_t = _first_positions(all_windows(t, n))
    for i, w in enumerate(all_windows(s, n)):
        j = first_t.get(w)
        if j is not None:
            return Counterexample(i, j, FORWARD)
    return None


def verify_o_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
    """None if s and t share no n-window in either reading direction."""
    first_t = _first_positions(all_windows(t, n))
    best: Optional[tuple[int, int, int]] = None
    for i, w in enumerate(all_windows(s, n)):
        for key, kind in ((w, FORWARD), (w[::-1], REVERSE)):
            j = first_t.get(key)
            if j is not None:
                cand = (i, j, _KIND_RANK[kind])
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return Counterexample(best[0], best[1], [FORWARD, REVERSE, SYMMETRIC][best[2]])


def verify_primitive(s: Seq, n: int) -> Optional[Counterexample]:
    """None if s shares no n-window with its bitwise complement."""
    comp: Seq
    if isinstance(s, GeneratingCycle):
        comp = GeneratingCycle(complement(s.bits))
    else:
        comp = FiniteSeq(complement(s.bits))
    return verify_disjoint(s, comp, n)
