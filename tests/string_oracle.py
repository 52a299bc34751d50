"""String-keyed reference implementations of the window checks.

These are the verifier, conjugate-pair scan and index builder as they stood
before window tests moved to integer window values: every window is cut into
its own string and hashed in a Python loop.  They are slow and memory-hungry,
which is why the library no longer uses them, and independent of
seqcore.window_values, which is why the tests compare against them.
"""
from __future__ import annotations

from typing import Optional

from orientseq.locator import LocatorIndex
from orientseq.seqcore import (
    FORWARD,
    REVERSE,
    SYMMETRIC,
    FiniteSeq,
    GeneratingCycle,
    PreconditionError,
    Seq,
    WindowRangeError,
    complement,
    conjugate,
    cyclic_slice,
)
from orientseq.verifier import Counterexample

_KIND_RANK = {FORWARD: 0, REVERSE: 1, SYMMETRIC: 2}


def all_windows(s: Seq, n: int) -> list[str]:
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
    pair = _forward_collision(all_windows(s, n))
    if pair is None:
        return None
    return Counterexample(pair[0], pair[1], FORWARD)


def verify_orientable(s: Seq, n: int) -> Optional[Counterexample]:
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
    first_t = _first_positions(all_windows(t, n))
    for i, w in enumerate(all_windows(s, n)):
        j = first_t.get(w)
        if j is not None:
            return Counterexample(i, j, FORWARD)
    return None


def verify_o_disjoint(s: Seq, t: Seq, n: int) -> Optional[Counterexample]:
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
    comp: Seq
    if isinstance(s, GeneratingCycle):
        comp = GeneratingCycle(complement(s.bits))
    else:
        comp = FiniteSeq(complement(s.bits))
    return verify_disjoint(s, comp, n)


def find_conjugate_positions(
    s: GeneratingCycle, t: GeneratingCycle, n: int
) -> Optional[tuple[int, int]]:
    first_j: dict[str, int] = {}
    for j, w in enumerate(all_windows(t, n)):
        first_j.setdefault(w, j)
    for i, w in enumerate(all_windows(s, n)):
        j = first_j.get(conjugate(w))
        if j is not None:
            return (i, j)
    return None


def build_index(s: Seq, n: int) -> LocatorIndex:
    cx = verify_orientable(s, n)
    if cx is not None:
        raise PreconditionError(
            f"source is not orientable at order {n}: windows at "
            f"{cx.i} and {cx.j} collide ({cx.kind})"
        )
    windows = all_windows(s, n)
    entries: dict[str, tuple[int, str]] = {}
    for i, w in enumerate(windows):
        entries[w] = (i, FORWARD)
    for i, w in enumerate(windows):
        entries[w[::-1]] = (i, REVERSE)
    assert len(entries) == 2 * len(windows)
    if isinstance(s, GeneratingCycle):
        return LocatorIndex(n, "periodic", s.period, entries)
    return LocatorIndex(n, "aperiodic", len(s), entries)
