"""Exhaustive branch-and-bound search for maximum orientable sequences.

Windows of order n trace walks on the shift graph over (n-1)-bit vertices;
an orientable cycle is a closed walk whose n-bit edges are distinct even
after reversal, and an aperiodic orientable sequence is the open-walk
analogue.  The searcher claims edges in reversal-closed orbits (symmetric
windows are never claimable), prunes branches that cannot beat the best
result found so far, stops a closed walk once both ways back to its start
are claimed, and stops early once the best result meets the known upper
bound for the order.

Budgets are node counts, not wall time, so outcomes are machine independent.
A budget-limited run reports the best sequence found with exhaustive=False;
its result can seed a later run as an initial lower bound.  A seed whose
size or bound is wrong, or whose witness is not orientable at the order,
raises ValueError.

The tables behind the search hold one reversal, one orbit id and one claimed
flag per n-bit window; an order whose tables would not fit in physical memory
raises ValueError up front.
"""
from __future__ import annotations

import reprlib
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from .aperiodic import burns_bound
from .periodic import dai_bound
from .seqcore import FiniteSeq, GeneratingCycle, capped_size, require_memory
from .verifier import require_orientable

__all__ = ["SearchResult", "max_orientable_period", "max_aos_length"]


@dataclass(frozen=True)
class SearchResult:
    value: int  # maximum period (cycles) or length (paths) found
    witness: Optional[str]
    exhaustive: bool
    nodes: int


# Table bytes per window: tracemalloc peaks at 47 at order 14 in both modes (an
# orbit id, its list slot, a reversal and a flag); 64 leaves headroom.
BYTES_PER_WINDOW = 64


def _orbit_table(n: int) -> tuple[array, list[int], bytearray]:
    """Reversals, orbit ids min(u, reverse(u)), and claimed flags set for symmetric ids."""
    rev = array("Q", [0])  # reversals of the k-bit windows, k = 0..n
    for _ in range(n):
        # Over k+1 bits, u < 2^k reverses to 2*rev[u] and u + 2^k to 2*rev[u] + 1.
        rev = array("Q", map((2).__mul__, rev))
        rev += array("Q", map((1).__or__, rev))
    windows = range(1 << n)
    orbit = [u if u < r else r for u, r in zip(windows, rev)]
    return rev, orbit, bytearray(map(int.__eq__, windows, rev))


def _branch_and_bound(
    n: int,
    closed: bool,
    upper_bound: Callable[[int], int],
    node_budget: Optional[int],
    initial_best: Optional[tuple[int, str]],
) -> SearchResult:
    """Depth-first search over walks on the shift graph, one root at a time.

    A closed walk starts with its anchor edge, the least orbit it uses, and
    counts each time it returns to the anchor's start vertex; anchors come in
    increasing order and each stays claimed for every later root.  An open
    walk starts at a vertex and counts at every edge.  Either way the first
    bit is 0 (complement symmetry), edges are tried bit 0 first, and each edge
    claims one orbit, so the most a walk from a root can reach is a constant
    `bound` checked against the best result at every node.

    A closed walk can only get home through home's two in-edges, the windows
    `home` and `home | 1 << (n-1)`.  Once both of their orbits are claimed no
    extension of the walk closes again, so the search backs up there as at a
    leaf; every cycle it would have counted is still counted.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    # One table entry per n-bit window; upper_bound(n), as large, waits for the guard.
    windows = capped_size(n, lambda: 1 << max(n, 0))
    require_memory(f"search tables at order {n}", windows, BYTES_PER_WINDOW)
    cap = upper_bound(n)
    vmask = (1 << (n - 1)) - 1
    rev, orbit, taken = _orbit_table(n)
    orbits = ((1 << n) - (1 << (n + 1) // 2)) // 2  # the non-symmetric ones
    if closed:
        anchors = (a for a in range(1 << (n - 1)) if rev[a] > a)
        roots = ((a & vmask, [a], orbits - k, "") for k, a in enumerate(anchors))
    else:
        prefixes = (format(v, f"0{n - 1}b") for v in range(1 << (n - 2)))
        roots = ((v, [], n - 1 + orbits, p) for v, p in enumerate(prefixes))
    base_len = 0 if closed else n - 1

    best_len, best_bits = 0, None
    if initial_best is not None:
        value, witness = initial_best
        seed = GeneratingCycle(witness) if closed else FiniteSeq(witness)
        if type(value) is not int or len(seed) != value or not base_len < value <= cap:
            raise ValueError(f"initial_best value {reprlib.repr(value)} is not its witness's size"
                             f" {len(seed)} in {base_len + 1}..{cap}, the bound at order {n}")
        # A witness that is not orientable at order n proves no lower bound.
        require_orientable(seed, n, "initial_best witness")
        best_len, best_bits = value, seed.bits
    nodes = 0
    for cur, walk, bound, prefix in roots:
        if best_len >= cap:
            break
        if closed:
            taken[walk[0]] = 1  # bars the anchor's orbit from later roots too
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SearchResult(best_len, best_bits, False, nodes)
        if bound <= best_len:
            continue
        home = walk[0] >> 1 if closed else None
        # The orbits of home's two in-edges, the only ways back to it.
        door0, door1 = (orbit[home], orbit[home | 1 << (n - 1)]) if closed else (0, 0)
        floor = len(walk)
        t = cur << 1  # the next edge to try
        while True:
            o = orbit[t]
            if not taken[o]:
                taken[o] = 1
                walk.append(t)
                cur = t & vmask
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return SearchResult(best_len, best_bits, False, nodes)
                length = base_len + len(walk)
                if length >= best_len and (home is None or cur == home):
                    bits = "".join("1" if e & 1 else "0" for e in walk)
                    if closed:  # rotate to the least window; edge k ends at bit k
                        k = (walk.index(min(walk)) - n + 1) % len(walk)
                        bits = bits[k:] + bits[:k]
                    cand = prefix + bits
                    if length > best_len or best_bits is None or cand < best_bits:
                        best_len, best_bits = length, cand
                if bound > best_len and not (closed and taken[door0] and taken[door1]):
                    t = cur << 1
                    continue
            elif not t & 1:
                t |= 1
                continue
            # Back up to the deepest edge whose bit-1 sibling is untried.
            while len(walk) > floor:
                t = walk.pop()
                taken[orbit[t]] = 0
                if not t & 1:
                    t |= 1
                    break
            else:
                break
    return SearchResult(best_len, best_bits, True, nodes)


def max_orientable_period(
    n: int,
    *,
    node_budget: Optional[int] = None,
    initial_best: Optional[tuple[int, str]] = None,
) -> SearchResult:
    """Maximum period of an orientable cycle of order n, with a witness.

    Each candidate cycle is anchored at the smallest edge orbit it uses, which
    enumerates every cycle once up to rotation; reversed traversals are
    skipped since the reversed cycle has the same period, and complemented
    ones by fixing the anchor's first bit to 0.
    """
    return _branch_and_bound(n, True, dai_bound, node_budget, initial_best)


def max_aos_length(
    n: int,
    *,
    node_budget: Optional[int] = None,
    initial_best: Optional[tuple[int, str]] = None,
) -> SearchResult:
    """Maximum length of an aperiodic orientable sequence of order n.

    Open walks are enumerated from every start vertex (each path has a unique
    one) whose first bit is 0, by complement symmetry.
    """
    return _branch_and_bound(n, False, burns_bound, node_budget, initial_best)
