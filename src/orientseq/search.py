"""Exhaustive branch-and-bound search for maximum orientable sequences.

Windows of order n trace walks on the shift graph over (n-1)-bit vertices;
an orientable cycle is a closed walk whose n-bit edges are distinct even
after reversal, and an aperiodic orientable sequence is the open-walk
analogue.  The searcher claims edges in reversal-closed orbits (symmetric
windows are never claimable), prunes branches that cannot beat the best
result found so far, and stops early once the best result meets the known
upper bound for the order.

Budgets are node counts, not wall time, so outcomes are machine independent.
A budget-limited run reports the best sequence found with exhaustive=False;
its result can seed a later run as an initial lower bound.  A seed whose
size or bound is wrong, or whose witness is not orientable at the order,
raises ValueError.

The tables behind the search hold one entry per n-bit window and one orbit
bitmask of up to 2^n bits per window, about 4^n / 20 bytes in all; an order
whose tables would not fit in physical memory raises ValueError up front.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Optional

from .aperiodic import burns_bound
from .periodic import dai_bound
from .seqcore import FiniteSeq, GeneratingCycle, least_rotation, reverse_value
from .verifier import require_orientable

__all__ = ["SearchResult", "max_orientable_period", "max_aos_length"]


@dataclass(frozen=True)
class SearchResult:
    value: int  # maximum period (cycles) or length (paths) found
    witness: Optional[str]
    exhaustive: bool
    nodes: int

    def as_dict(self) -> dict:
        return asdict(self)


def _require_tables_fit(n: int) -> None:
    """Raise ValueError if the order-n tables would not fit in physical memory.

    Per window: a list slot and an int in each of two tables (~64 bytes), plus
    the orbit's bitmask of min(u, reverse(u)) bits, ~2^n / 3 bits on average.
    """
    need = (1 << n) * 64 + (1 << 2 * n) // 20
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the platform does not report its memory
    if need > have:
        raise ValueError(
            f"search tables at order {n} need about {need / 2**30:,.1f} GiB,"
            f" more than the {have / 2**30:,.1f} GiB of physical memory"
        )


def _orbit_table(n: int) -> list[Optional[int]]:
    """orbit[u] is the id of {u, reverse(u)}, or None when u is symmetric."""
    size = 1 << n
    table: list[Optional[int]] = [None] * size
    for u in range(size):
        r = reverse_value(u, n)
        table[u] = None if r == u else min(u, r)
    return table


def _branch_and_bound(
    n: int,
    closed: bool,
    cap: int,
    node_budget: Optional[int],
    initial_best: Optional[tuple[int, str]],
) -> SearchResult:
    """Depth-first search over walks on the shift graph, one root at a time.

    A closed walk starts with its anchor edge, the least orbit it uses, and
    counts each time it returns to the anchor's start vertex; every orbit up
    to the anchor's is barred.  An open walk starts at a vertex and counts at
    every edge.  Either way the first bit is 0 (complement symmetry), edges are
    tried bit 0 first, and each edge claims one orbit, so the most a walk
    from a root can reach is a constant `bound` checked against the best
    result at every node.
    """
    _require_tables_fit(n)
    vmask = (1 << (n - 1)) - 1
    orbit = _orbit_table(n)
    ids = sorted({o for o in orbit if o is not None})
    claim = [0 if o is None else 1 << o for o in orbit]
    if closed:
        roots = [
            (a & vmask, [a], (2 << a) - 1, len(ids) - k, "")
            for k, a in enumerate(ids)
            if a < 1 << (n - 1)
        ]
    else:
        roots = [
            (v, [], 0, n - 1 + len(ids), format(v, f"0{n - 1}b"))
            for v in range(1 << (n - 2))
        ]
    base_len = 0 if closed else n - 1

    best_len, best_bits = 0, None
    if initial_best is not None:
        value, witness = initial_best
        seed = GeneratingCycle(witness) if closed else FiniteSeq(witness)
        if len(seed) != value or not base_len < value <= cap:
            raise ValueError(f"initial_best value {value!r} is not its witness's size"
                             f" {len(seed)} in {base_len + 1}..{cap}, the bound at order {n}")
        # A witness that is not orientable at order n proves no lower bound.
        require_orientable(seed, n, "initial_best witness")
        best_len, best_bits = value, seed.bits
    nodes = 0
    for cur, walk, used, bound, prefix in roots:
        if best_len >= cap:
            break
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SearchResult(best_len, best_bits, False, nodes)
        if bound <= best_len:
            continue
        home = walk[0] >> 1 if closed else None
        floor = len(walk)
        t = cur << 1  # the next edge to try
        while True:
            o = claim[t]
            if o and not used & o:
                used |= o
                walk.append(t)
                cur = t & vmask
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return SearchResult(best_len, best_bits, False, nodes)
                length = base_len + len(walk)
                if length >= best_len and (home is None or cur == home):
                    bits = "".join("1" if e & 1 else "0" for e in walk)
                    cand = least_rotation(bits) if closed else prefix + bits
                    if length > best_len or best_bits is None or cand < best_bits:
                        best_len, best_bits = length, cand
                if bound > best_len:
                    t = cur << 1
                    continue
            elif not t & 1:
                t |= 1
                continue
            # Back up to the deepest edge whose bit-1 sibling is untried.
            while len(walk) > floor:
                t = walk.pop()
                used ^= claim[t]
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
    if n < 5:
        raise ValueError(f"no periodic orientable sequence exists for order {n} < 5")
    return _branch_and_bound(n, True, dai_bound(n), node_budget, initial_best)


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
    if n < 2:
        raise ValueError(f"aperiodic search needs order >= 2, got {n}")
    return _branch_and_bound(n, False, burns_bound(n), node_budget, initial_best)
