"""Exhaustive branch-and-bound search for maximum orientable sequences.

Windows of order n trace walks on the shift graph over (n-1)-bit vertices;
an orientable cycle is a closed walk whose n-bit edges are distinct even
after reversal, and an aperiodic orientable sequence is the open-walk
analogue.  The searcher claims edges in reversal-closed orbits (symmetric
windows are never claimable), skips roots that cannot beat the best result
found so far, stops a closed walk once both ways back to its start are
claimed, and stops early once the best result meets the known upper bound
for the order.

Budgets are node counts, not wall time, so outcomes are machine independent.
A budget-limited run reports the best sequence found with exhaustive=False;
its result can seed a later run as an initial lower bound.  A seed whose
size or bound is wrong, or whose witness is not orientable at the order,
raises ValueError.

The tables behind the search hold one reversal, one orbit id, one claimed flag,
one successor and one parity per n-bit window; an order whose tables would not
fit in physical memory raises ValueError up front, in each process that builds
them.

Each root (a cycle's anchor edge, a path's start vertex) is walked from a best
of 0, and the results are merged in root order: longer wins, else the
lexicographically least.  A root uses the incoming best in two places: to
decide whether it is skipped, which the merge applies, and to choose the
candidates compared, which the merge compares again; a walk reads no bound.
So each root visits the same nodes, and an exhaustive run on Linux, from a
caller running one OS thread that is allowed two or more CPUs, forks one helper
process that walks roots from the back while the caller walks them from the
front; none outlives the search, nor its caller.  No helper starts anywhere
else: budgeted runs, one-CPU hosts, threaded callers and other platforms walk
every root in the caller alone, with the same results.
"""
from __future__ import annotations

import os
import reprlib
import sys
from array import array
from itertools import compress
from typing import NamedTuple, Optional

from .aperiodic import burns_bound
from .periodic import dai_bound
from .seqcore import FiniteSeq, GeneratingCycle, capped_size, require_memory
from .verifier import require_orientable

__all__ = ["SearchResult", "max_orientable_period", "max_aos_length"]


class SearchResult(NamedTuple):
    value: int  # maximum period (cycles) or length (paths) found
    witness: Optional[str]
    exhaustive: bool
    nodes: int


# Table bytes per window (an orbit id, a reversal, a claimed flag, a successor, half a
# successor int and a parity): tracemalloc peaks, with a 1000-node budget, at
# 89.7/90.5/91.2 for closed walks and 86.0/87.4/88.1 for open ones at orders 14/16/18;
# 96 leaves headroom.
BYTES_PER_WINDOW = 96


def _orbit_table(n: int) -> tuple[array, list[int], list[bool]]:
    """Reversals, orbit ids min(u, reverse(u)), and claimed flags set for symmetric ids;
    the flags are a list, whose subscripts the interpreter specialises (a bytearray's
    it does not), since the search reads or writes one at every node."""
    rev = array("Q", [0])  # reversals of the k-bit windows, k = 0..n
    for _ in range(n):
        # Over k+1 bits, u < 2^k reverses to 2*rev[u] and u + 2^k to 2*rev[u] + 1.
        rev = array("Q", map((2).__mul__, rev))
        rev += array("Q", map((1).__or__, rev))
    windows = range(1 << n)
    orbit = [u if u < r else r for u, r in zip(windows, rev)]
    return rev, orbit, list(map(int.__eq__, windows, rev))


class _Roots:
    """The search tables at order n, charged to the memory guard in each process
    that builds them, and depth-first walks on the shift graph from root k.

    Closed root k is the k-th anchor edge, the least orbit a walk from it uses,
    and a walk counts each time it returns to the anchor's start vertex; every
    anchor before k stays claimed.  Open root k is the start vertex k, and a
    walk counts at every edge.  Either way the first bit is 0 (complement
    symmetry), edges are tried bit 0 first, and each edge claims one orbit, so
    the most a walk from a root can reach is a constant `bound` (for an open
    root, the Burns bound), which only picks the roots that are walked.

    Depth-first with bit 0 first visits a root's walks in lexicographic order
    of their bits, so the first walk of each length is the least of that
    length, and a walk builds its witness only when it beats the best length.
    Closed walks too: the last n-1 bits of one that counts spell home, the
    same for every walk from the root, and rotating its witness to start at
    the anchor only moves them to the front.

    A closed walk can only get home through home's two in-edges, the windows
    `home` and `home | 1 << (n-1)`.  Once both of their orbits are claimed no
    extension of the walk closes again, so the search backs up there as at a
    leaf; every cycle it would have counted is still counted.
    """

    def __init__(self, n: int, closed: bool):
        # One table entry per n-bit window; the bound, as large, waits for the guard.
        windows = capped_size(n, lambda: 1 << max(n, 0))
        require_memory(f"search tables at order {n}", windows, BYTES_PER_WINDOW)
        self.cap = (dai_bound if closed else burns_bound)(n)
        self.n, self.closed = n, closed
        rev, self.orbit, self.taken = _orbit_table(n)
        # An edge's bit-0 successor (t & vmask) << 1, and its last bit, as lists: the
        # interpreter specialises their subscripts but not these operators.
        self.succ, self.odd = list(range(0, 1 << n, 2)) * 2, [0, 1] * (1 << (n - 1))
        self.orbits = ((1 << n) - (1 << (n + 1) // 2)) // 2  # the non-symmetric ones
        half = range(1 << (n - 1))
        self.anchors = array("Q", compress(half, map(int.__lt__, half, rev)) if closed else ())
        self.count = len(self.anchors) if closed else 1 << (n - 2)

    def bound(self, k: int) -> int:
        return self.orbits - k if self.closed else self.cap  # open: cap = n - 1 + orbits

    def walk(self, k: int, limit: Optional[int] = None) -> tuple[int, int, Optional[str]]:
        """Nodes, best length and least witness of that length of root k's walk from
        best 0, or so far once its nodes pass limit, if one is given.  Closed root k
        needs the anchors up to its own claimed and the later ones free.  Each kind of
        walk has a loop of its own, which tests at a node only what that kind needs."""
        n, orbit, taken, succ, odd = self.n, self.orbit, self.taken, self.succ, self.odd
        # The node count to stop at: -1, never reached, rather than a limit of many
        # digits, so that the test compares small ints, which the interpreter specialises.
        stop = -1 if limit is None else limit + 1
        best_len, best_bits, nodes = 0, None, 0
        if self.closed:
            a = self.anchors[k]
            walk, depth, home = [a], 1, a >> 1
            # The orbits of home's two in-edges, the only ways back to it.
            door0, door1 = orbit[home], orbit[home | 1 << (n - 1)]
            t, back = succ[a], home << 1  # the next edge to try; an in-edge's successor
            while True:
                o = orbit[t]
                if not taken[o]:
                    taken[o] = 1
                    walk.append(t)
                    depth += 1
                    nodes += 1
                    if nodes == stop:
                        break
                    t = succ[t]
                    if t == back and depth > best_len:
                        # Start at the anchor, the least edge; edge i ends at bit i.
                        bits = "".join("1" if e & 1 else "0" for e in walk)
                        r = (1 - n) % depth
                        best_len, best_bits = depth, bits[r:] + bits[:r]
                    if not (taken[door0] and taken[door1]):
                        continue
                elif not odd[t]:
                    t += 1  # the bit-1 sibling, as t is even
                    continue
                # Back up to the deepest edge whose bit-1 sibling is untried.
                while depth > 1:
                    t = walk.pop()
                    depth -= 1
                    taken[orbit[t]] = 0
                    if not odd[t]:
                        t += 1
                        break
                else:
                    break
        else:
            walk, length = [], n - 1
            t = k << 1
            while True:
                o = orbit[t]
                if not taken[o]:
                    taken[o] = 1
                    walk.append(t)
                    length += 1
                    nodes += 1
                    if nodes == stop:
                        break
                    if length > best_len:
                        bits = "".join("1" if e & 1 else "0" for e in walk)
                        best_len, best_bits = length, format(k, f"0{n - 1}b") + bits
                    t = succ[t]
                    continue
                elif not odd[t]:
                    t += 1
                    continue
                while walk:
                    t = walk.pop()
                    length -= 1
                    taken[orbit[t]] = 0
                    if not odd[t]:
                        t += 1
                        break
                else:
                    break
        return nodes, best_len, best_bits


def _branch_and_bound(
    n: int,
    closed: bool,
    node_budget: Optional[int],
    initial_best: Optional[tuple[int, str]],
) -> SearchResult:
    """Walk the roots in order from best 0 (_Roots), merging their results; an
    exhaustive run that can fork on two or more CPUs has a _Helper walk roots from the back."""
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    roots = _Roots(n, closed)
    cap, base_len = roots.cap, 0 if closed else n - 1

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
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:  # forked on Linux from a caller running one OS thread, C threads included, as
        # CPython counts before it warns of fork; no helper starts anywhere else
        fork = (node_budget is None and min(cpus, roots.count) > 1 and sys.platform == "linux"
                and len(os.listdir("/proc/self/task")) == 1)
    except OSError:
        fork = False
    helper = _Helper(n, closed, roots.count) if fork else None
    budget = sys.maxsize if node_budget is None else node_budget
    nodes = 0
    try:
        for k in range(roots.count):
            if best_len >= cap:
                break
            if closed:
                roots.taken[roots.anchors[k]] = 1  # bars the anchor's orbit from later roots too
            nodes += 1
            if nodes > budget:
                return SearchResult(best_len, best_bits, False, nodes)
            if roots.bound(k) <= best_len:
                continue
            limit = None if node_budget is None else budget - nodes
            found, length, bits = helper and helper.take(k, best_len) or roots.walk(k, limit)
            nodes += found
            if bits is not None and (-length, bits) < (-best_len, best_bits):
                best_len, best_bits = length, bits
            if nodes > budget:
                return SearchResult(best_len, best_bits, False, nodes)
    finally:
        if helper is not None:
            helper.stop()
    return SearchResult(best_len, best_bits, True, nodes)


class _Helper:
    """The caller's end of the helper process.  Before each root it walks, the
    caller sends its index and best; before each root, the helper reads the
    caller's latest and announces the root if it lies past the caller's and is
    not to be skipped.  The caller waits only for announced roots; if both walk
    the root where they meet, the helper's copy is dropped."""

    def __init__(self, n: int, closed: bool, count: int):
        import multiprocessing  # paid only by runs that fork a helper
        from multiprocessing.util import register_after_fork

        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        # The helper drops its copy of the caller's end, to read EOF once the caller is gone.
        register_after_fork(self.conn, type(self.conn).close)
        self.process = context.Process(target=_helper, args=(child, n, closed), daemon=True)
        self.low, self.results = count, {}  # the last root announced; results by root
        try:
            self.process.start()
        except (OSError, AssertionError):  # no process to spare, or a daemonic caller
            self.process = None
            self.conn.close()
        finally:
            child.close()

    def take(self, k: int, best: int) -> Optional[tuple[int, int, Optional[str]]]:
        """The helper's walk of root k if it announced k, waited for if need be;
        else None, once the helper knows that the caller walks k itself and its best."""
        conn = self.conn
        try:
            while not conn.closed and (conn.poll() or k >= self.low and k not in self.results):
                message = conn.recv()
                if type(message) is int:
                    self.low = message
                else:
                    self.results[self.low] = message
            if not conn.closed and k < self.low:
                conn.send((k, best))
        except (EOFError, OSError):  # the helper is gone: the caller walks what it did not deliver
            self.stop()
        return self.results.pop(k, None)

    def stop(self) -> None:
        if self.process is not None:
            self.process.kill()  # the helper may have inherited a SIGTERM handler
            self.process.join()
            self.process.close()
            self.process = None
        self.conn.close()


def _helper(conn, n: int, closed: bool) -> None:
    """The helper process: walk roots from the back while they lie past the caller's."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the caller, which stops this
    caller = os.getppid()  # a caller killed mid-root cannot stop this: exit 0.5 s after it
    signal.signal(signal.SIGALRM, lambda *_: os.getppid() == caller or os._exit(0))
    signal.setitimer(signal.ITIMER_REAL, 0.5, 0.5)
    roots = _Roots(n, closed)
    if closed:
        for a in roots.anchors:
            roots.taken[a] = 1
    front, best = -1, 0
    try:
        for k in reversed(range(roots.count)):
            while conn.poll():
                front, best = conn.recv()
            if k <= front:
                break
            if roots.bound(k) > best:  # else the caller skips k too, as its best only grows
                conn.send(k)
                conn.send(roots.walk(k))
            if closed:
                roots.taken[roots.anchors[k]] = 0  # free for the roots before it
    except (EOFError, OSError):  # the caller is gone, killed before it could stop this
        pass


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
    return _branch_and_bound(n, True, node_budget, initial_best)


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
    return _branch_and_bound(n, False, node_budget, initial_best)
