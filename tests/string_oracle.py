"""String-layout reference implementations, kept as test oracles.

Five groups, all returning '0'/'1' strings:

* the window checks, conjugate-pair scan and index builder as they stood
  before window tests moved to integer window values: every window is cut
  into its own string and hashed in a Python loop;
* the construction steps (inverse maps, odd extension, merge step, join) as
  they stood before sequences were stored as packed integers, plus the
  recursions built from them;
* the branch-and-bound search as it stood before closed walks stopped once
  they could no longer get home: only the per-root bound prunes;
* one root's walk as it stood before closed and open walks got a loop each:
  one loop for both kinds, which compares every walk of the best length;
* the sequence-file parser as it stood before files were read straight into
  packed bits: it hands back the body as its '0'/'1' string.

They are slow and memory-hungry, which is why the library no longer uses
them, and independent of the packed layout and verifier._window_values, which
is why the tests compare against them.  The string helpers the tests use as
tools (all_windows, cyclic_slice, complement, conjugate) live here too, since
the library reads windows as integers.
"""
from __future__ import annotations

from typing import Optional

from orientseq.aperiodic import burns_bound
from orientseq.periodic import dai_bound
from orientseq.seqcore import (
    FORWARD,
    REVERSE,
    SYMMETRIC,
    BitsError,
    FiniteSeq,
    GeneratingCycle,
    NonMinimalPeriodError,
    PreconditionError,
    Seq,
    WindowRangeError,
    as_bits,
)
from orientseq.verifier import Counterexample

_KIND_RANK = {FORWARD: 0, REVERSE: 1, SYMMETRIC: 2}
_COMPLEMENT = str.maketrans("01", "10")


def complement(w: str) -> str:
    """Every bit flipped."""
    return w.translate(_COMPLEMENT)


def conjugate(w: str) -> str:
    """The first bit flipped."""
    return flip(w, 0)


def flip(w: str, p: int) -> str:
    """Bit p flipped."""
    return w[:p] + ("1" if w[p] == "0" else "0") + w[p + 1 :]


def cyclic_slice(bits: str, start: int, length: int) -> str:
    """Bits of the periodic extension of bits from start, wrapping as needed."""
    m = len(bits)
    start %= m
    reps = (start + length + m - 1) // m
    return (bits * reps)[start : start + length]


def _windows(bits: str, n: int, cyclic: bool) -> list[str]:
    if n < 1:
        raise WindowRangeError(f"window order must be >= 1, got {n}")
    if cyclic:
        ext = cyclic_slice(bits, 0, len(bits) + n - 1)
        return [ext[i : i + n] for i in range(len(bits))]
    if len(bits) < n:
        raise WindowRangeError(
            f"sequence of length {len(bits)} has no windows of order {n}"
        )
    return [bits[i : i + n] for i in range(len(bits) - n + 1)]


def all_windows(s: Seq, n: int) -> list[str]:
    return _windows(s.bits, n, isinstance(s, GeneratingCycle))


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


def _conjugate_positions(s: str, t: str, n: int) -> Optional[tuple[int, int]]:
    first_j: dict[str, int] = {}
    for j, w in enumerate(_windows(t, n, True)):
        first_j.setdefault(w, j)
    for i, w in enumerate(_windows(s, n, True)):
        j = first_j.get(conjugate(w))
        if j is not None:
            return (i, j)
    return None


def find_conjugate_positions(
    s: GeneratingCycle, t: GeneratingCycle, n: int
) -> Optional[tuple[int, int]]:
    return _conjugate_positions(s.bits, t.bits, n)


def build_index(s: Seq, n: int) -> dict[str, tuple[int, str]]:
    """Every window of s and its reversal -> (position, orientation)."""
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
    return entries


# Construction steps on bit strings.


def _prefix_xor(bits: str) -> int:
    """Integer whose bit at MSB position i is bits[0] ^ ... ^ bits[i]."""
    x = int(bits, 2)
    shift = 1
    n = len(bits)
    while shift < n:
        x ^= x >> shift
        shift <<= 1
    return x


def _integrate(bits: str, t0: int) -> str:
    """The word t of len(bits) bits with t[0] = t0 and t[i+1] = t[i] ^ bits[i]."""
    n = len(bits)
    t = _prefix_xor(bits) >> 1
    if t0:
        t ^= (1 << n) - 1
    return format(t, f"0{n}b")


def d_forward_periodic(b: str) -> str:
    """Adjacent XOR around the cycle b, reduced to its minimal period."""
    if len(b) == 1:
        return "0"
    raw = format(int(b, 2) ^ int(b[1:] + b[0], 2), f"0{len(b)}b")
    return raw[: (raw + raw).find(raw, 1)]


def d_inverse_periodic(b: str) -> tuple[str, ...]:
    """A complementary pair (even weight) or one doubled cycle (odd weight)."""
    if b.count("1") % 2 == 0:
        first = _integrate(b, 0)
        return first, complement(first)
    return (_integrate(b + b, int(b[0])),)


def d_inverse_aperiodic(b: str) -> tuple[str, str]:
    first = "0" + format(_prefix_xor(b), f"0{len(b)}b")
    return first, complement(first)


def cyclic_positions(bits: str, t: str) -> list[int]:
    m = len(bits)
    ext = cyclic_slice(bits, 0, m + len(t) - 1)
    out = []
    pos = ext.find(t)
    while 0 <= pos < m:
        out.append(pos)
        pos = ext.find(t, pos + 1)
    return out


def extend_odd(bits: str, n: int) -> tuple[str, Optional[int]]:
    """periodic.extend_odd, and where its 1 went: (output bits, insert position or None)."""
    if n < 5:
        raise ValueError(f"extension needs order >= 5, got {n}")
    positions = cyclic_positions(bits, "1" * (n - 4))
    if len(positions) != 1:
        raise PreconditionError(
            f"expected exactly one occurrence of 1^{n - 4}, found {len(positions)}"
        )
    if bits.count("1") % 2 == 1:
        return bits, None
    r = positions[0]
    out = bits[:r] + "1" + bits[r:]
    grown = "1" * (n - 3)
    replaced = [cyclic_slice(out, (r - 3 + k) % len(out), n) for k in range(4)]
    assert all(grown in w for w in replaced) and len(set(replaced)) == 4
    return out, r


def merge_step(b: str, n: int) -> str:
    if n < 2:
        raise ValueError(f"idealness needs order >= 2, got {n}")
    k = n - 1
    if not (len(b) >= 2 * k and b[:k] == "0" * k and b[-k:] == "1" * k):
        raise PreconditionError(f"input of length {len(b)} is not ideal at order {n}")
    t = d_inverse_aperiodic(b)[0]
    u = complement(t)[::-1]
    drop = n if n % 2 == 0 else n - 1
    return t + u[drop:]


def join_at(s: str, t: str, i: int, j: int, n: int) -> str:
    ell, m = len(s), len(t)
    i %= ell
    j %= m
    if cyclic_slice(s, i, n) != conjugate(cyclic_slice(t, j, n)):
        raise PreconditionError(
            f"windows at positions {i} and {j} are not conjugate at order {n}"
        )
    joined = cyclic_slice(s, i + n, ell) + cyclic_slice(t, j + n, m)
    k = (ell - i - n) % (ell + m)
    out = joined[k:] + joined[:k]
    p = (out + out).find(out, 1)
    if p != len(out):
        what = f"[{out}]" if len(out) <= 64 else f"a cycle of {len(out)} bits"
        raise NonMinimalPeriodError(f"{what} is not a minimal period (repeats every {p} bits)")
    return out


def build_orientable(bits: str, n0: int, n: int) -> str:
    """The periodic family from a good, odd-weight starter, unvalidated."""
    for k in range(n0, n):
        (doubled,) = d_inverse_periodic(bits)
        bits = extend_odd(doubled, k + 1)[0]
    return bits


def build_aos(n: int) -> str:
    bits = "01"
    for k in range(2, n):
        bits = merge_step(bits, k)
    return bits


def debruijn_lempel(n: int) -> str:
    c = "01"
    for k in range(1, n):
        inv = d_inverse_periodic(c)
        if len(inv) == 1:
            c = inv[0]
            continue
        i, j = _conjugate_positions(inv[0], inv[1], k + 1)
        c = join_at(inv[0], inv[1], i, j, k + 1)
    return c


def search(n: int, closed: bool, node_budget: Optional[int] = None):
    """(value, witness, exhaustive, nodes) of the unpruned branch-and-bound.

    Closed walks search for cycles (max_orientable_period), open ones for
    aperiodic sequences (max_aos_length).  The reversal and orbit tables are
    cut from strings; one loop walks both kinds, as the library's did before
    closed walks stopped once both orbits into their start vertex are claimed.
    """
    cap = (dai_bound if closed else burns_bound)(n)
    vmask = (1 << (n - 1)) - 1
    rev = [int(format(u, f"0{n}b")[::-1], 2) for u in range(1 << n)]
    orbit = [min(u, r) for u, r in enumerate(rev)]
    taken = bytearray(u == r for u, r in enumerate(rev))
    orbits = ((1 << n) - (1 << (n + 1) // 2)) // 2
    if closed:
        anchors = (a for a in range(1 << (n - 1)) if rev[a] > a)
        roots = ((a & vmask, [a], orbits - k, "") for k, a in enumerate(anchors))
    else:
        prefixes = (format(v, f"0{n - 1}b") for v in range(1 << (n - 2)))
        roots = ((v, [], n - 1 + orbits, p) for v, p in enumerate(prefixes))
    base_len = 0 if closed else n - 1
    best_len, best_bits, nodes = 0, None, 0
    for cur, walk, bound, prefix in roots:
        if best_len >= cap:
            break
        if closed:
            taken[walk[0]] = 1
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return best_len, best_bits, False, nodes
        if bound <= best_len:
            continue
        home = walk[0] >> 1 if closed else None
        floor = len(walk)
        t = cur << 1
        while True:
            o = orbit[t]
            if not taken[o]:
                taken[o] = 1
                walk.append(t)
                cur = t & vmask
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    return best_len, best_bits, False, nodes
                length = base_len + len(walk)
                if length >= best_len and (home is None or cur == home):
                    bits = "".join("1" if e & 1 else "0" for e in walk)
                    if closed:
                        k = (walk.index(min(walk)) - n + 1) % len(walk)
                        bits = bits[k:] + bits[:k]
                    cand = prefix + bits
                    if length > best_len or best_bits is None or cand < best_bits:
                        best_len, best_bits = length, cand
                if bound > best_len:
                    t = cur << 1
                    continue
            elif not t & 1:
                t |= 1
                continue
            while len(walk) > floor:
                t = walk.pop()
                taken[orbit[t]] = 0
                if not t & 1:
                    t |= 1
                    break
            else:
                break
    return best_len, best_bits, True, nodes


def walk(roots, k: int, limit: Optional[int] = None):
    """(nodes, best length, witness) of root k's walk on the tables of roots, a
    search._Roots, from best 0, or so far once its nodes pass limit.

    One loop for closed and open walks, testing the walk kind, the limit and
    the home vertex at every node and comparing every candidate whose length
    meets the best; the tables must be set up as for _Roots.walk.
    """
    n, closed, orbit, taken = roots.n, roots.closed, roots.orbit, roots.taken
    vmask = (1 << (n - 1)) - 1
    bound = roots.bound(k)
    if closed:
        a = roots.anchors[k]
        cur, walk, prefix, base_len, home = a & vmask, [a], "", 0, a >> 1
        door0, door1 = orbit[home], orbit[home | 1 << (n - 1)]
    else:
        cur, walk, prefix, base_len, home = k, [], format(k, f"0{n - 1}b"), n - 1, None
        door0 = door1 = 0
    best_len, best_bits, nodes = 0, None, 0
    floor = len(walk)
    t = cur << 1
    while True:
        o = orbit[t]
        if not taken[o]:
            taken[o] = 1
            walk.append(t)
            cur = t & vmask
            nodes += 1
            if limit is not None and nodes > limit:
                break
            length = base_len + len(walk)
            if length >= best_len and (home is None or cur == home):
                bits = "".join("1" if e & 1 else "0" for e in walk)
                if closed:
                    r = (walk.index(min(walk)) - n + 1) % len(walk)
                    bits = bits[r:] + bits[:r]
                cand = prefix + bits
                if length > best_len or best_bits is None or cand < best_bits:
                    best_len, best_bits = length, cand
            if bound > best_len and not (closed and taken[door0] and taken[door1]):
                t = cur << 1
                continue
        elif not t & 1:
            t |= 1
            continue
        while len(walk) > floor:
            t = walk.pop()
            taken[orbit[t]] = 0
            if not t & 1:
                t |= 1
                break
        else:
            break
    return nodes, best_len, best_bits


def parse_sequence(text: str) -> tuple[str, Optional[str], Optional[int]]:
    """(bits, mode, order) of a sequence file's text: its one line of bits, checked,
    and the lenient header's mode and order, each None where it is not given."""
    mode: Optional[str] = None
    order: Optional[int] = None
    bits_lines = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key == "mode" and value in ("periodic", "aperiodic"):
                    mode = value
                elif key == "order":
                    try:
                        order = int(value)
                    except ValueError:
                        pass
            continue
        bits_lines.append(line)
    if len(bits_lines) != 1:
        raise BitsError(f"expected exactly one line of bits, found {len(bits_lines)}")
    return as_bits(bits_lines[0]), mode, order
