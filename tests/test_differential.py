"""The packed layout and integer-window checks against the string oracle.

Every verify_* and build_index must return exactly what tests/string_oracle.py
returns: the same Counterexample (i, j and kind), the same index, or an
exception of the same type and message.
The one-shot locator.find must answer as a lookup in build_index's table does.
Window orders run past 64, where the verifier's _window_values falls back to a
list, and past the period, where cyclic windows wrap more than once.

The construction steps on packed integers (inverse maps, odd extension, merge
step) must give the same bits, or the same exception, as the string-layout
steps they replaced, and the recursions built from them, the de Bruijn join's
included, must give bit-identical family members.
"""
from __future__ import annotations

import functools
import hashlib
import random
import tracemalloc
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import string_oracle as oracle
from string_oracle import flip
from orientseq import join, lempel, locator, verifier
from orientseq.aperiodic import build_aos, is_ideal, merge_step
from orientseq.periodic import DEFAULT_STARTER, TraceStep, build_orientable, extend_odd
from orientseq.seqcore import (
    FORWARD,
    REVERSE,
    FiniteSeq,
    GeneratingCycle,
    NonMinimalPeriodError,
    WindowRangeError,
    reverse_value,
    rotate_left,
    window_bits,
)
from orientseq.verifier import _window_values

from conftest import cycles

SINGLE = ("verify_nwindow", "verify_orientable", "verify_primitive")
PAIR = ("verify_disjoint", "verify_o_disjoint")

orders = st.integers(1, 70)
pieces = st.text(alphabet="01", max_size=50)
# Repeated and mirrored pieces make collisions likely at large orders too.
bit_strings = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=100),
    st.builds(lambda a, b: a + b + a, pieces, pieces),
    st.builds(lambda a, b: a + b + a[::-1], pieces, pieces),
).filter(bool)
words = st.builds(FiniteSeq, bit_strings)
sequences = st.one_of(cycles(max_size=100), words)


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (WindowRangeError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(name, *args):
    assert outcome(getattr(verifier, name), *args) == outcome(getattr(oracle, name), *args)


def as_cycle(bits):
    """The generating cycle of the periodic sequence with period bits."""
    return GeneratingCycle(bits[: (bits + bits).find(bits, 1)])


@functools.lru_cache(maxsize=None)
def family(kind, n):
    if kind == "periodic":
        return build_orientable(DEFAULT_STARTER, 6, n)[0]
    return build_aos(n)[0]


class TestVerifiers:
    @given(sequences, orders)
    def test_single_checks(self, s, n):
        for name in SINGLE:
            assert_matches_oracle(name, s, n)

    @given(sequences, sequences, orders)
    def test_pair_checks(self, s, t, n):
        for name in PAIR:
            assert_matches_oracle(name, s, t, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["periodic", "aperiodic"]), st.integers(2, 16), st.data())
    def test_one_bit_mutants(self, kind, n, data):
        if kind == "periodic":
            n = max(n, 6)
        source = family(kind, n)
        p = data.draw(st.integers(0, len(source) - 1), label="flipped bit")
        bits = flip(source.bits, p)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        for name in SINGLE:
            assert_matches_oracle(name, mutant, n)
        for other in (source, type(source)(oracle.complement(source.bits))):
            for name in PAIR:
                assert_matches_oracle(name, mutant, other, n)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_order_22_member_and_mutant(self, kind):
        source = family(kind, 22)
        bits = flip(source.bits, len(source) // 3)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        for s in (source, mutant):
            for name in ("verify_nwindow", "verify_orientable"):
                assert_matches_oracle(name, s, 22)
        assert verifier.verify_orientable(source, 22) is None
        assert verifier.verify_orientable(mutant, 22) is not None


class TestByteWindows:
    @given(st.integers(1, 8), st.data())
    def test_every_window_in_a_byte(self, n, data):
        bits = data.draw(st.text(alphabet="01", min_size=n, max_size=300))
        c = data.draw(cycles(max_size=100))
        for s in (FiniteSeq(bits), c):
            values = _window_values(*window_bits(s, n), n)
            assert type(values) is bytearray
            assert list(values) == [int(w, 2) for w in oracle.all_windows(s, n)]


def every_word(n):
    return map(f"{{:0{n}b}}".format, range(1 << n))


def hits(idx):
    """locate's answer for every word that hits, as the oracle's dict of entries."""
    answers = ((w, locator.locate(idx, w)) for w in every_word(idx.order))
    return {w: hit for w, hit in answers if hit is not None}


def indexed(s, n):
    """hits(build_index(s, n)), asserting that the index took the verifier's path:
    an array of 2^n slots iff its windows are dense enough for 2^n marks."""
    idx = locator.build_index(s, n)
    assert isinstance(idx.table, array) is verifier.dense(n, verifier.window_count(s, n))
    return hits(idx)


def window_string(kind, m, n):
    """The bits whose n-windows are the windows of the order-m family member."""
    source = family(kind, m)
    return source.bits + source.bits[: n - 1] if kind == "periodic" else source.bits


def piece_counts(kind, m, n, dense):
    """The window counts of the pieces of window_string(kind, m, n) that an index
    keeps in an array (dense) or in a dict, as a range."""
    most, least = len(window_string(kind, m, n)) - n + 1, -(-(1 << n) // 8)
    return range(least, most + 1) if dense else range(1, min(most, least - 1) + 1)


MEMBERS = [("periodic", m) for m in range(6, 11)] + [("aperiodic", m) for m in range(2, 11)]
SHAPES = {
    dense: [(kind, m, n) for kind, m in MEMBERS for n in range(m, 13) if piece_counts(kind, m, n, dense)]
    for dense in (True, False)
}


@st.composite
def member_pieces(draw, dense):
    """(s, n): a piece of an order-m family member's window string, orientable at
    every order n >= m, with enough windows for an array index or too few."""
    kind, m, n = draw(st.sampled_from(SHAPES[dense]))
    bits = window_string(kind, m, n)
    count = draw(st.sampled_from(piece_counts(kind, m, n, dense)))
    start = draw(st.integers(0, len(bits) - n + 1 - count))
    return FiniteSeq(bits[start : start + count + n - 1]), n


class TestBuildIndex:
    @given(sequences, st.integers(1, 12))
    def test_rejects_exactly_what_the_oracle_rejects(self, s, n):
        assert outcome(indexed, s, n) == outcome(oracle.build_index, s, n)

    @pytest.mark.parametrize("dense", [True, False], ids=["array", "dict"])
    @given(data=st.data())
    def test_every_word_of_orientable_pieces(self, dense, data):
        s, n = data.draw(member_pieces(dense))
        idx = locator.build_index(s, n)
        assert isinstance(idx.table, array) is dense
        assert hits(idx) == oracle.build_index(s, n)

    @pytest.mark.parametrize("kind,n", [("periodic", 10), ("aperiodic", 10)])
    def test_family_member_and_mutant(self, kind, n):
        source = family(kind, n)
        assert indexed(source, n) == oracle.build_index(source, n)
        bits = flip(source.bits, 0)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        assert outcome(indexed, mutant, n) == outcome(oracle.build_index, mutant, n)

    @pytest.mark.parametrize(
        "kind,n", [("periodic", n) for n in range(6, 13)] + [("aperiodic", n) for n in range(2, 13)]
    )
    def test_family_members_index_in_an_array(self, kind, n):
        source = family(kind, n)
        idx = locator.build_index(source, n)
        assert isinstance(idx.table, array)
        assert hits(idx) == oracle.build_index(source, n)

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_family_members_at_order_40_index_in_a_dict(self, kind):
        source = family(kind, 12)
        idx = locator.build_index(source, 40)
        entries = oracle.build_index(source, 40)
        assert isinstance(idx.table, dict) and len(idx) == len(entries)
        assert all(locator.locate(idx, w) == hit for w, hit in entries.items())
        words = [format(v, "040b") for v in random.Random(kind).choices(range(1 << 40), k=1000)]
        assert all(locator.locate(idx, w) is None for w in words if w not in entries)


class TestLocateJunk:
    """Words of the right length that int(t, 2) reads as a present window, or that
    are not strings, are absent from the index and from find, as they are from the
    oracle's dict of strings."""

    @pytest.mark.parametrize("n", [8, 40], ids=["array", "dict"])
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_junk_is_absent(self, kind, n):
        source = family(kind, 8)
        idx = locator.build_index(source, n)
        w = next(w for w in oracle.build_index(source, n) if w.startswith("00") and "1" in w)
        x, k = w[2:], w.index("1")
        # int(t, 2) reads each of these as w; a sign, a digit 2-9 or a non-string is no hit either.
        read_as_w = ["0b" + x, "0_" + x, " 0" + x, "\n0" + x, "0" + x + " ", "0" + x + "\n", "+0" + x,
                     w[:k] + "\u0661" + w[k + 1 :]]
        others = ["-0" + x, w[:k] + "2" + w[k + 1 :], "9" + w[1:], w.encode(), bytearray(w.encode()),
                  list(w)]
        assert locator.locate(idx, w) == locator.find(source, n, w) is not None
        assert all(int(t, 2) == int(w, 2) for t in read_as_w)
        for t in read_as_w + others:
            assert len(t) == n and locator.locate(idx, t) is None and locator.find(source, n, t) is None


def locate_by_index(s, n, t):
    return locator.locate(locator.build_index(s, n), t)


class TestFind:
    """locator.find, the one-shot scan, against a lookup in the full index."""

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("n", range(6, 13))
    def test_every_window_both_directions(self, kind, n):
        source = family(kind, n)
        idx = locator.build_index(source, n)
        for i, w in enumerate(oracle.all_windows(source, n)):
            assert locator.find(source, n, w) == locator.locate(idx, w) == (i, FORWARD)
            assert locator.find(source, n, w[::-1]) == locator.locate(idx, w[::-1]) == (i, REVERSE)

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_absent_windows(self, kind, n):
        source = family(kind, n)
        idx = locator.build_index(source, n)
        absent = [w for w in every_word(n) if locator.locate(idx, w) is None]
        assert absent
        assert all(locator.find(source, n, w) is None for w in absent)

    @given(sequences, orders, st.data())
    def test_matches_index_lookup(self, s, n, data):
        # Windows of s itself, so hits are likely, words of exactly n bits, so
        # misses of the right length occur, and words of any length.
        ws = oracle.all_windows(s, n) if len(s) >= n else []
        t = data.draw(
            st.one_of(
                st.text(alphabet="01", max_size=14),
                st.text(alphabet="01", min_size=n, max_size=n),
                *([st.sampled_from(ws)] if ws else []),
            )
        )
        if data.draw(st.booleans()):
            t = t[::-1]
        assert outcome(locator.find, s, n, t) == outcome(locate_by_index, s, n, t)


@st.composite
def one_run_cycles(draw):
    """(c, n): a cycle with exactly one cyclic run of n-4 ones, of either weight parity."""
    n = draw(st.integers(5, 12))
    runs = draw(st.lists(st.integers(0, n - 5), max_size=20))
    return GeneratingCycle("1" * (n - 4) + "0" + "".join("1" * k + "0" for k in runs)), n


@functools.lru_cache(maxsize=None)
def good_starters(n):
    """Good, odd-weight orientable cycles of order n, as bit strings: the closed
    prefixes of 1,000 seeded random walks that use no n-window, nor its reversal,
    twice, and that have odd weight and one cyclic run of n-4 zeros."""
    found = set()
    for seed in range(1000):
        rng = random.Random(seed)
        w0 = "0" * n
        while w0 == w0[::-1]:
            w0 = format(rng.getrandbits(n), f"0{n}b")
        w, taken, bits = w0, {w0, w0[::-1]}, ""
        while True:
            bits += w[0]
            ahead = [w[1:] + b for b in "01"]
            if w0 in ahead and bits.count("1") % 2:
                if len(oracle.cyclic_positions(bits, "0" * (n - 4))) == 1:
                    found.add(bits)
            free = [v for v in ahead if v not in taken and v != v[::-1]]
            if not free:
                break
            w = rng.choice(free)
            taken.update((w, w[::-1]))
    return sorted(found)


class TestRunTracking:
    """The lemma against the scan: build_orientable carries the run of zeros from
    step to step, while a chain of the public steps, the inverse map then
    extend_odd, scans each preimage for its run of ones."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(6, 8), st.data())
    def test_build_equals_a_chain_of_scanning_steps(self, n0, data):
        # Rotations and reversals keep a starter good, odd and orientable, and
        # move its run of zeros, wrapping or not, anywhere in the period.
        bits = data.draw(st.sampled_from(good_starters(n0)))
        m = len(bits)
        x = rotate_left(int(bits, 2), m, data.draw(st.integers(0, m - 1)))
        if data.draw(st.booleans()):
            x = reverse_value(x, m)
        starter, lift = GeneratingCycle._trusted(x, m), data.draw(st.integers(1, 10))
        built, trace = build_orientable(starter, n0, n0 + lift)
        c, steps = starter, trace.steps[:1]
        for n in range(n0, n0 + lift):
            doubled = lempel.d_inverse_periodic(c).first
            c, r = extend_odd(doubled, n + 1), oracle.extend_odd(doubled.bits, n + 1)[1]
            steps.append(TraceStep(n + 1, c.period, c.weight, r is not None, r))
        assert built == c and trace.steps == steps
        assert built.bits == oracle.build_orientable(starter.bits, n0, n0 + lift)


@st.composite
def ideal_starters(draw, orders):
    """(bits, n): an ideal orientable word at an order n drawn from orders, read off a
    random walk on the shift graph from 0^{n-1} that claims each window's orbit
    {w, reverse(w)} and never a symmetric window, cut where it visits 1^{n-1}
    (None if it never does)."""
    n = draw(st.sampled_from(orders))
    vmask = (1 << (n - 1)) - 1
    cur, claimed, bits, ends = 0, set(), "", []
    while True:
        free = [(e, r) for e in (cur << 1, cur << 1 | 1)
                if (r := reverse_value(e, n)) != e and min(e, r) not in claimed]
        if not free:
            break
        e, r = free[draw(st.integers(0, len(free) - 1))]
        claimed.add(min(e, r))
        bits += str(e & 1)
        cur = e & vmask
        if cur == vmask:
            ends.append(len(bits))
    if not ends:
        return None, n
    return "0" * (n - 1) + bits[: draw(st.sampled_from(ends))], n


class TestAperiodicStarters:
    """build_aos from any ideal starter, lifted one level at a time or two per
    pass, against a chain of merge_step and the string oracle.  Odd and even
    starter orders pair the levels differently, and so do odd and even lifts.
    The last step is undone from the member's bits alone."""

    @pytest.mark.parametrize("orders", [(3, 5, 7), (4, 6, 8)])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_build_equals_a_chain_of_merge_steps(self, orders, data):
        bits, n0 = data.draw(ideal_starters(orders))
        assume(bits is not None)
        starter, lift = FiniteSeq(bits), data.draw(st.integers(1, 10))
        built, trace = build_aos(n0 + lift, starter=starter, starter_order=n0)
        s, steps, expected = starter, [TraceStep(n0, len(bits), bits.count("1"), False, None)], bits
        for n in range(n0, n0 + lift):
            below, s, expected = s, merge_step(s, n), oracle.merge_step(expected, n)
            steps.append(TraceStep(n + 1, len(s), s.weight, n % 2 == 1, None))
        assert built == s and trace.steps == steps
        assert built.bits == expected
        # T, the merge's first (L + n - n % 2) / 2 bits, is D's preimage of the level below.
        t = FiniteSeq(built.bits[: (len(built) + n - n % 2) // 2])
        assert t == lempel.d_inverse_aperiodic(below).first and lempel.d_forward_aperiodic(t) == below


def bits_of(result):
    """Packed results as the bit strings the oracle returns."""
    return result.bits if isinstance(result, (GeneratingCycle, FiniteSeq)) else result


class TestPackedSteps:
    @given(cycles(max_size=100))
    def test_inverse_periodic(self, c):
        inv = lempel.d_inverse_periodic(c)
        assert tuple(t.bits for t in inv.sequences()) == oracle.d_inverse_periodic(c.bits)
        assert all(t.weight == t.bits.count("1") for t in inv.sequences())

    @given(cycles(max_size=100))
    def test_forward_periodic(self, c):
        assert lempel.d_forward_periodic(c).bits == oracle.d_forward_periodic(c.bits)

    @given(words)
    def test_inverse_aperiodic(self, s):
        inv = lempel.d_inverse_aperiodic(s)
        assert (inv.first.bits, inv.second.bits) == oracle.d_inverse_aperiodic(s.bits)

    @given(st.one_of(one_run_cycles(), st.tuples(cycles(max_size=60), st.integers(3, 12))))
    def test_extend_odd(self, case):
        c, n = case
        expected = outcome(oracle.extend_odd, c.bits, n)  # bits and insert position, or an error
        expected = expected[0] if isinstance(expected[0], str) else expected
        assert bits_of(outcome(extend_odd, c, n)) == expected

    @given(st.integers(2, 12), pieces, st.booleans())
    def test_merge_step(self, n, middle, ideal):
        bits = "0" * (n - 1) + middle + "1" * (n - 1) if ideal else middle + "01"
        assert bits_of(outcome(merge_step, FiniteSeq(bits), n)) == outcome(
            oracle.merge_step, bits, n
        )


class TestFamiliesBitIdentical:
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_periodic(self, n):
        assert family("periodic", n).bits == oracle.build_orientable(DEFAULT_STARTER.bits, 6, n)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_aperiodic(self, n):
        assert family("aperiodic", n).bits == oracle.build_aos(n)

    def test_debruijn(self):
        for n in range(1, 17):
            assert join.debruijn_lempel(n).bits == oracle.debruijn_lempel(n)

    # (size, sha256 of the bits) of the largest builds perfbench's construct
    # round checks, as pinned there, and of the default members that
    # test_console.py::test_large_members_are_certified certifies past them (slow:
    # over 10^7 bits), pinned from the builders that took one order per prefix XOR.
    PINS = {
        "periodic-26": (9786709, "d3e5d9a8225076823aba0a9de61f6d333cc82cd8cecb3e6b8c9f123dafdb6693"),
        "aperiodic-24": (5592428, "e29d9dcb154f1645229f6f46a0f7163f86cfcf53c310506e38c20bf3d6806f6f"),
        "debruijn-19": (524288, "abbdb98574fd412d36006c824d726da134310bf4e01dbee19de1373b55586a10"),
        "debruijn-20": (1048576, "e282be99c0b1182a55805cb77fbf5d78c708985c27a6696dff52574811a08746"),
        "debruijn-22": (4194304, "7f19e9907f9da6a93e52dad06ac05248f52a09a5ca1a55cb1db2be08ae73f45f"),
        "periodic-28": (39146837, "23c3bf890301168f5352e8d5d350f804a91ddd54fad3458a6d9507566b333939"),
        "periodic-30": (156587349, "699db42f3d89da3757c6d5bcfb1400ee5bcf898d5485540f24d2798218257d90"),
        "aperiodic-26": (22369646, "46b2febc568c5b35ce59e8e5b4980c8f500443a1263609280785b52e994725bb"),
    }

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.slow) if size > 10**7 else name
        for name, (size, _) in sorted(PINS.items())
    ])
    def test_pinned_digests(self, name):
        kind, n = name.split("-")
        build = {
            "periodic": lambda n: build_orientable(DEFAULT_STARTER, 6, n)[0],
            "aperiodic": lambda n: build_aos(n)[0],
            "debruijn": join.debruijn_lempel,
        }[kind]
        bits = build(int(n)).bits
        assert (len(bits), hashlib.sha256(bits.encode("ascii")).hexdigest()) == self.PINS[name]

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("n", [22, 24])
    def test_builders_peak_below_0_6_bytes_per_bit(self, kind, n):
        build = {"periodic": lambda: build_orientable(DEFAULT_STARTER, 6, n)[0],
                 "aperiodic": lambda: build_aos(n)[0]}[kind]
        tracemalloc.start()
        try:
            size = len(build())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * size, peak / size

    @pytest.mark.slow
    def test_order_24(self):
        assert family("periodic", 24).bits == oracle.build_orientable(DEFAULT_STARTER.bits, 6, 24)
        assert family("aperiodic", 24).bits == oracle.build_aos(24)


class TestValueSemantics:
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_built_equals_parsed(self, kind):
        built = family(kind, 12)
        parsed = type(built)(built.bits)
        assert built == parsed and hash(built) == hash(parsed)
        assert parsed.bits == built.bits and len(parsed) == len(built.bits)
        assert built.weight == built.bits.count("1")
        assert [built[i] for i in range(20)] == [int(b) for b in built.bits[:20]]

    @given(st.text(alphabet="01", min_size=1, max_size=80))
    def test_bits_round_trip(self, bits):
        word = FiniteSeq(bits)
        assert word.bits == bits and FiniteSeq(word.bits) == word
        assert word != as_cycle(bits) and FiniteSeq(bits + "0") != word

    def test_leading_zeros_are_part_of_the_value(self):
        assert FiniteSeq("001") != FiniteSeq("01")
        assert GeneratingCycle("001").bits == "001"

    @pytest.mark.parametrize("bits", ["0101", "0000", "0001" * 4, "011" * 6, "0010" * 9])
    def test_non_minimal_period_still_rejected(self, bits):
        least = (bits + bits).find(bits, 1)
        with pytest.raises(NonMinimalPeriodError, match=f"repeats every {least} bits"):
            GeneratingCycle(bits)

    def test_is_ideal_on_every_short_word(self):
        for length in range(1, 9):
            for value in range(1 << length):
                bits = format(value, f"0{length}b")
                for n in range(2, 6):
                    k = n - 1
                    ideal = len(bits) >= 2 * k and bits[:k] == "0" * k and bits[-k:] == "1" * k
                    assert is_ideal(FiniteSeq(bits), n) == ideal
