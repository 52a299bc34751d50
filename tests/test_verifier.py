from __future__ import annotations

import math
import os
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orientseq import verifier
from orientseq.aperiodic import build_aos
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable
from orientseq.seqcore import FiniteSeq, GeneratingCycle, PreconditionError, WindowRangeError
from orientseq.verifier import (
    BYTES_PER_WINDOW,
    Counterexample,
    read_windows,
    verify_disjoint,
    verify_nwindow,
    verify_o_disjoint,
    verify_orientable,
    verify_orientable_near,
    verify_primitive,
)

from conftest import cycles, finite_seqs, naive_nwindow, naive_orientable
import string_oracle
from string_oracle import all_windows, complement
from test_differential import as_cycle, family as member, flip as flip_bit


class TestAllWindows:
    """The reader behind every check: each n-window as an integer, by position."""

    def test_cyclic_count_equals_period(self):
        c = GeneratingCycle("001101")
        assert list(read_windows(c, 5)) == [0b00110, 0b01101, 0b11010, 0b10100, 0b01001, 0b10011]
        assert list(read_windows(c, 5, reverse=True)) == [
            0b01100, 0b10110, 0b01011, 0b00101, 0b10010, 0b11001,
        ]

    def test_aperiodic_count(self):
        assert list(read_windows(FiniteSeq("00010111"), 3)) == [0, 0b001, 0b010, 0b101, 0b011, 0b111]

    def test_too_short(self):
        with pytest.raises(WindowRangeError):
            read_windows(FiniteSeq("01"), 3)
        with pytest.raises(WindowRangeError):
            read_windows(FiniteSeq("01"), 0)


class TestNWindow:
    def test_pass_examples(self):
        assert verify_nwindow(GeneratingCycle("001101"), 5) is None
        assert verify_nwindow(GeneratingCycle("0011"), 2) is None

    def test_first_collision_reported(self):
        # [00110]: the 2-windows are 00,01,11,10,00 so positions 0 and 4 repeat
        cx = verify_nwindow(GeneratingCycle("00110"), 2)
        assert (cx.i, cx.j, cx.kind) == (0, 4, "forward")
        assert cx._asdict() == {"i": 0, "j": 4, "kind": "forward"}

    @given(cycles(max_size=16), st.integers(1, 6))
    def test_matches_naive_oracle_cyclic(self, c, n):
        fast = verify_nwindow(c, n)
        slow = naive_nwindow(c, n)
        assert (None if fast is None else (fast.i, fast.j)) == slow

    @given(finite_seqs, st.integers(1, 6))
    def test_matches_naive_oracle_finite(self, s, n):
        if len(s) < n:
            return
        fast = verify_nwindow(s, n)
        slow = naive_nwindow(s, n)
        assert (None if fast is None else (fast.i, fast.j)) == slow


class TestOrientable:
    def test_pass_examples(self):
        assert verify_orientable(GeneratingCycle("001101"), 5) is None
        assert verify_orientable(FiniteSeq("00010111"), 4) is None

    def test_symmetric_window_detected(self):
        cx = verify_orientable(GeneratingCycle("001101"), 3)
        assert cx is not None
        ws = all_windows(GeneratingCycle("001101"), 3)
        assert ws[cx.i] == ws[cx.j][::-1]

    def test_symmetric_kind(self):
        # [010] at order 3: the window 010 at position 0 is its own reversal
        cx = verify_orientable(GeneratingCycle("010"), 3)
        assert cx.kind == "symmetric" and cx.i == cx.j == 0

    def test_reversed_kind(self):
        # [0011] at order 4: 0011 at position 0 reappears reversed at position 2
        cx = verify_orientable(GeneratingCycle("0011"), 4)
        assert (cx.i, cx.j, cx.kind) == (0, 2, "reverse")

    @given(cycles(max_size=16), st.integers(1, 6))
    def test_matches_naive_oracle(self, c, n):
        fast = verify_orientable(c, n)
        slow = naive_orientable(c, n)
        assert (None if fast is None else (fast.i, fast.j)) == slow

    @given(finite_seqs, st.integers(1, 6))
    def test_orientable_implies_nwindow(self, s, n):
        if len(s) < n:
            return
        if verify_orientable(s, n) is None:
            assert verify_nwindow(s, n) is None


class TestPairProperties:
    def test_disjoint(self):
        a, b = GeneratingCycle("011"), GeneratingCycle("100")
        assert verify_disjoint(a, b, 3) is None
        cx = verify_disjoint(a, a, 3)
        assert (cx.i, cx.j) == (0, 0)

    def test_o_disjoint_catches_reversals(self):
        # b carries a's windows reversed but none of them forward
        a, b = GeneratingCycle("001011"), GeneratingCycle("110100")
        assert verify_disjoint(a, b, 6) is None
        cx = verify_o_disjoint(a, b, 6)
        assert (cx.i, cx.j, cx.kind) == (0, 0, "reverse")
        assert all_windows(a, 6)[0] == all_windows(b, 6)[0][::-1]

    def test_primitive(self):
        assert verify_primitive(GeneratingCycle("001"), 3) is None
        cx = verify_primitive(GeneratingCycle("0011"), 2)
        assert cx is not None

    @given(cycles(max_size=12), st.integers(1, 5))
    def test_primitive_is_disjointness_from_complement(self, c, n):
        comp = GeneratingCycle(complement(c.bits))
        fast = verify_primitive(c, n)
        ref = verify_disjoint(c, comp, n)
        assert (fast is None) == (ref is None)


class TestMemoryGuard:
    def test_checks_past_physical_memory_are_refused(self, monkeypatch):
        small, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 14)
        large, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        # 256 KiB holds the 2,389 windows at order 14, at 32 bytes each in a table of
        # marks, not the 9,557 at 16.
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.__getitem__)
        assert verify_orientable(small, 14) is None
        with pytest.raises(ValueError, match="^the windows at order 16 need about .* GiB"):
            verify_orientable(large, 16)
        with pytest.raises(ValueError, match="^the windows at order 16 need about"):
            verify_nwindow(large, 16)

    @pytest.mark.parametrize("family", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("flip", [False, True], ids=["member", "mutant"])
    def test_check_memory_is_within_the_guard(self, family, flip):
        if family == "periodic":
            s, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 18)
        else:
            s, _ = build_aos(18)
        if flip:
            s = type(s)._trusted(s.value ^ (1 << len(s) // 2), len(s))
        windows = len(all_windows(s, 18))
        tracemalloc.start()
        try:
            verify_orientable(s, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= windows * BYTES_PER_WINDOW

    def test_charge_follows_the_table(self, monkeypatch):
        # Family members are checked in tables of marks, a sparse word in a set.
        members = [member(kind, 16) for kind in ("periodic", "aperiodic")]
        charged = []
        monkeypatch.setattr(verifier, "require_memory", lambda *a: charged.append(a[2]))
        for s in members:
            assert verify_orientable(s, 16) is None
        assert len(charged) == 4 and max(charged) <= 32
        charged.clear()
        s = FiniteSeq(format(random.Random(40).getrandbits(60_000), "060000b"))
        assert verify_orientable(s, 40) is None
        assert charged == [BYTES_PER_WINDOW] * 2

    def test_short_cycles_at_huge_orders(self):
        # The charge comes before the cyclic extension is built.
        s = GeneratingCycle("001010111")
        assert verify_orientable(s, 10**6) is None
        with pytest.raises(ValueError, match="^the windows at order 1000000000000 need about"):
            verify_orientable(s, 10**12)

    @pytest.mark.parametrize("n", [65, 200, 1000])
    def test_charge_past_order_64_grows_with_the_order(self, n, monkeypatch):
        # Above order 64 the windows are lists of ints, which grow with n.
        s = FiniteSeq(format(random.Random(n).getrandbits(60_000), "060000b"))
        charged = []
        monkeypatch.setattr(verifier, "require_memory", lambda *a: charged.append(a[1] * a[2]))
        tracemalloc.start()
        try:
            verify_orientable(s, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= min(charged)
        assert min(charged) > (len(s) - n + 1) * BYTES_PER_WINDOW


CHECKS = ("verify_nwindow", "verify_orientable", "verify_primitive")
PAIR_CHECKS = ("verify_disjoint", "verify_o_disjoint")

pieces = st.text(alphabet="01", max_size=40)
# Palindromes give symmetric windows; repeated and mirrored pieces give forward
# and reversed collisions at every order up to the piece length.
table_bits = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=120),
    st.builds(lambda a: a + a[::-1], pieces),
    st.builds(lambda a, b: a + b + a, pieces, pieces),
    st.builds(lambda a, b: a + b + a[::-1], pieces, pieces),
).filter(bool)
table_seqs = st.one_of(st.builds(FiniteSeq, table_bits), st.builds(as_cycle, table_bits))


def assert_tables_agree(name, *args):
    """name(*args) gives the same result, or an exception of the same type and
    message, with every window table forced to 2^n marks and forced to a set."""
    outcomes = []
    for dense in (math.inf, 0):
        with mock.patch.object(verifier, "_DENSE", dense):
            try:
                outcomes.append(getattr(verifier, name)(*args))
            except (WindowRangeError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], name


class TestWindowTables:
    """A table of 2^n marks and a set of window values give the same answers."""

    @given(table_seqs, table_seqs, st.integers(1, 20))
    def test_marks_and_set_agree(self, s, t, n):
        for name in CHECKS:
            assert_tables_agree(name, s, n)
        for name in PAIR_CHECKS:
            assert_tables_agree(name, s, t, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["periodic", "aperiodic"]), st.integers(2, 16), st.data())
    def test_marks_and_set_agree_on_family_mutants(self, kind, n, data):
        if kind == "periodic":
            n = max(n, DEFAULT_STARTER_ORDER)
        source = member(kind, n)
        bits = flip_bit(source.bits, data.draw(st.integers(0, len(source) - 1), label="flipped bit"))
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        for name in CHECKS:
            assert_tables_agree(name, mutant, n)
        for other in (source, type(source)(complement(source.bits))):
            for name in PAIR_CHECKS:
                assert_tables_agree(name, mutant, other, n)

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("mutant", [False, True], ids=["member", "mutant"])
    def test_marks_peak_at_order_20(self, kind, mutant):
        # Two 4-byte windows arrays and at most two tables of 2^n <= 8 N marks;
        # a set of the windows alone takes 32 bytes or more per window.
        s = member(kind, 20)
        if mutant:
            s = type(s)._trusted(s.value ^ (1 << len(s) // 2), len(s))
        windows = len(s) if kind == "periodic" else len(s) - 19
        tracemalloc.start()
        try:
            cx = verify_orientable(s, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cx is not None) == mutant
        assert peak <= 32 * windows


def edited(source, flips):
    """source with the bits at flips flipped (a bit flipped twice is restored), or None
    for a cycle that no longer has source's period as its least."""
    x = source.value
    for b in flips:
        x ^= 1 << (len(source) - 1 - b)
    bits = format(x, f"0{len(source)}b")
    if isinstance(source, GeneratingCycle) and (bits + bits).find(bits, 1) != len(bits):
        return None
    return type(source)(bits)


class TestNear:
    """verify_orientable_near checks the windows that differ from an orientable sequence
    of the same size, and answers as verify_orientable does."""

    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    @pytest.mark.parametrize("n", range(8, 13))
    def test_every_one_bit_flip_matches_the_string_oracle(self, kind, n):
        source, still = member(kind, n), 0
        for b in range(len(source)):
            s = edited(source, [b])
            if s is not None:
                cx = verify_orientable_near(s, source, n)
                assert cx == string_oracle.verify_orientable(s, n), b
                still += cx is None
        # Some flips of a cycle stay orientable, none of a word's.
        assert still == ({8: 1, 9: 4, 10: 17, 11: 14, 12: 52}[n] if kind == "periodic" else 0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["periodic", "aperiodic"]), st.integers(5, 14), st.data())
    def test_edits_match_the_whole_check(self, kind, n, data):
        if kind == "periodic":
            n = max(n, DEFAULT_STARTER_ORDER)
        source = member(kind, n)
        size = len(source)
        # Flips near a cycle's wrap and a word's two ends dirty windows cut there, and up
        # to 12 flips within one window of each other dirty windows that may collide.
        ends = st.one_of(st.integers(0, n - 2), st.integers(size - n + 1, size - 1))
        apart = st.lists(st.one_of(ends, st.integers(0, size - 1)), min_size=1, max_size=4)
        close = st.builds(lambda b, offsets: [(b + d) % size for d in offsets],
                          st.integers(0, size - 1),
                          st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
        s = edited(source, data.draw(st.one_of(apart, close), label="flipped bits"))
        assume(s is not None)
        # An orientable sequence stays so one order up, where it is a source as well.
        for order in (n, n + 1):
            for dense in (math.inf, 0):
                with mock.patch.object(verifier, "_DENSE", dense):
                    assert verify_orientable_near(s, source, order) == verify_orientable(s, order)

    def test_many_dirty_windows_take_the_whole_check(self, monkeypatch):
        source, calls = member("periodic", 12), []
        whole = verifier.verify_orientable
        monkeypatch.setattr(verifier, "verify_orientable", lambda *a: calls.append(a) or whole(*a))
        # Five flips 100 bits apart dirty 5 * 12 = 60 windows, six 72, and 65 flips
        # dirty at least 65; the first is checked window by window, the others whole.
        for count, whole_calls in ((5, 0), (6, 1), (65, 1)):
            s = edited(source, range(0, 100 * count, 100) if count < 65 else range(0, 130, 2))
            del calls[:]
            assert verify_orientable_near(s, source, 12) == whole(s, 12) is not None
            assert len(calls) == whole_calls, count

    def test_no_source_is_the_whole_check(self):
        rng = random.Random(32)
        sources = [member(kind, 10) for kind in ("periodic", "aperiodic")]
        words = ["".join(rng.choice("01") for _ in range(size)) for size in (20, 40, 300)]
        for s in (*sources, *(edited(t, [b]) for t in sources for b in (0, 50, len(t) - 1)),
                  *(kind(w) for kind in (GeneratingCycle, FiniteSeq) for w in words)):
            if s is not None:
                for n in (3, 8, 10):
                    assert verify_orientable_near(s, None, n) == verify_orientable(s, n), (s, n)

    def test_the_source_itself_reads_and_charges_no_window(self, monkeypatch):
        def laid_out(*a):
            raise AssertionError("a window was laid out")

        members = [member(kind, 16) for kind in ("periodic", "aperiodic")]
        # One 4 KiB page of memory: the windows of either order-16 member need more.
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.__getitem__)
        for s in members:
            with pytest.raises(ValueError, match="^the window bytes at order 16 need about"):
                verify_orientable_near(edited(s, [100]), s, 16)
        monkeypatch.setattr(verifier, "read_windows", laid_out)
        monkeypatch.setattr(verifier, "window_finder", laid_out)
        for s in members:
            assert verify_orientable_near(s, s, 16) is None
            assert verify_orientable_near(type(s)(s.bits), s, 16) is None

    def test_orders_without_windows_are_refused_as_by_the_whole_check(self):
        cycle, word = GeneratingCycle("001010111"), FiniteSeq("0011")
        for s, t, n in ((cycle, cycle, 0), (cycle, cycle, -5), (word, word, 9),
                        (GeneratingCycle("001010110"), cycle, 0)):
            with pytest.raises(WindowRangeError) as whole:
                verify_orientable(s, n)
            with pytest.raises(WindowRangeError) as near:
                verify_orientable_near(s, t, n)
            assert str(near.value) == str(whole.value)

    def test_a_source_of_another_type_or_length_is_refused(self):
        word, cycle = member("aperiodic", 8), member("periodic", 8)
        # 0 and word: its first window is 0^8, its own reversal.
        longer = FiniteSeq._trusted(word.value, len(word) + 1)
        assert verify_orientable(longer, 8) == (0, 0, "symmetric")
        for s, t in ((longer, word), (word, cycle), (FiniteSeq._trusted(cycle.value, len(cycle)),
                                                     cycle), (cycle, word)):
            with pytest.raises(PreconditionError) as info:
                verify_orientable_near(s, t, 8)
            assert str(info.value) == (f"cannot check a {type(s).__name__} of length {len(s)}"
                                       f" near a {type(t).__name__} of length {len(t)}")
