from __future__ import annotations

import os
import random
import sys
import time
import tracemalloc
from array import array

import pytest

from orientseq import locator, verifier
from orientseq.aperiodic import build_aos
from orientseq.locator import build_index, locate
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable
from orientseq.seqcore import FORWARD, REVERSE, FiniteSeq, GeneratingCycle, PreconditionError
from orientseq.verifier import (
    dense, read_windows, require_orientable, verify_orientable, window_count,
)

from string_oracle import all_windows


class TestBuildIndex:
    def test_periodic_entry_count(self):
        idx = build_index(GeneratingCycle("001101"), 5)
        assert len(idx) == 12 and idx.order == 5

    def test_aperiodic_entry_count(self):
        idx = build_index(FiniteSeq("00010111"), 4)
        assert len(idx) == 10 and idx.order == 4

    def test_rejects_non_orientable_source(self):
        with pytest.raises(PreconditionError, match="not orientable"):
            build_index(GeneratingCycle("00110"), 2)


    def test_refusals_are_the_verifiers(self, monkeypatch):
        # One-bit mutants of family members and random words, all indexed in an array:
        # each non-orientable one is refused in the words of require_orientable, so the
        # count catches every slot the scatter wrote twice; the rest index 2N windows.
        # The count reads its chunk at full size and at 1 and 3 slots, so that slots
        # written twice also fall on chunk boundaries, in 'i' and in 'q' tables.
        rng = random.Random(23)
        cases = []
        for n in range(10, 15):
            members = [(build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, n)[0],
                        GeneratingCycle), (build_aos(n)[0], FiniteSeq)]
            for s, seq in members:
                bits = s.bits
                for i in rng.sample(range(len(bits)), 4):
                    cases.append((seq(bits[:i] + "10"[int(bits[i])] + bits[i + 1:]), n))
        for size in (60, 300, 2000):
            w = "".join(rng.choice("01") for _ in range(size))
            cases += [(seq(w), n) for seq in (GeneratingCycle, FiniteSeq)
                      for n in (5, size.bit_length() - 1)]
        wants = []
        for s, n in cases:
            assert dense(n, window_count(s, n))
            try:
                require_orientable(s, n, "source")
                wants.append(None)
            except PreconditionError as exc:
                wants.append(str(exc))
        assert sum(w is not None for w in wants) >= 40
        for chunk in (locator.COUNT_CHUNK, 1, 3):
            for below in (locator.I_SLOTS_BELOW, 0):
                monkeypatch.setattr(locator, "COUNT_CHUNK", chunk)
                monkeypatch.setattr(locator, "I_SLOTS_BELOW", below)
                for (s, n), want in zip(cases, wants):
                    if want is None:
                        idx = build_index(s, n)
                        assert idx.table.typecode == "iq"[below == 0]
                        assert len(idx) == 2 * window_count(s, n)
                        continue
                    with pytest.raises(PreconditionError) as got:
                        build_index(s, n)
                    assert str(got.value) == want

    @pytest.mark.parametrize("code", ["i", "q"])
    def test_count_reads_the_low_byte_in_either_byte_order(self, code, monkeypatch):
        # A table byteswapped and counted in the other byte order counts alike, so the
        # big-endian offset is read on a little-endian host, and the other way round.
        # Random words, with the refusal switched off, leave slots written twice.
        monkeypatch.setattr(locator, "require_orientable", lambda *a: None)
        monkeypatch.setattr(locator, "I_SLOTS_BELOW", 1 << 31 if code == "i" else 0)
        other = "big" if sys.byteorder == "little" else "little"
        rng = random.Random(25)
        words = ["".join(rng.choice("01") for _ in range(size)) for size in (300, 2000, 5000)]
        cases = [(build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 12)[0], 12),
                 (build_aos(12)[0], 12)] + [(FiniteSeq(w), 11) for w in words]
        for s, n in cases:
            table = build_index(s, n).table
            assert table.typecode == code
            filled = len(table) - table.count(0)
            assert locator._filled(table) == filled
            table.byteswap()
            assert locator._filled(table, other) == filled
            assert locator._filled(table) != filled  # the offset is the byte order's

    def test_no_buffer_export_outlives_the_build(self):
        # An array exported to a live memoryview refuses to resize (BufferError).
        for s in (build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 11)[0], build_aos(11)[0]):
            table = build_index(s, 11).table
            assert isinstance(table, array)
            table.append(0)
            assert table.pop() == 0

    @pytest.mark.parametrize("kind, code", [
        pytest.param(kind, code, id=kind + "-q" * (code == "q"))
        for code in "iq" for kind in ("periodic", "aperiodic", "random")
    ])
    def test_array_table_equals_a_loop_built_one(self, kind, code, monkeypatch):
        # Random words are seldom orientable, so the refusal is switched off: where
        # two windows share a value the later write wins, in the loop as in the table.
        monkeypatch.setattr(locator, "require_orientable", lambda *a: None)
        if code == "q":  # 'q' takes 2N >= 2^31 windows; a zero bound reaches it
            monkeypatch.setattr(locator, "I_SLOTS_BELOW", 0)
        rng = random.Random(20)
        if kind == "periodic":
            cases = [(build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, n)[0], n)
                     for n in (8, 11, 14)]
        elif kind == "aperiodic":
            cases = [(build_aos(n)[0], n) for n in (8, 11, 14)]
        else:
            words = ["".join(rng.choice("01") for _ in range(size)) for size in (40, 300, 2000)]
            cases = [(seq(w), n) for w in words for seq in (GeneratingCycle, FiniteSeq)
                     for n in (3, len(w).bit_length() - 1)]
        for s, n in cases:
            idx = build_index(s, n)
            assert isinstance(idx.table, array) and idx.table.typecode == code
            table = array(idx.table.typecode, [0]) * (1 << n)
            for i, v in enumerate(read_windows(s, n)):
                table[v] = 2 * i + 1
            for i, v in enumerate(read_windows(s, n, reverse=True)):
                table[v] = -(2 * i + 1)
            assert idx.table == table


class TestMemoryGuard:
    def test_indexes_past_physical_memory_are_refused(self, monkeypatch):
        small, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 14)
        large, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        # 256 KiB holds the 2,389 windows at order 14 in an array (48 bytes each), not
        # the 9,557 at order 16, nor the order-14 windows read at order 400, which go
        # in a dict of 432 bytes each.
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.__getitem__)
        assert len(build_index(small, 14)) == 2 * small.period
        with pytest.raises(ValueError, match="^the index at order 16 need about .* GiB"):
            build_index(large, 16)
        with pytest.raises(ValueError, match="^the index at order 400 need about .* GiB"):
            build_index(small, 400)

    def test_absurd_orders_are_refused_at_once(self):
        # A 9-bit cycle read at order 10^12: 2 TB per key, refused before any window is read.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^the index at order 1000000000000 need about"):
            build_index(DEFAULT_STARTER, 10**12)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("family", ["periodic", "aperiodic", "dict"])
    def test_index_memory_is_within_the_guard(self, family, monkeypatch):
        # Family members at their own order index in an array; the order-16 periodic
        # member read at orders 40 and 100 goes in a dict.
        if family == "aperiodic":
            s, _ = build_aos(16)
        else:
            s, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        charged = []
        monkeypatch.setattr(locator, "require_memory", lambda *a: charged.append(a[1:]))
        for n in [40, 100] if family == "dict" else [16]:
            tracemalloc.start()
            try:
                idx = build_index(s, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert isinstance(idx.table, dict if family == "dict" else array)
            count, size = charged.pop()  # charged for the windows, not the bits of s
            assert count == len(idx) // 2 and peak <= count * size


class TestLocate:
    def test_forward_and_reverse_hits(self):
        c = GeneratingCycle("001101")
        idx = build_index(c, 5)
        for i, w in enumerate(all_windows(c, 5)):
            assert locate(idx, w) == (i, FORWARD)
            assert locate(idx, w[::-1]) == (i, REVERSE)

    def test_absent_window(self):
        c = GeneratingCycle("001101")
        idx = build_index(c, 5)
        present = {v for w in all_windows(c, 5) for v in (w, w[::-1])}
        absent = [w for w in map("{:05b}".format, range(32)) if locate(idx, w) is None]
        assert len(absent) == 32 - len(idx) and not present & set(absent)

    def test_order_mismatch(self):
        idx = build_index(GeneratingCycle("001101"), 5)
        with pytest.raises(PreconditionError, match="order"):
            locate(idx, "0011")

    def test_every_constructed_sequence_round_trips(self):
        for n in range(4, 9):
            s, _ = build_aos(n)
            idx = build_index(s, n)
            for i, w in enumerate(all_windows(s, n)):
                assert locate(idx, w) == (i, FORWARD)
                assert locate(idx, w[::-1]) == (i, REVERSE)


class TestFind:
    def test_a_source_near_itself_is_searched_at_once(self, monkeypatch):
        # The proof lays out no window: only find's own search, which locator imported.
        def laid_out(*a):
            raise AssertionError("a window was laid out")

        members = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 12)[0], build_aos(12)[0]
        monkeypatch.setattr(verifier, "read_windows", laid_out)
        monkeypatch.setattr(verifier, "window_finder", laid_out)
        for s in members:
            w = s.bits[100:112]
            assert locator.find(s, 12, w, near=s) == (100, FORWARD)
            assert locator.find(s, 12, w[::-1], near=s) == (100, REVERSE)
            assert locator.find(s, 12, "0" * 12, near=s) is None
            with pytest.raises(AssertionError, match="a window was laid out"):
                locator.find(s, 12, w)


@pytest.mark.slow
def test_order_24_index_agrees_with_find(monkeypatch):
    # 2,446,677 windows in a 64 MB array.  find verifies its source on every call;
    # the source is verified once here, so each find is its scan alone.
    s, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 24)
    idx = build_index(s, 24)
    assert isinstance(idx.table, array) and len(idx) == 2 * s.period
    assert verify_orientable(s, 24) is None
    monkeypatch.setattr(locator, "require_orientable", lambda *a: None)
    bits, rng = s.bits + s.bits[:23], random.Random(24)
    for i in rng.sample(range(s.period), 1000):
        w = bits[i : i + 24]
        assert locator.find(s, 24, w) == locate(idx, w) == (i, FORWARD)
        assert locator.find(s, 24, w[::-1]) == locate(idx, w[::-1]) == (i, REVERSE)
    words = [format(rng.getrandbits(24), "024b") for _ in range(300)]
    misses = [w for w in words if locate(idx, w) is None]
    assert len(misses) > 100 and all(locator.find(s, 24, w) is None for w in misses)
    assert all(locator.find(s, 24, w) == locate(idx, w) for w in words if w not in misses)
