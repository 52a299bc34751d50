from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from orientseq.aperiodic import build_aos
from orientseq.locator import BYTES_PER_WINDOW, build_index, locate
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable
from orientseq.seqcore import FORWARD, REVERSE, FiniteSeq, GeneratingCycle, PreconditionError

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


class TestMemoryGuard:
    def test_indexes_past_physical_memory_are_refused(self, monkeypatch):
        small, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 14)
        large, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        # 2 MiB holds the 2,389 windows at order 14 (412 bytes each), not the 9,557 at
        # order 16, nor the order-14 windows read at order 400, where each key is longer.
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}.__getitem__)
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

    @pytest.mark.parametrize("family", ["periodic", "aperiodic"])
    def test_index_memory_is_within_the_guard(self, family):
        if family == "periodic":
            s, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        else:
            s, _ = build_aos(16)
        tracemalloc.start()
        try:
            build_index(s, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(s) * (BYTES_PER_WINDOW + 2 * 16)


class TestLocate:
    def test_forward_and_reverse_hits(self):
        c = GeneratingCycle("001101")
        idx = build_index(c, 5)
        for i, w in enumerate(all_windows(c, 5)):
            assert locate(idx, w) == (i, FORWARD)
            assert locate(idx, w[::-1]) == (i, REVERSE)

    def test_absent_window(self):
        idx = build_index(GeneratingCycle("001101"), 5)
        present = set(idx.entries)
        missing = next(
            format(u, "05b") for u in range(32) if format(u, "05b") not in present
        )
        assert locate(idx, missing) is None

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
