from __future__ import annotations

import pytest

from orientseq.aperiodic import build_aos
from orientseq.locator import build_index, locate
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
