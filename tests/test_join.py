from __future__ import annotations

import pytest

from orientseq.join import debruijn_lempel
from orientseq.seqcore import GeneratingCycle, PreconditionError
from orientseq.verifier import verify_nwindow

from string_oracle import all_windows


def test_orders_too_large_for_memory_are_refused_up_front():
    with pytest.raises(ValueError, match="at order 64 need about"):
        debruijn_lempel(64)


class TestDebruijn:
    def test_base_cases(self):
        assert debruijn_lempel(1) == GeneratingCycle("01")
        assert debruijn_lempel(2) == GeneratingCycle("0011")

    def test_rejects_bad_order(self):
        with pytest.raises(PreconditionError):
            debruijn_lempel(0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_period_and_window_property(self, n):
        c = debruijn_lempel(n)
        assert c.period == 2**n
        assert c.weight == 2 ** (n - 1)
        assert verify_nwindow(c, n) is None
        assert len(set(all_windows(c, n))) == 2**n

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [13, 14])
    def test_larger_orders(self, n):
        c = debruijn_lempel(n)
        assert c.period == 2**n
        assert verify_nwindow(c, n) is None
