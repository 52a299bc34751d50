from __future__ import annotations

import pytest

from orientseq.join import debruijn_lempel, find_conjugate_positions, join_at
from orientseq.lempel import d_inverse_periodic
from orientseq.seqcore import GeneratingCycle, PreconditionError, WindowRangeError
from orientseq.verifier import verify_disjoint, verify_nwindow

from string_oracle import all_windows, conjugate, cyclic_slice


def test_orders_too_large_for_memory_are_refused_up_front():
    with pytest.raises(ValueError, match="at order 64 need about"):
        debruijn_lempel(64)


def naive_conjugate_scan(s, t, n):
    for i in range(s.period):
        for j in range(t.period):
            if cyclic_slice(s.bits, i, n) == conjugate(cyclic_slice(t.bits, j, n)):
                return (i, j)
    return None


@pytest.mark.parametrize("n", [0, -1, -3])
def test_orders_below_one_are_refused_as_the_verifier_refuses_them(n):
    s, t = GeneratingCycle("0001"), GeneratingCycle("1110")
    message = f"^window order must be >= 1, got {n}$"
    with pytest.raises(WindowRangeError, match=message):
        find_conjugate_positions(s, t, n)
    with pytest.raises(WindowRangeError, match=message):
        join_at(s, t, 0, 0, n)


class TestFindConjugatePositions:
    def test_small_examples(self):
        assert find_conjugate_positions(GeneratingCycle("011"), GeneratingCycle("100"), 3) == (1, 2)
        assert find_conjugate_positions(GeneratingCycle("0"), GeneratingCycle("1"), 1) == (0, 0)
        assert find_conjugate_positions(GeneratingCycle("0001"), GeneratingCycle("1110"), 3) == (1, 2)

    def test_no_pair(self):
        # [0001] and [1110] share no conjugate 4-window
        assert find_conjugate_positions(GeneratingCycle("0001"), GeneratingCycle("1110"), 4) is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_naive_scan_on_inverse_pairs(self, n):
        inv = d_inverse_periodic(debruijn_lempel(n))
        if inv.second is None:
            pytest.skip("doubled case has nothing to join")
        s, t = inv.first, inv.second
        assert find_conjugate_positions(s, t, n + 1) == naive_conjugate_scan(s, t, n + 1)


class TestJoinAt:
    def test_splice_layout(self):
        s, t = GeneratingCycle("0001"), GeneratingCycle("1110")
        assert join_at(s, t, 1, 2, 3) == GeneratingCycle("00011101")

    def test_trivial_join(self):
        assert join_at(GeneratingCycle("0"), GeneratingCycle("1"), 0, 0, 1) == GeneratingCycle("01")

    def test_rejects_non_conjugate_sites(self):
        s, t = GeneratingCycle("0001"), GeneratingCycle("1110")
        with pytest.raises(PreconditionError):
            join_at(s, t, 0, 0, 3)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_join_of_disjoint_nwindow_cycles_is_nwindow(self, n):
        inv = d_inverse_periodic(debruijn_lempel(n))
        if inv.second is None:
            pytest.skip("doubled case has nothing to join")
        s, t = inv.first, inv.second
        assert verify_nwindow(s, n + 1) is None
        assert verify_nwindow(t, n + 1) is None
        assert verify_disjoint(s, t, n + 1) is None
        i, j = find_conjugate_positions(s, t, n + 1)
        joined = join_at(s, t, i, j, n + 1)
        assert joined.period == s.period + t.period
        assert verify_nwindow(joined, n + 1) is None
        # the joined cycle carries exactly the windows of both inputs plus the
        # conjugate pair swapped in place, i.e. the same multiset overall
        assert sorted(all_windows(joined, n + 1)) == sorted(
            all_windows(s, n + 1) + all_windows(t, n + 1)
        )


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
