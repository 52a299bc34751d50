from __future__ import annotations

import time

import pytest

from orientseq.aperiodic import (
    BURNS_TABLE,
    DEFAULT_STARTER,
    aos_from_periodic,
    build_aos,
    burns_bound,
    is_ideal,
    merge_step,
    predicted_length,
)
from orientseq.lempel import d_forward_aperiodic, d_inverse_aperiodic
from orientseq.seqcore import FiniteSeq, GeneratingCycle, PreconditionError
from orientseq.verifier import verify_orientable

from string_oracle import all_windows


def test_targets_too_large_for_memory_are_refused_up_front():
    with pytest.raises(ValueError, match="at order 64 need about"):
        build_aos(64)


def test_absurd_targets_are_refused_without_the_closed_form():
    # 2^(10^9) bits: the step count alone is enough to refuse, at the size limit.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at order 1000000000 need at least 2\\^1000 bytes,"):
        build_aos(10**9)
    assert time.perf_counter() - start < 0.5


class TestIdeal:
    def test_examples(self):
        assert is_ideal(FiniteSeq("01"), 2)
        assert is_ideal(FiniteSeq("0011"), 3)
        assert is_ideal(FiniteSeq("00010111"), 4)
        assert not is_ideal(FiniteSeq("0011"), 4)
        assert not is_ideal(FiniteSeq("10"), 2)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            is_ideal(FiniteSeq("01"), 1)


class TestMergeStep:
    def test_reference_chain(self):
        s = DEFAULT_STARTER
        expected = ["0011", "00010111", "00001101001111"]
        for n, bits in zip(range(2, 5), expected):
            s = merge_step(s, n)
            assert s.bits == bits

    def test_length_recurrence(self):
        s = DEFAULT_STARTER
        for n in range(2, 12):
            out = merge_step(s, n)
            if n % 2 == 0:
                assert len(out) == 2 * len(s) - n + 2
            else:
                assert len(out) == 2 * len(s) - n + 3
            s = out

    def test_rejects_non_ideal_input(self):
        with pytest.raises(PreconditionError):
            merge_step(FiniteSeq("0110"), 3)


class TestBuildAos:
    def test_reference_lengths(self):
        seq, trace = build_aos(10)
        assert [s.period for s in trace.steps] == [2, 4, 8, 14, 26, 48, 92, 178, 350]
        assert len(seq) == 350

    def test_trace_steps_are_the_members(self):
        # Each step's weight comes from the merge's sizes alone (keep + drop // 2); it
        # is the whole member's count of ones at every order, lifted or not.
        _, trace = build_aos(22)
        for step in trace.steps:
            member, _ = build_aos(step.order)
            assert (step.period, step.weight) == (len(member), member.weight), step

    def test_invariants_at_every_order(self):
        for n in range(2, 11):
            s, _ = build_aos(n)
            assert is_ideal(s, n)
            assert verify_orientable(s, n) is None

    def test_distinct_tuple_count_identity(self):
        # an orientable word of length l has 2l-2n+2 distinct tuples over
        # both reading directions
        for n in range(2, 11):
            s, _ = build_aos(n)
            ws = all_windows(s, n)
            both = set(ws) | {w[::-1] for w in ws}
            assert len(both) == 2 * len(s) - 2 * n + 2

    @pytest.mark.parametrize("order", range(3, 21))
    def test_a_step_is_undone(self, order):
        # A merge at order n keeps T whole and first, then U less its first n - n % 2 bits:
        # T is the member's first (L + n - n % 2) / 2 bits, and D sends it one order down.
        n, member = order - 1, build_aos(order)[0]
        below, t = build_aos(n)[0], FiniteSeq(member.bits[: (len(member) + n - n % 2) // 2])
        assert t == d_inverse_aperiodic(below).first and d_forward_aperiodic(t) == below

    def test_custom_starter(self):
        s8, _ = build_aos(8)
        out, trace = build_aos(10, starter=s8, starter_order=8)
        assert trace.steps[0].order == 8
        assert verify_orientable(out, 10) is None
        assert is_ideal(out, 10)

    def test_not_ideal_error_names_the_length_not_the_word(self):
        with pytest.raises(PreconditionError, match="^input of length 100000 is not ideal at order 5$"):
            merge_step(FiniteSeq("1" * 100_000), 5)

    def test_starter_validation(self):
        with pytest.raises(PreconditionError, match="not ideal"):
            build_aos(5, starter=FiniteSeq("0110"), starter_order=3)
        with pytest.raises(PreconditionError, match="below starter order"):
            build_aos(3, starter=FiniteSeq("00010111"), starter_order=4)


class TestPredictedLength:
    def test_matches_default_family(self):
        _, trace = build_aos(16)
        for m, step in enumerate(trace.steps):
            assert step.period == predicted_length(2, 2, m)

    def test_matches_odd_order_restart(self):
        _, trace = build_aos(12)
        ell5 = trace.steps[3].period
        for m, step in enumerate(trace.steps[3:]):
            assert step.period == predicted_length(ell5, 5, m)

    @pytest.mark.parametrize("ell,n", [(2, 2), (4, 3), (8, 4), (14, 5), (5, 3), (9, 6), (40, 11)])
    def test_matches_the_step_recursion(self, ell, n):
        # At order o a merge sends l to 2l - o + 2 + o % 2, from orders of both parities.
        length = ell
        for m in range(41):
            assert predicted_length(ell, n, m) == length
            length = 2 * length - (n + m) + 2 + (n + m) % 2

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            predicted_length(2, 2, -1)


class TestBounds:
    def test_closed_form_values(self):
        assert burns_bound(4) == 2**3 - 2**1 + 3
        assert burns_bound(16) == 2**15 - 2**7 + 15

    def test_dominates_family_and_reference_table(self):
        for n in range(2, 17):
            s, _ = build_aos(n)
            assert burns_bound(n) >= len(s)
        for n, value in BURNS_TABLE.items():
            assert burns_bound(n) >= value

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            burns_bound(1)


class TestUnrolling:
    def test_example(self):
        out = aos_from_periodic(GeneratingCycle("001101"), 5)
        assert out == FiniteSeq("0011010011")
        assert verify_orientable(out, 5) is None

    def test_rejects_orders_below_one(self):
        with pytest.raises(ValueError, match="^need order >= 1, got 0$"):
            aos_from_periodic(GeneratingCycle("001101"), 0)

    def test_family_round_trip(self):
        from orientseq.periodic import DEFAULT_STARTER as CYCLE_STARTER
        from orientseq.periodic import build_orientable

        for n in range(6, 11):
            c, _ = build_orientable(CYCLE_STARTER, 6, n)
            word = aos_from_periodic(c, n)
            assert len(word) == c.period + n - 1
            assert verify_orientable(word, n) is None
