from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientseq.periodic import (
    DEFAULT_STARTER,
    DEFAULT_STARTER_ORDER,
    build_orientable,
    dai_bound,
    extend_odd,
    is_good,
    next_orientable,
    predicted_period,
)
from orientseq.seqcore import GeneratingCycle, PreconditionError
from orientseq.verifier import verify_orientable


class TestDaiBound:
    def test_reference_values(self):
        assert [dai_bound(n) for n in range(5, 10)] == [6, 17, 40, 96, 206]

    def test_all_residues_stay_integral_and_monotone(self):
        values = [dai_bound(n) for n in range(5, 40)]
        assert all(b < c for b, c in zip(values, values[1:]))
        assert all(v < 2 ** (n - 1) for v, n in zip(values, range(5, 40)))

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            dai_bound(4)

    def test_matches_the_rational_form(self):
        def rational(n):
            two, r = Fraction(2), n % 4
            if r in (0, 2):
                v = two ** (n - 1) - Fraction(41, 9) * two ** (n // 2 - 1)
            else:
                v = two ** (n - 1) - Fraction(31, 9) * two ** ((n - 1) // 2)
            v += Fraction(n, 3 if r < 2 else 6) + Fraction((32, 38, 40, 43)[r], 18)
            return math.floor(v)

        assert all(dai_bound(n) == rational(n) for n in range(5, 1000))


class TestGoodness:
    def test_default_starter_is_good(self):
        assert is_good(DEFAULT_STARTER, DEFAULT_STARTER_ORDER)

    def test_two_zero_runs_not_good(self):
        # [000100010011] has two occurrences of 000 at order 7
        assert not is_good(GeneratingCycle("000100010011"), 7)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            is_good(DEFAULT_STARTER, 4)


class TestExtendOdd:
    def test_noop_on_odd_weight(self):
        # the order-7 doubled sequence already has odd weight
        c = next_orientable(DEFAULT_STARTER, 6)[0]
        assert c.weight % 2 == 1
        assert extend_odd(c, 7) == c

    def test_insertion_on_even_weight(self):
        # preimage of the starter: weight 9 is odd so no insertion there,
        # but its own preimage at order 8 needs one
        doubled = next_orientable(DEFAULT_STARTER, 6)[0]
        assert doubled.weight % 2 == 1
        out, step = next_orientable(doubled, 7)
        assert step.inserted_bit
        assert out.period == 2 * doubled.period + 1
        assert out.weight % 2 == 1

    def test_requires_unique_one_run(self):
        # [01] has no 1-run of length 2 at order 6
        with pytest.raises(PreconditionError):
            extend_odd(GeneratingCycle("01"), 6)


def test_targets_too_large_for_memory_are_refused_up_front():
    with pytest.raises(ValueError, match="at order 64 need about"):
        build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 64)


def test_absurd_targets_are_refused_without_the_closed_form():
    # 2^(10^9) bits: the step count alone is enough to refuse, at the size limit.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at order 1000000000 need at least 2\\^1000 bytes,"):
        build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 10**9)
    assert time.perf_counter() - start < 0.5


class TestRecursion:
    def test_reference_family(self):
        cycle, trace = build_orientable(DEFAULT_STARTER, 6, 10)
        assert [s.period for s in trace.steps] == [9, 18, 37, 74, 149]
        assert [s.order for s in trace.steps] == [6, 7, 8, 9, 10]
        assert cycle.period == 149

    def test_reference_bits(self):
        s7, _ = build_orientable(DEFAULT_STARTER, 6, 7)
        assert s7.bits == "000110010111001101"
        s8, _ = build_orientable(DEFAULT_STARTER, 6, 8)
        assert s8.bits == "0000100011010001001111101110010111011"

    def test_invariants_at_every_order(self):
        c = DEFAULT_STARTER
        for n in range(6, 13):
            assert verify_orientable(c, n) is None
            assert is_good(c, n)
            assert c.weight == c.bits.count("1") and c.weight % 2 == 1
            c = next_orientable(c, n)[0]

    def test_rejects_even_weight_input(self):
        with pytest.raises(PreconditionError):
            next_orientable(GeneratingCycle("0011"), 5)

    def test_starter_validation_messages(self):
        with pytest.raises(PreconditionError, match="not orientable"):
            build_orientable(GeneratingCycle("0011"), 4, 6)
        with pytest.raises(PreconditionError, match="not good"):
            build_orientable(GeneratingCycle("000110010111001101"), 9, 10)
        # Good and orientable at order 6, but of even weight.
        with pytest.raises(PreconditionError, match="^starter weight 4 is even$"):
            build_orientable(GeneratingCycle("0010111"), 6, 7)
        with pytest.raises(PreconditionError, match="below starter order"):
            build_orientable(DEFAULT_STARTER, 6, 5)

    def test_trace_parity_alternation(self):
        _, trace = build_orientable(DEFAULT_STARTER, 6, 14)
        for prev, step in zip(trace.steps, trace.steps[1:]):
            # a bit is inserted exactly when the doubled period had even weight,
            # which alternates: period doubles, then doubles plus one
            if step.inserted_bit:
                assert step.period == 2 * prev.period + 1
            else:
                assert step.period == 2 * prev.period


def rotated(c: GeneratingCycle, k: int) -> GeneratingCycle:
    k %= c.period
    return GeneratingCycle(c.bits[k:] + c.bits[:k])


def is_rotation(a: GeneratingCycle, b: GeneratingCycle) -> bool:
    return a.period == b.period and b.bits in a.bits + a.bits


class TestRotation:
    """The step commutes with rotation (the module docstring), so a rotated member or
    starter lifts to a rotation of the unrotated one's result."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(6, 12), st.integers(0, 2**16))
    def test_a_step_from_a_rotated_member(self, n, k):
        c = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, n)[0]
        assert is_rotation(next_orientable(rotated(c, k), n)[0], next_orientable(c, n)[0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, DEFAULT_STARTER.period - 1), st.integers(6, 14))
    def test_a_build_from_a_rotated_starter(self, k, n):
        member = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, n)[0]
        built = build_orientable(rotated(DEFAULT_STARTER, k), DEFAULT_STARTER_ORDER, n)[0]
        assert is_rotation(built, member)


class TestPredictedPeriod:
    def test_matches_trace_to_order_22(self):
        _, trace = build_orientable(DEFAULT_STARTER, 6, 22)
        for k, step in enumerate(trace.steps):
            assert step.period == predicted_period(9, k // 2, k % 2)

    def test_even_start_branch(self):
        # from an even starting period the insertions land on the other phase
        _, trace = build_orientable(
            GeneratingCycle("000110010111001101"), 7, 15
        )
        for k, step in enumerate(trace.steps):
            assert step.period == predicted_period(18, k // 2, k % 2)

    @pytest.mark.parametrize("m_start", [1, 2, 9, 18, 37, 74, 149, 1000])
    def test_matches_the_step_recursion(self, m_start):
        # m -> 2m, plus 1 when m is even, from starts of both parities.
        m = m_start
        for s in range(41):
            assert predicted_period(m_start, s // 2, s % 2) == m
            m = 2 * m + 1 - m % 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predicted_period(9, -1, 0)
        with pytest.raises(ValueError):
            predicted_period(9, 0, 2)
