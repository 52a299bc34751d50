from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orientseq.lempel import (
    alternating,
    d_forward_aperiodic,
    d_forward_periodic,
    d_inverse_aperiodic,
    d_inverse_periodic,
)
from orientseq.seqcore import FiniteSeq, GeneratingCycle, WindowRangeError
from orientseq.verifier import (
    verify_disjoint,
    verify_o_disjoint,
    verify_orientable,
    verify_primitive,
)

from conftest import cycles, finite_seqs
from string_oracle import complement


class TestForwardPeriodic:
    def test_examples(self):
        assert d_forward_periodic(GeneratingCycle("011")) == GeneratingCycle("101")
        # raw image 100100 reduces to its minimal period
        assert d_forward_periodic(GeneratingCycle("100011")) == GeneratingCycle("100")
        assert d_forward_periodic(GeneratingCycle("001101")) == GeneratingCycle("010111")

    def test_single_bit(self):
        assert d_forward_periodic(GeneratingCycle("1")) == GeneratingCycle("0")
        assert d_forward_periodic(GeneratingCycle("0")) == GeneratingCycle("0")


class TestInversePeriodic:
    def test_even_weight_pair(self):
        inv = d_inverse_periodic(GeneratingCycle("101"))
        assert inv.second is not None
        assert inv.first == GeneratingCycle("011")
        assert inv.second == GeneratingCycle("100")

    def test_odd_weight_single(self):
        inv = d_inverse_periodic(GeneratingCycle("100"))
        assert inv.second is None
        assert inv.first == GeneratingCycle("100011")

    def test_doubled_example(self):
        inv = d_inverse_periodic(GeneratingCycle("001101"))
        assert inv.first == GeneratingCycle("000100111011")

    def test_pair_first_starts_with_zero_and_second_is_complement(self):
        inv = d_inverse_periodic(GeneratingCycle("000100111011"))
        assert inv.first.bits.startswith("0")
        assert inv.second.bits == complement(inv.first.bits)

    @given(cycles())
    def test_round_trip(self, c):
        for t in d_inverse_periodic(c).sequences():
            assert d_forward_periodic(t) == c

    @given(cycles(max_size=16))
    def test_weight_parity_case_split(self, c):
        # any minimal cycle of period m is an m-window sequence, so the
        # case split applies at order m+1
        m = c.period
        inv = d_inverse_periodic(c)
        if c.weight % 2 == 0:
            assert inv.second is not None
            assert inv.first.period == m and inv.second.period == m
            assert verify_disjoint(inv.first, inv.second, m + 1) is None
            assert verify_primitive(inv.first, m + 1) is None
            assert verify_primitive(inv.second, m + 1) is None
        else:
            assert inv.second is None
            assert inv.first.period == 2 * m
            assert inv.first.weight == inv.first.bits.count("1") == m


class TestOrientabilityLifting:
    @pytest.mark.parametrize(
        "bits,n",
        [("001101", 5), ("000100111011", 6), ("001010111", 6), ("000110010111001101", 7)],
    )
    def test_inverse_of_orientable_is_orientable(self, bits, n):
        c = GeneratingCycle(bits)
        assert verify_orientable(c, n) is None
        inv = d_inverse_periodic(c)
        for t in inv.sequences():
            assert verify_orientable(t, n + 1) is None
        if inv.second is not None:
            assert verify_o_disjoint(inv.first, inv.second, n + 1) is None


class TestAperiodic:
    def test_forward_examples(self):
        assert d_forward_aperiodic(FiniteSeq("0011")) == FiniteSeq("010")
        assert d_forward_aperiodic(FiniteSeq("00010")) == FiniteSeq("0011")
        assert d_forward_aperiodic(FiniteSeq("01")) == FiniteSeq("1")

    def test_forward_needs_two_bits(self):
        with pytest.raises(WindowRangeError):
            d_forward_aperiodic(FiniteSeq("0"))

    def test_inverse_examples(self):
        inv = d_inverse_aperiodic(FiniteSeq("01"))
        assert (inv.first, inv.second) == (FiniteSeq("001"), FiniteSeq("110"))
        inv = d_inverse_aperiodic(FiniteSeq("0011"))
        assert (inv.first, inv.second) == (FiniteSeq("00010"), FiniteSeq("11101"))
        inv = d_inverse_aperiodic(FiniteSeq("0"))
        assert (inv.first, inv.second) == (FiniteSeq("00"), FiniteSeq("11"))

    @given(finite_seqs)
    def test_round_trip(self, s):
        inv = d_inverse_aperiodic(s)
        assert inv.second is not None
        for t in inv.sequences():
            assert len(t) == len(s) + 1
            assert d_forward_aperiodic(t) == s
        assert inv.first.bits.startswith("0")
        assert inv.second.bits == complement(inv.first.bits)


class TestTupleLevelMap:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_preimages_are_exactly_complement_pairs(self, n):
        by_image: dict[str, set[str]] = {}
        for u in range(1 << n):
            w = format(u, f"0{n}b")
            img = d_forward_aperiodic(FiniteSeq(w)).bits
            by_image.setdefault(img, set()).add(w)
        # onto, and each image has exactly the pair {u, complement(u)}
        assert len(by_image) == 1 << (n - 1)
        for img, pre in by_image.items():
            assert len(pre) == 2
            a, b = sorted(pre)
            assert b == complement(a)


class TestAlternating:
    def test_is_the_long_division(self):
        for k in [*range(301), 1_000_003]:
            assert alternating(k) == (1 << k) // 3, k
