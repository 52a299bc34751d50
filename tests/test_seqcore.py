from __future__ import annotations

import os
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orientseq.aperiodic import build_aos
from orientseq.join import debruijn_lempel
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable
from orientseq.search import max_aos_length, max_orientable_period
from orientseq.seqcore import (
    SIZE_LIMIT,
    BitsError,
    FiniteSeq,
    GeneratingCycle,
    NonMinimalPeriodError,
    WindowRangeError,
    as_bits,
    capped_size,
    cyclic_value,
    require_memory,
    reverse_value,
    window_bits,
)
from orientseq.verifier import _window_values

from conftest import cycles, finite_seqs, windows_st
from string_oracle import cyclic_slice


class TestConstruction:
    def test_cycle_accepts_minimal_periods(self):
        assert GeneratingCycle("001101").bits == "001101"
        assert GeneratingCycle("0").period == 1
        # Bits enter as '0'/'1' strings only.
        with pytest.raises(BitsError, match="^bits must be a '0'/'1' string, got \\[0, 1, 1\\]$"):
            GeneratingCycle([0, 1, 1])

    def test_repr(self):
        assert repr(GeneratingCycle("001101")) == "[001101]"
        assert repr(FiniteSeq("0011")) == "FiniteSeq(0011)"

    @pytest.mark.parametrize("bad", ["0101", "0000", "011011", "11"])
    def test_cycle_rejects_non_minimal_periods(self, bad):
        with pytest.raises(NonMinimalPeriodError):
            GeneratingCycle(bad)

    @pytest.mark.parametrize("bad", ["", "012", "0 1", [0, 2], [0, -1]])
    def test_rejects_non_binary_input(self, bad):
        with pytest.raises(BitsError):
            GeneratingCycle(bad)
        with pytest.raises(BitsError):
            FiniteSeq(bad)

    @given(st.text("01") | st.text("01 \t\n\x00\xa0\u2003\u0660\u0661\uff10\uff11\xb9"))
    def test_bits_check_accepts_what_strip_accepts(self, bits):
        # Whitespace and non-ASCII digits ('\u0661', '\uff11', '\xb9') are not bits.
        if bits and not bits.strip("01"):
            assert as_bits(bits) is bits
        elif bits:
            i = len(bits) - len(bits.lstrip("01"))
            with pytest.raises(BitsError, match=f"^bits must contain only '0' and '1': {len(bits)}"
                               f" characters, .* at position {i}$"):
                as_bits(bits)
        else:
            with pytest.raises(BitsError, match="^empty sequences are not allowed$"):
                as_bits(bits)

    def test_errors_for_long_inputs_stay_short(self):
        with pytest.raises(BitsError) as bad_char:
            as_bits("01" * 500_000 + "2")
        assert str(bad_char.value) == (
            "bits must contain only '0' and '1': 1000001 characters, '2' at position 1000000"
        )
        for value in ([0, 1] * 500_000, b"01" * 500_000):
            with pytest.raises(BitsError) as not_str:
                as_bits(value)
            assert len(str(not_str.value)) < 100

    @pytest.mark.parametrize("i", [65_535, 65_536, 65_537, 200_001])
    def test_bad_characters_past_the_first_slice(self, i):
        with pytest.raises(BitsError) as error:
            as_bits("0" * i + "2" + "1" * (300_000 - i))
        assert str(error.value) == (
            f"bits must contain only '0' and '1': 300001 characters, '2' at position {i}"
        )

    def test_checking_holds_no_copy_of_the_input(self):
        bits = "01" * 5_000_000
        tracemalloc.start()
        try:
            assert as_bits(bits) is bits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * len(bits), peak / len(bits)

    def test_iteration_reads_one_period(self):
        # Indexing a cycle wraps, so iteration must not fall back to it.
        assert list(GeneratingCycle("011")) == [0, 1, 1]
        assert 1 in GeneratingCycle("011") and 2 not in GeneratingCycle("011")
        assert 0 not in GeneratingCycle("1")
        assert list(FiniteSeq("0010")) == [0, 0, 1, 0]
        assert 1 in FiniteSeq("0010") and 2 not in FiniteSeq("0010")

    @given(st.one_of(cycles(), finite_seqs))
    def test_iteration_matches_indexing(self, s):
        assert list(s) == [s[i] for i in range(len(s))]

    def test_finite_seq_allows_repeats(self):
        assert FiniteSeq("0101").bits == "0101"

    def test_indexing(self):
        c = GeneratingCycle("001101")
        assert [c[i] for i in range(6)] == [0, 0, 1, 1, 0, 1]
        assert c[7] == c[1]
        s = FiniteSeq("011")
        assert s[2] == 1
        with pytest.raises(WindowRangeError, match=r"^window \[3, 4\) does not fit .* length 3$"):
            s[3]
        with pytest.raises(WindowRangeError, match=r"^window \[-1, 0\) does not fit"):
            s[-1]

    @given(cycles(), st.integers(-20, 100))
    def test_indexing_wraps_modulo_period(self, c, i):
        assert c[i] == c[i % c.period]


class TestWindow:
    """One window read as an integer: cyclic_value, and window_bits for words."""

    def test_cyclic_wrap(self):
        assert cyclic_value(GeneratingCycle("001101"), 4, 3) == 0b010

    def test_aperiodic_prefix(self):
        x, length = window_bits(FiniteSeq("00010111"), 4)
        assert x >> (length - 4) == 0b0001

    def test_order_exceeding_period(self):
        assert cyclic_value(GeneratingCycle("1"), 0, 3) == 0b111
        assert cyclic_value(GeneratingCycle("011"), 2, 8) == 0b10110110

    def test_finite_range_errors(self):
        s = FiniteSeq("0011")
        with pytest.raises(WindowRangeError):
            window_bits(s, 5)
        with pytest.raises(WindowRangeError):
            window_bits(s, 0)
        with pytest.raises(WindowRangeError):
            s[4]

    @given(cycles(), st.integers(-20, 100), st.integers(1, 10))
    def test_window_wraps_modulo_period(self, c, i, n):
        assert cyclic_value(c, i, n) == cyclic_value(c, i % c.period, n)

    @given(cycles(max_size=12), st.integers(0, 40), st.booleans(), st.data())
    def test_long_extensions_match_the_string_oracle(self, c, periods, partial, data):
        # Past its first piece, cyclic_value extends by doubling blocks of whole periods.
        m = c.period
        start = data.draw(st.integers(0, m - 1), label="start")
        rest = data.draw(st.integers(1, m - 1), label="partial") if partial and m > 1 else 0
        length = (m - start) + periods * m + rest
        assert cyclic_value(c, start, length) == int(cyclic_slice(c.bits, start, length), 2)
        n = periods * m + rest + 1  # the n-1 bits extending the period
        ext = cyclic_slice(c.bits, 0, m + n - 1)
        assert window_bits(c, n) == (int(ext, 2), len(ext))


class TestWindowValues:
    @given(st.text(alphabet="01", min_size=1, max_size=300), st.integers(1, 70))
    def test_every_window_as_an_integer(self, bits, n):
        # Lengths past 2 * 64 put several lanes in every shifted integer.
        expected = [int(bits[p : p + n], 2) for p in range(len(bits) - n + 1)]
        assert list(_window_values(int(bits, 2), len(bits), n)) == expected

    def test_lane_widths(self):
        x = 2**100 - 1
        assert type(_window_values(x, 100, 8)) is bytearray
        assert _window_values(x, 100, 9).typecode == _window_values(x, 100, 32).typecode == "I"
        assert _window_values(x, 100, 33).typecode == "Q"
        assert list(_window_values(x, 100, 64)) == [2**64 - 1] * 37
        assert _window_values(x, 100, 65) == [2**65 - 1] * 36

    def test_window_bits(self):
        assert window_bits(GeneratingCycle("001101"), 3) == (int("00110100", 2), 8)
        assert window_bits(GeneratingCycle("01"), 5) == (int("010101", 2), 6)
        assert window_bits(FiniteSeq("0011"), 4) == (int("0011", 2), 4)
        with pytest.raises(WindowRangeError):
            window_bits(FiniteSeq("0011"), 5)
        with pytest.raises(WindowRangeError):
            window_bits(GeneratingCycle("01"), 0)


class TestTupleOps:
    """Reversal of an n-tuple held as an n-bit integer."""

    def test_examples(self):
        assert reverse_value(0b011, 3) == 0b110
        assert reverse_value(0b010, 3) == 0b010  # a symmetric window
        assert reverse_value(1, 9) == 1 << 8  # past one byte of the table
        assert reverse_value(0, 1) == 0 and reverse_value(1, 1) == 1

    @given(windows_st)
    def test_involutions(self, w):
        x, m = int(w, 2), len(w)
        assert reverse_value(x, m) == int(w[::-1], 2)
        assert reverse_value(reverse_value(x, m), m) == x

    @given(windows_st)
    def test_reverse_commutes_with_complement(self, w):
        x, mask = int(w, 2), (1 << len(w)) - 1
        assert reverse_value(x ^ mask, len(w)) == reverse_value(x, len(w)) ^ mask

    # The masks the merge fuses into its one table pass, and the verifier's 0.
    @pytest.mark.parametrize("mask", [0, 0xFF, 0x55, 0xAA])
    @given(w=st.text("01", max_size=80))
    def test_masked_reversal_is_the_string_reversal_xor_the_repeated_byte(self, mask, w):
        x, m = int(w or "0", 2), len(w)
        repeated = (format(mask, "08b") * (m // 8 + 1))[:m]
        assert reverse_value(x, m, mask) == int(w[::-1] or "0", 2) ^ int(repeated or "0", 2)


class TestWeightAndOccurrences:
    def test_weight_examples(self):
        assert GeneratingCycle("001101").weight == 3
        assert GeneratingCycle("000100111011").weight == 6
        assert GeneratingCycle("0").weight == 0

    def test_occurrence_examples(self):
        assert cyclic_windows(GeneratingCycle("001010111"), 2).count(0b00) == 1
        assert cyclic_windows(GeneratingCycle("001101"), 2).count(0b01) == 2
        assert cyclic_windows(GeneratingCycle("0"), 1).count(0b1) == 0

    def test_wrapping_occurrences(self):
        # the only 00 in [01010] straddles the period boundary
        assert cyclic_windows(GeneratingCycle("01010"), 2).count(0b00) == 1

    @given(cycles(), st.integers(1, 6))
    def test_occurrences_of_all_windows_sum_to_period(self, c, n):
        values = cyclic_windows(c, n)
        assert values == [cyclic_value(c, i, n) for i in range(c.period)]
        assert sum(values.count(v) for v in set(values)) == c.period


def cyclic_windows(c, n):
    """The n-windows of c, one per position of its period, as integers."""
    return list(_window_values(*window_bits(c, n), n))


class TestRequireMemory:
    def test_small_needs_pass(self):
        require_memory("a table", 1 << 20)

    @pytest.mark.parametrize(
        "need,text",
        [(1 << 70, "about .* GiB, more than the"), (1 << 5000, "at least 2\\^1000 bytes,")],
        ids=["2^70", "2^5000"],
    )
    def test_needs_past_physical_memory_are_refused(self, need, text):
        # 2^5000 bytes is past the float range: refused at the size limit, no GiB figure.
        with pytest.raises(ValueError, match=f"^a table need {text}") as refused:
            require_memory("a table", need, 1)
        assert "inf" not in str(refused.value)

    def test_size_limit_holds_where_memory_is_not_reported(self, monkeypatch):
        def unreported(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "sysconf", unreported)
        require_memory("a table", 1 << 70, 1)
        with pytest.raises(ValueError, match="^a table need at least 2\\^1000 bytes,"):
            require_memory("a table", 1 << 999, 2)

    def test_sizes_past_the_limit_are_not_computed(self):
        def count():
            raise AssertionError("computed")

        assert capped_size(SIZE_LIMIT, count) == 1 << SIZE_LIMIT
        assert capped_size(SIZE_LIMIT - 1, lambda: 7) == 7


@pytest.mark.parametrize(
    "build",
    [
        lambda n: build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, n),
        build_aos,
        debruijn_lempel,
        max_orientable_period,
        max_aos_length,
    ],
    ids=["build_orientable", "build_aos", "debruijn_lempel", "max_orientable_period",
         "max_aos_length"],
)
def test_absurd_orders_are_refused_at_the_size_limit(build):
    # 2^(10^11) bits or windows: refused from the order alone, the size never computed.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="need at least 2\\^1000 bytes,") as refused:
        build(10**11)
    assert time.perf_counter() - start < 0.5
    assert "inf" not in str(refused.value)
