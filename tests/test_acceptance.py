"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to see them).  Timing limits are asserted with a monotonic clock so a slow
machine fails loudly rather than silently.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from orientseq.aperiodic import (
    BURNS_TABLE,
    build_aos,
    burns_bound,
    is_ideal,
    predicted_length,
)
from orientseq.join import debruijn_lempel
from orientseq.lempel import d_inverse_periodic
from orientseq.locator import build_index, locate
from orientseq.periodic import (
    DEFAULT_STARTER,
    build_orientable,
    dai_bound,
    is_good,
    predicted_period,
)
from orientseq.search import max_aos_length, max_orientable_period
from orientseq.seqcore import FORWARD, REVERSE, FiniteSeq, GeneratingCycle
from orientseq.verifier import verify_nwindow, verify_orientable

from string_oracle import all_windows


@contextmanager
def criterion(label: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_s:
        print(f"ACCEPTANCE {label}: FAIL (took {elapsed:.1f}s > {limit_s:.0f}s)")
        pytest.fail(f"criterion {label} exceeded its {limit_s:.0f}s budget")
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_inverse_map_examples():
    with criterion("1 (inverse map worked examples)", 1.0):
        pair = d_inverse_periodic(GeneratingCycle("101"))
        assert pair.second is not None
        assert {pair.first.bits, pair.second.bits} == {"011", "100"}

        single = d_inverse_periodic(GeneratingCycle("100"))
        assert single.second is None
        assert single.first.bits == "100011"

        doubled = d_inverse_periodic(GeneratingCycle("001101"))
        assert doubled.first.bits == "000100111011"
        again = d_inverse_periodic(doubled.first)
        assert {again.first.bits, again.second.bits} == {
            "000011101001",
            "111100010110",
        }


def test_acceptance_2_periodic_family():
    with criterion("2 (periodic family and closed form)", 10.0):
        cycle, trace = build_orientable(DEFAULT_STARTER, 6, 10)
        assert [s.period for s in trace.steps] == [9, 18, 37, 74, 149]
        s7, _ = build_orientable(DEFAULT_STARTER, 6, 7)
        assert s7.bits == "000110010111001101"
        s8, _ = build_orientable(DEFAULT_STARTER, 6, 8)
        assert s8.bits == "0000100011010001001111101110010111011"

        c = DEFAULT_STARTER
        for n in range(6, 11):
            assert verify_orientable(c, n) is None
            assert is_good(c, n)
            assert c.weight % 2 == 1
            if n < 10:
                c, _ = build_orientable(c, n, n + 1)

        _, deep = build_orientable(DEFAULT_STARTER, 6, 30)
        for k, step in enumerate(deep.steps):
            assert step.period == predicted_period(9, k // 2, k % 2)


def test_acceptance_3_aperiodic_family():
    with criterion("3 (aperiodic family and closed form)", 10.0):
        _, trace = build_aos(10)
        assert [s.period for s in trace.steps] == [2, 4, 8, 14, 26, 48, 92, 178, 350]
        for n, bits in [(2, "01"), (3, "0011"), (4, "00010111"), (5, "00001101001111")]:
            s, _ = build_aos(n)
            assert s.bits == bits
            assert is_ideal(s, n)
            assert verify_orientable(s, n) is None
        for m, step in enumerate(trace.steps):
            assert step.period == predicted_length(2, 2, m)
        for n in range(6, 11):
            s, _ = build_aos(n)
            assert is_ideal(s, n)
            assert verify_orientable(s, n) is None


def test_acceptance_4_bounds():
    with criterion("4 (bound tables)", 1.0):
        assert [dai_bound(n) for n in range(5, 10)] == [6, 17, 40, 96, 206]
        for n in range(2, 17):
            assert burns_bound(n) >= len(build_aos(n)[0])
        for n, value in BURNS_TABLE.items():
            assert burns_bound(n) >= value


def test_acceptance_5_search_desk_scale():
    with criterion("5 (exhaustive search, desk scale)", 60.0):
        r = max_orientable_period(5)
        assert (r.value, r.exhaustive) == (6, True)
        r = max_aos_length(4)
        assert (r.value, r.exhaustive) == (8, True)
        r = max_aos_length(5)
        assert (r.value, r.exhaustive) == (14, True)


@pytest.mark.slow
def test_acceptance_5_search_long_running():
    with criterion("5 (exhaustive search, long-running)", 3600.0):
        r = max_orientable_period(6)
        assert (r.value, r.exhaustive) == (16, True)


def test_acceptance_6_debruijn_cross_check():
    with criterion("6 (doubling recursion cross-check)", 5.0):
        for n in range(1, 13):
            c = debruijn_lempel(n)
            assert c.period == 2**n
            assert verify_nwindow(c, n) is None


def test_acceptance_7_property_suites():
    with criterion("7 (combined property suite)", 30.0):
        # adjacent-XOR map round trips, both modes
        from orientseq.lempel import (
            d_forward_aperiodic,
            d_forward_periodic,
            d_inverse_aperiodic,
        )
        import random

        rng = random.Random(20260823)
        for _ in range(200):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 60)))
            p = (bits + bits).find(bits, 1)
            c = GeneratingCycle(bits[:p])
            inv = d_inverse_periodic(c)
            for t in inv.sequences():
                assert d_forward_periodic(t) == c
            # weight parity case split
            if c.weight % 2 == 0:
                assert inv.second is not None
                assert inv.first.period == c.period
            else:
                assert inv.second is None
                assert inv.first.period == 2 * c.period
                assert inv.first.weight == c.period
            w = FiniteSeq(bits)
            for t in d_inverse_aperiodic(w).sequences():
                assert d_forward_aperiodic(t) == w

        # orientability implies the window property, on random words
        for _ in range(200):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(4, 40)))
            n = rng.randint(2, 6)
            s = FiniteSeq(bits)
            if len(bits) >= n and verify_orientable(s, n) is None:
                assert verify_nwindow(s, n) is None

        # locator round trip on every constructed sequence
        for n in range(6, 10):
            c, _ = build_orientable(DEFAULT_STARTER, 6, n)
            idx = build_index(c, n)
            for i, w in enumerate(all_windows(c, n)):
                assert locate(idx, w) == (i, FORWARD)
                assert locate(idx, w[::-1]) == (i, REVERSE)
        for n in range(4, 10):
            s, _ = build_aos(n)
            idx = build_index(s, n)
            for i, w in enumerate(all_windows(s, n)):
                assert locate(idx, w) == (i, FORWARD)
                assert locate(idx, w[::-1]) == (i, REVERSE)

        # distinct tuple count across both directions
        for n in range(2, 11):
            s, _ = build_aos(n)
            ws = all_windows(s, n)
            assert len(set(ws) | {w[::-1] for w in ws}) == 2 * len(s) - 2 * n + 2

        # concrete stand-in for the asymptotic density claims
        for n in range(8, 25):
            assert len(build_aos(n)[0]) / burns_bound(n) >= 0.66
