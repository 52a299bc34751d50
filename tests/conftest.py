"""Shared strategies and independent brute-force oracles for the test suite.

The naive oracles here deliberately use O(L^2) double loops and direct
definitions so they stay independent of the library's hashed implementations.
"""
from __future__ import annotations

from hypothesis import strategies as st

from orientseq import FiniteSeq, GeneratingCycle
from string_oracle import all_windows

bit_strings = st.text(alphabet="01", min_size=1, max_size=40)
windows_st = st.text(alphabet="01", min_size=1, max_size=12)


@st.composite
def cycles(draw, min_size=1, max_size=32):
    """Arbitrary generating cycles (reduced to their minimal period)."""
    s = draw(st.text(alphabet="01", min_size=min_size, max_size=max_size))
    p = (s + s).find(s, 1)
    return GeneratingCycle(s[:p])


finite_seqs = st.builds(FiniteSeq, bit_strings)


def naive_nwindow(s, n):
    """First repeated window by plain double loop, or None."""
    ws = all_windows(s, n)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if ws[i] == ws[j]:
                return (i, j)
    return None


def naive_orientable(s, n):
    """First forward or reversed collision by plain double loop, or None."""
    ws = all_windows(s, n)
    best = None
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if ws[i] == ws[j]:
                cand = (i, j)
                best = cand if best is None else min(best, cand)
    for i in range(len(ws)):
        for j in range(len(ws)):
            if ws[i] == ws[j][::-1]:
                cand = (i, j)
                best = cand if best is None else min(best, cand)
    return best
