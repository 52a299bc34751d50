"""Shared strategies, independent brute-force oracles and the child-process runner
for the test suite.

The naive oracles here deliberately use O(L^2) double loops and direct
definitions so they stay independent of the library's hashed implementations.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import orientseq
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


def child_env() -> dict:
    """The environment for a fresh interpreter that imports the orientseq this process
    imported, its directory first on PYTHONPATH: the checkout under PYTHONPATH=src, or an
    installed package when the suite runs against one from outside the checkout."""
    root = str(Path(orientseq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_child(*args: str, limit: int | None = None, timeout: float = 60, **kwargs):
    """A fresh interpreter run on args under child_env, its output captured as text.
    limit caps the child's address space in bytes (RLIMIT_AS), as `ulimit -v` does in
    KiB; kwargs go to subprocess.run."""
    if limit is not None:
        import resource

        kwargs["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), timeout=timeout, **kwargs)
