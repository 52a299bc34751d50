"""Integer-window checks against the string-keyed oracle, answer for answer.

Every verify_*, find_conjugate_positions and build_index must return exactly
what tests/string_oracle.py returns: the same Counterexample (i, j and kind),
the same pair, the same index, or an exception of the same type and message.
Window orders run past 64, where window_values falls back to a list, and past
the period, where cyclic windows wrap more than once.
"""
from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import string_oracle as oracle
from orientseq import join, locator, verifier
from orientseq.aperiodic import build_aos
from orientseq.periodic import DEFAULT_STARTER, build_orientable
from orientseq.seqcore import (
    FiniteSeq,
    GeneratingCycle,
    PreconditionError,
    WindowRangeError,
    complement,
)

from conftest import cycles

SINGLE = ("verify_nwindow", "verify_orientable", "verify_primitive")
PAIR = ("verify_disjoint", "verify_o_disjoint")

orders = st.integers(1, 70)
pieces = st.text(alphabet="01", max_size=50)
# Repeated and mirrored pieces make collisions likely at large orders too.
bit_strings = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=100),
    st.builds(lambda a, b: a + b + a, pieces, pieces),
    st.builds(lambda a, b: a + b + a[::-1], pieces, pieces),
).filter(bool)
words = st.builds(FiniteSeq, bit_strings)
sequences = st.one_of(cycles(max_size=100), words)


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (WindowRangeError, PreconditionError) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(name, *args):
    assert outcome(getattr(verifier, name), *args) == outcome(getattr(oracle, name), *args)


def flip(bits, p):
    return bits[:p] + ("1" if bits[p] == "0" else "0") + bits[p + 1 :]


def as_cycle(bits):
    """The generating cycle of the periodic sequence with period bits."""
    return GeneratingCycle(bits[: (bits + bits).find(bits, 1)])


@functools.lru_cache(maxsize=None)
def family(kind, n):
    if kind == "periodic":
        return build_orientable(DEFAULT_STARTER, 6, n)[0]
    return build_aos(n)[0]


class TestVerifiers:
    @given(sequences, orders)
    def test_single_checks(self, s, n):
        for name in SINGLE:
            assert_matches_oracle(name, s, n)

    @given(sequences, sequences, orders)
    def test_pair_checks(self, s, t, n):
        for name in PAIR:
            assert_matches_oracle(name, s, t, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["periodic", "aperiodic"]), st.integers(2, 16), st.data())
    def test_one_bit_mutants(self, kind, n, data):
        if kind == "periodic":
            n = max(n, 6)
        source = family(kind, n)
        p = data.draw(st.integers(0, len(source) - 1), label="flipped bit")
        bits = flip(source.bits, p)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        for name in SINGLE:
            assert_matches_oracle(name, mutant, n)
        for other in (source, type(source)(complement(source.bits))):
            for name in PAIR:
                assert_matches_oracle(name, mutant, other, n)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["periodic", "aperiodic"])
    def test_order_22_member_and_mutant(self, kind):
        source = family(kind, 22)
        bits = flip(source.bits, len(source) // 3)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        for s in (source, mutant):
            for name in ("verify_nwindow", "verify_orientable"):
                assert_matches_oracle(name, s, 22)
        assert verifier.verify_orientable(source, 22) is None
        assert verifier.verify_orientable(mutant, 22) is not None


class TestConjugatePositions:
    @given(cycles(max_size=100), cycles(max_size=100), orders)
    def test_random_pairs(self, s, t, n):
        assert outcome(join.find_conjugate_positions, s, t, n) == outcome(
            oracle.find_conjugate_positions, s, t, n
        )

    @given(cycles(min_size=2, max_size=100), orders, st.data())
    def test_pairs_one_flip_apart(self, s, n, data):
        # Flipping one bit of s makes the windows whose top bit it is conjugates.
        t = as_cycle(flip(s.bits, data.draw(st.integers(0, s.period - 1))))
        assert join.find_conjugate_positions(s, t, n) == oracle.find_conjugate_positions(s, t, n)


class TestBuildIndex:
    @given(sequences, st.integers(1, 12))
    def test_rejects_exactly_what_the_oracle_rejects(self, s, n):
        assert outcome(locator.build_index, s, n) == outcome(oracle.build_index, s, n)

    @pytest.mark.parametrize("kind,n", [("periodic", 10), ("aperiodic", 10)])
    def test_family_member_and_mutant(self, kind, n):
        source = family(kind, n)
        assert locator.build_index(source, n) == oracle.build_index(source, n)
        bits = flip(source.bits, 0)
        mutant = as_cycle(bits) if kind == "periodic" else FiniteSeq(bits)
        assert outcome(locator.build_index, mutant, n) == outcome(oracle.build_index, mutant, n)
