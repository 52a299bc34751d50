from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orientseq import aperiodic, periodic
from orientseq.cli import _load_seq
from orientseq.join import debruijn_lempel
from orientseq.seqcore import BitsError, FiniteSeq, GeneratingCycle, NonMinimalPeriodError
from orientseq.seqio import read_sequence, write_sequence
from string_oracle import parse_sequence


def written(tmp_path, text: str, name: str = "f.seq"):
    """Path of a file holding text's UTF-8 bytes, line ends as given."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def read(tmp_path, text: str):
    """(bits, mode, order) that read_sequence gives for a file holding text."""
    seq, mode, order = read_sequence(written(tmp_path, text))
    assert type(seq) is FiniteSeq
    return seq.bits, mode, order


class TestParse:
    def test_plain_bits(self, tmp_path):
        assert read(tmp_path, "001101\n") == ("001101", None, None)

    def test_header_and_comments(self, tmp_path):
        text = "# produced by hand\n# mode=periodic order=5\n001101\n"
        assert read(tmp_path, text) == ("001101", "periodic", 5)

    def test_unknown_header_keys_ignored(self, tmp_path):
        text = "# mode=aperiodic order=4 seed=7 flavor=x\n00010111\n"
        assert read(tmp_path, text)[1:] == ("aperiodic", 4)

    def test_bad_values_ignored(self, tmp_path):
        assert read(tmp_path, "# mode=sideways order=soon\n01\n")[1:] == (None, None)

    def test_rejects_multiple_bit_lines(self, tmp_path):
        with pytest.raises(BitsError):
            read(tmp_path, "01\n10\n")

    def test_rejects_empty_and_junk(self, tmp_path):
        with pytest.raises(BitsError):
            read(tmp_path, "# only a comment\n")
        with pytest.raises(BitsError):
            read(tmp_path, "01x0\n")

    def test_conversions(self, tmp_path):
        path = written(tmp_path, "001101\n")
        assert _load_seq(path, "periodic", 5) == (GeneratingCycle("001101"), "periodic", 5)
        assert _load_seq(path, "aperiodic", 5) == (FiniteSeq("001101"), "aperiodic", 5)

    def test_hand_built_file_is_validated(self, tmp_path):
        # The body is checked as text before it is packed: what int(x, 2) would also
        # take, a prefix, a sign or a separator, is refused with the character it meets.
        with pytest.raises(BitsError, match="^bits must contain only '0' and '1': 4 characters,"
                                            " 'x' at position 2$"):
            read(tmp_path, "01x0\n")
        for body, bad in (("0b0110", 1), ("-0110", 0), ("01_10", 2), ("01 10", 2)):
            with pytest.raises(BitsError, match=f"^bits must contain .* at position {bad}$"):
                read(tmp_path, body + "\n")

    def test_non_minimal_periodic_file(self, tmp_path):
        text = r"^\[0101\] is not a minimal period \(repeats every 2 bits\)$"
        with pytest.raises(NonMinimalPeriodError, match=text):
            _load_seq(written(tmp_path, "0101\n"), "periodic", 2)

    def test_long_non_minimal_cycles_are_named_not_echoed(self, tmp_path):
        # Up to 64 bits the cycle is echoed; past that, its length stands in.
        with pytest.raises(NonMinimalPeriodError, match=r"^\[(01){32}\] is not a minimal"):
            _load_seq(written(tmp_path, "01" * 32 + "\n"), "periodic", 2)
        text = r"^a cycle of 200000 bits is not a minimal period \(repeats every 2 bits\)$"
        with pytest.raises(NonMinimalPeriodError, match=text):
            _load_seq(written(tmp_path, "01" * 100_000 + "\n"), "periodic", 2)
        # The same bits as a word are fine.
        assert _load_seq(written(tmp_path, "0101\n"), "aperiodic", 2)[0] == FiniteSeq("0101")


class TestRoundTrip:
    def test_cycle_file(self, tmp_path):
        path = tmp_path / "c.seq"
        write_sequence(path, GeneratingCycle("001101").bits, mode="periodic", order=5)
        assert path.read_text(encoding="ascii") == "# mode=periodic order=5\n001101\n"
        seq, mode, order = read_sequence(path)
        assert (seq, mode, order) == (FiniteSeq("001101"), "periodic", 5)

    def test_finite_file(self, tmp_path):
        path = tmp_path / "s.seq"
        write_sequence(path, FiniteSeq("00010111").bits, mode="aperiodic", order=4)
        assert read_sequence(path) == (FiniteSeq("00010111"), "aperiodic", 4)

    def test_raw_string_with_explicit_mode(self, tmp_path):
        # A hand-written header may name a mode and no order.
        assert read(tmp_path, "# mode=aperiodic\n0101\n") == ("0101", "aperiodic", None)

    def test_members_and_de_bruijn_cycles_load_as_written(self, tmp_path):
        p0, a0 = periodic.DEFAULT_STARTER_ORDER, aperiodic.DEFAULT_STARTER_ORDER
        cases = [("periodic", n, debruijn_lempel(n)) for n in range(1, 17)]
        cases += [("periodic", n, periodic.build_orientable(periodic.DEFAULT_STARTER, p0, n)[0])
                  for n in range(p0, 17)]
        cases += [("aperiodic", n, aperiodic.build_aos(n)[0]) for n in range(a0, 17)]
        path = tmp_path / "m.seq"
        for mode, n, seq in cases:
            write_sequence(path, seq.bits, mode=mode, order=n)
            assert _load_seq(path, None, None) == (seq, mode, n), (mode, n)


def outcome(read):
    """What read() returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:  # compared as type and message
        return type(exc), str(exc)


def assert_as_oracle(path):
    """read_sequence gives the oracle's (value, length, mode, order) for the file at
    path, or raises the same exception with the same message."""
    def packed():
        seq, mode, order = read_sequence(path)
        return seq.value, len(seq), mode, order

    def oracle():
        with open(path, encoding="ascii") as fh:
            bits, mode, order = parse_sequence(fh.read())
        return int(bits, 2), len(bits), mode, order

    assert outcome(packed) == outcome(oracle)


ORACLE_CASES = [
    "\n\n001101\n\n",
    "# mode=periodic order=5\r\n\r\n001101\r\n",
    "001101\r",
    "# before\n001101\n# after mode=aperiodic order=3\n",
    "01\n10\n",
    "",
    "\n  \n# only a comment\n",
    "0120\n",
    "0193\n",
    "23456789\n",
    "0b0110\n",
    "0B11\n",
    "01_10\n",
    "+0110\n",
    "-0110\n",
    "01 10\n",
    "  0110  \n",
    "\t0110\x0b\x0c\n",
    "01\x1c10\n",
    "# mode=periodic é\n0110\n",
    "# mode=periodic\n01é10\n",
    "# order=" + "7" * 5000 + "\n0110\n",
    "# mode=sideways order=4\n0110\n",
    "# mode=aperiodic order=-3 order=12\n1\n",
]


@pytest.mark.parametrize("text", ORACLE_CASES)
def test_reads_as_the_string_oracle(tmp_path, text):
    assert_as_oracle(written(tmp_path, text))


ORACLE_ALPHABET = ["0", "1", "2", "#", "=", "a", "b", "_", " ", "\n", "\r", "\t", "\x0b",
                   "\x0c", "\x1c", "é"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ORACLE_ALPHABET + ["mode", "order", "periodic", "0b"])))
def test_random_texts_read_as_the_string_oracle(tmp_path_factory, pieces):
    path = tmp_path_factory.getbasetemp() / "oracle.seq"
    path.write_bytes("".join(pieces).encode("utf-8"))
    assert_as_oracle(path)


def test_reading_holds_the_file_about_twice_and_keeps_its_packed_bits(tmp_path):
    member, _ = periodic.build_orientable(periodic.DEFAULT_STARTER,
                                          periodic.DEFAULT_STARTER_ORDER, 20)
    path = tmp_path / "p20.seq"
    write_sequence(path, member.bits, mode="periodic", order=20)
    size = path.stat().st_size
    del member
    tracemalloc.start()
    try:
        got = read_sequence(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[1:] == ("periodic", 20)
    assert peak <= 2.5 * size, peak / size
    assert held <= 0.3 * size, held / size
