from __future__ import annotations

import pytest

from orientseq.seqcore import BitsError, FiniteSeq, GeneratingCycle, NonMinimalPeriodError
from orientseq.seqio import SequenceFile, parse_sequence, read_sequence, write_sequence


class TestParse:
    def test_plain_bits(self):
        f = parse_sequence("001101\n")
        assert (f.bits, f.mode, f.order) == ("001101", None, None)

    def test_header_and_comments(self):
        f = parse_sequence("# produced by hand\n# mode=periodic order=5\n001101\n")
        assert (f.bits, f.mode, f.order) == ("001101", "periodic", 5)

    def test_unknown_header_keys_ignored(self):
        f = parse_sequence("# mode=aperiodic order=4 seed=7 flavor=x\n00010111\n")
        assert (f.mode, f.order) == ("aperiodic", 4)

    def test_bad_values_ignored(self):
        f = parse_sequence("# mode=sideways order=soon\n01\n")
        assert (f.mode, f.order) == (None, None)

    def test_rejects_multiple_bit_lines(self):
        with pytest.raises(BitsError):
            parse_sequence("01\n10\n")

    def test_rejects_empty_and_junk(self):
        with pytest.raises(BitsError):
            parse_sequence("# only a comment\n")
        with pytest.raises(BitsError):
            parse_sequence("01x0\n")

    def test_conversions(self):
        f = parse_sequence("001101\n")
        assert f.to_cycle() == GeneratingCycle("001101")
        assert f.to_finite() == FiniteSeq("001101")

    def test_hand_built_file_is_validated(self):
        with pytest.raises(BitsError):
            SequenceFile(bits="01x0")
        with pytest.raises(BitsError, match="^bits must be a '0'/'1' string"):
            SequenceFile(bits=[0, 1, 1])

    def test_non_minimal_periodic_file(self):
        text = r"^\[0101\] is not a minimal period \(repeats every 2 bits\)$"
        with pytest.raises(NonMinimalPeriodError, match=text):
            parse_sequence("0101\n").to_cycle()

    def test_long_non_minimal_cycles_are_named_not_echoed(self):
        # Up to 64 bits the cycle is echoed; past that, its length stands in.
        with pytest.raises(NonMinimalPeriodError, match=r"^\[(01){32}\] is not a minimal"):
            parse_sequence("01" * 32 + "\n").to_cycle()
        text = r"^a cycle of 200000 bits is not a minimal period \(repeats every 2 bits\)$"
        with pytest.raises(NonMinimalPeriodError, match=text):
            parse_sequence("01" * 100_000 + "\n").to_cycle()


class TestRoundTrip:
    def test_cycle_file(self, tmp_path):
        path = tmp_path / "c.seq"
        write_sequence(path, GeneratingCycle("001101").bits, mode="periodic", order=5)
        assert path.read_text(encoding="ascii") == "# mode=periodic order=5\n001101\n"
        f = read_sequence(path)
        assert (f.bits, f.mode, f.order) == ("001101", "periodic", 5)

    def test_finite_file(self, tmp_path):
        path = tmp_path / "s.seq"
        write_sequence(path, FiniteSeq("00010111").bits, mode="aperiodic", order=4)
        f = read_sequence(path)
        assert (f.bits, f.mode, f.order) == ("00010111", "aperiodic", 4)

    def test_raw_string_with_explicit_mode(self, tmp_path):
        # A hand-written header may name a mode and no order.
        path = tmp_path / "r.seq"
        path.write_text("# mode=aperiodic\n0101\n", encoding="ascii")
        f = read_sequence(path)
        assert (f.bits, f.mode, f.order) == ("0101", "aperiodic", None)
