from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orientseq import search
from orientseq.aperiodic import build_aos
from orientseq.cli import main
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable, dai_bound
from orientseq.seqcore import GeneratingCycle, cyclic_value, reverse_value
from orientseq.seqio import read_sequence, write_sequence
from orientseq.verifier import verify_orientable
from conftest import child_env, run_child
from string_oracle import flip


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_periodic_human(self, capsys):
        code, out, _ = run(capsys, "construct", "periodic", "--target-order", "8")
        assert code == 0
        assert "period 37" in out
        assert "0000100011010001001111101110010111011" in out

    def test_periodic_json_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, out, _ = run(
            capsys,
            "construct", "periodic", "--target-order", "9",
            "--trace", str(trace_path), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["period"] == 74
        trace = json.loads(trace_path.read_text())
        assert [s["period"] for s in trace["steps"]] == [9, 18, 37, 74]

    def test_aperiodic(self, capsys):
        code, out, _ = run(
            capsys, "construct", "aperiodic", "--target-order", "5", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["bits"] == "00001101001111"
        assert payload["length"] == 14

    def test_debruijn(self, capsys):
        code, out, _ = run(capsys, "construct", "debruijn", "--order", "6", "--json")
        assert code == 0
        assert json.loads(out)["period"] == 64

    def test_custom_starter_file(self, capsys, tmp_path):
        starter = tmp_path / "starter.seq"
        write_sequence(starter, "000110010111001101", mode="periodic", order=7)
        code, out, _ = run(
            capsys,
            "construct", "periodic", "--target-order", "9",
            "--starter", str(starter), "--json",
        )
        assert code == 0
        assert json.loads(out)["period"] == 74


class TestConstructVerifyPipeline:
    @pytest.mark.parametrize(
        "construct_args,verify_extra",
        [
            (["periodic", "--target-order", "8"], []),
            (["aperiodic", "--target-order", "7"], []),
            (["debruijn", "--order", "7"], ["--property", "nwindow", "--order", "7"]),
        ],
    )
    def test_every_output_verifies(self, capsys, tmp_path, construct_args, verify_extra):
        out_path = tmp_path / "seq.txt"
        code, _, _ = run(capsys, "construct", *construct_args, "--out", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(out_path), *verify_extra)
        assert code == 0
        assert "ok" in out


class TestVerify:
    def test_failure_exit_code_and_counterexample(self, capsys, tmp_path):
        path = tmp_path / "bad.seq"
        write_sequence(path, "00110", mode="periodic", order=2)
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        # the symmetric window 00 at position 0 is the first offender
        assert payload["counterexample"] == {"i": 0, "j": 0, "kind": "symmetric"}
        code, out, _ = run(
            capsys, "verify", str(path), "--property", "nwindow", "--json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["counterexample"] == {"i": 0, "j": 4, "kind": "forward"}

    def test_missing_headers_need_flags(self, capsys, tmp_path):
        path = tmp_path / "raw.seq"
        path.write_text("001101\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "mode" in err
        code, _, err = run(capsys, "verify", str(path), "--mode", "periodic")
        assert code == 2 and "order" in err
        code, _, _ = run(capsys, "verify", str(path), "--mode", "periodic", "--order", "5")
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/no/such/file.seq")
        assert code == 2 and "error" in err


@pytest.mark.parametrize("order", [22, 24])
@pytest.mark.parametrize("extra,limit", [([], 3.0), (["--json"], 4.0)], ids=["human", "json"])
def test_construct_copies_the_sequence_few_times(tmp_path, monkeypatch, order, extra, limit):
    # The bits string once, its ascii encoding as the file and stdout write it, and
    # under --json the payload's text: no copy of the body to join it to a header.
    out = tmp_path / "p.seq"
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert main(["construct", "periodic", "--target-order", str(order),
                         "--out", str(out), *extra]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bits = len(read_sequence(out)[0])
    assert peak / bits <= limit, f"{peak / bits:.2f} B a bit at order {order}"


def test_verify_and_locate_past_physical_memory_exit_2(capsys, tmp_path, monkeypatch):
    path, edited, rotated = tmp_path / "p16.seq", tmp_path / "e16.seq", tmp_path / "r16.seq"
    assert run(capsys, "construct", "periodic", "--target-order", "16", "--out", str(path))[0] == 0
    bits = read_sequence(path)[0].bits
    write_sequence(edited, flip(bits, 5000), mode="periodic", order=16)
    # The member rotated by one bit has its size but differs in about half its bits.
    write_sequence(rotated, bits[1:] + bits[0], mode="periodic", order=16)
    cx = verify_orientable(GeneratingCycle(flip(bits, 5000)), 16)
    assert cx == (355, 4985, "reverse")
    # 256 KiB: the 9,557 windows at order 16 are charged 306 KB, its rebuild 76 KB and
    # the member's window bytes 19 KB.
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.__getitem__)
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert (code, json.loads(out)["method"]) == (0, "certificate")
    # locate certifies the member too, so it answers; the rotated file needs the exact check.
    code, out, _ = run(capsys, "locate", "--seq", str(path), "--window", bits[5000:5016])
    assert (code, out) == (0, "position 5000, reading forward\n")
    for argv in (["verify", str(rotated)], ["locate", "--seq", str(rotated), "--window", "0" * 16]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the windows at order 16 need about ")
    # The edited member is checked at its differing windows, within the same memory.
    code, out, _ = run(capsys, "verify", str(edited), "--json")
    assert (code, json.loads(out)["method"], json.loads(out)["counterexample"]) == (
        1, "exact", cx._asdict())
    code, out, err = run(capsys, "locate", "--seq", str(edited), "--window", "0" * 16)
    assert (code, out) == (1, "")
    assert err == (f"property violation: source is not orientable at order 16: windows at"
                   f" {cx.i} and {cx.j} collide ({cx.kind})\n")


def test_verify_past_the_address_space_limit_exit_2(tmp_path):
    pytest.importorskip("resource")
    cycle, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 26)
    edited, rotated = tmp_path / "e26.seq", tmp_path / "r26.seq"
    write_sequence(edited, flip(cycle.bits, 1000), mode="periodic", order=26)
    write_sequence(rotated, cycle.bits[1:] + cycle.bits[0], mode="periodic", order=26)
    # 192 MiB of address space: the member's rebuild fits (charged 78 MB), the rotated
    # file's 9,786,709 windows (charged 313 MB) do not, though physical memory would hold
    # them.  The edited file needs only the member's window bytes (charged 20 MB).
    def verify(seq_file):
        return run_child("-m", "orientseq.cli", "verify", str(seq_file), limit=192 << 20)

    proc = verify(rotated)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: the windows at order 26 need about 0.3 GiB, more than the"
                                  " 0.2 GiB address-space limit") and proc.stderr.count("\n") == 1
    # verify_orientable's answer, which takes ~6 s and 0.3 GiB; the windows do collide.
    proc = verify(edited)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "FAIL: windows at positions 978 and 4332535 collide (reverse)\n", "")
    mutant = GeneratingCycle(flip(cycle.bits, 1000))
    assert cyclic_value(mutant, 978, 26) == reverse_value(cyclic_value(mutant, 4332535, 26), 26)


def test_out_of_memory_is_one_error_line(capsys, tmp_path, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("orientseq.cli.verify_orientable_near", exhausted)
    path = tmp_path / "bad.seq"
    write_sequence(path, "00110", mode="periodic", order=2)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


class TestBound:
    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "bound", "--order", "7", "--json")
        assert code == 0
        assert json.loads(out)["bound"] == 40

    def test_aperiodic(self, capsys):
        code, out, _ = run(capsys, "bound", "--order", "7", "--aperiodic", "--json")
        assert code == 0
        assert json.loads(out)["bound"] == 2**6 - 2**3 + 6

    def test_invalid_order(self, capsys):
        code, _, err = run(capsys, "bound", "--order", "3")
        assert code == 2 and "error" in err


class TestAbsurdOrders:
    """Orders whose sizes could not be printed or tables not held are refused at once."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--order", "100000000000"],
            ["bound", "--order", "100000000000", "--aperiodic"],
            ["search", "--order", "100000000000"],
            ["search", "--order", "100000000000", "--mode", "aperiodic"],
            ["construct", "debruijn", "--order", "100000000000"],
        ],
        ids=["bound", "bound-aperiodic", "search", "search-aperiodic", "debruijn"],
    )
    def test_refused_before_any_work(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bound_past_the_digit_limit(self, capsys):
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        most = (10**digits).bit_length()  # 14,285 at Python's default 4,300 digits
        code, out, err = run(capsys, "bound", "--order", "20000")
        assert (code, out) == (2, "")
        assert err == f"error: bounds end at order {most} ({digits}-digit sizes), got 20000\n"
        assert run(capsys, "bound", "--order", str(most))[0] == 0


class TestSearch:
    def test_exhaustive_periodic(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            "search", "--order", "5", "--json", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 6 and payload["exhaustive"]
        assert json.loads(out_path.read_text()) == payload

    def test_budget_then_resume(self, capsys, tmp_path):
        partial_path = tmp_path / "partial.json"
        code, out, _ = run(
            capsys,
            "search", "--order", "5", "--mode", "aperiodic",
            "--budget", "30", "--json", "--out", str(partial_path),
        )
        assert code == 0
        assert not json.loads(out)["exhaustive"]
        # The result replaces the file it resumed from.
        code, out, _ = run(
            capsys,
            "search", "--order", "5", "--mode", "aperiodic",
            "--resume", str(partial_path), "--json", "--out", str(partial_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 14 and payload["exhaustive"]
        assert partial_path.read_text(encoding="ascii") == out.rstrip("\n")

    def test_an_out_path_that_cannot_be_opened_fails_before_the_search(
            self, capsys, tmp_path, monkeypatch):
        def searched(*args, **kwargs):
            raise AssertionError("searched before --out was opened")

        monkeypatch.setattr(search, "max_aos_length", searched)
        code, out, err = run(capsys, "search", "--order", "7", "--mode", "aperiodic",
                             "--out", str(tmp_path / "missing" / "x.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


class TestIndexAndLocate:
    def test_index_then_locate(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.txt"
        write_sequence(seq_path, "001101", mode="periodic", order=5)
        code, out, _ = run(
            capsys,
            "locate", "--seq", str(seq_path), "--window", "01100", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        # 01100 is 00110 read backwards, and 00110 sits at position 0
        assert payload == {
            "found": True, "window": "01100", "position": 0, "orientation": "reverse"
        }

    def test_locate_miss(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.txt"
        write_sequence(seq_path, "001101", mode="periodic", order=5)
        code, out, _ = run(
            capsys, "locate", "--seq", str(seq_path), "--window", "00000"
        )
        assert code == 1 and "not found" in out

    def test_index_rejects_non_orientable(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.txt"
        write_sequence(seq_path, "0011", mode="periodic", order=4)
        code, _, err = run(
            capsys, "locate", "--seq", str(seq_path), "--window", "0011"
        )
        assert code == 1 and "property violation" in err


class TestTables:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-order", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["period_bound"]["7"] == 40
        assert payload["periodic_family"]["8"] == 37
        assert payload["aperiodic_family"]["8"] == 92
        assert payload["aperiodic_bound"]["8"] == 2**7 - 2**3 + 7

    def test_orders_below_the_periodic_starter(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-order", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["periodic_family"] == {} and payload["period_bound"] == {}
        assert payload["aperiodic_family"] == {"2": 2, "3": 4, "4": 8}

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-order", "7")
        assert code == 0
        assert "order" in out and "149" not in out and "48" in out

    def test_family_sizes_match_the_builders(self, capsys):
        # The table reads the closed forms; the builders' traces must agree.
        code, out, _ = run(capsys, "tables", "--max-order", "16", "--json")
        assert code == 0
        payload = json.loads(out)
        _, per_trace = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 16)
        _, aos_trace = build_aos(16)
        assert payload["periodic_family"] == {str(s.order): s.period for s in per_trace.steps}
        assert payload["aperiodic_family"] == {str(s.order): s.period for s in aos_trace.steps}

    def test_orders_below_the_aperiodic_starter(self, capsys):
        code, _, err = run(capsys, "tables", "--max-order", "1")
        assert code == 2 and err == "error: target order 1 below starter order 2\n"

    def test_orders_too_large_to_build(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-order", "60")
        assert code == 0 and out.splitlines()[-1].startswith("   60")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_orders_past_the_digit_limit(self, capsys):
        # At the least limit, 640 digits, order 2127's sizes print and 2128's do not.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, _ = run(capsys, "tables", "--max-order", "2127")
            assert code == 0 and out.splitlines()[-1].startswith(" 2127")
            code, out, err = run(capsys, "tables", "--max-order", "2128")
            assert len(str(dai_bound(2127))) == 640
            with pytest.raises(ValueError, match="Exceeds the limit"):
                str(dai_bound(2128))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err == "error: tables end at order 2127 (640-digit sizes), got 2128\n"


# Input and usage errors: each case's pinned exit code, within 10 s, and never a
# traceback.  {seq} is an orientable order-5 cycle file, {s9} the order-6 starter's,
# {short} a 4-bit word headed order 8, {bad} the cycle 0011 headed order 2.
CONTRACT = {
    "verify-shorter-than-order": (["verify", "{short}"], 2),
    "verify-order-zero": (["verify", "{seq}", "--order", "0"], 2),
    "verify-order-negative": (["verify", "{seq}", "--order", "-3"], 2),
    "verify-not-orientable": (["verify", "{bad}"], 1),
    # Orders no default member reaches: the closed forms rule out a rebuild at once,
    # and the exact check runs, or is refused by the memory guard.
    "verify-order-10e6": (["verify", "{seq}", "--order", "1000000"], 0),
    "verify-order-10e12": (["verify", "{seq}", "--order", "1000000000000"], 2),
    "verify-s9-order-10e6": (["verify", "{s9}", "--order", "1000000"], 0),
    "verify-s9-order-10e12": (["verify", "{s9}", "--order", "1000000000000"], 2),
    "locate-order-zero": (["locate", "--seq", "{seq}", "--order", "0", "--window", "0"], 2),
    "locate-order-zero-empty-window": (
        ["locate", "--seq", "{seq}", "--order", "0", "--window", ""], 2
    ),
    "locate-order-negative": (["locate", "--seq", "{seq}", "--order", "-3", "--window", "0"], 2),
    "verify-header-order-negative": (["verify", "{minus3}"], 2),
    "locate-header-order-negative": (["locate", "--seq", "{minus3}", "--window", "0"], 2),
    "construct-starter-order-zero": (
        ["construct", "periodic", "--target-order", "8", "--starter", "{seq}",
         "--starter-order", "0"], 2
    ),
    "construct-periodic-target-3": (["construct", "periodic", "--target-order", "3"], 2),
    "construct-debruijn-order-0": (["construct", "debruijn", "--order", "0"], 2),
    "locate-window-wrong-length": (["locate", "--seq", "{seq}", "--window", "0011"], 2),
    "locate-window-non-binary": (["locate", "--seq", "{seq}", "--window", "01201"], 2),
    "locate-window-empty": (["locate", "--seq", "{seq}", "--window", ""], 2),
    "tables-max-order-4": (["tables", "--max-order", "4"], 0),
    "tables-max-order-40": (["tables", "--max-order", "40"], 0),
    # Sizes past the interpreter's int-to-str digit limit, refused before any row.
    "tables-max-order-15000": (["tables", "--max-order", "15000"], 2),
    "tables-max-order-100000": (["tables", "--max-order", "100000"], 2),
    "search-resume-without-value": (["search", "--order", "5", "--resume", "{no_value}"], 2),
    "search-resume-list": (["search", "--order", "5", "--resume", "{a_list}"], 2),
    "search-resume-over-bound": (["search", "--order", "5", "--resume", "{over_bound}"], 2),
    "search-resume-not-orientable": (
        ["search", "--order", "5", "--resume", "{not_orientable}"], 2
    ),
    "search-resume-float-value": (["search", "--order", "6", "--resume", "{float_value}"], 2),
    "search-resume-float-value-9": (["search", "--order", "6", "--resume", "{float_nine}"], 2),
    "search-resume-float-value-aperiodic": (
        ["search", "--order", "5", "--mode", "aperiodic", "--resume", "{float_aos}"], 2
    ),
    "search-resume-huge-value": (["search", "--order", "5", "--resume", "{huge_value}"], 2),
    # Nesting past the JSON decoder's recursion limit is an input error, not a violation.
    "search-resume-deeply-nested": (["search", "--order", "5", "--resume", "{deep}"], 2),
    "verify-long-non-minimal": (["verify", "{repeats}"], 2),
    "search-order-19-budget-1000": (["search", "--order", "19", "--budget", "1000"], 0),
    "search-order-40": (["search", "--order", "40"], 2),
    "search-budget-negative": (["search", "--order", "5", "--budget", "-3"], 2),
    "search-budget-minus-one": (["search", "--order", "5", "--budget", "-1"], 2),
    # Sizes past any memory, and one past the float range, refused before any work.
    "search-order-1100": (["search", "--order", "1100"], 2),
    "search-order-10e11": (["search", "--order", "100000000000"], 2),
    "search-aperiodic-10e11": (["search", "--order", "100000000000", "--mode", "aperiodic"], 2),
    "bound-order-10e11": (["bound", "--order", "100000000000"], 2),
    # An --out path that cannot be opened, refused before a search of hours or more.
    "search-out-not-a-directory": (
        ["search", "--order", "8", "--mode", "aperiodic", "--out", "{seq}/x.json"], 2
    ),
    "search-out-missing-directory": (
        ["search", "--order", "8", "--mode", "aperiodic", "--out", "{tmp}/missing/x.json"], 2
    ),
    "search-out-a-directory": (["search", "--order", "8", "--out", "{tmp}"], 2),
    # A search that fails writes nothing: no new file, and an existing one is kept as it was.
    "search-resume-over-bound-out-new": (
        ["search", "--order", "5", "--resume", "{over_bound}", "--out", "{tmp}/new.json"], 2
    ),
    "search-resume-over-bound-out-existing": (
        ["search", "--order", "5", "--resume", "{over_bound}", "--out", "{seq}"], 2
    ),
    "construct-out-not-a-directory": (
        ["construct", "aperiodic", "--target-order", "8", "--out", "{seq}/x.seq"], 2
    ),
    "construct-failing-out-existing": (
        ["construct", "periodic", "--target-order", "3", "--out", "{seq}", "--trace", "{short}"], 2
    ),
    "construct-starter-order-without-starter": (
        ["construct", "periodic", "--target-order", "8", "--starter-order", "7"], 2
    ),
    # Two outputs in one file, refused before any work rather than as a temp name clash.
    "construct-out-and-trace-one-file": (
        ["construct", "aperiodic", "--target-order", "8", "--out", "{tmp}/F", "--trace",
         "{tmp}/./F"], 2
    ),
    "construct-periodic-order-64": (["construct", "periodic", "--target-order", "64"], 2),
    "construct-aperiodic-order-64": (["construct", "aperiodic", "--target-order", "64"], 2),
    "construct-debruijn-order-64": (["construct", "debruijn", "--order", "64"], 2),
    "construct-periodic-order-10e9": (["construct", "periodic", "--target-order", "1000000000"], 2),
    "construct-aperiodic-10e9": (["construct", "aperiodic", "--target-order", "1000000000"], 2),
    "construct-debruijn-order-10e11": (["construct", "debruijn", "--order", "100000000000"], 2),
}
# An order below 1, from a header or a flag, is refused in one wording by every
# command that reads a sequence file, before the file's bits or the window are used.
CONTRACT_ERRORS = {
    "verify-order-zero": "error: window order must be >= 1, got 0\n",
    "verify-order-negative": "error: window order must be >= 1, got -3\n",
    "locate-order-zero": "error: window order must be >= 1, got 0\n",
    "locate-order-zero-empty-window": "error: window order must be >= 1, got 0\n",
    "locate-order-negative": "error: window order must be >= 1, got -3\n",
    "construct-starter-order-zero": "error: window order must be >= 1, got 0\n",
    "verify-header-order-negative": "error: window order must be >= 1, got -3\n",
    "locate-header-order-negative": "error: window order must be >= 1, got -3\n",
    "construct-starter-order-without-starter": "error: --starter-order needs --starter\n",
    "construct-out-and-trace-one-file": "error: --out and --trace name the same file\n",
}
# Resume files: a witness with no value, a JSON list, a value past dai_bound(5) = 6,
# a witness of the right size that is not orientable at order 5, optima at
# orders 6 (periodic) and 5 (aperiodic) whose values are floats, not ints, the
# order-6 starter with a float value, and a value that is a 100,000-element list.
RESUME = {
    "no_value": {"witness": "0101"},
    "a_list": [1, 2],
    "over_bound": {"value": 999, "witness": "0"},
    "not_orientable": {"value": 6, "witness": "000111"},
    "float_value": {"value": 16.0, "witness": "0001010110010111"},
    "float_aos": {"value": 14.0, "witness": "00001101001111"},
    "float_nine": {"value": 9.0, "witness": "001010111"},
    "huge_value": {"value": list(range(100_000)), "witness": "001101"},
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_cli_contract(tmp_path, case):
    seq, short = tmp_path / "seq.txt", tmp_path / "short.txt"
    write_sequence(seq, "001101", mode="periodic", order=5)
    write_sequence(short, "0101", mode="aperiodic", order=8)
    minus3 = tmp_path / "minus3.txt"  # a header order below 1
    write_sequence(minus3, "001101", mode="periodic", order=-3)
    s9, bad = tmp_path / "s9.txt", tmp_path / "bad.txt"
    write_sequence(s9, "001010111", mode="periodic", order=6)
    write_sequence(bad, "0011", mode="periodic", order=2)
    repeats = tmp_path / "repeats.txt"  # 200,000 bits of period 2
    write_sequence(repeats, "01" * 100_000, mode="periodic", order=5)
    deep = tmp_path / "deep.json"  # written as text: json.dumps cannot nest this deep either
    deep.write_text("[" * 100_000 + "]" * 100_000)
    resume = {name: tmp_path / f"{name}.json" for name in RESUME}
    for name, path in resume.items():
        path.write_text(json.dumps(RESUME[name]))
    argv, expected = CONTRACT[case]
    argv = [a.format(seq=seq, s9=s9, bad=bad, short=short, repeats=repeats, minus3=minus3,
                     deep=deep, tmp=tmp_path, **resume) for a in argv]
    before = {f: f.read_bytes() for f in tmp_path.iterdir()}
    proc = run_child("-m", "orientseq.cli", *argv, timeout=10)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if expected == 2:
        # One line, however large the input it refuses.
        assert proc.stderr.startswith("error:") and len(proc.stderr) < 200
        assert proc.stderr.count("\n") == 1
    assert proc.stderr == CONTRACT_ERRORS.get(case, proc.stderr)
    # No case writes a file: none is made, not even a temp one, and none changes.
    assert {f: f.read_bytes() for f in tmp_path.iterdir()} == before


# The same contract over generated inputs, run in process.  Sequence files are hostile
# bytes, or a file headed with an order that is negative, huge or '1_0', with CRLF line
# ends, blank lines or a second body; resume files are JSON of any shape.
GENERATED = [
    ["verify", "{seq}"],
    ["verify", "{seq}", "--json"],
    ["locate", "--seq", "{seq}", "--window", "{window}"],
    ["search", "--order", "{order}", "--resume", "{resume}", "--out", "{out}"],
    ["search", "--order", "{order}", "--mode", "aperiodic", "--resume", "{resume}"],
    ["construct", "periodic", "--target-order", "{target}", "--starter", "{seq}"],
    ["construct", "periodic", "--target-order", "{target}", "--starter", "{seq}", "--out", "{out}"],
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=8,
)
resume_files = st.binary(max_size=40) | (json_values | st.fixed_dictionaries(
    {}, optional={"value": json_values, "witness": st.text("01", max_size=30) | json_values},
)).map(lambda value: json.dumps(value).encode())


@st.composite
def sequence_files(draw) -> bytes:
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=80))
    # Repeats weight the draws towards files that parse, so that each command gets past
    # its input checks.
    order = draw(st.sampled_from(["6"] * 6 + ["0", "-3", "1_0", "1000000", "1000000000000",
                                              "2" * 30]))
    mode = draw(st.sampled_from(["periodic"] * 3 + ["aperiodic"]))
    bits = st.sampled_from([DEFAULT_STARTER.bits] * 3 + ["0" * 9]) | st.text("01", min_size=1,
                                                                            max_size=40)
    lines = [f"# mode={mode} order={order}", draw(bits)]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(bits))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + eol for line in lines).encode()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(GENERATED), seq=sequence_files(), resume=resume_files,
       window=st.text("01", min_size=6, max_size=6) | st.text("01", max_size=8),
       order=st.sampled_from(["5", "6"]),
       target=st.integers(3, 12))
def test_cli_contract_generated(capsys, argv, seq, resume, window, order, target):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"seq": Path(tmp, "seq"), "resume": Path(tmp, "resume")}
        inputs["seq"].write_bytes(seq)
        inputs["resume"].write_bytes(resume)
        argv = [a.format(**inputs, out=Path(tmp, "out"), window=window, order=order,
                         target=target) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        written = {"out"} if code == 0 and "--out" in argv else set()
        assert sorted(os.listdir(tmp)) == sorted({"seq", "resume"} | written)


@pytest.mark.parametrize(
    "signum,existing", [(signal.SIGINT, False), (signal.SIGINT, True), (signal.SIGTERM, False)],
    ids=["new", "existing", "sigterm-new"],
)
def test_an_interrupted_search_leaves_no_traceback_and_no_file(tmp_path, signum, existing):
    out = tmp_path / "F.json"
    if existing:
        out.write_text("{}")
    proc = subprocess.Popen([sys.executable, "-m", "orientseq.cli", "search", "--order", "8",
                             "--out", str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), start_new_session=True)
    try:
        # The temp file is made just before the search, which at order 8 runs for days.
        deadline = time.monotonic() + 30
        while not (tmp_path / f"F.json.{proc.pid}.tmp").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=30)
        # The search's helper process, if it forked one, is gone within 1 s.
        deadline = time.monotonic() + 1
        while (left := group_members(proc.pid)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert left == []
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, stdout, stderr) == (2, "", "error: interrupted\n")
    assert [f.name for f in tmp_path.iterdir()] == (["F.json"] if existing else [])
    if existing:
        assert out.read_text() == "{}"


def group_members(pgid: int) -> list:
    """The processes of group pgid that have not exited, as /proc lists them, if it exists."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc") if os.path.isdir("/proc") else []):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # gone since the listing
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(pid))
    return members


def test_outputs_replace_files_whole(capsys, tmp_path):
    seq, trace = tmp_path / "a.seq", tmp_path / "a.json"
    seq.write_text("old")
    code, out, _ = run(capsys, "construct", "aperiodic", "--target-order", "6",
                       "--out", str(seq), "--trace", str(trace))
    assert code == 0 and read_sequence(seq)[0].bits == out.split()[-1]
    assert json.loads(trace.read_text())["steps"][-1]["period"] == len(out.split()[-1])
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.json", "a.seq"]
    # A link is written through, as a device such as /dev/null is, not replaced.
    link = tmp_path / "link.seq"
    link.symlink_to(seq)
    code, out, _ = run(capsys, "construct", "debruijn", "--order", "4", "--out", str(link))
    assert code == 0 and link.is_symlink() and read_sequence(seq)[0].bits == out.split()[-1]


def test_both_outputs_may_name_a_device_but_not_one_file(capsys, tmp_path):
    argv = ["construct", "aperiodic", "--target-order", "8"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--out", os.devnull, "--trace", os.devnull) == (0, out, "")
    # A link and the file it points to are one file, whether or not it is made yet.
    target, link = tmp_path / "F", tmp_path / "link"
    link.symlink_to(target)
    for made in (False, True):
        if made:
            target.write_text("old")
        assert run(capsys, *argv, "--out", str(link), "--trace", str(target)) == (
            2, "", "error: --out and --trace name the same file\n")
    assert target.read_text() == "old"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["F", "link"]


# Every command's exact exit code, stdout, stderr and written files, run in
# order in one directory (later commands read earlier outputs); inputs and
# expectations are in cli_transcript.json.
TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")


def test_transcript(capsys, tmp_path, monkeypatch):
    recorded = json.loads(TRANSCRIPT.read_text(encoding="ascii"))
    monkeypatch.chdir(tmp_path)
    for name, text in recorded["inputs"].items():
        Path(name).write_text(text, encoding="ascii")
    for cmd in recorded["commands"]:
        code, out, err = run(capsys, *cmd["argv"])
        written = {name: Path(name).read_text(encoding="ascii") for name in cmd["files"]}
        got = {"argv": cmd["argv"], "code": code, "out": out, "err": err, "files": written}
        assert got == cmd


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound"])
        assert exc.value.code == 2
