"""The CLI on files up to order 30 (26 and up slow), each command run as a child process
that imports the orientseq this process imported (conftest.run_child): the checkout under
PYTHONPATH=src, and an installed package when run against it from outside the checkout."""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import orientseq
from conftest import run_child
from orientseq import GeneratingCycle, verify_orientable

GB = 1000000 * 1024  # `ulimit -v 1000000`, in bytes
LIMITS = {"p28": GB, "a26": GB, "p30": 1300000 * 1024}  # each large member's address space


def cli(*argv, **kwargs):
    return run_child("-m", "orientseq.cli", *map(str, argv), **kwargs)


def out(proc, code=0) -> str:
    """proc's stdout, once it is seen to have exited with code."""
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def refused(proc, code, start="error: ") -> None:
    """proc exited with code and printed one stderr line, which begins with start."""
    assert proc.returncode == code and proc.stderr.startswith(start), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.fixture(scope="module")
def member(tmp_path_factory):
    """member("p22"): the file of the default periodic member of order 22, made once."""
    made = tmp_path_factory.mktemp("members")

    def member(name):
        if not (path := made / f"{name}.seq").exists():
            mode = {"p": "periodic", "a": "aperiodic", "d": "debruijn"}[name[0]]
            flag = "--order" if mode == "debruijn" else "--target-order"
            out(cli("construct", mode, flag, name[1:], "--out", path))
        return path

    return member


def cut(path, i, n) -> str:
    """The n bits of sequence file path's body from bit i on, read cyclically."""
    data = path.read_bytes()
    body = memoryview(data)[data.index(b"\n") + 1 : -1]
    return (bytes(body[i : i + n]) + bytes(body[: max(0, i + n - len(body))])).decode()


def flip(src, dst, i) -> Path:
    """A copy of sequence file src at dst, with bit i of its body flipped."""
    data = bytearray(src.read_bytes())
    data[data.index(b"\n") + 1 + i] ^= 1  # b"0" <-> b"1"
    dst.write_bytes(data)
    return dst


def rotate(src, dst) -> Path:
    """A copy of sequence file src at dst, with its body rotated left by one bit."""
    head, bits = src.read_text().splitlines()
    dst.write_text(f"{head}\n{bits[1:]}{bits[0]}\n")
    return dst


def collides(path, n, i, j, kind) -> None:
    """The order-n windows of periodic file path at i and j collide as kind says."""
    i, j = int(i), int(j)
    a, b = cut(path, i, n), cut(path, j, n)
    if kind == "forward":
        assert a == b and i < j, (a, b)
    else:
        assert a == b[::-1] and (i == j) == (kind == "symmetric"), (a, b)


def test_children_import_the_package_under_test(tmp_path):
    # Fails if the children would run the checkout while this process imported an
    # installed package, or the other way round.
    proc = run_child("-c", "import orientseq; print(orientseq.__file__)", cwd=tmp_path)
    assert Path(out(proc).strip()).resolve() == Path(orientseq.__file__).resolve()


def test_debruijn_files(member):
    # No family member has d8's size, so locate checks every window first: 0^8 is its
    # own reversal, and the file is refused in one line.
    out(cli("verify", member("d8"), "--property", "nwindow"))
    proc = cli("locate", "--seq", member("d8"), "--window", "0" * 8)
    err = "property violation: source is not orientable at order 8: windows at 0 and 0 collide"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"{err} (symmetric)\n")
    out(cli("verify", member("d20"), "--property", "nwindow"))


def test_order_8_files(member, tmp_path):
    p8, x8 = member("p8"), tmp_path / "x8.seq"
    out(cli("locate", "--seq", p8, "--window", cut(p8, 2, 8)))
    out(cli("locate", "--seq", p8, "--window", "0" * 8), 1)
    # A CRLF copy verifies.  A body that int(x, 2) would also read, with a 0b prefix or a
    # '_', is refused in one error line before it is parsed.
    head, bits = p8.read_text().splitlines()
    x8.write_bytes(f"{head}\r\n{bits}\r\n".encode())
    out(cli("verify", x8))
    for body in (f"0b{bits}", f"{bits[:10]}_{bits[10:]}"):
        x8.write_text(f"{head}\n{body}\n")
        refused(cli("verify", x8), 2)


@pytest.mark.parametrize("n, i, pair", [(22, 1000, (981, 249908)), (24, 10**6, (180179, 999999))],
                         ids=["p22", "p24"])
def test_lookups_in_1_gb_and_one_bit_edit(member, tmp_path, n, i, pair):
    # A window cut from the file, forward and reversed, each found by the verifier's window
    # search, and 0^n (a good member has one run of n - 4 zeros, so it is absent).
    out(cli("verify", path := member(f"p{n}")))
    w = cut(path, i, n)
    for window, way in ((w, "forward"), (w[::-1], "reverse")):
        proc = cli("locate", "--seq", path, "--window", window, limit=GB)
        assert out(proc) == f"position {i}, reading {way}\n"
    out(cli("locate", "--seq", path, "--window", "0" * n), 1)
    # Bit i flipped: verify reads the windows that differ from the rebuilt member and
    # reports the first collision that the whole check finds, here in process at order 22.
    edited = flip(path, tmp_path / "e.seq", i)
    if n == 22:
        bits = edited.read_text().splitlines()[-1]
        assert verify_orientable(GeneratingCycle(bits), n) == (*pair, "reverse")
    r = json.loads(out(cli("verify", edited, "--json"), 1))
    cx = {"i": pair[0], "j": pair[1], "kind": "reverse"}
    assert (r["ok"], r["method"], r["counterexample"]) == (False, "exact", cx), r


def test_order_22_aperiodic_trace(tmp_path):
    # The trace's last step is the body: its period the body's length, and its weight,
    # keep + drop // 2 with no pass over the member, the body's count of ones.
    a22, trace = tmp_path / "a22.seq", tmp_path / "a22.json"
    out(cli("construct", "aperiodic", "--target-order", 22, "--out", a22, "--trace", trace))
    step, body = json.loads(trace.read_text())["steps"][-1], a22.read_text().splitlines()[-1]
    assert (step["order"], step["period"], step["weight"]) == (22, len(body), body.count("1"))


# The order-24 periodic index (2,446,677 windows) builds and answers in 1 GB of address
# space, and so does the aperiodic one (5,592,405 windows in a 64 MB 'i' table).  A
# one-bit mutant of the periodic member writes a slot twice among the 2^24, which the
# count of filled slots catches: refused as not orientable, in the same 1 GB.
INDEXES_24 = """
from orientseq import *
s, _ = build_orientable(periodic.DEFAULT_STARTER, 6, 24)
idx = build_index(s, 24)
w = (s.bits + s.bits[:23])[10**6 : 10**6 + 24]
assert len(idx) == 2 * s.period and locate(idx, '0' * 24) is None
assert locate(idx, w) == (10**6, 'forward') and locate(idx, w[::-1]) == (10**6, 'reverse')
del idx
mutant = GeneratingCycle(s.bits[:10**6] + '10'[int(s.bits[10**6])] + s.bits[10**6 + 1 :])
try:
    build_index(mutant, 24)
    raise AssertionError('the order-24 mutant was indexed')
except PreconditionError as exc:
    assert str(exc).startswith('source is not orientable at order 24: windows at '), exc
s, _ = build_aos(24)
idx = build_index(s, 24)
w = s.bits[10**6 : 10**6 + 24]
assert len(idx) == 2 * (len(s) - 23) == 2 * 5592405 and idx.table.typecode == 'i'
assert locate(idx, w) == (10**6, 'forward') and locate(idx, w[::-1]) == (10**6, 'reverse')
"""


def test_order_24_indexes_in_1_gb():
    assert (proc := run_child("-c", INDEXES_24, limit=GB)).returncode == 0, proc.stderr


# `search … --json`: value, witness, node count and exhaustive flag, as test_search.py's
# test_pinned_results pins them.  The aperiodic proofs split their roots with a forked
# helper on Linux; at order 3 the open walk reaches its bound (4).
SEARCH_PINS = {
    "s8": (["--order", "8", "--budget", "500000"], 78,
           "000001000101001000011001000110100011101001101010100111011001111011010111011111",
           500001, False),
    "a8": (["--order", "8", "--mode", "aperiodic", "--budget", "500000"], 96,
           "000000010001010010000110010001101000001101101001"
           "101011100010111011001110111100101010111110001100", 500001, False),
    "s7": (["--order", "7"], 36, "000010010101100010110111001011110011", 91598, True),
    "a7": (["--order", "7", "--mode", "aperiodic"], 48,
           "000000100110000101011001110100011110110100111111", 3177525, True),
    "a3": (["--order", "3", "--mode", "aperiodic"], 4, "0011", 3, True),
}


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_pins(name):
    argv, *pinned = SEARCH_PINS[name]
    r = json.loads(out(cli("search", *argv, "--json", timeout=120)))
    assert [r["value"], r["witness"], r["nodes"], r["exhaustive"]] == pinned, r
    if name == "s8":
        assert verify_orientable(GeneratingCycle(r["witness"]), 8) is None


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LIMITS))
def test_large_members_are_certified(member, name):
    # verify certifies a file that is bit for bit a default member by rebuilding it, in
    # seconds and within the rebuild's memory guard (8 bytes a bit: 1.25 GB at order 30);
    # locate certifies the periodic ones and goes straight to its two searches.
    path, n, limit = member(name), int(name[1:]), LIMITS[name]
    if name == "p30":  # held to the digest test_pinned_digests pins, which the builder cannot move
        data = path.read_bytes()
        digest = hashlib.sha256(memoryview(data)[data.index(b"\n") + 1 : -1]).hexdigest()
        assert digest == "699db42f3d89da3757c6d5bcfb1400ee5bcf898d5485540f24d2798218257d90"
    r = json.loads(out(cli("verify", path, "--json", limit=limit, timeout=60)))
    assert r["ok"] and r["method"] == "certificate", r
    if name[0] == "p":
        w = cut(path, 10**6, n)
        for window, way in ((w, "forward"), (w[::-1], "reverse")):
            proc = cli("locate", "--seq", path, "--window", window, limit=limit, timeout=60)
            assert out(proc) == f"position 1000000, reading {way}\n"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["p28", "p30"])
def test_edited_large_members(member, tmp_path, name):
    # One bit flipped, each is checked exactly at the windows that differ from the rebuilt
    # member, within its limit: the order-28 one gets the whole check's counterexample
    # (which needs 1.2 GiB for all 39,146,837 windows), the order-30 one a pair re-read.
    path, n, limit = member(name), int(name[1:]), LIMITS[name]
    edited = flip(path, tmp_path / "e.seq", 10**6)
    r = json.loads(out(cli("verify", edited, "--json", limit=limit, timeout=60), 1))
    assert not r["ok"] and r["method"] == "exact", r
    collides(edited, n, *r["counterexample"].values())
    if name == "p28":
        assert r["counterexample"] == {"i": 999984, "j": 38171245, "kind": "reverse"}
        # locate refuses the file in one line, naming a pair that collides.
        proc = cli("locate", "--seq", edited, "--window", cut(path, 10**6, n), limit=limit,
                   timeout=60)
        refused(proc, 1, "property violation: source is not orientable at order 28: ")
        collides(edited, n, *re.search(r"at (\d+) and (\d+) collide \((\w+)\)", proc.stderr)
                 .groups())


@pytest.mark.slow
def test_rotated_order_28_member(member, tmp_path):
    # Rotated by one bit, the member differs from it in about half its bits, past 64
    # windows: its whole check would need 1.2 GiB, and it is refused in one line.
    refused(cli("verify", rotate(member("p28"), tmp_path / "r28.seq"), limit=GB, timeout=60), 2)
