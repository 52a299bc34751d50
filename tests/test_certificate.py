"""What `verify` rests on when it certifies a file by rebuilding it.

A file that is bit for bit the default periodic or aperiodic member of its
order is orientable by the construction's proof (the `periodic` and `aperiodic`
module docstrings).  These tests check the proof's two parts: the lemma that
the inverse map keeps orientability, on random orientable cycles and words,
and the insertion step's local argument at every step of the default build.
They also check `cli._certified`, which rebuilds the member a file is compared
with, and that `verify` certifies exactly the members and checks every other file
exactly, with the exact verifiers' answers: from the windows that differ from the
member where the file has its size, else window by window; `--property nwindow`
is always checked window by window.  `locate` certifies the same files: a member
is searched at once and answers as its index does, and every other file gets
the exact check first, with its refusal.
"""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orientseq import aperiodic, locator, periodic, verifier
from orientseq.cli import _certified, _load_seq, main
from orientseq.join import debruijn_lempel
from orientseq.lempel import d_inverse_aperiodic, d_inverse_periodic
from orientseq.locator import build_index, locate
from orientseq.seqcore import FiniteSeq, GeneratingCycle, PreconditionError, reverse_value
from orientseq.seqio import write_sequence
from orientseq.verifier import require_orientable, verify_nwindow, verify_o_disjoint
from orientseq.verifier import verify_orientable
from string_oracle import flip


@st.composite
def orientable_walks(draw, closed: bool):
    """(bits, n): an orientable odd-weight cycle (closed) or word at an order n in 5..9,
    read off a random walk on the shift graph that claims each window's orbit
    {w, reverse(w)} and never a symmetric window, as the search walks, until it is
    stuck.  The cycle is the walk's longest part of odd weight between two visits
    to one vertex, if it has one, else None."""
    n = draw(st.integers(5, 9))
    vmask = (1 << (n - 1)) - 1
    start = cur = draw(st.integers(0, vmask))
    claimed, bits, visits = set(), "", {cur: [0]}
    part = None
    while True:
        free = [(e, r) for e in (cur << 1, cur << 1 | 1)
                if (r := reverse_value(e, n)) != e and min(e, r) not in claimed]
        if not free:
            break
        e, r = free[draw(st.integers(0, len(free) - 1))]
        claimed.add(min(e, r))
        bits += str(e & 1)
        cur = e & vmask
        for i in visits.get(cur, ()):
            if bits.count("1", i) % 2 and len(bits) - i > len(part or ""):
                part = bits[i:]
        visits.setdefault(cur, []).append(len(bits))
    return (part, n) if closed else (format(start, f"0{n - 1}b") + bits, n)


@settings(max_examples=200, deadline=None)
@given(orientable_walks(closed=True))
def test_inverse_of_an_orientable_odd_weight_cycle_is_orientable(walk):
    bits, n = walk
    assume(bits is not None)
    c = GeneratingCycle(bits)
    assert verify_orientable(c, n) is None
    d = d_inverse_periodic(c)
    assert d.second is None and d.first.period == 2 * c.period
    assert verify_orientable(d.first, n + 1) is None


@settings(max_examples=200, deadline=None)
@given(orientable_walks(closed=False))
def test_inverse_of_an_orientable_word_is_an_o_disjoint_orientable_pair(walk):
    bits, n = walk
    s = FiniteSeq(bits)
    assert verify_orientable(s, n) is None
    t, u = d_inverse_aperiodic(s).sequences()
    assert verify_orientable(t, n + 1) is None and verify_orientable(u, n + 1) is None
    # What the aperiodic merge joins: T and reverse(complement(T)) share no window either way.
    assert verify_o_disjoint(t, u, n + 1) is None


def test_every_insertion_meets_a_maximal_run_with_unequal_outer_bits():
    """At each step that inserts a 1, the preimage d holds 0 1^{N-4} 0 at r-1 (maximal),
    and the bits u, x just outside it differ, so u 0 1^{N-4} 0 x is not a palindrome."""
    c, inserted = periodic.DEFAULT_STARTER, 0
    for n in range(periodic.DEFAULT_STARTER_ORDER, 24):
        out, trace = periodic.build_orientable(c, n, n + 1)
        d, step = d_inverse_periodic(c).first, trace.steps[-1]
        if step.inserted_bit:
            big, r, k = d.bits * 3, step.insert_position, n + 1 - 4
            around = big[r - 2 + d.period : r + k + 2 + d.period]  # u 0 1^k 0 x
            assert around[1:-1] == "0" + "1" * k + "0"
            assert around[0] != around[-1]
            inserted += 1
        c = out
    assert inserted == 9  # a 1 goes in at every even order, 8 through 24
    assert c == member("periodic", 24)


def member(mode: str, n: int):
    if mode == "periodic":
        return periodic.build_orientable(periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER, n)[0]
    return aperiodic.build_aos(n)[0]


def members(top: int = 16):
    """(mode, n, member) for both default families at every order up to top."""
    for mode, n0 in (("periodic", periodic.DEFAULT_STARTER_ORDER),
                     ("aperiodic", aperiodic.DEFAULT_STARTER_ORDER)):
        yield from ((mode, n, member(mode, n)) for n in range(n0, top + 1))


class TestRebuild:
    def test_rebuilds_each_default_member_from_its_size(self):
        for mode, n, seq in members():
            assert _certified(seq, mode, n) == seq

    def test_no_member_of_another_size_or_below_the_starter(self):
        for mode, n, seq in members():
            mutant = type(seq)._trusted(seq.value ^ 1 << len(seq) // 2, len(seq))
            longer = type(seq)._trusted(seq.value << 1, len(seq) + 1)
            # A mutant has the member's size, so the member is rebuilt for comparison.
            assert _certified(mutant, mode, n) == seq != mutant
            assert _certified(longer, mode, n) is None
            assert _certified(seq, mode, n + 1) is None
        assert _certified(GeneratingCycle("001011"), "periodic", 5) is None
        assert _certified(FiniteSeq("0"), "aperiodic", 1) is None

    def test_huge_order_costs_nothing_and_asks_no_memory(self, monkeypatch):
        def guard(*args):
            raise AssertionError("memory guard called")

        monkeypatch.setattr(periodic, "require_memory", guard)
        monkeypatch.setattr(aperiodic, "require_memory", guard)
        for mode, seq in (("periodic", GeneratingCycle("001010111")),
                          ("aperiodic", FiniteSeq("001010111"))):
            assert not _certified(seq, mode, 10**12)


def verify_json(capsys, path, *extra):
    code = main(["verify", str(path), "--json", *extra])
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if payload["ok"] else 1)
    return payload


def assert_exact(capsys, path, seq, n):
    """verify reads every window of path and reports the exact verifiers' answers."""
    for prop, check in (("orientable", verify_orientable), ("nwindow", verify_nwindow)):
        payload = verify_json(capsys, path, "--property", prop)
        cx = check(seq, n)
        assert payload["method"] == "exact"
        assert payload["ok"] is (cx is None)
        assert payload.get("counterexample") == (None if cx is None else cx._asdict())


class TestVerifyMethod:
    def test_members_are_certified_orientable_and_checked_for_nwindow(self, capsys, tmp_path):
        path = tmp_path / "m.seq"
        for mode, n, seq in members():
            write_sequence(path, seq.bits, mode=mode, order=n)
            for prop, method in (("orientable", "certificate"), ("nwindow", "exact")):
                payload = verify_json(capsys, path, "--property", prop)
                assert payload == {"ok": True, "mode": mode, "order": n,
                                   "method": method, "size": len(seq)}
            assert verify_orientable(seq, n) is None and verify_nwindow(seq, n) is None

    def test_one_bit_mutants_are_checked_exactly(self, capsys, tmp_path):
        cycle, trace = periodic.build_orientable(periodic.DEFAULT_STARTER, 6, 12)
        word = member("aperiodic", 12)
        r = trace.steps[-1].insert_position  # the grown run 1^9 starts here
        assert cycle.bits[r - 1 : r + 10] == "0" + "1" * 9 + "0"
        # The order-11 merge joins T, one bit longer than the order-11 member, to the
        # reversed complement: the one window across the join is alternating.
        m = len(member("aperiodic", 11)) + 1
        assert word.bits[m - 11 : m + 1] in ("01" * 6, "10" * 6)
        path = tmp_path / "mutant.seq"
        for mode, seq, kind, flips in (("periodic", cycle, GeneratingCycle, (0, r + 4, -1)),
                                       ("aperiodic", word, FiniteSeq, (0, m - 1, m, -1))):
            for i in flips:
                mutant = kind(flip(seq.bits, i % len(seq)))
                write_sequence(path, mutant.bits, mode=mode, order=12)
                assert_exact(capsys, path, mutant, 12)

    def test_rotations_de_bruijn_and_other_starters_are_checked_exactly(self, capsys, tmp_path):
        cycle, word = member("periodic", 12), member("aperiodic", 12)
        starter = tmp_path / "s7.seq"
        # A good, odd-weight orientable cycle of period 28 (the member at order 7 has 18).
        write_sequence(starter, "0001100111101001110110101001", mode="periodic", order=7)
        other = tmp_path / "other.seq"
        assert main(["construct", "periodic", "--target-order", "12", "--starter", str(starter),
                     "--out", str(other)]) == 0
        capsys.readouterr()
        path = tmp_path / "f.seq"
        for mode, seq in (("periodic", GeneratingCycle(cycle.bits[1:] + cycle.bits[0])),
                          ("aperiodic", FiniteSeq(word.bits[1:] + word.bits[0])),
                          ("periodic", debruijn_lempel(12)),
                          ("periodic", _load_seq(other, None, None)[0])):
            write_sequence(path, seq.bits, mode=mode, order=12)
            assert_exact(capsys, path, seq, 12)

    def test_flags_choose_the_member_compared(self, capsys, tmp_path):
        # A member read at another order or in the other mode is not that member.
        cycle = member("periodic", 12)
        path = tmp_path / "p12.seq"
        write_sequence(path, cycle.bits, mode="periodic", order=12)
        assert verify_json(capsys, path)["method"] == "certificate"
        assert verify_json(capsys, path, "--order", "11")["method"] == "exact"
        assert verify_json(capsys, path, "--mode", "aperiodic")["method"] == "exact"
        word = member("aperiodic", 12)
        write_sequence(path, word.bits, mode="periodic", order=12)
        assert verify_json(capsys, path, "--mode", "aperiodic")["method"] == "certificate"


def locate_json(capsys, path, window, *flags):
    """locate's exit code, JSON payload ("" if none) and stderr."""
    code = main(["locate", "--seq", str(path), "--window", window, "--json", *flags])
    out, err = capsys.readouterr()
    return code, out and json.loads(out), err


def oracle_locate(seq, n, window):
    """What locate must give: the exact check's refusal, else the index's answer."""
    try:
        require_orientable(seq, n, "source")
    except PreconditionError as exc:
        return 1, "", f"property violation: {exc}\n"
    hit = locate(build_index(seq, n), window)
    if hit is None:
        return 1, {"found": False, "window": window}, ""
    return 0, {"found": True, "window": window, "position": hit[0], "orientation": hit[1]}, ""


def queries(seq, n, rng):
    """Windows cut from seq at both ends and at random positions, each read forward and
    reversed, and 0^n and 1^n, palindromes that no orientable sequence holds."""
    count = len(seq) if isinstance(seq, GeneratingCycle) else len(seq) - n + 1
    bits = seq.bits + seq.bits[: n - 1] if isinstance(seq, GeneratingCycle) else seq.bits
    cut = [bits[p : p + n] for p in {0, count - 1, *rng.sample(range(count), min(count, 4))}]
    return [*cut, *(w[::-1] for w in cut), "0" * n, "1" * n]


class TestLocateMethod:
    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """The sources locate's exact check is asked about, in order: the locator's check,
        window by window or against the member of the source's size, but not of the
        member itself, which is certified."""
        calls = []

        def spy(s, n, what, near=None):
            if near != s:
                calls.append(s)
            return require_orientable(s, n, what, near)

        monkeypatch.setattr(locator, "require_orientable", spy)
        return calls

    def test_members_are_certified_and_answer_as_their_index(self, capsys, tmp_path, exact_calls):
        path, rng = tmp_path / "m.seq", random.Random(2401)
        for mode, n, seq in members():
            write_sequence(path, seq.bits, mode=mode, order=n)
            for w in queries(seq, n, rng):
                assert locate_json(capsys, path, w) == oracle_locate(seq, n, w), (mode, n, w)
        assert exact_calls == []

    def test_non_members_are_checked_exactly_first(self, capsys, tmp_path, exact_calls):
        cycle, word = member("periodic", 12), member("aperiodic", 12)
        starter, other = tmp_path / "s7.seq", tmp_path / "other.seq"
        write_sequence(starter, "0001100111101001110110101001", mode="periodic", order=7)
        assert main(["construct", "periodic", "--target-order", "12", "--starter", str(starter),
                     "--out", str(other)]) == 0
        capsys.readouterr()
        files = [("periodic", GeneratingCycle(flip(cycle.bits, 0))),
                 ("periodic", GeneratingCycle(flip(cycle.bits, len(cycle) - 1))),
                 ("aperiodic", FiniteSeq(flip(word.bits, 0))),
                 ("aperiodic", FiniteSeq(flip(word.bits, len(word) - 1))),
                 ("periodic", GeneratingCycle(cycle.bits[1:] + cycle.bits[0])),
                 ("aperiodic", FiniteSeq(word.bits[1:] + word.bits[0])),
                 ("periodic", debruijn_lempel(12)),
                 ("periodic", _load_seq(other, None, None)[0])]
        path, rng, refused = tmp_path / "f.seq", random.Random(2402), set()
        for k, (mode, seq) in enumerate(files):
            write_sequence(path, seq.bits, mode=mode, order=12)
            for w in queries(seq, 12, rng):
                del exact_calls[:]
                got = locate_json(capsys, path, w)
                assert got == oracle_locate(seq, 12, w) and exact_calls == [seq], (mode, w)
                if got[2]:
                    refused.add(k)
        # The mutants, the rotated word and the de Bruijn file are refused; the rotated
        # cycle and the other starter's member are orientable and answered.
        assert refused == {0, 1, 2, 3, 5, 6}

    def test_edited_members_are_answered_without_the_whole_check(self, capsys, tmp_path,
                                                                  monkeypatch):
        """verify and locate answer a one-bit edit of a member from its differing windows,
        as the whole check and the index answer."""
        cycle, rng = member("periodic", 12), random.Random(2403)
        flips = [GeneratingCycle(flip(cycle.bits, b)) for b in range(len(cycle))]
        bad = next(s for s in flips if verify_orientable(s, 12) is not None)
        good = next(s for s in flips if verify_orientable(s, 12) is None)
        expected = {s: (verify_orientable(s, 12), [(w, oracle_locate(s, 12, w))
                                                   for w in queries(s, 12, rng)])
                    for s in (bad, good)}

        checked = []  # what the whole check is asked about: here, only the builder's starter
        whole = verifier.verify_orientable
        monkeypatch.setattr(verifier, "verify_orientable",
                            lambda *a: checked.append(a[0]) or whole(*a))
        path = tmp_path / "e12.seq"
        for seq, (cx, answers) in expected.items():
            write_sequence(path, seq.bits, mode="periodic", order=12)
            payload = verify_json(capsys, path)
            assert payload["method"] == "exact" and payload.get("counterexample") == (
                None if cx is None else cx._asdict())
            for w, answer in answers:
                assert locate_json(capsys, path, w) == answer, w
            assert seq not in checked
        cx = expected[bad][0]
        assert expected[bad][1][0][1] == (1, "", f"property violation: source is not orientable"
                                          f" at order 12: windows at {cx.i} and {cx.j} collide"
                                          f" ({cx.kind})\n")
        assert expected[good][0] is None and expected[good][1][0][1][0] == 0

    def test_flags_choose_the_member_compared(self, capsys, tmp_path, exact_calls):
        cycle, word = member("periodic", 12), member("aperiodic", 12)
        path = tmp_path / "p12.seq"
        write_sequence(path, cycle.bits, mode="periodic", order=12)
        assert locate_json(capsys, path, cycle.bits[:12])[0] == 0 and exact_calls == []
        locate_json(capsys, path, cycle.bits[:11], "--order", "11")
        locate_json(capsys, path, cycle.bits[:12], "--mode", "aperiodic")
        assert len(exact_calls) == 2
        write_sequence(path, word.bits, mode="periodic", order=12)
        assert locate_json(capsys, path, word.bits[:12], "--mode", "aperiodic")[0] == 0
        assert len(exact_calls) == 2


@pytest.mark.slow
def test_certificate_and_exact_agree_on_every_member_up_to_order_24(capsys, tmp_path):
    path = tmp_path / "m.seq"
    for mode, n, seq in members(24):
        write_sequence(path, seq.bits, mode=mode, order=n)
        assert verify_json(capsys, path)["method"] == "certificate"
        assert verify_orientable(seq, n) is None and verify_nwindow(seq, n) is None
