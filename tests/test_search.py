from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import string_oracle as oracle
from orientseq import search as search_module
from orientseq.aperiodic import burns_bound
from orientseq.search import BYTES_PER_WINDOW, max_aos_length, max_orientable_period
from orientseq.seqcore import FiniteSeq, GeneratingCycle
from orientseq.verifier import verify_orientable


def least_rotation(s):
    return min(s[i:] + s[:i] for i in range(len(s)))


def brute_force_max_period(n):
    """Longest minimal cycle orientable at order n, checking every word.

    A cycle of period m orientable at order n shows 2m distinct windows, none
    symmetric, which bounds m by half the number of non-symmetric windows.
    """
    best = 0
    for m in range(1, (2**n - 2 ** ((n + 1) // 2)) // 2 + 1):
        for word in product("01", repeat=m):
            s = "".join(word)
            if (s + s).find(s, 1) == m and verify_orientable(GeneratingCycle(s), n) is None:
                best = m
    return best


def brute_force_max_aos_length(n):
    """Longest word orientable at order n.

    Every prefix of an orientable word is orientable, so extending the
    orientable words of each length by one bit reaches every orientable word.
    """
    best = 0
    words = ["".join(w) for w in product("01", repeat=n)]
    while words:
        words = [w for w in words if verify_orientable(FiniteSeq(w), n) is None]
        if words:
            best = len(words[0])
        words = [w + b for w in words for b in "01"]
    return best


# Value, witness, exhaustive flag and node count of each search, pinned so
# the order in which the search visits nodes cannot drift.
PINNED = [
    pytest.param(max_orientable_period, 5, None, 6, "001011", True, 16, id="periodic-5"),
    pytest.param(
        max_orientable_period, 6, None, 16, "0001010110010111", True, 319, id="periodic-6"
    ),
    pytest.param(
        max_orientable_period, 7, None, 36, "000010010101100010110111001011110011", True, 91598,
        id="periodic-7",
    ),
    pytest.param(max_aos_length, 2, None, 2, "01", True, 2, id="aos-2"),
    pytest.param(max_aos_length, 3, None, 4, "0011", True, 3, id="aos-3"),
    pytest.param(max_aos_length, 4, None, 8, "00010111", True, 23, id="aos-4"),
    pytest.param(max_aos_length, 5, None, 14, "00001101001111", True, 120, id="aos-5"),
    pytest.param(
        max_aos_length, 6, None, 26, "00000100110111000101011111", True, 4807, id="aos-6"
    ),
    pytest.param(
        max_orientable_period, 6, 50, 12, "000100110111", False, 51, id="periodic-6-budget-50"
    ),
    pytest.param(
        max_orientable_period, 8, 500_000, 78,
        "000001000101001000011001000110100011101001101010100111011001111011010111011111", False,
        500_001, id="periodic-8-budget-500000",
    ),
    pytest.param(max_aos_length, 5, 30, 14, "00001101001111", False, 31, id="aos-5-budget-30"),
    pytest.param(
        max_aos_length, 8, 500_000, 96,
        "000000010001010010000110010001101000001101101001"
        "101011100010111011001110111100101010111110001100",
        False, 500_001, id="aos-8-budget-500000",
    ),
    # A zero budget stops at the first root, before any walk.
    pytest.param(max_orientable_period, 5, 0, 0, None, False, 1, id="periodic-5-budget-0"),
    pytest.param(max_aos_length, 5, 0, 0, None, False, 1, id="aos-5-budget-0"),
]


@pytest.mark.parametrize("search,n,budget,value,witness,exhaustive,nodes", PINNED)
def test_pinned_results(search, n, budget, value, witness, exhaustive, nodes):
    r = search(n, node_budget=budget)
    assert (r.value, r.witness, r.exhaustive, r.nodes) == (value, witness, exhaustive, nodes)


@pytest.mark.parametrize(
    "search,seq_type",
    [(max_orientable_period, GeneratingCycle), (max_aos_length, FiniteSeq)],
    ids=["periodic", "aos"],
)
def test_order_twelve_budget_has_no_depth_limit(search, seq_type):
    # Walks at order 12 run deeper than the interpreter's recursion limit.
    r = search(12, node_budget=200_000)
    assert (r.nodes, r.exhaustive) == (200_001, False)
    if search is max_orientable_period:  # closed walks that cannot get home are cut
        assert r.witness is not None
    if r.witness is not None:
        assert len(r.witness) == r.value
        assert verify_orientable(seq_type(r.witness), 12) is None


@pytest.fixture(autouse=True)
def no_hang_no_orphans():
    """Fail a search that hangs instead of hanging the suite, and check afterwards
    that no helper process outlives the test's searches."""

    def expire(signum, frame):
        raise TimeoutError("the search did not return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.fixture
def helper_first(monkeypatch):
    """Start each helper on two CPUs and let it announce its first root before the
    caller walks any, so that it walks roots at any order; return the roots that
    the caller took from helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start, take, taken = search_module._Helper.__init__, search_module._Helper.take, []

    def start_and_wait(self, *args):
        start(self, *args)
        assert self.conn.closed or self.conn.poll(60)  # an announcement, or the helper's exit

    def spy(self, k, best):
        found = take(self, k, best)
        taken.extend([k] if found else [])
        return found

    monkeypatch.setattr(search_module._Helper, "__init__", start_and_wait)
    monkeypatch.setattr(search_module._Helper, "take", spy)
    return taken


# Optima up to order 7 (value, witness), each orientable at every higher order too.
OPTIMA = {
    (True, 5): (6, "001011"),
    (True, 6): (16, "0001010110010111"),
    (True, 7): (36, "000010010101100010110111001011110011"),
    (False, 3): (4, "0011"),
    (False, 4): (8, "00010111"),
    (False, 5): (14, "00001101001111"),
    (False, 6): (26, "00000100110111000101011111"),
}


def seeds(closed, n):
    """No seed; the order-(n-1) optimum, if any, whose size is below the bounds of
    all roots or of the roots before the first it skips; the order-n optimum, at
    the bound of the first root it skips; and a lexicographically greater witness
    of the same size (rotated or reversed), last."""
    value, witness = OPTIMA[closed, n]
    other = witness[1:] + witness[0] if closed else witness[::-1]
    lesser = [OPTIMA[closed, n - 1]] if (closed, n - 1) in OPTIMA else []
    return [None, *lesser, (value, witness), (value, other)]


class TestHelper:
    """An exhaustive run with one helper process against the same run in the caller alone."""

    @pytest.mark.parametrize(
        "closed,n",
        [(True, 5), (True, 6), (True, 7), (False, 4), (False, 5), (False, 6)],
        ids=["periodic-5", "periodic-6", "periodic-7", "aos-4", "aos-5", "aos-6"],
    )
    def test_same_results_as_on_one_cpu(self, closed, n, monkeypatch, helper_first):
        search = max_orientable_period if closed else max_aos_length
        cases = seeds(closed, n)
        with_helper = [alone(search, n, initial_best=seed) for seed in cases]
        # A greater witness of the optimum's size gives way to the least one, unless
        # its size meets the bound and ends the run before the first root.
        value, witness = OPTIMA[closed, n]
        turned = with_helper[-1]
        assert turned.value == value
        assert turned.witness == (cases[-1][1] if turned.nodes == 0 else witness)
        if not closed:  # every open root is walked, the last one first by the helper
            assert len(helper_first) >= len(cases)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert [search(n, initial_best=seed) for seed in cases] == with_helper

    def test_aperiodic_order_seven(self, monkeypatch, helper_first):
        # 3,177,525 nodes over 32 roots, the caller and the helper meeting in between.
        r = alone(max_aos_length, 7)
        assert len(helper_first) > 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert max_aos_length(7) == r
        assert (r.value, r.witness, r.exhaustive, r.nodes) == (
            48, "000000100110000101011001110100011110110100111111", True, 3177525)

    @pytest.mark.parametrize("target", ["exits_at_once", "dies_after_announcing"])
    @pytest.mark.parametrize("closed,n", [(True, 6), (False, 6)], ids=["periodic-6", "aos-6"])
    def test_a_helper_that_delivers_nothing(self, target, closed, n, monkeypatch, helper_first):
        search = max_orientable_period if closed else max_aos_length
        expected = alone(search, n)
        helper_first.clear()
        monkeypatch.setattr(search_module, "_helper", globals()[target])
        assert alone(search, n) == expected and helper_first == []

    def test_budgets_and_one_cpu_start_no_helper(self, monkeypatch):
        monkeypatch.setattr(search_module, "_Helper", None)  # starting one would raise TypeError
        r = max_aos_length(6, node_budget=10**6)
        assert (r.value, r.witness, r.exhaustive, r.nodes) == (
            26, "00000100110111000101011111", True, 4807)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        r = max_orientable_period(6)
        assert (r.value, r.witness, r.exhaustive, r.nodes) == (16, "0001010110010111", True, 319)

    def test_a_daemonic_caller_walks_alone(self):
        # A daemonic process may not start one of its own, as in a Pool's workers.
        context = multiprocessing.get_context("spawn")
        conn, child = context.Pipe()
        process = context.Process(target=search_in_child, args=(child,), daemon=True)
        process.start()
        child.close()
        try:
            assert conn.poll(60) and conn.recv() == max_aos_length(5)
        finally:
            process.join(60)
            conn.close()
        assert process.exitcode == 0


def search_in_child(conn):
    """Send max_aos_length(5), searched on two CPUs, back through conn."""
    os.sched_getaffinity = lambda pid: {0, 1}
    conn.send(max_aos_length(5))


def alone(search, n, **kwargs):
    """search(n, **kwargs), checking that no child process outlives it."""
    r = search(n, **kwargs)
    assert multiprocessing.active_children() == []
    return r


def exits_at_once(conn, n, closed):
    """A helper process that walks no root."""


def dies_after_announcing(conn, n, closed):
    """A helper process that announces root 1 and exits without walking it."""
    conn.send(1)


def sleeps(conn, n, closed):
    """A helper process that walks no root and sleeps for a minute, through any
    signal whose handler returns."""
    time.sleep(60)


def test_a_caller_that_ignores_sigterm_still_stops_its_helper(monkeypatch):
    # A forked helper inherits the caller's Python handlers; SIGKILL has none.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    expected = max_aos_length(6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(search_module, "_helper", sleeps)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        start = time.monotonic()
        assert alone(max_aos_length, 6) == expected
        assert time.monotonic() - start < 30  # not the helper's minute
    finally:
        signal.signal(signal.SIGTERM, previous)


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="helpers are forked only on Linux")


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports the orientseq under test."""
    src = str(Path(search_module.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_python(code: str, *args: str, stdin: str | None = None) -> str:
    """stdout of a fresh interpreter running code (or stdin, if code is '-'), which
    must exit 0 with nothing on stderr; fresh, so that no thread of the test
    process decides whether a helper starts."""
    argv = [sys.executable, "-"] if code == "-" else [sys.executable, "-c", code, *args]
    proc = subprocess.run(argv, input=stdin, capture_output=True, text=True, timeout=120,
                          env=fresh_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


# Searches on two CPUs, then on one, under the thread set-up named by argv[1], and
# prints the start methods the helpers asked for, whether the resource tracker
# started, the warnings raised, and whether both runs agree field for field.
START_METHOD = """
import faulthandler, json, multiprocessing, os, sys, threading, warnings
from multiprocessing import resource_tracker
from orientseq import max_aos_length, max_orientable_period

methods, get_context = [], multiprocessing.get_context
multiprocessing.get_context = lambda method=None: methods.append(method) or get_context(method)
done, setup = threading.Event(), sys.argv[1]
os.sched_getaffinity = lambda pid: {0, 1}
if setup == "thread":
    threading.Thread(target=done.wait, daemon=True).start()
elif setup == "watchdog":  # a C thread, which threading.active_count() does not count
    faulthandler.dump_traceback_later(600)
elif setup == "no-proc":  # a thread count that cannot be read
    def listdir(path, listdir=os.listdir):
        if str(path).startswith("/proc"):
            raise PermissionError(path)
        return listdir(path)
    os.listdir = listdir
elif setup == "no-affinity":  # as on macOS and Windows
    del os.sched_getaffinity

cases = [(max_orientable_period, 7), (max_aos_length, 6)]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    two = [search(n) for search, n in cases]
children = multiprocessing.active_children()
done.set()
faulthandler.cancel_dump_traceback_later()
os.sched_getaffinity = lambda pid: {0}
one = [search(n) for search, n in cases]
print(json.dumps({
    "methods": methods,
    "tracker": resource_tracker._resource_tracker._pid is not None,
    "warnings": [w.category.__name__ for w in caught],
    "same": two == one,
    "children": len(children),
}))
"""


@linux_only
@pytest.mark.parametrize(
    "setup,method",
    [("none", "fork"), ("thread", "alone"), ("watchdog", "alone"), ("no-proc", "alone"),
     ("no-affinity", "alone")],
)
def test_start_method(setup, method):
    """Forked from a caller of one OS thread, else no helper at all; either way
    with the one-CPU results, no warning and no resource tracker."""
    out = json.loads(fresh_python(START_METHOD, setup))
    assert out == {"methods": ["fork"] * 2 if method == "fork" else [], "tracker": False,
                   "warnings": [], "same": True, "children": 0}


@linux_only
def test_a_forked_helper_reads_eof_once_the_caller_closes_its_end():
    # The helper holds no copy of the caller's end, so it sees a killed caller go.
    out = fresh_python(
        "import sys\n"
        "from orientseq import search\n"
        "def reads(conn, n, closed):\n"
        "    try:\n"
        "        conn.recv()\n"
        "    except EOFError:\n"
        "        sys.exit(0)\n"
        "    sys.exit(1)\n"
        "search._helper = reads\n"
        "helper = search._Helper(5, False, 8)\n"
        "helper.conn.close()\n"
        "helper.process.join(60)\n"
        "print(helper.process.exitcode)\n"
    )
    assert out == "0\n"


# Searches on two CPUs from a script on stdin, after the set-up in {setup}, holding
# each helper back until it announces a root, or dies.
STDIN_SCRIPT = """\
import os, threading, time
os.sched_getaffinity = lambda pid: {{0, 1}}
{setup}
from orientseq import max_aos_length, search
start = search._Helper.__init__
def start_and_wait(self, *args):
    start(self, *args)
    self.conn.poll(60)
search._Helper.__init__ = start_and_wait
print(tuple(max_aos_length(6)))
"""


@linux_only
def test_a_script_on_stdin_searches_on_two_cpus():
    # A forked helper imports nothing, so none looks for the main module's file, '<stdin>'.
    script = STDIN_SCRIPT.format(setup="")
    assert fresh_python("-", stdin=script) == "(26, '00000100110111000101011111', True, 4807)\n"


@linux_only
def test_a_threaded_script_on_stdin_searches_alone():
    # No helper starts from a threaded caller, so none looks for the file '<stdin>'.
    script = STDIN_SCRIPT.format(
        setup="threading.Thread(target=time.sleep, args=(60,), daemon=True).start()")
    assert fresh_python("-", stdin=script) == "(26, '00000100110111000101011111', True, 4807)\n"


@linux_only
def test_a_helper_exits_once_its_caller_is_killed():
    # SIGKILL runs no finally, so the caller never stops its helper; the helper sees
    # that it has been reparented and exits, though it is in the middle of a root.
    script = ("import os\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "from orientseq import max_aos_length, search\n"
              "start = search._Helper.__init__\n"
              "def start_and_report(self, *args):  # once the helper announces a root\n"
              "    start(self, *args)\n"
              "    self.conn.poll(60)\n"
              "    print(self.process.pid, flush=True)\n"
              "search._Helper.__init__ = start_and_report\n"
              "max_aos_length(8)\n")  # about 6 x 10^13 nodes: no root ends in 5 s
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                              env=fresh_env(), start_new_session=True)
    try:
        helper = int(caller.stdout.readline())
        caller.kill()
        caller.wait(60)
        deadline = time.monotonic() + 5
        while (state := process_state(helper, caller.pid)) not in (None, "Z"):
            assert time.monotonic() < deadline, f"helper {helper} is still {state!r} after 5 s"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(caller.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        caller.stdout.close()
        caller.wait(60)


def process_state(pid: int, pgid: int):
    """The state letter of process pid while it is in process group pgid, else None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
    except FileNotFoundError:
        return None
    return fields[0] if int(fields[2]) == pgid else None


class TestAgainstUnprunedOracle:
    """The search against the unpruned loop it replaced (string_oracle.search).

    Stopping a closed walk that cannot get home cuts only subtrees with no
    cycle in them, so the search visits a subsequence of the oracle's nodes,
    in the same order, and compares every candidate the oracle compares.
    """

    @pytest.mark.parametrize(
        "closed,n",
        [(True, 5), (True, 6), (True, 7), (False, 4), (False, 5), (False, 6)],
        ids=["periodic-5", "periodic-6", "periodic-7", "aos-4", "aos-5", "aos-6"],
    )
    def test_exhaustive_runs_match(self, closed, n):
        r = (max_orientable_period if closed else max_aos_length)(n)
        value, witness, exhaustive, nodes = oracle.search(n, closed)
        assert (r.value, r.witness, r.exhaustive) == (value, witness, exhaustive)
        assert r.nodes <= nodes

    @pytest.mark.parametrize("n", range(6, 13))
    def test_budgeted_cycles_verify(self, n):
        r = max_orientable_period(n, node_budget=1000)
        assert r.witness is not None and len(r.witness) == r.value
        assert verify_orientable(GeneratingCycle(r.witness), n) is None
        # Within the same budget the search gets at least as far as the oracle.
        assert r.value >= oracle.search(n, True, node_budget=1000)[0]


def roots_at(n, closed, k):
    """Fresh search tables at order n, set up for root k's walk."""
    roots = search_module._Roots(n, closed)
    if closed:
        for a in roots.anchors[: k + 1]:
            roots.taken[a] = 1
    return roots


def same_walk(roots, k, limit=None):
    """Root k's walk with its nodes cut past limit, if any: check that the library
    and the per-root oracle give the same result and leave the same flags, then
    restore the flags and return the result."""
    before = roots.taken[:]
    ours = roots.walk(k, limit)
    after = roots.taken[:]
    roots.taken[:] = before
    assert oracle.walk(roots, k, limit) == ours
    assert roots.taken == after
    if limit is None:  # a whole walk frees every orbit it claimed
        assert after == before
    roots.taken[:] = before
    return ours


# Orders 2-7 as (closed, n); no cycle is orientable below order 5.  Orders 2 and 3
# are the only ones where an open walk reaches its bound, on its last node.
WALKS = [
    (True, 5), (True, 6), (True, 7),
    (False, 2), (False, 3), (False, 4), (False, 5), (False, 6), (False, 7),
]
WALKS_5_TO_7 = [(closed, n) for closed, n in WALKS if n >= 5]


def walk_ids(walks):
    return [f"{'periodic' if closed else 'aos'}-{n}" for closed, n in walks]


class TestWalkAgainstOracle:
    """Each root's walk against the one loop for both walk kinds (string_oracle.walk)
    that it replaced: the same nodes, best length and witness from every root."""

    @pytest.mark.parametrize("closed,n", WALKS, ids=walk_ids(WALKS))
    def test_every_root(self, closed, n):
        roots = search_module._Roots(n, closed)
        for k in range(roots.count):
            if closed:
                roots.taken[roots.anchors[k]] = 1
            same_walk(roots, k)

    @pytest.mark.parametrize("limit", [0, 1, 5_000])
    def test_order_eight_closed_roots_under_limits(self, limit):
        roots = search_module._Roots(8, True)
        for k in range(roots.count):
            roots.taken[roots.anchors[k]] = 1
            assert same_walk(roots, k, limit)[0] <= limit + 1

    @pytest.mark.parametrize("limit", [0, 1, 5_000])
    def test_order_eight_open_roots_under_limits(self, limit):
        roots = search_module._Roots(8, False)
        for k in range(roots.count):
            assert same_walk(roots, k, limit)[0] <= limit + 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_limits_cut_inside_a_root(self, data):
        closed, n = data.draw(st.sampled_from(WALKS[:-1]))  # aos-7 roots: up to 267,135 nodes
        k = data.draw(st.integers(0, search_module._Roots(n, closed).count - 1))
        nodes = roots_at(n, closed, k).walk(k)[0]
        limit = data.draw(st.sampled_from([0, 1, None]) | st.integers(0, nodes))
        found = same_walk(roots_at(n, closed, k), k, limit)[0]
        assert found == (nodes if limit is None else min(nodes, limit + 1))

    @pytest.mark.parametrize("closed,n", WALKS_5_TO_7, ids=walk_ids(WALKS_5_TO_7))
    def test_limits_of_many_digits_never_cut(self, closed, n):
        # The walk stops on limit + 1 nodes; a limit past any walk, too large for the
        # interpreter's one-digit ints, stops it nowhere, just as no limit does.
        roots = search_module._Roots(n, closed)
        for k in range(roots.count):
            if closed:
                roots.taken[roots.anchors[k]] = 1
            before = roots.taken[:]
            whole = roots.walk(k)
            assert roots.taken == before
            for limit in (2**40, 2**64):
                assert roots.walk(k, limit) == whole and roots.taken == before


@pytest.mark.parametrize("n", range(2, 13))
def test_successor_and_parity_tables(n):
    roots = search_module._Roots(n, False)
    vmask = (1 << (n - 1)) - 1
    assert roots.succ == [(t & vmask) << 1 for t in range(1 << n)]
    assert roots.odd == [t & 1 for t in range(1 << n)]


@pytest.mark.parametrize("n", range(2, 17))
def test_open_roots_are_bounded_by_the_burns_bound(n):
    # An open walk's n-1 start bits plus one edge per non-symmetric orbit.
    assert n - 1 + search_module._Roots(n, False).orbits == burns_bound(n)


class TestPeriodicSearch:
    def test_order_five_optimum(self):
        result = max_orientable_period(5)
        assert result.value == 6
        assert result.exhaustive
        cycle = GeneratingCycle(result.witness)
        assert verify_orientable(cycle, 5) is None
        # up to rotation, reversal, and complement there is one optimum
        variants = {
            least_rotation(b)
            for b in (
                "001101",
                "001101"[::-1],
                "001101".translate(str.maketrans("01", "10")),
                "001101"[::-1].translate(str.maketrans("01", "10")),
            )
        }
        assert least_rotation(result.witness) in variants

    @pytest.mark.slow
    def test_order_six_optimum(self):
        result = max_orientable_period(6)
        assert result.value == 16
        assert result.exhaustive
        assert verify_orientable(GeneratingCycle(result.witness), 6) is None

    @pytest.mark.slow
    def test_order_seven_optimum(self):
        result = max_orientable_period(7)
        assert result.value == 36
        assert result.exhaustive
        assert verify_orientable(GeneratingCycle(result.witness), 7) is None

    def test_matches_brute_force_oracle(self):
        assert max_orientable_period(5).value == brute_force_max_period(5)

    def test_budget_exhaustion(self):
        r = max_orientable_period(6, node_budget=50)
        assert not r.exhaustive
        assert r.nodes == 51
        assert r.value <= 16

    def test_initial_best_seeds_lower_bound(self):
        seeded = max_orientable_period(6, initial_best=(16, "0001010110010111"))
        assert seeded.value == 16
        assert seeded.exhaustive
        cold = max_orientable_period(6, node_budget=10**7)
        if cold.exhaustive:
            assert seeded.nodes <= cold.nodes

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            max_orientable_period(4)

    @pytest.mark.parametrize(
        "seed",
        [(999, "0"), (7, "0010111"), (5, "001101"), (None, "001101"), (4, "0101"), (2, [1, 2])],
        ids=["size-and-bound", "over-bound", "wrong-size", "no-value", "non-minimal", "non-binary"],
    )
    def test_rejects_malformed_seeds(self, seed):
        with pytest.raises(ValueError):
            max_orientable_period(5, initial_best=seed)

    def test_seed_that_does_not_verify_is_not_used(self):
        # [000111] has period 6 = dai_bound(5) and sorts first, but is not orientable.
        with pytest.raises(ValueError, match="initial_best witness is not orientable at order 5"):
            max_orientable_period(5, initial_best=(6, "000111"))


class TestAperiodicSearch:
    @pytest.mark.parametrize("n,value", [(2, 2), (3, 4), (4, 8), (5, 14)])
    def test_small_optima(self, n, value):
        result = max_aos_length(n)
        assert result.value == value
        assert result.exhaustive
        assert len(result.witness) == value
        assert verify_orientable(FiniteSeq(result.witness), n) is None

    @pytest.mark.slow
    def test_order_six_optimum(self):
        result = max_aos_length(6)
        assert result.value == 26
        assert result.exhaustive
        assert verify_orientable(FiniteSeq(result.witness), 6) is None

    @pytest.mark.slow
    def test_order_seven_optimum(self):
        result = max_aos_length(7)
        assert result.value == 48
        assert result.exhaustive
        assert verify_orientable(FiniteSeq(result.witness), 7) is None

    def test_matches_brute_force_oracle(self):
        assert max_aos_length(5).value == brute_force_max_aos_length(5)

    def test_budget_exhaustion_and_resume(self):
        partial = max_aos_length(5, node_budget=30)
        assert not partial.exhaustive
        resumed = max_aos_length(
            5, initial_best=(partial.value, partial.witness)
        )
        assert resumed.value == 14 and resumed.exhaustive

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            max_aos_length(1)


@pytest.mark.parametrize(
    "search,n,value,witness",
    [
        (max_orientable_period, 6, 9.0, "001010111"),
        (max_orientable_period, 6, 16.0, "0001010110010111"),
        (max_orientable_period, 6, True, "0"),
        (max_aos_length, 5, 14.0, "00001101001111"),
    ],
    ids=["periodic-float", "periodic-float-optimum", "periodic-bool", "aperiodic-float"],
)
def test_seed_values_that_are_not_ints_are_refused(search, n, value, witness):
    # The same seeds with int values are accepted; only the value's type is wrong.
    if value is not True:
        assert search(n, initial_best=(int(value), witness), node_budget=10).value == value
    with pytest.raises(ValueError, match=f"initial_best value {value!r} is not"):
        search(n, initial_best=(value, witness), node_budget=10)


@pytest.mark.parametrize("search", [max_orientable_period, max_aos_length])
def test_orders_whose_tables_cannot_fit_are_refused_up_front(search):
    # 2^40 windows of tables: refused before anything is allocated.
    with pytest.raises(ValueError, match="search tables at order 40 need about"):
        search(40)


@pytest.mark.parametrize(
    "search,seq_type",
    [(max_orientable_period, GeneratingCycle), (max_aos_length, FiniteSeq)],
    ids=["periodic", "aos"],
)
def test_order_nineteen_fits(search, seq_type):
    # The tables grow as 2^n, so order 19 takes tens of megabytes.
    r = search(19, node_budget=1000)
    assert (r.nodes, r.exhaustive) == (1001, False)
    if r.witness is not None:
        assert len(r.witness) == r.value
        assert verify_orientable(seq_type(r.witness), 19) is None


@pytest.mark.parametrize("search", [max_orientable_period, max_aos_length])
def test_table_memory_is_within_the_guard(search):
    tracemalloc.start()
    try:
        search(14, node_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 14) * BYTES_PER_WINDOW


@pytest.mark.parametrize("search", [max_orientable_period, max_aos_length])
def test_negative_budget_is_refused(search):
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        search(5, node_budget=-3)


class TestResultPayload:
    def test_as_dict_round_trips_through_json(self):
        import json

        r = max_aos_length(4)
        payload = json.loads(json.dumps(r._asdict()))
        assert payload["value"] == 8
        assert payload["exhaustive"] is True
        assert isinstance(payload["nodes"], int)
