"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop driven by one client: each library call or
CLI process starts after the previous one has returned, on one thread.  A
workload repeats a fixed *round* of work; the inputs of a round are generated
from the seed before the first round, outside every timed region, and are the
same in every round, so counts repeat exactly at a fixed seed.

Outputs are checked outside the timed regions.  Each checked operation (a
build, a CLI process, a lookup, a search) counts once in ``Checks.attempted``;
a wrong answer counts once in ``Checks.failures``.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from orientseq import aperiodic, join, lempel, locator, periodic, search, seqcore, verifier
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 150

median = statistics.median

FORWARD = "forward"
# The locator says "reverse" and the verifier "reversed"; accept either so a
# rename of the direction constants does not read as a wrong answer.
REVERSED = ("reverse", "reversed")

#: Sizes per scale.  "full" is what the benchmark measures; "smoke" runs the
#: same code paths and checks at tiny orders in a few seconds.
SCALES = {
    "full": {
        "imports": 11,
        "construct": {"periodic": 26, "aperiodic": 24, "debruijn": 19},
        "cli-session": {"periodic": 21, "aperiodic": 20, "locate": 18},
        "decode": {"order": 20, "queries": 200_000, "setups": 3},
        "search": {"periodic": 7, "aperiodic": 7, "budgeted": 8, "budget": 500_000,
                   "optima": (36, 48)},
    },
    "smoke": {
        "imports": 2,
        "construct": {"periodic": 12, "aperiodic": 10, "debruijn": 8},
        "cli-session": {"periodic": 11, "aperiodic": 10, "locate": 10},
        "decode": {"order": 10, "queries": 2_000, "setups": 2},
        "search": {"periodic": 6, "aperiodic": 6, "budgeted": 7, "budget": 5_000,
                   "optima": (16, 26)},
    },
}

#: (size, sha256 of the bits) of every sequence the workloads build, taken
#: from the library as first benchmarked.  A change to any construction shows
#: up here as a failed check.
PINS = {
    ("periodic", 10): (149, "f934922a07735ffdd3ff9980add47cd1ce60a4f4be2db0e80e94efd946081d46"),
    ("periodic", 11): (298, "70098b07b8a544591f77a74a0cd2269842f8843eda5981e50e831d8e8bbda83d"),
    ("periodic", 12): (597, "81f5eeb4e3681219dd4e7b3155fb2902d3f17d50690bb8a18b736860cca84678"),
    ("periodic", 18): (38229, "eb3af71a1ceaaf7f4a5c0fff36e0980d1bc2082a3cd2146c49653e7506bd9800"),
    ("periodic", 20): (152917, "c7e208a43dcba896d6495451a838ad018dd64e94aa2a322cb88cc1021cf5cb68"),
    ("periodic", 21): (305834, "f4b2285f51d173008eaf9860d1aaf20e7fd847c9ba1e298299f773eeaa66b2f9"),
    ("periodic", 26): (9786709, "d3e5d9a8225076823aba0a9de61f6d333cc82cd8cecb3e6b8c9f123dafdb6693"),
    ("aperiodic", 10): (350, "668f71adc3578c6d86740601757cf04230b1cb5bc41b47fcf4388559af242d11"),
    ("aperiodic", 20): (349544, "e4db975b44bf165158f1d8b30bf6f74794ae7f3188adb008d8df5c1f0599d43a"),
    ("aperiodic", 24): (5592428, "e29d9dcb154f1645229f6f46a0f7163f86cfcf53c310506e38c20bf3d6806f6f"),
    ("debruijn", 8): (256, "3588e86953668073502694e7968bcceeb90908b8681b4784b6c749337fbd45cc"),
    ("debruijn", 19): (524288, "abbdb98574fd412d36006c824d726da134310bf4e01dbee19de1373b55586a10"),
}


# --------------------------------------------------------------------------
# Shared helpers


class Checks:
    """Operations attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, error: Optional[str], ops: int = 1) -> None:
        self.attempted += ops
        if error is not None:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{what}: {error}")


def digest(bits: str) -> str:
    h = hashlib.sha256()
    for k in range(0, len(bits), 1 << 20):
        h.update(bits[k : k + (1 << 20)].encode("ascii"))
    return h.hexdigest()


def pin_error(family: str, order: int, bits: str) -> Optional[str]:
    size, sha = PINS[(family, order)]
    if len(bits) != size:
        return f"{family} order {order} has size {len(bits)}, pinned {size}"
    if digest(bits) != sha:
        return f"{family} order {order} differs from the pinned sha256"
    return None


class SeqView:
    """The n-bit windows of a cyclic or finite bit string, sliced independently of the library."""

    def __init__(self, bits: str, cyclic: bool, n: int):
        self.cyclic, self.n = cyclic, n
        self.ext = bits + bits[: n - 1] if cyclic else bits
        self.count = len(bits) if cyclic else len(bits) - n + 1

    def window(self, i: int) -> Optional[str]:
        if not 0 <= i < self.count:
            return None
        return self.ext[i : i + self.n]

    def occurs(self, w: str) -> bool:
        """True if w or its reversal is one of the windows."""
        return w in self.ext or w[::-1] in self.ext


def collides_at(view: SeqView, p: int) -> bool:
    """True if a window covering position p repeats elsewhere, in either direction.

    Searches the bits directly, so proving a one-bit mutant non-orientable
    costs a few string scans and no window table.
    """
    for i in range(p - view.n + 1, p + 1):
        if view.cyclic:
            i %= view.count
        w = view.window(i)
        if w is None:
            continue
        if w == w[::-1]:
            return True
        for target in (w, w[::-1]):
            j = view.ext.find(target)
            while 0 <= j < view.count:
                if j != i:
                    return True
                j = view.ext.find(target, j + 1)
    return False


def orientable_error(view: SeqView) -> Optional[str]:
    """None if no window repeats in either direction, else the first repeat."""
    seen: set[str] = set()
    for i in range(view.count):
        w = view.window(i)
        if w == w[::-1] or w in seen or w[::-1] in seen:
            return f"window {w} at {i} repeats"
        seen.add(w)
    return None


def collision_error(view: SeqView, cx: dict) -> Optional[str]:
    """None if the counterexample is a real collision in the bits of view."""
    i, j, kind = cx.get("i"), cx.get("j"), cx.get("kind")
    if not isinstance(i, int) or not isinstance(j, int):
        return f"malformed counterexample {cx}"
    a, b = view.window(i), view.window(j)
    if a is None or b is None:
        return f"counterexample {cx} is out of range"
    if kind == FORWARD:
        ok = i != j and a == b
    elif kind in REVERSED:
        ok = i != j and a == b[::-1]
    elif kind == "symmetric":
        ok = i == j and a == a[::-1]
    else:
        ok = False
    return None if ok else f"counterexample {cx} is not a collision"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one process to completion: (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


#: Loop count and nominal duration of the machine-speed probe.
PROBE_LOOPS = 100_000
PROBE_NOMINAL_S = 0.010


def probe_seconds() -> float:
    """Median time of three runs of a fixed pure-Python loop that calls no library code."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return median(times)


def speed_factor(before: float, after: float) -> float:
    """Factor that scales a time taken between two probes to the nominal machine speed.

    The host's speed drifts by up to half over seconds to minutes, for every
    process alike; scaling each sample by the probe taken around it keeps that
    drift out of the comparison between two runs.
    """
    return 2 * PROBE_NOMINAL_S / (before + after)


def import_seconds(times: int, checks: Checks) -> list[float]:
    """Wall time of a fresh interpreter importing the library, `times` times, speed-scaled."""
    out = []
    for _ in range(times):
        before = probe_seconds()
        code, _, err, wall = run_child([sys.executable, "-c", "import orientseq"])
        out.append(wall * speed_factor(before, probe_seconds()))
        checks.record("import orientseq", None if code == 0 else f"exit {code}: {err[-200:]}")
    return out


def rss_mb() -> float:
    """Current resident set size of this process, 0 where /proc is unavailable."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024



def percentile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: set-up, an untraced round, a traced round, and its metrics."""

    name = ""
    #: Whose ``ru_maxrss`` is the workload's peak RSS.
    rss_of = resource.RUSAGE_SELF

    def __init__(self, scale: dict, seed: int, workdir: Path, checks: Checks):
        self.scale = scale
        self.sizes = scale[self.name]
        self.seed = seed
        self.workdir = workdir
        self.checks = checks

    def setup(self) -> list[float]:
        """Prepare inputs; return set-up time samples, in seconds."""
        raise NotImplementedError

    def round(self) -> dict:
        """One untraced round; returns its raw samples, with its wall time under "wall".

        The runner adds the round's speed factor under "speed"; end_to_end
        scales every time by it (and divides every rate by it).
        """
        raise NotImplementedError

    def traced_round(self, tracer: Tracer) -> dict:
        """One round with the library patched; returns per-layer values it measured itself."""
        raise NotImplementedError

    def end_to_end(self, rounds: list[dict], setup: list[float]) -> dict[str, float]:
        """Every end-to-end metric but peak_rss_mb, which the runner reads after the first round."""
        raise NotImplementedError

    def named(self, e2e: dict, rounds: list[dict]) -> dict[str, tuple[float, str]]:
        """Extra metrics under their per-workload names (see NOTES.md), with units."""
        return {}


class Construct(Workload):
    """Both recursive families and the de Bruijn doubling, in process.

    Why: the recursion runs at orders where nothing else keeps up; lempel,
    periodic, aperiodic, seqcore and join do almost all the work, the verifier
    only checks the starters, and locator and search stay idle.
    """

    name = "construct"

    def setup(self) -> list[float]:
        return import_seconds(self.scale["imports"], self.checks)

    def _check(self, cycle, seq, db) -> None:
        p, a, d = self.sizes["periodic"], self.sizes["aperiodic"], self.sizes["debruijn"]
        steps = p - periodic.DEFAULT_STARTER_ORDER
        predicted = periodic.predicted_period(len(periodic.DEFAULT_STARTER), steps // 2, steps % 2)
        err = pin_error("periodic", p, cycle.bits)
        if err is None and len(cycle) != predicted:
            err = f"period {len(cycle)} != predicted_period {predicted}"
        if err is None and not (periodic.is_good(cycle, p) and cycle.weight % 2 == 1):
            err = "periodic output is not good with odd weight"
        self.checks.record("build_orientable", err)

        predicted = aperiodic.predicted_length(len(aperiodic.DEFAULT_STARTER),
                                               aperiodic.DEFAULT_STARTER_ORDER,
                                               a - aperiodic.DEFAULT_STARTER_ORDER)
        err = pin_error("aperiodic", a, seq.bits)
        if err is None and len(seq) != predicted:
            err = f"length {len(seq)} != predicted_length {predicted}"
        if err is None and not aperiodic.is_ideal(seq, a):
            err = "aperiodic output is not ideal"
        self.checks.record("build_aos", err)

        self.checks.record("debruijn_lempel", pin_error("debruijn", d, db.bits))

    def round(self) -> dict:
        p, a, d = self.sizes["periodic"], self.sizes["aperiodic"], self.sizes["debruijn"]
        t0 = time.perf_counter()
        cycle, _ = periodic.build_orientable(periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER, p)
        t1 = time.perf_counter()
        seq, _ = aperiodic.build_aos(a)
        db = join.debruijn_lempel(d)
        t2 = time.perf_counter()
        self._check(cycle, seq, db)
        return {"wall": t2 - t0, "op": t1 - t0, "bits": len(cycle) + len(seq) + len(db)}

    def traced_round(self, tracer: Tracer) -> dict:
        # Rebuild each recursion from its public steps so every step gets a span.
        p, a, d = self.sizes["periodic"], self.sizes["aperiodic"], self.sizes["debruijn"]
        cycle = periodic.DEFAULT_STARTER
        verifier.verify_orientable(cycle, periodic.DEFAULT_STARTER_ORDER)
        for n in range(periodic.DEFAULT_STARTER_ORDER, p):
            doubled = lempel.d_inverse_periodic(cycle).first
            with tracer.span("seqcore.weight"):
                doubled.weight
            cycle = periodic.extend_odd(doubled, n + 1)
            with tracer.span("seqcore.weight"):
                cycle.weight
            with tracer.span("seqcore.validate"):
                seqcore.GeneratingCycle(cycle.bits)
        seq = aperiodic.DEFAULT_STARTER
        verifier.verify_orientable(seq, aperiodic.DEFAULT_STARTER_ORDER)
        for n in range(aperiodic.DEFAULT_STARTER_ORDER, a):
            seq = aperiodic.merge_step(seq, n)
            with tracer.span("seqcore.validate"):
                seqcore.FiniteSeq(seq.bits)
        db = join.debruijn_lempel(d)
        self._check(cycle, seq, db)
        return {}

    def end_to_end(self, rounds, setup):
        return {
            "wall_s": median(r["wall"] * r["speed"] for r in rounds),
            "setup_s": median(setup),
            "work_per_s": median(r["bits"] / (r["wall"] * r["speed"]) for r in rounds),
            "op_p50_us": median(r["op"] * r["speed"] for r in rounds) * 1e6,
        }

    def named(self, e2e, rounds):
        return {"construct_s": (e2e["wall_s"], "s")}


class Search(Workload):
    """Branch-and-bound alone: two exhaustive order-7 proofs and a budgeted order-8 run.

    Why: isolates the search layer and bypasses every other one; the budgeted
    order-8 run measures nodes/s on a deeper tree.
    """

    name = "search"

    def setup(self) -> list[float]:
        self.nodes: Optional[tuple[int, int, int]] = None
        return import_seconds(self.scale["imports"], self.checks)

    def _run(self, tracer: Optional[Tracer] = None) -> tuple[list[float], list]:
        sz = self.sizes
        calls = [
            ("search.periodic7", search.max_orientable_period, (sz["periodic"],), {}),
            ("search.aos7", search.max_aos_length, (sz["aperiodic"],), {}),
            ("search.budget8", search.max_orientable_period, (sz["budgeted"],),
             {"node_budget": sz["budget"]}),
        ]
        times, results = [], []
        for span, fn, args, kwargs in calls:
            t0 = time.perf_counter()
            if tracer is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span):
                    result = fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
            results.append(result)
        self._check(results)
        return times, results

    def _check(self, results) -> None:
        sz = self.sizes
        for label, res, order, cyclic, optimum in (
            ("max_orientable_period", results[0], sz["periodic"], True, sz["optima"][0]),
            ("max_aos_length", results[1], sz["aperiodic"], False, sz["optima"][1]),
            ("max_orientable_period budgeted", results[2], sz["budgeted"], True, None),
        ):
            err = None
            if optimum is not None and (res.value, res.exhaustive) != (optimum, True):
                err = f"value {res.value} exhaustive={res.exhaustive}, expected {optimum} proved"
            elif res.value and (res.witness is None or len(res.witness) != res.value):
                err = f"witness does not have length {res.value}"
            elif res.value:
                err = orientable_error(SeqView(res.witness, cyclic, order))
            self.checks.record(label, err)
        nodes = tuple(r.nodes for r in results)
        if self.nodes is None:
            self.nodes = nodes
        self.checks.record("search node counts", None if nodes == self.nodes else f"{nodes} != {self.nodes}")

    def round(self) -> dict:
        times, results = self._run()
        return {"wall": sum(times), "proof": times[0] + times[1],
                "nodes": sum(r.nodes for r in results), "budget_value": results[2].value}

    def traced_round(self, tracer: Tracer) -> dict:
        _, results = self._run(tracer)
        return {
            "search.periodic7_nodes": results[0].nodes,
            "search.aos7_nodes": results[1].nodes,
            "search.budget8_nodes": results[2].nodes,
            "search.budget8_value": results[2].value,
        }

    def end_to_end(self, rounds, setup):
        return {
            "wall_s": median(r["wall"] * r["speed"] for r in rounds),
            "setup_s": median(setup),
            "work_per_s": median(r["nodes"] / (r["wall"] * r["speed"]) for r in rounds),
            "op_p50_us": median(r["proof"] * r["speed"] for r in rounds) * 1e6,
        }

    def named(self, e2e, rounds):
        return {
            "search_proof_s": (e2e["op_p50_us"] / 1e6, "s"),
            "search_nodes_per_s": (e2e["work_per_s"], "1/s"),
            "search_budget8_value": (rounds[0]["budget_value"], "count"),
        }


class Decode(Workload):
    """Index both order-n family members once, then stream seeded lookups.

    Why: uses the locator the opposite way from cli-session, with set-up
    amortised over many lookups, so a table-free locator shows both its set-up
    and memory saving and any change in per-lookup latency.
    """

    name = "decode"

    def setup(self) -> list[float]:
        n = self.sizes["order"]
        self.cycle, _ = periodic.build_orientable(periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER, n)
        self.finite, _ = aperiodic.build_aos(n)
        self.checks.record("build_orientable", pin_error("periodic", n, self.cycle.bits))
        self.checks.record("build_aos", pin_error("aperiodic", n, self.finite.bits))
        self.views = (SeqView(self.cycle.bits, True, n), SeqView(self.finite.bits, False, n))
        self._make_queries()
        # Every window and reversed window of each sequence, for the miss checks.
        self.present = []
        for view in self.views:
            seen = bytearray(1 << n)
            for i in range(view.count):
                w = view.window(i)
                seen[int(w, 2)] = seen[int(w[::-1], 2)] = 1
            self.present.append(seen)
        self.first_results: Optional[list] = None

        samples = []
        for k in range(self.sizes["setups"]):
            self.indexes = None  # free the previous pair before timing the next
            before = rss_mb()
            speed_before = probe_seconds()
            t0 = time.perf_counter()
            self._build_indexes()
            samples.append((time.perf_counter() - t0) * speed_factor(speed_before, probe_seconds()))
            if k == 0:
                self.index_rss_mb = rss_mb() - before
        return samples

    def _make_queries(self) -> None:
        """45% forward windows, 45% reversed windows, 10% random words, over both sequences."""
        rng = random.Random(self.seed)
        n = self.sizes["order"]
        self.queries: list[tuple[int, str]] = []
        self.expected: list[Optional[tuple[int, str]]] = []
        for _ in range(self.sizes["queries"]):
            f = rng.randrange(2)
            view = self.views[f]
            kind = rng.random()
            if kind < 0.9:
                pos = rng.randrange(view.count)
                w = view.window(pos)
                if kind < 0.45:
                    self.queries.append((f, w))
                    self.expected.append((pos, FORWARD))
                else:
                    self.queries.append((f, w[::-1]))
                    self.expected.append((pos, REVERSED[0]))
            else:
                self.queries.append((f, format(rng.getrandbits(n), f"0{n}b")))
                self.expected.append(None)

    def _build_indexes(self) -> None:
        n = self.sizes["order"]
        self.indexes = (locator.build_index(self.cycle, n), locator.build_index(self.finite, n))
        for idx, view in zip(self.indexes, self.views):
            err = None if len(idx) == 2 * view.count else f"{len(idx)} entries, expected {2 * view.count}"
            self.checks.record("build_index", err)

    def _pass(self) -> tuple[float, array, list]:
        locate = locator.locate
        indexes = self.indexes
        clock = time.perf_counter_ns
        lat = array("q", bytes(8 * len(self.queries)))
        results: list = [None] * len(self.queries)
        t0 = clock()
        for k, (f, w) in enumerate(self.queries):
            a = clock()
            r = locate(indexes[f], w)
            lat[k] = clock() - a
            results[k] = r
        return (clock() - t0) / 1e9, lat, results

    def _query_error(self, k: int, r) -> Optional[str]:
        f, w = self.queries[k]
        exp = self.expected[k]
        if r is None:
            if exp is not None or self.present[f][int(w, 2)]:
                return f"{w} reported absent but occurs"
            return None
        pos, orientation = r
        win = self.views[f].window(pos)
        if orientation == FORWARD:
            ok = win == w
        elif orientation in REVERSED:
            ok = win is not None and win[::-1] == w
        else:
            ok = False
        if ok and exp is not None:
            ok = pos == exp[0] and (orientation == FORWARD) == (exp[1] == FORWARD)
        return None if ok else f"{w} -> {r}, expected {exp}"

    def _check_results(self, results: list) -> None:
        # A pass that repeats the first pass's answers repeats its failures too.
        if self.first_results is not None and results == self.first_results:
            errors = self.first_errors
        else:
            errors = [e for e in map(self._query_error, range(len(results)), results) if e]
        if self.first_results is None:
            self.first_results, self.first_errors = results, errors
        self.checks.record("locate", None, ops=len(results) - len(errors))
        for e in errors:
            self.checks.record("locate", e)

    def round(self) -> dict:
        wall, lat, results = self._pass()
        self._check_results(results)
        ordered = sorted(lat)
        return {"wall": wall, "p50": percentile(ordered, 0.50), "p99": percentile(ordered, 0.99),
                "per_s": len(lat) / (sum(lat) / 1e9), "samples": len(lat)}

    def traced_round(self, tracer: Tracer) -> dict:
        self.indexes = None
        self._build_indexes()
        _, _, results = self._pass()
        self._check_results(results)
        return {"locator.index_rss_mb": self.index_rss_mb}

    def end_to_end(self, rounds, setup):
        return {
            "wall_s": median(r["wall"] * r["speed"] for r in rounds),
            "setup_s": median(setup),
            "work_per_s": median(r["per_s"] / r["speed"] for r in rounds),
            "op_p50_us": median(r["p50"] * r["speed"] for r in rounds) / 1e3,
        }

    def named(self, e2e, rounds):
        return {
            "lookup_p50_us": (e2e["op_p50_us"], "us"),
            "lookup_p99_us": (median(r["p99"] * r["speed"] for r in rounds) / 1e3, "us"),
            "lookups_per_s": (e2e["work_per_s"], "1/s"),
            "lookup_samples": (sum(r["samples"] for r in rounds), "count"),
        }


@dataclass
class Command:
    kind: str  # startup | construct | verify | locate
    args: list[str]
    code: int  # the documented exit code for this input
    check: Callable[[str], Optional[str]]
    windows: int = 0  # windows a verify command checks


@dataclass
class Mutant:
    path: Path
    view: SeqView
    flipped: int


class CliSession(Workload):
    """The file-based flow a user runs, one ``python -m orientseq.cli`` process at a time.

    Why: the only workload that covers cli and seqio; it takes the verifier's
    failure path on seeded mutants, and the locator pays its whole set-up on
    every one-shot lookup.
    """

    name = "cli-session"
    rss_of = resource.RUSAGE_CHILDREN

    def setup(self) -> list[float]:
        sz = self.sizes
        rng = random.Random(self.seed)
        self.files = {key: self.workdir / f"{key}.txt" for key in ("periodic", "aperiodic", "locate")}
        cycle, _ = periodic.build_orientable(periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER, sz["periodic"])
        finite, _ = aperiodic.build_aos(sz["aperiodic"])
        self.mutants = [
            self._mutant("periodic", cycle.bits, True, sz["periodic"], rng),
            self._mutant("aperiodic", finite.bits, False, sz["aperiodic"], rng),
        ]
        lcycle, _ = periodic.build_orientable(periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER, sz["locate"])
        lview = SeqView(lcycle.bits, True, sz["locate"])
        fpos, rpos = rng.randrange(lview.count), rng.randrange(lview.count)
        while True:
            miss = format(rng.getrandbits(lview.n), f"0{lview.n}b")
            if not lview.occurs(miss):
                break
        locates = [(lview.window(fpos), (fpos, FORWARD)),
                   (lview.window(rpos)[::-1], (rpos, REVERSED[0])),
                   (miss, None)]

        files = self.files
        cmds = [Command("startup", ["bound", "--order", "5"], 0, self._bound_error)]
        for key, family, order in (("periodic", "periodic", sz["periodic"]),
                                   ("aperiodic", "aperiodic", sz["aperiodic"]),
                                   ("locate", "periodic", sz["locate"])):
            cmds.append(Command("construct", ["construct", family, "--target-order", str(order),
                                              "--out", str(files[key])], 0,
                                lambda out, f=files[key], fam=family, o=order: self._file_error(f, fam, o)))
        verifies = [
            Command("verify", ["verify", str(files[key]), "--property", prop, "--json"], 0, self._ok_error, count)
            for key, count in (("periodic", len(cycle)), ("aperiodic", len(finite) - sz["aperiodic"] + 1))
            for prop in ("orientable", "nwindow")
        ] + [
            Command("verify", ["verify", str(m.path), "--json"], 1,
                    lambda out, m=m: self._counterexample_error(m, out), m.view.count)
            for m in self.mutants
        ]
        oneshots = [
            Command("locate", ["locate", "--seq", str(files["locate"]), "--window", window, "--json"],
                    0 if exp else 1, lambda out, exp=exp: self._locate_error(exp, out))
            for window, exp in locates
        ]
        # The machine's speed drifts over seconds, so one-shot lookups run back
        # to back would all sample one state; spread them through the session.
        for k, cmd in enumerate(verifies):
            cmds.append(cmd)
            if k % 2 == 0 and oneshots:
                cmds.append(oneshots.pop(0))
        self.commands = cmds
        return []

    def _mutant(self, family: str, bits: str, cyclic: bool, n: int, rng: random.Random) -> Mutant:
        """A one-bit flip of bits that is certainly not orientable (checked here, not by the library).

        The check scans strings rather than building a window table, so this
        process stays small: a child's ``ru_maxrss`` starts from its parent's
        resident size at fork.
        """
        for _ in range(100):
            p = rng.randrange(len(bits))
            flipped = bits[:p] + ("1" if bits[p] == "0" else "0") + bits[p + 1 :]
            if cyclic and (flipped + flipped).find(flipped, 1) != len(flipped):
                continue
            view = SeqView(flipped, cyclic, n)
            if collides_at(view, p):
                path = self.workdir / f"mutant-{family}.txt"
                path.write_text(f"# mode={family} order={n}\n{flipped}\n", encoding="ascii")
                return Mutant(path, view, p)
        raise RuntimeError(f"no non-orientable one-bit mutant of the {family} sequence found")

    def _bound_error(self, out: str) -> Optional[str]:
        return None if str(periodic.dai_bound(5)) in out else f"unexpected output {out!r}"

    def _file_error(self, path: Path, family: str, order: int) -> Optional[str]:
        lines = [ln.strip() for ln in path.read_text(encoding="ascii").splitlines() if ln.strip()]
        bits = [ln for ln in lines if not ln.startswith("#")]
        header = " ".join(ln for ln in lines if ln.startswith("#"))
        if len(bits) != 1 or f"mode={family}" not in header or f"order={order}" not in header:
            return f"{path.name} is not a {family} order-{order} sequence file"
        return pin_error(family, order, bits[0])

    @staticmethod
    def _json(out: str) -> dict:
        try:
            return json.loads(out)
        except ValueError:
            return {}

    def _ok_error(self, out: str) -> Optional[str]:
        return None if self._json(out).get("ok") is True else f"verify did not report ok: {out[:200]!r}"

    def _counterexample_error(self, m: Mutant, out: str) -> Optional[str]:
        payload = self._json(out)
        if payload.get("ok") is not False or not isinstance(payload.get("counterexample"), dict):
            return f"mutant flipped at {m.flipped} not reported: {out[:200]!r}"
        return collision_error(m.view, payload["counterexample"])

    def _locate_error(self, exp, out: str) -> Optional[str]:
        payload = self._json(out)
        if exp is None:
            return None if payload.get("found") is False else f"miss reported as {out[:200]!r}"
        pos, orientation = exp
        got = payload.get("orientation")
        ok = (payload.get("found") is True and payload.get("position") == pos
              and (got == FORWARD if orientation == FORWARD else got in REVERSED))
        return None if ok else f"expected {exp}, got {out[:200]!r}"

    def _command_error(self, cmd: Command, code: int, out: str, err: str) -> Optional[str]:
        if code != cmd.code:
            return f"exit {code}, expected {cmd.code}: {err.strip()[-300:]}"
        if "Traceback" in err:
            return f"traceback on stderr: {err.strip()[-300:]}"
        return cmd.check(out)

    def round(self) -> dict:
        walls = {"startup": 0.0, "construct": 0.0, "verify": 0.0, "locate": 0.0}
        locates, windows = [], 0
        for cmd in self.commands:
            code, out, err, wall = run_child([sys.executable, "-m", "orientseq.cli", *cmd.args])
            self.checks.record(" ".join(cmd.args[:2]), self._command_error(cmd, code, out, err))
            walls[cmd.kind] += wall
            windows += cmd.windows
            if cmd.kind == "locate":
                locates.append(wall)
        return {"wall": sum(walls.values()), "setup": walls["construct"],
                "verify_per_s": windows / walls["verify"], "locates": locates}

    def traced_round(self, tracer: Tracer) -> dict:
        caught = 0
        for k, cmd in enumerate(self.commands):
            spans_path = self.workdir / f"spans-{k}.json"
            with tracer.span(f"cli.{cmd.kind}") as rec:
                code, out, err, _ = run_child([sys.executable, str(CLI_CHILD), str(spans_path), "--", *cmd.args])
            error = self._command_error(cmd, code, out, err)
            self.checks.record(" ".join(cmd.args[:2]) + " (traced)", error)
            if cmd.code == 1 and cmd.kind == "verify" and error is None:
                caught += 1
            if spans_path.exists():
                tracer.merge(*Tracer.load(str(spans_path)), parent=rec[1])
        return {"verifier.mutants": len(self.mutants), "verifier.mutants_caught": caught}

    def end_to_end(self, rounds, setup):
        return {
            "wall_s": median(r["wall"] * r["speed"] for r in rounds),
            "setup_s": median(r["setup"] * r["speed"] for r in rounds),
            "work_per_s": median(r["verify_per_s"] / r["speed"] for r in rounds),
            "op_p50_us": median(w * r["speed"] for r in rounds for w in r["locates"]) * 1e6,
        }

    def named(self, e2e, rounds):
        return {
            "verify_windows_per_s": (e2e["work_per_s"], "1/s"),
            "locate_oneshot_s": (e2e["op_p50_us"] / 1e6, "s"),
        }


WORKLOADS = {w.name: w for w in (Construct, CliSession, Decode, Search)}
