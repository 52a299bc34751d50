"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files only: either around a call
site (``Tracer.span``) or by temporarily rebinding a public library function,
in every ``orientseq`` module that imported it, to a wrapper that records a
span around each call (``Tracer.patch``).  Calls between library modules
through those public names are therefore traced too, and nest: the verifier
call made inside ``build_index`` becomes a child of the ``locator.build_index``
span.

A span is ``[run_id, span_id, parent_id, name, start_ns, end_ns]``.  Spans stay
in memory and are written out once, when the run ends.  A layer's self time is
the sum over its spans of the span's duration minus the durations of its
direct children (calls are single-threaded, so children never overlap).
"""
from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

CountFn = Callable[[dict, tuple, object], None]


def _bump(counts: dict, key: str, by: int = 1) -> None:
    counts[key] = counts.get(key, 0) + by


def _count_inverse(counts: dict, args: tuple, result) -> None:
    _bump(counts, "lempel.bits", sum(len(s) for s in result.sequences()))


def _count_extend(counts: dict, args: tuple, result) -> None:
    _bump(counts, "periodic.steps")
    _bump(counts, "periodic.inserted_bits", len(result) - len(args[0]))


def _count_merge(counts: dict, args: tuple, result) -> None:
    _bump(counts, "aperiodic.steps")


def _count_windows(counts: dict, args: tuple, result) -> None:
    seq, n = args[0], args[1]
    # A cycle has one window per position; a finite word has len - n + 1.
    _bump(counts, "verifier.windows", len(seq) if hasattr(seq, "period") else len(seq) - n + 1)


def _count_index(counts: dict, args: tuple, result) -> None:
    _bump(counts, "locator.index_entries", len(result))


def _count_locate(counts: dict, args: tuple, result) -> None:
    _bump(counts, "locator.misses" if result is None else "locator.hits")


def _count_file(counts: dict, args: tuple, result) -> None:
    _bump(counts, "seqio.bytes", os.path.getsize(args[0]))


#: (span name, module, public function, counter) for every library call the
#: traced run wraps.  Search calls and CLI processes get call-site spans.
LIBRARY_TARGETS: list[tuple[str, str, str, Optional[CountFn]]] = [
    ("lempel.inverse_periodic", "orientseq.lempel", "d_inverse_periodic", _count_inverse),
    ("lempel.inverse_aperiodic", "orientseq.lempel", "d_inverse_aperiodic", _count_inverse),
    ("periodic.extend_odd", "orientseq.periodic", "extend_odd", _count_extend),
    ("aperiodic.merge_step", "orientseq.aperiodic", "merge_step", _count_merge),
    ("join.debruijn", "orientseq.join", "debruijn_lempel", None),
    ("verifier.orientable", "orientseq.verifier", "verify_orientable", _count_windows),
    ("verifier.nwindow", "orientseq.verifier", "verify_nwindow", _count_windows),
    ("locator.build_index", "orientseq.locator", "build_index", _count_index),
    ("locator.locate", "orientseq.locator", "locate", _count_locate),
    ("seqio.read", "orientseq.seqio", "read_sequence", _count_file),
    ("seqio.write", "orientseq.seqio", "write_sequence", _count_file),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [self.run_id, len(self.spans), self._stack[-1] if self._stack else None, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[4] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around a call site."""
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn] = None) -> Callable:
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def patch(self, targets=LIBRARY_TARGETS) -> None:
        """Rebind each target, wherever an orientseq module holds it, to a wrapper."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "orientseq" or name.startswith("orientseq."))
        ]
        for span_name, module_name, attr, count in targets:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def unpatch(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def merge(self, spans: list[list], counts: dict, parent: int) -> None:
        """Adopt spans recorded in a child process under the span `parent`."""
        offset = len(self.spans)
        for _, sid, par, name, start, end in spans:
            self.spans.append(
                [self.run_id, sid + offset, parent if par is None else par + offset, name, start, end]
            )
        for key, value in counts.items():
            _bump(self.counts, key, value)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        children: dict[int, int] = defaultdict(int)
        for rec in self.spans:
            if rec[2] is not None:
                children[rec[2]] += rec[5] - rec[4]
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[3]] += (rec[5] - rec[4] - children[rec[1]]) / 1e9
        return dict(out)

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON (gzip-compressed when path ends in .gz)."""
        payload = {"counts": self.counts, "spans": self.spans}
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))

    @staticmethod
    def load(path: str) -> tuple[list[list], dict]:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
        return payload["spans"], payload["counts"]


class _Span:
    __slots__ = ("_tracer", "_name", "_rec")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> list:
        self._rec = self._tracer._open(self._name)
        return self._rec

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._rec)
