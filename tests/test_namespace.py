"""The package namespace loads on first use, and each CLI command loads only
the modules it runs, and neither dataclasses nor inspect, nor json unless it
reads or writes JSON.  Each case runs in a fresh interpreter, since sys.modules
of the test process already holds every module."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orientseq.aperiodic import build_aos
from orientseq.periodic import DEFAULT_STARTER, DEFAULT_STARTER_ORDER, build_orientable
from orientseq.seqio import write_sequence

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The names ``from orientseq import *`` binds: the public functions and
#: classes, and the submodules they come from.
EXPORTED = [
    "BitsError", "ConstructionTrace", "Counterexample", "FiniteSeq", "GeneratingCycle",
    "InverseImage", "LocatorIndex", "NonMinimalPeriodError", "PreconditionError",
    "SearchResult", "TraceStep", "WindowRangeError", "aos_from_periodic", "aperiodic",
    "build_aos", "build_index", "build_orientable", "burns_bound", "d_forward_aperiodic",
    "d_forward_periodic", "d_inverse_aperiodic", "d_inverse_periodic", "dai_bound",
    "debruijn_lempel", "extend_odd", "find", "find_conjugate_positions", "is_good",
    "is_ideal", "join", "join_at", "lempel", "locate", "locator", "max_aos_length",
    "max_orientable_period", "merge_step", "periodic", "predicted_length",
    "predicted_period", "search", "seqcore", "verifier", "verify_disjoint",
    "verify_nwindow", "verify_o_disjoint", "verify_orientable", "verify_primitive",
]
SUBMODULES = ["aperiodic", "join", "lempel", "locator", "periodic", "search", "seqcore", "verifier"]


def run_python(code: str, *args: str, cwd=None) -> str:
    """stdout of a fresh interpreter running code, with the checkout's src first on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule():
    out = run_python(
        "import sys, orientseq\n"
        "print(sorted(m for m in sys.modules if m.startswith('orientseq')))"
    )
    assert out.strip() == "['orientseq']"


def test_every_name_resolves_to_its_defining_object():
    out = run_python(
        "import importlib, json, orientseq\n"
        f"subs = {SUBMODULES!r}\n"
        "bad = [m for m in subs if getattr(orientseq, m) is not "
        "importlib.import_module('orientseq.' + m)]\n"
        f"for name in {EXPORTED!r}:\n"
        "    value = getattr(orientseq, name)\n"
        "    if name not in subs and getattr(importlib.import_module(value.__module__), name) "
        "is not value:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))"
    )
    assert json.loads(out) == []


def test_star_import_binds_exactly_the_exported_names():
    out = run_python(
        "import json\n"
        "ns = {}\n"
        "exec('from orientseq import *', ns)\n"
        "print(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    )
    assert json.loads(out) == EXPORTED


def test_dir_lists_every_exported_name():
    import orientseq

    assert set(EXPORTED) <= set(dir(orientseq))


def test_unknown_name_raises_attribute_error():
    import orientseq

    with pytest.raises(AttributeError, match="^module 'orientseq' has no attribute 'nope'$"):
        orientseq.nope  # noqa: B018
    with pytest.raises(ImportError):
        from orientseq import nope  # noqa: F401


OPTIONAL = {"orientseq.search", "orientseq.join", "orientseq.locator"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A periodic and an aperiodic family member, each as a sequence file."""
    d = tmp_path_factory.mktemp("footprint")
    p8, _ = build_orientable(DEFAULT_STARTER, DEFAULT_STARTER_ORDER, 8)
    write_sequence(d / "p8.seq", p8.bits, mode="periodic", order=8)
    a8, _ = build_aos(8)
    write_sequence(d / "a8.seq", a8.bits, mode="aperiodic", order=8)
    return d, p8.bits[3:11]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["bound", "--order", "9"], set()),
        (["bound", "--order", "9", "--aperiodic"], set()),
        (["tables", "--max-order", "12"], set()),
        (["construct", "periodic", "--target-order", "9"], set()),
        (["construct", "aperiodic", "--target-order", "9"], set()),
        (["verify", "p8.seq"], set()),
        (["verify", "a8.seq", "--property", "nwindow"], set()),
        (["locate", "--seq", "p8.seq", "--window", "WINDOW"], {"orientseq.locator"}),
        (["construct", "debruijn", "--order", "6"], {"orientseq.join"}),
        (["search", "--order", "5", "--budget", "1000"], {"orientseq.search"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_command_loads_only_what_it_runs(files, argv, loaded):
    cwd, window = files
    argv = [window if a == "WINDOW" else a for a in argv]
    # sys.modules is read before the harness imports json to print it.
    out = run_python(
        "import contextlib, io, sys\n"
        "from orientseq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, [m for m in modules if m.startswith('orientseq.')],\n"
        "                  [m for m in ('dataclasses', 'inspect', 'json') if m in modules]]))",
        *argv, cwd=cwd,
    )
    code, modules, heavy = json.loads(out)
    assert code == 0
    assert OPTIONAL & set(modules) == loaded
    # dataclasses imports inspect, and inspect ast, dis and tokenize: 6-12 ms a process;
    # json and its decoder and encoder 2.5-3.5 ms.
    assert heavy == []
