"""Command-line front end.

Subcommands: construct {periodic|aperiodic|debruijn}, verify, bound, search,
locate, tables.  Exit codes: 0 success, 1 property violation (the
counterexample is reported) or lookup miss, 2 usage or input error, out of
memory, or interrupt by SIGINT or SIGTERM; never a traceback.  An output file
is written whole or not at all, under a temp name that replaces it on success.
Deterministic; --json gives machine output.  seqio reads a file's body as packed
bits, which _load_seq makes a cycle in periodic mode.  verify and locate pass
verifier.verify_orientable_near the default member of the file's size, rebuilt by
_certified, which certifies that member and checks any other file of its size at
the differing windows, any other window by window (as verify does --property
nwindow); locate refuses a non-orientable file.
"""
from __future__ import annotations

import argparse
import errno
import os
import signal
import sys
import threading
from contextlib import contextmanager, suppress
from typing import Iterator, Optional

# search, join, locator and json load only where they are used, so no other command
# pays for them.  The rest stay at module level, where the tests and the benchmark's
# tracer patch them.
from . import aperiodic, periodic, seqio
from .seqcore import BitsError, GeneratingCycle, PreconditionError, WindowRangeError
from .seqcore import as_bits, capped_size
from .verifier import verify_nwindow, verify_orientable_near

__all__ = ["main"]


def _emit(args, payload: dict, *lines: str) -> None:
    if args.json:
        import json
        lines = (json.dumps(payload, indent=2),)
    print(*lines, sep="\n")  # apart, so that a line of bits is not copied to join them


def _in_place(path: str) -> bool:
    """Whether _replacing writes path itself, with no temp sibling: a link, or a device."""
    return os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)


@contextmanager
def _replacing(path: Optional[str]) -> Iterator[Optional[str]]:
    """The name to write path's output under: a temp sibling, made before the work so that
    an unwritable path fails at once, which replaces path if the block ends normally and
    is removed if not.  A link, or a device such as /dev/null, is written in place."""
    if path is not None and os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if path is None or _in_place(path):
        yield path
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    open(tmp, "xb").close()
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _load_seq(path: str, mode: Optional[str], order: Optional[int], no_order: str = ""):
    """The sequence in path, its mode and its order; flags override the header,
    and no_order, if given, is the message when neither gives an order."""
    seq, file_mode, file_order = seqio.read_sequence(path)
    mode = mode or file_mode
    if mode is None:
        raise BitsError(f"{path} has no mode header; pass --mode periodic|aperiodic")
    order = order if order is not None else file_order
    if order is None:
        raise BitsError(no_order or f"{path} has no order header; pass --order")
    if order < 1:  # refused here, in the verifier's words, before any command reads seq
        raise WindowRangeError(f"window order must be >= 1, got {order}")
    if mode == "periodic":
        seq = GeneratingCycle._trusted(seq.value, len(seq))._require_minimal()
    return seq, mode, order


def _cmd_construct(args) -> int:
    """Build the sequence, write the --out and --trace files, then print it."""
    order, trace = args.target_order, None
    outputs = [os.path.realpath(path) for path in (args.out, getattr(args, "trace", None)) if path]
    if len(set(outputs)) < len(outputs) and not _in_place(outputs[0]):  # one temp name for both
        raise ValueError("--out and --trace name the same file")
    with _replacing(args.out) as out, _replacing(getattr(args, "trace", None)) as trace_out:
        if args.kind == "debruijn":
            from .join import debruijn_lempel

            title, seq = "de Bruijn", debruijn_lempel(order)
        elif args.kind == "aperiodic":
            title, (seq, trace) = "aperiodic orientable", aperiodic.build_aos(order)
        else:
            starter, n0 = periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER
            if args.starter_order is not None and not args.starter:
                raise ValueError("--starter-order needs --starter")
            if args.starter:
                starter, _, n0 = _load_seq(args.starter, "periodic", args.starter_order,
                                           "starter file has no order header; pass --starter-order")
            title, (seq, trace) = "orientable", periodic.build_orientable(starter, n0, order)
        mode = "aperiodic" if args.kind == "aperiodic" else "periodic"
        size_name = "period" if mode == "periodic" else "length"
        bits = seq.bits
        if out:
            seqio.write_sequence(out, bits, mode=mode, order=order)
        payload = {"mode": mode, "order": order, size_name: len(seq), "bits": bits}
        if trace is not None:
            payload["trace"] = {"steps": [s._asdict() for s in trace.steps]}
            if trace_out:
                import json
                with open(trace_out, "w", encoding="ascii") as fh:
                    json.dump(payload["trace"], fh, indent=2)
    _emit(args, payload, f"{title} order {order} {size_name} {len(seq)}", bits)
    return 0


def _certified(seq, mode: str, order: int):
    """The default member of mode at order, orientable by the families' proofs, where the
    closed forms give it seq's size, else None.  The closed forms answer in O(1) at any
    order; the member is rebuilt, through its builder's memory guard, only then."""
    if mode == "periodic":
        n0, m0 = periodic.DEFAULT_STARTER_ORDER, periodic.DEFAULT_STARTER.period
        predicted = lambda: periodic.predicted_period(m0, *divmod(order - n0, 2))
        build = lambda: periodic.build_orientable(periodic.DEFAULT_STARTER, n0, order)
    else:
        n0, m0 = aperiodic.DEFAULT_STARTER_ORDER, len(aperiodic.DEFAULT_STARTER)
        predicted = lambda: aperiodic.predicted_length(m0, n0, order - n0)
        build = lambda: aperiodic.build_aos(order)
    return build()[0] if order >= n0 and capped_size(order - n0, predicted) == len(seq) else None


def _cmd_verify(args) -> int:
    seq, mode, order = _load_seq(args.file, args.mode, args.order)
    # nwindow stays exact, so cli-session still times verify_nwindow (ROADMAP item 8).
    orientable = args.property == "orientable"
    member = _certified(seq, mode, order) if orientable else None
    cx = verify_orientable_near(seq, member, order) if orientable else verify_nwindow(seq, order)
    method = "certificate" if member == seq else "exact"
    payload = {"ok": cx is None, "mode": mode, "order": order, "method": method}
    if cx is None:
        payload["size"] = len(seq)
        _emit(args, payload, f"ok: {args.property} at order {order} ({mode}, size {len(seq)})")
        return 0
    payload["counterexample"] = cx._asdict()
    _emit(args, payload, f"FAIL: windows at positions {cx.i} and {cx.j} collide ({cx.kind})")
    return 1


def _require_printable(order: int, what: str) -> None:
    """Refuse an order whose sizes, below 2^(n-1) past order 6, would pass the int-to-str
    digit limit (Python's default where it is off or absent)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if order > (most := (10**digits).bit_length()):
        raise ValueError(f"{what} end at order {most} ({digits}-digit sizes), got {order}")


def _cmd_bound(args) -> int:
    _require_printable(args.order, "bounds")
    which = "aperiodic length" if args.aperiodic else "periodic period"
    value = (aperiodic.burns_bound if args.aperiodic else periodic.dai_bound)(args.order)
    payload = {"order": args.order, "aperiodic": args.aperiodic, "bound": value}
    _emit(args, payload, f"{which} bound at order {args.order}: {value}")
    return 0


def _cmd_search(args) -> int:
    from . import search

    if args.resume or args.out:
        import json
    initial = None
    if args.resume:
        with open(args.resume, encoding="ascii") as fh:
            prev = json.load(fh)
        if not isinstance(prev, dict):
            raise ValueError(f"{args.resume} does not hold a search result object")
        if prev.get("witness"):
            initial = (prev.get("value"), prev["witness"])
    find = search.max_orientable_period if args.mode == "periodic" else search.max_aos_length
    with _replacing(args.out) as out:  # after the resume was read: --out may name it
        result = find(args.order, node_budget=args.budget, initial_best=initial)
        payload = {"mode": args.mode, "order": args.order, **result._asdict()}
        if out:
            with open(out, "w", encoding="ascii") as fh:
                json.dump(payload, fh, indent=2)
    status = "exhaustive" if result.exhaustive else "budget-limited best"
    _emit(args, payload, f"{status} optimum at order {args.order} ({args.mode}): {result.value}",
          result.witness, f"nodes: {result.nodes}")
    return 0


def _cmd_locate(args) -> int:
    from . import locator

    seq, mode, order = _load_seq(args.seq, args.mode, args.order)
    if len(as_bits(args.window)) != order:
        raise ValueError(f"window has {len(args.window)} bits, expected {order}")
    member = _certified(seq, mode, order)
    try:
        hit = locator.find(seq, order, args.window, near=member)
    except PreconditionError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    if hit is None:
        _emit(args, {"found": False, "window": args.window}, "not found")
        return 1
    pos, orientation = hit
    payload = {"found": True, "window": args.window, "position": pos, "orientation": orientation}
    _emit(args, payload, f"position {pos}, reading {orientation}")
    return 0


def _cmd_tables(args) -> int:
    """Bounds and family sizes by order; the sizes come from the closed forms
    the builders are tested against, so no sequence is built."""
    _require_printable(args.max_order, "tables")
    top, a0 = args.max_order + 1, aperiodic.DEFAULT_STARTER_ORDER
    if top <= a0:
        raise PreconditionError(f"target order {args.max_order} below starter order {a0}")
    m0, n0 = len(periodic.DEFAULT_STARTER), periodic.DEFAULT_STARTER_ORDER
    ell0 = len(aperiodic.DEFAULT_STARTER)
    payload = {
        "period_bound": {n: periodic.dai_bound(n) for n in range(5, top)},
        "periodic_family": {
            n: periodic.predicted_period(m0, (n - n0) // 2, (n - n0) % 2) for n in range(n0, top)
        },
        "aperiodic_family": {
            n: aperiodic.predicted_length(ell0, a0, n - a0) for n in range(a0, top)
        },
        "aperiodic_bound": {n: aperiodic.burns_bound(n) for n in range(2, top)},
        "literature_aperiodic": aperiodic.BURNS_TABLE,
    }
    columns = list(payload.values())[:4]
    rows = ["order  period-bound  periodic-family  aperiodic-family  aperiodic-bound"]
    for n in range(2, top):
        bound, per, length, aos_bound = (col.get(n, "-") for col in columns)
        rows.append(f"{n:>5}  {bound:>12}  {per:>15}  {length:>16}  {aos_bound:>15}")
    _emit(args, payload, *rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientseq",
        description="Construct, verify, search, and decode orientable binary sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several subcommands, each declared once.
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true")
    built = argparse.ArgumentParser(add_help=False, parents=[json_opt])
    built.add_argument("--out", help="write the sequence to this file")
    family = argparse.ArgumentParser(add_help=False, parents=[built])
    family.add_argument("--target-order", type=int, required=True)
    family.add_argument("--trace", help="write the construction trace JSON here")
    from_file = argparse.ArgumentParser(add_help=False, parents=[json_opt])
    from_file.add_argument("--order", type=int)
    from_file.add_argument("--mode", choices=["periodic", "aperiodic"])

    construct = sub.add_parser("construct", help="build a sequence recursively")
    construct.set_defaults(func=_cmd_construct)
    kinds = construct.add_subparsers(dest="kind", required=True)
    cp = kinds.add_parser("periodic", parents=[family], help="periodic orientable sequence")
    cp.add_argument("--starter", help="sequence file with an alternative starter")
    cp.add_argument("--starter-order", type=int)
    kinds.add_parser("aperiodic", parents=[family], help="finite orientable sequence")
    cd = kinds.add_parser(
        "debruijn", parents=[built], help="de Bruijn sequence via the doubling recursion"
    )
    # Read as target_order, like the families' --target-order.
    cd.add_argument("--order", dest="target_order", metavar="ORDER", type=int, required=True)

    v = sub.add_parser(
        "verify", parents=[from_file], help="check orientability of a sequence file"
    )
    v.add_argument("file")
    v.add_argument(
        "--property",
        choices=["orientable", "nwindow"],
        default="orientable",
        help="which window property to check (default: orientable)",
    )
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bound", parents=[json_opt], help="upper bound on period or length")
    b.add_argument("--order", type=int, required=True)
    b.add_argument("--aperiodic", action="store_true")
    b.set_defaults(func=_cmd_bound)

    s = sub.add_parser("search", parents=[json_opt], help="exhaustive maximum-sequence search")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--mode", choices=["periodic", "aperiodic"], default="periodic")
    s.add_argument("--budget", type=int, help="node budget (default: unlimited)")
    s.add_argument("--resume", help="seed from a previous search result JSON")
    s.add_argument("--out", help="write the result JSON here")
    s.set_defaults(func=_cmd_search)

    lc = sub.add_parser(
        "locate", parents=[from_file], help="look up one window's position and direction"
    )
    lc.add_argument("--seq", required=True)
    lc.add_argument("--window", required=True)
    lc.set_defaults(func=_cmd_locate)

    t = sub.add_parser("tables", parents=[json_opt], help="regenerate the bound and family tables")
    t.add_argument("--max-order", type=int, default=10)
    t.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM interrupts the main thread as Ctrl-C does, so that temp outputs are removed.
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler) if main_thread else None
    try:
        return args.func(args)
    except (ValueError, WindowRangeError, OSError, MemoryError, RecursionError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
