"""Command-line front end.

Subcommands: construct {periodic|aperiodic|debruijn}, verify, bound, search,
locate, tables.  Exit codes: 0 success, 1 property violation (the
counterexample is reported) or lookup miss, 2 usage or input error; never a
traceback.  All commands are deterministic; --json gives machine output.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import aperiodic, locator, periodic, search, seqio
from .join import debruijn_lempel
from .seqcore import BitsError, GeneratingCycle, PreconditionError, WindowRangeError, as_bits
from .verifier import verify_nwindow, verify_orientable

__all__ = ["main"]


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _load_seq(path: str, mode: Optional[str], order: Optional[int]):
    """The sequence in path, its mode and its order; flags override the header."""
    f = seqio.read_sequence(path)
    mode = mode or f.mode
    if mode is None:
        raise BitsError(f"{path} has no mode header; pass --mode periodic|aperiodic")
    order = order if order is not None else f.order
    if order is None:
        raise BitsError(f"{path} has no order header; pass --order")
    return (f.to_cycle() if mode == "periodic" else f.to_finite()), mode, order


def _report_construction(args, title: str, seq, order: int, trace=None) -> int:
    """Write the --out and --trace files, then print the sequence."""
    cyclic = isinstance(seq, GeneratingCycle)
    mode = "periodic" if cyclic else "aperiodic"
    bits = seq.bits
    if getattr(args, "out", None):
        seqio.write_sequence(args.out, bits, mode=mode, order=order)
    if getattr(args, "trace", None) and trace is not None:
        with open(args.trace, "w", encoding="ascii") as fh:
            json.dump(trace.as_dict(), fh, indent=2)
    size_name, size = ("period", seq.period) if cyclic else ("length", len(seq))
    payload = {"mode": mode, "order": order, size_name: size, "bits": bits}
    if trace is not None:
        payload["trace"] = trace.as_dict()
    _emit(args, payload, f"{title} order {order} {size_name} {size}\n{bits}")
    return 0


def _cmd_construct_periodic(args) -> int:
    if args.starter:
        f = seqio.read_sequence(args.starter)
        starter = f.to_cycle()
        n0 = args.starter_order if args.starter_order is not None else f.order
        if n0 is None:
            raise BitsError("starter file has no order header; pass --starter-order")
    else:
        starter, n0 = periodic.DEFAULT_STARTER, periodic.DEFAULT_STARTER_ORDER
    cycle, trace = periodic.build_orientable(starter, n0, args.target_order)
    return _report_construction(args, "orientable", cycle, args.target_order, trace)


def _cmd_construct_aperiodic(args) -> int:
    seq, trace = aperiodic.build_aos(args.target_order)
    return _report_construction(args, "aperiodic orientable", seq, args.target_order, trace)


def _cmd_construct_debruijn(args) -> int:
    return _report_construction(args, "de Bruijn", debruijn_lempel(args.order), args.order)


def _cmd_verify(args) -> int:
    seq, mode, order = _load_seq(args.file, args.mode, args.order)
    check = verify_orientable if args.property == "orientable" else verify_nwindow
    cx = check(seq, order)
    size = seq.period if isinstance(seq, GeneratingCycle) else len(seq)
    if cx is None:
        _emit(
            args,
            {"ok": True, "mode": mode, "order": order, "size": size},
            f"ok: {args.property} at order {order} ({mode}, size {size})",
        )
        return 0
    _emit(
        args,
        {"ok": False, "mode": mode, "order": order, "counterexample": cx.as_dict()},
        f"FAIL: windows at positions {cx.i} and {cx.j} collide ({cx.kind})",
    )
    return 1


def _cmd_bound(args) -> int:
    if args.aperiodic:
        value = aperiodic.burns_bound(args.order)
        which = "aperiodic length bound"
    else:
        value = periodic.dai_bound(args.order)
        which = "periodic period bound"
    _emit(
        args,
        {"order": args.order, "aperiodic": bool(args.aperiodic), "bound": value},
        f"{which} at order {args.order}: {value}",
    )
    return 0


def _cmd_search(args) -> int:
    initial = None
    if args.resume:
        with open(args.resume, encoding="ascii") as fh:
            prev = json.load(fh)
        if not isinstance(prev, dict):
            raise ValueError(f"{args.resume} does not hold a search result object")
        if prev.get("witness"):
            initial = (prev.get("value"), prev["witness"])
    find = search.max_orientable_period if args.mode == "periodic" else search.max_aos_length
    result = find(args.order, node_budget=args.budget, initial_best=initial)
    payload = {"mode": args.mode, "order": args.order, **result.as_dict()}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
    status = "exhaustive" if result.exhaustive else "budget-limited best"
    _emit(
        args,
        payload,
        f"{status} optimum at order {args.order} ({args.mode}): "
        f"{result.value}\n{result.witness}\nnodes: {result.nodes}",
    )
    return 0


def _cmd_locate(args) -> int:
    seq, _, order = _load_seq(args.seq, args.mode, args.order)
    if len(as_bits(args.window)) != order:
        raise ValueError(f"window has {len(args.window)} bits, expected {order}")
    try:
        hit = locator.find(seq, order, args.window)
    except PreconditionError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    if hit is None:
        _emit(args, {"found": False, "window": args.window}, "not found")
        return 1
    pos, orientation = hit
    _emit(
        args,
        {"found": True, "window": args.window, "position": pos, "orientation": orientation},
        f"position {pos}, reading {orientation}",
    )
    return 0


def _cmd_tables(args) -> int:
    """Bounds and family sizes by order; the sizes come from the closed forms
    the builders are tested against, so no sequence is built."""
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
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    columns = list(payload.values())[:4]
    print("order  period-bound  periodic-family  aperiodic-family  aperiodic-bound")
    for n in range(2, top):
        bound, per, length, aos_bound = (col.get(n, "-") for col in columns)
        print(f"{n:>5}  {bound:>12}  {per:>15}  {length:>16}  {aos_bound:>15}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientseq",
        description="Construct, verify, search, and decode orientable binary sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a sequence recursively")
    kinds = construct.add_subparsers(dest="kind", required=True)

    cp = kinds.add_parser("periodic", help="periodic orientable sequence")
    cp.add_argument("--target-order", type=int, required=True)
    cp.add_argument("--starter", help="sequence file with an alternative starter")
    cp.add_argument("--starter-order", type=int)
    cp.add_argument("--out", help="write the sequence to this file")
    cp.add_argument("--trace", help="write the construction trace JSON here")
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=_cmd_construct_periodic)

    ca = kinds.add_parser("aperiodic", help="finite orientable sequence")
    ca.add_argument("--target-order", type=int, required=True)
    ca.add_argument("--out")
    ca.add_argument("--trace")
    ca.add_argument("--json", action="store_true")
    ca.set_defaults(func=_cmd_construct_aperiodic)

    cd = kinds.add_parser("debruijn", help="de Bruijn sequence via the doubling recursion")
    cd.add_argument("--order", type=int, required=True)
    cd.add_argument("--out")
    cd.add_argument("--json", action="store_true")
    cd.set_defaults(func=_cmd_construct_debruijn)

    v = sub.add_parser("verify", help="check orientability of a sequence file")
    v.add_argument("file")
    v.add_argument("--order", type=int)
    v.add_argument("--mode", choices=["periodic", "aperiodic"])
    v.add_argument(
        "--property",
        choices=["orientable", "nwindow"],
        default="orientable",
        help="which window property to check (default: orientable)",
    )
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bound", help="upper bound on period or length")
    b.add_argument("--order", type=int, required=True)
    b.add_argument("--aperiodic", action="store_true")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bound)

    s = sub.add_parser("search", help="exhaustive maximum-sequence search")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--mode", choices=["periodic", "aperiodic"], default="periodic")
    s.add_argument("--budget", type=int, help="node budget (default: unlimited)")
    s.add_argument("--resume", help="seed from a previous search result JSON")
    s.add_argument("--out", help="write the result JSON here")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_search)

    lc = sub.add_parser("locate", help="look up one window's position and direction")
    lc.add_argument("--seq", required=True)
    lc.add_argument("--order", type=int)
    lc.add_argument("--mode", choices=["periodic", "aperiodic"])
    lc.add_argument("--window", required=True)
    lc.add_argument("--json", action="store_true")
    lc.set_defaults(func=_cmd_locate)

    t = sub.add_parser("tables", help="regenerate the bound and family tables")
    t.add_argument("--max-order", type=int, default=10)
    t.add_argument("--json", action="store_true")
    t.set_defaults(func=_cmd_tables)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, WindowRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
