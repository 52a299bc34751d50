"""Benchmark for orientseq: four workloads, checked outputs, per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1} [--smoke]

WORKLOAD is construct, cli-session, decode, search, or all (each of the four
in a fresh interpreter, one after another).  The run repeats the workload's
round for S seconds and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are its per-layer metrics, taken from one extra round traced after the
untraced ones.  ``--smoke`` runs the same code and checks at tiny sizes.

The exit code is 0 when every output check passed, 1 when one failed, and 2
when the library sources are missing.  See perfbench/NOTES.md for what each
metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("construct", "cli-session", "decode", "search")


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "git_sha": git_sha(),
    }


def layer_values(tracer, extras: dict, untraced_wall: float, traced_wall: float) -> dict:
    values = {f"{name}_s": sec for name, sec in tracer.self_seconds().items()}
    values.update(tracer.counts)
    values.update(extras)
    verify_s = values.get("verifier.orientable_s", 0.0) + values.get("verifier.nwindow_s", 0.0)
    values["verifier.windows_per_s"] = values.get("verifier.windows", 0) / verify_s if verify_s else 0.0
    lookups = values.get("locator.hits", 0) + values.get("locator.misses", 0)
    values["locator.hit_ratio"] = values.get("locator.hits", 0) / lookups if lookups else 0.0
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = len(tracer.spans)
    return values


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import orientseq

    if Path(orientseq.__file__).resolve().parent != (SRC / "orientseq").resolve():
        print(f"error: imported orientseq from {orientseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    env = environment(args)
    print("env: " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    checks = workloads.Checks()
    scale = workloads.SCALES["smoke" if args.smoke else "full"]
    try:
        wl = workloads.WORKLOADS[args.workload](scale, args.seed, workdir, checks)
        setup = wl.setup()
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            before = workloads.probe_seconds()
            rounds.append(wl.round())
            rounds[-1]["speed"] = workloads.speed_factor(before, workloads.probe_seconds())
            if len(rounds) == 1:
                # Later rounds can only add allocator fragmentation, and their
                # number depends on the machine's speed; the first round's
                # peak is the workload's.
                peak = workloads.peak_rss_mb(wl.rss_of)
        record = {"env": env}
        if args.trace:
            tracer = Tracer(f"{args.workload}:{args.seed}:traced")
            tracer.patch()
            t0 = time.perf_counter()
            try:
                extras = wl.traced_round(tracer)
            finally:
                traced_wall = time.perf_counter() - t0
                tracer.unpatch()
            untraced = workloads.median(r["wall"] for r in rounds)
            values = layer_values(tracer, extras, untraced, traced_wall)
            spans_file = OUT / f"spans-{tag}.json.gz"
            tracer.dump(str(spans_file))
            record.update(layer=values, spans=str(spans_file.relative_to(ROOT)))
            wanted = spec["per_layer"]
        else:
            values = {"peak_rss_mb": peak, **wl.end_to_end(rounds, setup)}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            named = {k: (values[k], units[k]) for k in ("wall_s", "setup_s", "peak_rss_mb")}
            named.update(wl.named(values, rounds))
            named["wall_s_unscaled"] = (workloads.median(r["wall"] for r in rounds), "s")
            named["speed_factor"] = (workloads.median(r["speed"] for r in rounds), "ratio")
            named["error_ratio"] = (checks.failed / max(checks.attempted, 1), "ratio")
            print("named: " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
            record.update(named=named, rounds=rounds, setup_samples=setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir)

    # A layer the workload leaves idle reads 0; every end-to-end metric must be measured.
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
              "failed": checks.failed, "metrics": metrics}
    record.update(result=result, failures=checks.messages)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"checks: attempted={checks.attempted} failed={checks.failed} rounds={len(rounds)}")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own interpreter, so each peak RSS is that workload's alone."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    named: dict[str, dict] = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
            if line.startswith("named: "):
                named[name] = json.loads(line[len("named: "):])
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"[{name}] failed with exit code {proc.returncode}", file=sys.stderr)
            code = 1
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    for name, metrics in named.items():
        for metric, v in metrics.items():
            print(f"{name:<12} {metric:<22} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "orientseq" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
